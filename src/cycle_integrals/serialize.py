"""Strict JSON (de)serialization for instances and reports.

Instance files carry rationals as integers or "p/q" strings and reject
unknown keys outright: a misspelled field must fail loudly, never fall
back to a default.  Complex values are emitted as [re, im] pairs of
decimal strings produced by repr, which keeps reports bit-reproducible.
"""

import json

from .cycles import Cycle
from .errors import InputError, MalformedReport
from .melnikov import Instance
from .poly import RatPoly, as_fraction

INSTANCE_KEYS = {"f", "g", "cycle", "epsilon", "seed", "precision_bits"}


def parse_rational(value, field):
    if isinstance(value, bool):
        raise InputError(f"field {field!r}: booleans are not rationals")
    if isinstance(value, (int, str)):
        try:
            return as_fraction(value)
        except (InputError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"field {field!r}: bad rational {value!r}") from exc
    raise InputError(f"field {field!r}: rationals must be integers or 'p/q' "
                     f"strings, got {type(value).__name__}")


def parse_poly(values, field):
    if not isinstance(values, list):
        raise InputError(f"field {field!r} must be a coefficient array "
                         "(ascending degree)")
    return RatPoly([parse_rational(v, field) for v in values])


def instance_from_dict(data):
    if not isinstance(data, dict):
        raise InputError("instance file must hold a JSON object")
    unknown = set(data) - INSTANCE_KEYS
    if unknown:
        raise InputError(f"unknown instance fields: {sorted(unknown)}")
    for key in ("f", "g", "cycle"):
        if key not in data:
            raise InputError(f"instance file missing field {key!r}")
    f = parse_poly(data["f"], "f")
    g = parse_poly(data["g"], "g")
    if not isinstance(data["cycle"], list):
        raise InputError("field 'cycle' must be an integer array")
    cycle = Cycle(data["cycle"])
    epsilon = data.get("epsilon")
    if epsilon is not None:
        epsilon = parse_rational(epsilon, "epsilon")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError("field 'seed' must be an integer")
    if data.get("precision_bits") is not None:
        raise InputError("field 'precision_bits' must be null: the oracles "
                         "choose their own precision")
    return Instance(f, g, cycle, epsilon=epsilon), seed


def load_instance(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"instance file {path} is not valid JSON: {exc}") from exc
    return instance_from_dict(data)


def instance_to_dict(inst, seed=0):
    return {
        "f": [str(c) for c in inst.f.coeffs],
        "g": [str(c) for c in inst.g.coeffs],
        "cycle": list(inst.cycle.weights),
        "epsilon": None if inst.epsilon is None else str(inst.epsilon),
        "seed": seed,
    }


def dump_report(report):
    """Serialize a report dict deterministically (sorted keys, repr floats)."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise MalformedReport(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedReport(f"report {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedReport("report must be a JSON object")
    return data


def parse_fraction_list(text):
    """Comma-separated rationals of a --schedule, e.g. '1/50,1/100,1/200'."""
    out = [parse_rational(part, "--schedule") for part in text.split(",")
           if part.strip()]
    if not out:
        raise InputError("empty rational list")
    return out
