"""The JSON format of instances and reports; no other module imports json.

Writer: ``dump_report`` (sorted keys, indent 2) writes a complex number as
``complex_pair``, the reprs [re, im], which keeps reports bit-reproducible,
a ``Fraction`` as "p/q" and a dataclass as its fields.  Reader:
``parse_json`` and ``read_json`` (a UTF-8 file) raise the caller's error
class on any failure, an integer beyond Python's digit limit or bytes that
are not UTF-8 included.  Instance files carry rationals as integers or
"p/q" strings and reject unknown keys outright: a misspelled field must
fail loudly, never fall back to a default.
"""

import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .cycles import Cycle
from .errors import InputError, MalformedReport
from .melnikov import Instance
from .poly import RatPoly, as_fraction

INSTANCE_KEYS = {"f", "g", "cycle", "epsilon", "seed", "precision_bits"}


def complex_pair(z):
    """The report form of a complex number: [repr(re), repr(im)]."""
    return [repr(float(z.real)), repr(float(z.imag))]


def _encode(value):
    if isinstance(value, complex):  # numpy's complex128 is a subclass
        return complex_pair(value)
    if isinstance(value, Fraction):
        return str(value)
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"{type(value).__name__} is not part of a report")


def dump_report(report):
    """Serialize a report deterministically (sorted keys, repr floats); an
    integer beyond Python's digit limit raises InputError, a NaN does not."""
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                          default=_encode)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise InputError("the report holds an integer beyond Python's limit "
                         f"of {sys.get_int_max_str_digits()} digits") from exc


def parse_json(text, error, message):
    """Parse ``text``; a failure raises ``error("<message>: <reason>")``."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise error(f"{message}: {exc}") from exc


def read_json(path, error, name):
    """Parse the UTF-8 JSON file ``path``, called ``name`` in messages."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {name} {path}: {exc}") from exc
    except ValueError as exc:
        raise error(f"{name} {path} is not valid JSON: {exc}") from exc


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
    return instance_from_dict(read_json(path, InputError, "instance file"))


def instance_to_dict(inst, seed=0):
    return {"f": inst.f.coeffs, "g": inst.g.coeffs,
            "cycle": inst.cycle.weights, "epsilon": inst.epsilon, "seed": seed}


def load_report(path):
    data = read_json(path, MalformedReport, "report")
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
