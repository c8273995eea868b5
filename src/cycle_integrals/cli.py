"""Command-line front end.

Exit codes: 0 success, 2 precondition/validation failure (the message
names the failing certificate or field), 3 numerical failure (the oracle
fit failed at every precision of its ladder, or a continuation could not
be certified).  Every report embeds the numerical constants of
``config.DEFAULT``, which no flag overrides, and a seed: the one given to
``experiment``, the only command that draws random inputs; the instance
file's for ``tangential``, ``infinitesimal`` and ``alien``; 0 otherwise.
A report's ``command`` is the subcommand that wrote it.

The parser is built once per process, on the first call of ``main``, so
importing this module builds nothing and later calls only parse.  Each
subcommand is declared once, with its handler as the ``run`` default.
"""

import argparse
import cmath
import functools
import sys
from dataclasses import replace

from . import __version__
from .config import DEFAULT
from .counting import (classify_alien, count_infinitesimal_zeros,
                       count_tangential_zeros, run_sharpness_experiment)
from .cycles import (Cycle, bound_infinitesimal, bound_simple, bound_tangential,
                     regular_at_infinity, symmetry_group)
from .errors import InputError, MalformedReport, NumericalError
from .melnikov import (brieskorn_dimension, brieskorn_generators,
                       design_g_with_zeros, reduce_deformation)
from .serialize import (dump_report, instance_to_dict, load_instance,
                        load_report, parse_fraction_list, parse_json,
                        parse_poly, parse_rational)
from .tracking import monodromy


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cycle-integrals",
        description="Count and certify zeros of abelian integrals and "
                    "displacement functions on zero-cycles. Cycle weights "
                    "are interpreted against the fiber ordered "
                    "lexicographically by (re, im) at the basepoint.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tangential", help="count zeros of the first-order integral")
    p.add_argument("--instance", required=True)
    p.set_defaults(run=_cmd_tangential)

    p = sub.add_parser("infinitesimal", help="count zeros of the displacement")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", help="override the instance epsilon (rational)")
    p.set_defaults(run=_cmd_infinitesimal)

    p = sub.add_parser("alien", help="classify displacement zeros as regular or alien")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True,
                   help="decreasing epsilon list, e.g. 1/50,1/100,1/200")
    p.set_defaults(run=_cmd_alien)

    p = sub.add_parser("bounds", help="closed-form sharp bounds for degrees (m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_bounds)

    p = sub.add_parser("certify-cycle", help="symmetry and infinity certificates")
    p.add_argument("--cycle", required=True, help="JSON integer array")
    p.add_argument("--n", type=int, required=True, help="deformation degree")
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("reduce", help="strip multiples of powers of f from g")
    p.add_argument("--f", required=True, help="JSON coefficient array, ascending")
    p.add_argument("--g", required=True)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("monodromy", help="fiber permutations around critical values")
    p.add_argument("--f", required=True)
    p.add_argument("--basepoint",
                   help="complex basepoint 're,im'; write a negative one as "
                        "--basepoint=-0.125,0")
    p.add_argument("--real-order", action="store_true",
                   help="order an all-real fiber increasingly")
    p.set_defaults(run=_cmd_monodromy)

    p = sub.add_parser("brieskorn", help="dimension and generators of the modulus")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", help="JSON coefficient array (for explicit generators)")
    p.set_defaults(run=_cmd_brieskorn)

    p = sub.add_parser("design-g", help="deformation with prescribed integral zeros")
    p.add_argument("--f", required=True)
    p.add_argument("--cycle", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--targets", required=True,
                   help="comma-separated complex targets, e.g. 1,2 or 1+2j")
    p.set_defaults(run=_cmd_design)

    p = sub.add_parser("experiment", help="randomized sharpness suite")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["tangential", "infinitesimal"],
                   default="tangential")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--cycle-mode", choices=["generic", "simple"], default="generic")
    p.add_argument("--epsilon", default="1/100")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(run=_cmd_experiment)

    p = sub.add_parser("plot-data", help="point sets from a prior report")
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(run=_cmd_plot_data)

    # added last, so that it ends every usage line
    for p in sub.choices.values():
        p.add_argument("--output",
                       help="write the JSON report here instead of stdout")
    return parser


def _write(text, path):
    """Print ``text``, or write it and a final newline to ``path``."""
    if path is None:
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise InputError(f"cannot write --output {path}: {exc}") from exc


def _emit(args, payload, seed=0):
    payload["command"] = args.command
    payload["config"] = DEFAULT
    payload["seed"] = seed
    _write(dump_report(payload), args.output)
    return 0


def _json_array(text, field):
    data = parse_json(text, InputError, f"{field} must be a JSON array")
    if not isinstance(data, list):
        raise InputError(f"{field} must be a JSON array")
    return data


def _parse_complex_list(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            try:
                z = complex(part)
            except ValueError as exc:
                raise InputError(f"bad complex target {part!r}") from exc
            if not cmath.isfinite(z):
                raise InputError(f"complex target {part!r} is not finite")
            out.append(z)
    if not out:
        raise InputError(f"no complex target in {text!r}")
    return out


def _parse_basepoint(text):
    parts = text.split(",")
    try:
        if len(parts) > 2:
            raise ValueError(f"{len(parts)} parts")
        point = complex(*map(float, parts))
    except ValueError as exc:
        raise InputError(f"bad --basepoint {text!r}: expected 're,im'") from exc
    if not cmath.isfinite(point):
        raise InputError(f"--basepoint {text!r} is not finite")
    return point


def _cmd_tangential(args):
    inst, seed = load_instance(args.instance)
    report = count_tangential_zeros(inst)
    payload = {"instance": instance_to_dict(inst, seed),
               "result": report.as_dict()}
    return _emit(args, payload, seed)


def _cmd_infinitesimal(args):
    inst, seed = load_instance(args.instance)
    if args.epsilon is not None:
        inst = replace(inst, epsilon=parse_rational(args.epsilon, "--epsilon"))
    report = count_infinitesimal_zeros(inst)
    payload = {"instance": instance_to_dict(inst, seed),
               "result": report.as_dict()}
    return _emit(args, payload, seed)


def _cmd_alien(args):
    inst, seed = load_instance(args.instance)
    schedule = parse_fraction_list(args.schedule)
    # the report states the epsilon that classify_alien counts at
    inst = replace(inst, epsilon=schedule[-1])
    report = classify_alien(inst, schedule)
    payload = {"instance": instance_to_dict(inst, seed), "result": report}
    return _emit(args, payload, seed)


def _cmd_bounds(args):
    payload = {"m": args.m, "n": args.n,
               "result": {"tangential": bound_tangential(args.m, args.n),
                          "infinitesimal": bound_infinitesimal(args.m, args.n),
                          "simple": bound_simple(args.m, args.n)}}
    return _emit(args, payload)


def _cmd_certify(args):
    weights = _json_array(args.cycle, "--cycle")
    cycle = Cycle(weights)
    cert = regular_at_infinity(cycle, args.n)
    group = symmetry_group(cycle)
    payload = {"cycle": list(cycle.weights), "n": args.n,
               "result": {"certificate": cert.as_dict(),
                          "symmetry_order": group.order,
                          "is_simple": cycle.is_simple,
                          "is_asymmetric": group.order == 1}}
    return _emit(args, payload)


def _cmd_reduce(args):
    f = parse_poly(_json_array(args.f, "--f"), "f")
    g = parse_poly(_json_array(args.g, "--g"), "g")
    g_tilde, subtracted = reduce_deformation(f, g)
    payload = {"result": {"g_tilde": g_tilde.coeffs,
                          "degree": g_tilde.degree,
                          "subtracted": [{"coefficient": a, "power": k}
                                         for a, k in subtracted]}}
    return _emit(args, payload)


def _cmd_monodromy(args):
    f = parse_poly(_json_array(args.f, "--f"), "f")
    basepoint = (None if args.basepoint is None
                 else _parse_basepoint(args.basepoint))
    rep = monodromy(f, basepoint=basepoint,
                    ordering="real" if args.real_order else "lex")
    payload = {"f": f.coeffs, "result": rep.as_dict()}
    return _emit(args, payload)


def _cmd_brieskorn(args):
    result = {}
    if args.f:
        f = parse_poly(_json_array(args.f, "--f"), "f")
        if args.m is not None and args.m != f.degree:
            raise InputError("--m disagrees with deg f")
        basis = brieskorn_generators(f, args.n)
        result["dimension"] = basis.dimension
        result["generators"] = [gen.coeffs for gen in basis.generators]
        result["generator_degrees"] = [gen.degree for gen in basis.generators]
        m = f.degree
    else:
        if args.m is None:
            raise InputError("brieskorn needs --m or --f")
        m = args.m
        result["dimension"] = brieskorn_dimension(m, args.n)
    return _emit(args, {"m": m, "n": args.n, "result": result})


def _cmd_design(args):
    f = parse_poly(_json_array(args.f, "--f"), "f")
    cycle = Cycle(_json_array(args.cycle, "--cycle"))
    targets = _parse_complex_list(args.targets)
    g = design_g_with_zeros(f, cycle, targets, args.n)
    payload = {"result": {"g": g.coeffs, "targets": targets,
                          "dimension": brieskorn_dimension(f.degree, args.n)}}
    return _emit(args, payload)


def _cmd_experiment(args):
    summary = run_sharpness_experiment(
        args.m, args.n, args.kind, args.trials, args.seed,
        cycle_mode=args.cycle_mode,
        epsilon=parse_rational(args.epsilon, "--epsilon"))
    return _emit(args, {"result": summary}, args.seed)


def _plot_rows(report):
    command = report.get("command")
    result = report.get("result")
    if not isinstance(result, dict):
        raise MalformedReport("report has no result object")
    try:
        if command in ("tangential", "infinitesimal"):
            rows = [(float(z["t"][0]), float(z["t"][1]), z["multiplicity"],
                     "regular")
                    for z in result.get("distinct_regular_zeros", [])]
            rows += [(float(t[0]), float(t[1]), 0, "excluded")
                     for t in result.get("excluded_near_critical", [])]
            return ["re_t", "im_t", "multiplicity", "class"], rows
        if command == "alien":
            header = ["branch", "epsilon", "re_t", "im_t", "class"]
            rows = []
            for idx, branch in enumerate(result.get("branches", [])):
                eps = result["epsilon_schedule"]
                traj = branch["trajectory"]
                # a trajectory is aligned at the smallest epsilon
                offset = len(eps) - len(traj)
                if offset < 0:
                    raise MalformedReport(
                        f"branch {idx} trajectory is longer than the schedule")
                for k, point in enumerate(traj):
                    rows.append((idx, eps[offset + k], float(point[0]),
                                 float(point[1]), branch["class"]))
            return header, rows
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise MalformedReport(f"malformed {command} report: {exc!r}") from exc
    raise MalformedReport(f"no plot data for command {command!r}")


def _cmd_plot_data(args):
    report = load_report(args.report)
    header, rows = _plot_rows(report)
    if args.format == "json":
        payload = {"result": {"header": header,
                              "rows": [list(r) for r in rows]}}
        return _emit(args, payload)
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    _write("\n".join(lines), args.output)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
