"""Spans around the public names of `cycle_integrals`, for the traced run.

Each name is wrapped where the importing module binds it, so one function
can carry a different span name per caller: `roots_raw` as bound in
`melnikov` (the double-precision oracle fibers), in `counting` (epsilon
continuation) and in `tracking` (path tracking).  Spans are kept in memory
as (name, start, end, parent) and written out when the run ends.
"""

import functools
import json
import math
import time

import independent as ind
from cycle_integrals import cli, counting, cycles, melnikov, tracking

# (module, attribute, span name)
WRAPPED = (
    (melnikov, "roots_raw", "poly.roots_raw.oracle"),
    (counting, "roots_raw", "poly.roots_raw.continuation"),
    (tracking, "roots_raw", "poly.roots_raw.tracking"),
    (melnikov, "critical_values", "poly.critical_values"),
    (counting, "critical_values", "poly.critical_values"),
    (tracking, "critical_values", "poly.critical_values"),
    (melnikov, "aberth_mp", "precision.aberth_mp"),
    (melnikov, "dft_fit_mp", "precision.dft_fit_mp"),
    (counting, "build_tangential_oracle", "melnikov.build_tangential_oracle"),
    (counting, "build_infinitesimal_oracle", "melnikov.build_infinitesimal_oracle"),
    (cli, "design_g_with_zeros", "melnikov.design_g_with_zeros"),
    (cycles, "symmetry_group", "cycles.symmetry_group"),
    (melnikov, "symmetry_group", "cycles.symmetry_group"),
    (counting, "symmetry_group", "cycles.symmetry_group"),
    (cli, "symmetry_group", "cycles.symmetry_group"),
    (cycles, "regular_at_infinity", "cycles.regular_at_infinity"),
    (counting, "regular_at_infinity", "cycles.regular_at_infinity"),
    (cli, "regular_at_infinity", "cycles.regular_at_infinity"),
    (tracking, "monodromy", "tracking.monodromy"),
    (cli, "monodromy", "tracking.monodromy"),
    (tracking, "track_path", "tracking.track_path"),
    (tracking, "solve_fiber", "tracking.solve_fiber"),
    (melnikov, "solve_fiber", "tracking.solve_fiber"),
    (counting, "count_tangential_zeros", "counting.count_tangential_zeros"),
    (cli, "count_tangential_zeros", "counting.count_tangential_zeros"),
    (counting, "count_infinitesimal_zeros", "counting.count_infinitesimal_zeros"),
    (cli, "count_infinitesimal_zeros", "counting.count_infinitesimal_zeros"),
    (counting, "classify_alien", "counting.classify_alien"),
    (cli, "classify_alien", "counting.classify_alien"),
    (cli, "dump_report", "serialize.dump_report"),
    (cli, "load_instance", "serialize.load_instance"),
    (cli, "load_report", "serialize.load_report"),
    (cli, "main", "cli.main"),
)

SPAN_NAMES = sorted({name for _, _, name in WRAPPED})
DPS_LEVELS = ("double", "40", "60", "80", "120", "160", "240", "320")


def metric_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"melnikov.oracle_dps.{level}" for level in DPS_LEVELS]
    names += ["melnikov.oracle_dps.other", "melnikov.radius_growths",
              "trace.overhead_s"]
    return names


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or None)
        self._stack = []
        self._patches = []
        self.counters = {f"melnikov.oracle_dps.{level}": 0
                         for level in DPS_LEVELS + ("other",)}
        self.counters["melnikov.radius_growths"] = 0

    def _wrap(self, module, attr, name, on_result=None):
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def install(self):
        for module, attr, name in WRAPPED:
            hook = None
            if attr == "build_tangential_oracle":
                hook = self._oracle_hook(False)
            elif attr == "build_infinitesimal_oracle":
                hook = self._oracle_hook(True)
            self._wrap(module, attr, name, hook)

    def remove(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _oracle_hook(self, deformed):
        """Count oracles by final precision and sampling-radius growth."""
        def hook(oracle, args, kwargs):
            dps = oracle.precision_dps
            level = "double" if dps is None else str(dps)
            key = f"melnikov.oracle_dps.{level if level in DPS_LEVELS else 'other'}"
            self.counters[key] += 1
            inst = args[0]
            settings = args[1] if len(args) > 1 else kwargs.get(
                "settings", melnikov.DEFAULT)
            f = [complex(c) for c in inst.f.coeffs]
            if deformed:
                g = [complex(c) for c in inst.g.coeffs]
                f = ind.deformed(f, g, float(inst.epsilon))
            crit = ind.critical_values(ind.as_complex(f))
            base = settings.radius_factor * (1.0 + max(abs(c) for c in crit))
            if oracle.radius > base:
                # growth steps are factors of 8 (or a jump to 4x the
                # farthest zero); count them as rounded powers of 8
                self.counters["melnikov.radius_growths"] += round(
                    math.log(oracle.radius / base, 8))
        return hook

    def layer_metrics(self, rounds):
        """Calls and self time per span name, per round."""
        calls = {name: 0 for name in SPAN_NAMES}
        total = {name: 0.0 for name in SPAN_NAMES}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            total[name] += (end - start) - covered
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.self_s"] = total[name] / rounds
        for key, value in self.counters.items():
            out[key] = value / rounds
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, handle)

