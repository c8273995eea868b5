"""Regenerate the copied inputs of the benchmark.

    python3 perfbench/regen_literals.py           # the literal draws
    python3 perfbench/regen_literals.py --pool    # rewrite perfbench/pool.json

The literal draws of `workloads.py` are copied from the randomized suites of
the acceptance tests: the seed-2026 (4,3) tangential suite (criteria 3 and
8), the seed-77 (4,3) simple-cycle suite and the criterion-6 partition
trials.  The first form draws them again from the program's own generators
and prints each with the program's count and the independent count (about
30 s).

The second form rebuilds the pools the seeded draws are picked from: for
each pool it takes the benchmark's candidate draws in order, runs the
program on each and keeps the first POOL_SIZE whose output passes its
check.  It prints every candidate it leaves out, with the reason (about a
minute).
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import json

import independent as ind
import workloads
from cycle_integrals.config import DEFAULT
from cycle_integrals.counting import (_draw_cycle, _random_morse_poly, _random_poly,
                                      classify_alien, count_tangential_zeros)
from cycle_integrals.cycles import random_generic_cycle
from cycle_integrals.melnikov import Instance

SCHEDULE = [Fraction(1, 50), Fraction(1, 100), Fraction(1, 200)]
POOL_SIZE = 24


def show(values):
    return "[" + ", ".join(str(v) for v in values) + "]"


def suite(m, n, seed, mode, trials):
    """The draws of run_sharpness_experiment(m, n, 'tangential', ...)."""
    for trial in trials:
        rng = random.Random(f"{seed}:{trial}")
        f = _random_morse_poly(rng, m, DEFAULT)
        g = _random_poly(rng, n)
        cycle = _draw_cycle("tangential", mode, m, n, f, g,
                            f"{seed}:{trial}:cycle", DEFAULT)
        report = count_tangential_zeros(Instance(f, g, cycle))
        roots, _ = ind.tangential_count(f.coeffs, g.coeffs, cycle.weights)
        mult = ind.symmetry_multiplicity(cycle.weights)
        verdict = "ok" if roots == report.count * mult else "WRONG"
        print(f"({m},{n}) {mode} seed {seed} trial {trial}: f={show(f.coeffs)} "
              f"g={show(g.coeffs)} cycle={cycle.weights} count={report.count} "
              f"independent={roots}/{mult} dps={report.precision_dps} {verdict}")


def partition(trials):
    """The draws of criterion 6 (its cycle label is one past the trial)."""
    for trial in trials:
        rng = random.Random(f"partition:{trial}")
        f = _random_morse_poly(rng, 3, DEFAULT)
        g = _random_poly(rng, 4)
        cycle = random_generic_cycle(3, 4, f"partition:{trial + 1}:c")
        report = classify_alien(Instance(f, g, cycle, epsilon=SCHEDULE[1]), SCHEDULE)
        ends = sorted(b["matched"] for b in report.branches)
        print(f"(3,4) partition trial {trial}: f={show(f.coeffs)} g={show(g.coeffs)} "
              f"cycle={cycle.weights} regular={report.regular_count} "
              f"alien={report.alien_count} ends={ {e: ends.count(e) for e in set(ends)} }")


def pools():
    out = {}
    for name in workloads.POOLS:
        kept, k = [], 0
        while len(kept) < POOL_SIZE:
            f, g, weights = workloads.pool_candidate(name, k)
            op = workloads.pool_op(name, name, f, g, weights)
            try:
                problem = op.check(op.call())
            except Exception as exc:   # a raising candidate is left out too
                problem = f"raised {type(exc).__name__}: {exc}"
            if problem is None:
                kept.append({"candidate": k, "f": [str(c) for c in f],
                             "g": [str(c) for c in g], "cycle": list(weights)})
            else:
                print(f"{name} candidate {k} left out: f={show(f)} g={show(g)} "
                      f"cycle={weights}: {problem}")
            k += 1
        print(f"{name}: kept {len(kept)} of {k} candidates")
        out[name] = kept
    with open(workloads.POOL_FILE, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--pool"]:
        pools()
    else:
        suite(4, 3, 2026, "generic", [0, 14, 18, 19])
        suite(4, 3, 77, "simple", [0, 2])
        partition([0, 3, 15])
