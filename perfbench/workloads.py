"""The four workloads: their inputs, made from the seed, and their rounds.

A workload is a list of `Op`s, one round.  Every run attempts whole rounds,
so the share of failed operations is the same in every run.  An op calls one
public function of `cycle_integrals`, looked up on its module at call time so
that the traced run sees the wrapped name; its check runs outside the timed
region.
"""

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import checks
import independent as ind
from cycle_integrals import cli, counting
from cycle_integrals.cycles import Cycle
from cycle_integrals.melnikov import Instance
from cycle_integrals.poly import RatPoly

SCHEDULE = (F(1, 50), F(1, 100), F(1, 200))

# Literal draws from the randomized suites of the acceptance tests, as
# (f, g, cycle); `python3 perfbench/regen_literals.py` draws them again.
#
# Trial 0 of the seed-2026 (4,3) tangential suite (criteria 3 and 8); it
# settles at 40 digits.
GENERIC_43 = ([F(10, 3), -2, 10, F(7, 3), 1], [-2, -4, -3, -2], (7, 4, -6, -5))
# Trials 14, 18 and 19 of the same suite.  count_tangential_zeros counts them
# wrong: it clusters zeros at 1e-6 times the grown sampling radius
# (counting.py:170), which merges distinct zeros, and reports 16, 14 and 2
# where the argument principle finds 18.
CLUSTER_FAULT_43 = (
    (14, [3, -9, -1, -5, 1], [-7, 1, -8, F(-7, 3)], (-3, 7, -8, 4)),
    (18, [2, F(9, 2), F(7, 3), F(-11, 3), 1], [F(-7, 2), -1, 7, 2], (-6, 0, 2, 4)),
    (19, [F(3, 2), -7, F(10, 3), -1, 1], [-1, -9, 10, 2], (-7, 5, 8, -6)),
)
# Trials 0 and 2 of the seed-77 (4,3) simple-cycle suite: symmetry order 4,
# forced to 60 digits.
SIMPLE_43 = (
    (0, [-8, F(-11, 3), -2, F(1, 2), 1], [11, -3, F(-7, 2), -2], (-1, 0, 1, 0)),
    (2, [-11, 10, 7, F(-7, 3), 1], [-1, 5, F(-10, 3), 9], (0, 0, -1, 1)),
)
# Partition trials of criterion 6: 8 branches end at tangential zeros and 10
# escape to infinity.  Upward continuation stalls on branches of trials 15
# and 3, so their trajectories are short.
PARTITION_34 = (
    (0, [F(-4, 3), -8, F(7, 3), 1], [F(-1, 2), F(-10, 3), 2, -5, -2], (-2, -3, 5)),
    (15, [-12, F(7, 3), -6, 1], [F(-10, 3), 6, F(5, 3), -1, -4], (9, -1, -8)),
    (3, [-1, 3, F(-10, 3), 1], [-6, 2, F(11, 2), F(8, 3), 6], (1, -5, 4)),
)

PAPER_F = [0, 0, 1, 1]
PAPER_G = [0, 1, 3]
PAPER_CYCLE = (1, 1, -2)
PAPER_ALIEN_VALUE = F(4, 27)   # the critical value f(-2/3) of x^3 + x^2
QUARTIC = [0, 0, -1, 0, 1]     # x^4 - x^2, criterion 10


@dataclass
class Op:
    """One call into the program with the check of its output.

    ``check`` returns None or the reason the output is wrong; ``zeros``
    gives the distinct regular zeros (or classified branches) the output
    certifies.  ``known_fault`` marks an op that fails through the fault
    named where it is defined; its wrong output counts as failed.
    """

    label: str
    call: Callable
    check: Callable
    zeros: Callable = lambda out: 0
    known_fault: bool = False


@dataclass
class Workload:
    ops: list      # one round
    warmup: Op


# -- input generation ----------------------------------------------------------

def _rational(rng, bound=12):
    return F(rng.randint(-bound, bound), rng.randint(1, 3))


def morse_poly(rng, m):
    """Monic degree-m polynomial with m - 1 well separated critical values."""
    while True:
        coeffs = [_rational(rng) for _ in range(m)] + [F(1)]
        vals = ind.distinct(ind.critical_values(ind.as_complex(coeffs)))
        if len(vals) != m - 1:
            continue
        spread = max([abs(a - b) for a in vals for b in vals] + [1.0])
        sep = min((abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:]),
                  default=math.inf)
        if sep > 1e-4 * spread:
            return coeffs


def random_poly(rng, n):
    coeffs = [_rational(rng) for _ in range(n)]
    lead = F(0)
    while lead == 0:
        lead = _rational(rng)
    return coeffs + [lead]


def generic_cycle(rng, m, n):
    """Asymmetric weights in [-9, 9] whose sums at infinity do not vanish."""
    while True:
        head = [rng.randint(-9, 9) for _ in range(m - 1)]
        weights = tuple(head) + (-sum(head),)
        if abs(weights[-1]) > 9 or not any(weights):
            continue
        if ind.symmetry_multiplicity(weights) != 1:
            continue
        if ind.infinity_sums_vanish(weights, n):
            continue
        return weights


def simple_cycle(rng, m):
    i, j = rng.sample(range(m), 2)
    weights = [0] * m
    weights[i], weights[j] = 1, -1
    return tuple(weights)


def _instance(f, g, weights, epsilon=None):
    return Instance(RatPoly(f), RatPoly(g), Cycle(weights), epsilon=epsilon)


# -- program operations --------------------------------------------------------

def tangential_op(label, f, g, weights, simple=False, known_fault=False):
    inst = _instance(f, g, weights)
    expect = checks.Expect(f, g, weights)

    def check(report):
        zeros = [z for z, _ in report.distinct_regular_zeros]
        return checks.check_tangential(expect, report.count, zeros, simple)

    return Op(label, lambda: counting.count_tangential_zeros(inst), check,
              zeros=lambda report: report.count, known_fault=known_fault)


def alien_op(label, f, g, weights, no_aliens=False):
    inst = _instance(f, g, weights, epsilon=SCHEDULE[1])
    expect = checks.Expect(f, g, weights)

    def check(report):
        return checks.check_alien(expect, SCHEDULE[-1], checks.alien_view(report),
                                  no_aliens)

    return Op(label, lambda: counting.classify_alien(inst, list(SCHEDULE)), check,
              zeros=lambda report: len(report.branches))


def _rng(seed, workload, label):
    return random.Random(f"{seed}:{workload}:{label}")


POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")

# pool name -> (shape, cycle kind, op kind)
POOLS = {
    "tangential-34-generic": ((3, 4), "generic", "tangential"),
    "tangential-32-generic": ((3, 2), "generic", "tangential"),
    "tangential-34-simple": ((3, 4), "simple", "tangential"),
    "alien-32-generic": ((3, 2), "generic", "alien"),
}


def pool_candidate(name, k):
    """The k-th candidate draw of a pool, from the generators above."""
    (m, n), cycle, _ = POOLS[name]
    rng = random.Random(f"pool:{name}:{k}")
    f, g = morse_poly(rng, m), random_poly(rng, n)
    weights = generic_cycle(rng, m, n) if cycle == "generic" else simple_cycle(rng, m)
    return f, g, weights


def pool_op(name, label, f, g, weights):
    _, cycle, kind = POOLS[name]
    if kind == "alien":
        return alien_op(label, f, g, weights, no_aliens=True)
    return tangential_op(label, f, g, weights, simple=cycle == "simple")


def _pooled(seed, workload, name, count):
    """``count`` ops on pool draws picked by the seed, and a warm-up op on
    one more.

    A pool holds the first candidate draws that the program handles
    correctly today; `python3 perfbench/regen_literals.py --pool` rebuilds
    it and prints the candidates it left out and why.  Seeded draws outside
    the pool are miscounted or raise now and then (see CHANGES.md), and a
    failure on some seeds only would make the failed share differ between
    runs.
    """
    with open(POOL_FILE, encoding="utf-8") as handle:
        pool = json.load(handle)[name]
    picks = _rng(seed, workload, name).sample(range(len(pool)), count + 1)
    ops = []
    for k in picks:
        f, g, weights = (pool[k]["f"], pool[k]["g"], pool[k]["cycle"])
        ops.append(pool_op(name, f"{name}:{pool[k]['candidate']}",
                           [F(c) for c in f], [F(c) for c in g], tuple(weights)))
    return ops[:-1], ops[-1]


def tangential_generic(seed):
    """Four literal (4,3) draws, three of them through the clustering fault,
    with seeded (3,4) and (3,2) draws."""
    ops = [tangential_op("(4,3) 2026:0", *GENERIC_43)]
    for trial, f, g, w in CLUSTER_FAULT_43:
        ops.append(tangential_op(f"(4,3) 2026:{trial}", f, g, w, known_fault=True))
    ops += _pooled(seed, "tangential-generic", "tangential-34-generic", 2)[0]
    seeded, warmup = _pooled(seed, "tangential-generic", "tangential-32-generic", 1)
    return Workload(ops + seeded, warmup)


def tangential_symmetric(seed):
    """Two literal (4,3) simple-cycle draws (symmetry order 4) and seeded
    (3,4) simple-cycle draws (symmetry order 2)."""
    ops = [tangential_op(f"(4,3) simple 77:{trial}", f, g, w, simple=True)
           for trial, f, g, w in SIMPLE_43]
    seeded, warmup = _pooled(seed, "tangential-symmetric", "tangential-34-simple", 4)
    return Workload(ops + seeded, warmup)


def alien_partition(seed):
    """Three literal criterion-6 draws at (3,4) and seeded (3,2) draws,
    which have no aliens."""
    ops = [alien_op(f"(3,4) partition:{trial}", f, g, w)
           for trial, f, g, w in PARTITION_34]
    seeded, warmup = _pooled(seed, "alien-partition", "alien-32-generic", 2)
    return Workload(ops + seeded, warmup)


# -- the CLI session -------------------------------------------------------------

def _read_text(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _read_json(path):
    return json.loads(_read_text(path))


def _cli_op(label, argv, check, zeros=lambda: 0):
    """``check`` and ``zeros`` read the report the command wrote; a nonzero
    exit code fails the check."""
    def checked(code):
        if code != 0:
            return f"exit code {code}"
        return check()
    return Op(label, lambda: cli.main(argv), checked, zeros=lambda code: zeros())


def _fraction_list(values):
    return json.dumps([str(F(v)) for v in values])


def cli_session(seed, out_dir):
    """One session runs all 11 commands; reports go to ``out_dir``."""
    rng = _rng(seed, "cli-session", "inputs")
    path = lambda name: os.path.join(out_dir, name)
    instance = {"f": PAPER_F, "g": PAPER_G, "cycle": list(PAPER_CYCLE),
                "epsilon": None, "seed": seed, "precision_bits": None}
    with open(path("paper.json"), "w", encoding="utf-8") as handle:
        json.dump(instance, handle)
    expect = checks.Expect(PAPER_F, PAPER_G, PAPER_CYCLE)
    result = lambda name: _read_json(path(name))["result"]

    def check_tangential():
        res = result("tangential.json")
        if res["count"] != 0:
            return f"worked example tangential count {res['count']} (paper: 0)"
        return checks.check_tangential(expect, res["count"], checks.zeros_json(res))

    def check_infinitesimal():
        res = result("infinitesimal.json")
        if res["count"] != 2:
            return f"worked example infinitesimal count {res['count']} (paper: 2)"
        return checks.check_infinitesimal(expect, F(1, 100), res["count"])

    def check_alien():
        view = checks.alien_view_json(result("alien.json"))
        if view["alien"] != 2 or view["regular"] != 0:
            return "worked example: want 2 alien and 0 regular branches"
        if any(abs(b[2] - float(PAPER_ALIEN_VALUE)) > 1e-3 for b in view["branches"]):
            return "worked example aliens do not end at 4/27"
        return checks.check_alien(expect, SCHEDULE[-1], view)

    m_b, n_b = rng.choice([(m, n) for m in range(2, 6) for n in range(1, 9)
                           if ((n - 1) * (m - 1) - (math.gcd(m, n) - 1)) % 2 == 0])
    m_c = rng.choice([3, 4])
    cycle_c = generic_cycle(rng, m_c, 2) if rng.random() < 0.5 else (
        simple_cycle(rng, m_c))
    n_c = rng.randint(2, 6)
    f_r, g_r = morse_poly(rng, 3), random_poly(rng, rng.choice([6, 7]))
    m_k = rng.choice([2, 3, 4])
    f_k, n_k = morse_poly(rng, m_k), rng.randint(1, 10)
    targets = [complex(rng.uniform(1.0, 3.0), rng.uniform(0.3, 1.5))]
    while len(targets) < 2:
        t = complex(rng.uniform(1.0, 3.0), rng.uniform(0.3, 1.5))
        if abs(t - targets[0]) > 0.3:
            targets.append(t)
    design_cycle = (1, 2, -3)

    common = lambda name: ["--output", path(name)]
    paper = path("paper.json")
    ops = [
        _cli_op("tangential", ["tangential", "--instance", paper]
                + common("tangential.json"), check_tangential,
                lambda: result("tangential.json")["count"]),
        _cli_op("infinitesimal", ["infinitesimal", "--instance", paper, "--epsilon", "1/100"]
                + common("infinitesimal.json"), check_infinitesimal,
                lambda: result("infinitesimal.json")["count"]),
        _cli_op("alien", ["alien", "--instance", paper, "--schedule",
                          ",".join(str(e) for e in SCHEDULE)]
                + common("alien.json"), check_alien,
                lambda: len(result("alien.json")["branches"])),
        _cli_op("bounds", ["bounds", "--m", str(m_b), "--n", str(n_b)]
                + common("bounds.json"),
                lambda: checks.check_bounds(m_b, n_b, result("bounds.json"))),
        _cli_op("certify-cycle", ["certify-cycle", "--cycle", json.dumps(list(cycle_c)),
                                  "--n", str(n_c)] + common("certify.json"),
                lambda: checks.check_certify(cycle_c, n_c, result("certify.json"))),
        _cli_op("reduce", ["reduce", "--f", _fraction_list(f_r),
                           "--g", _fraction_list(g_r)] + common("reduce.json"),
                lambda: checks.check_reduce(f_r, g_r, result("reduce.json"))),
        _cli_op("monodromy", ["monodromy", "--f", json.dumps(QUARTIC),
                              "--basepoint=-0.125,0", "--real-order"]
                + common("monodromy.json"),
                lambda: checks.check_monodromy(QUARTIC, result("monodromy.json"))),
        _cli_op("brieskorn", ["brieskorn", "--n", str(n_k), "--f", _fraction_list(f_k)]
                + common("brieskorn.json"),
                lambda: checks.check_brieskorn(m_k, n_k, result("brieskorn.json"))),
        _cli_op("design-g", ["design-g", "--f", json.dumps(PAPER_F), "--cycle",
                             json.dumps(list(design_cycle)), "--n", "4", "--targets",
                             ",".join(repr(t).strip("()") for t in targets)]
                + common("design.json"),
                lambda: checks.check_design(PAPER_F, design_cycle, targets,
                                            result("design.json"))),
        _cli_op("experiment", ["experiment", "--m", "3", "--n", "2", "--trials", "2",
                               "--seed", "2026"]
                + common("experiment.json"),
                lambda: checks.check_experiment(3, 2, 2, result("experiment.json")),
                lambda: sum(result("experiment.json")["counts"])),
        _cli_op("plot-data", ["plot-data", "--report", path("alien.json"),
                              "--format", "csv"] + common("plot.csv"),
                lambda: checks.check_plot(_read_json(path("alien.json")),
                                          _read_text(path("plot.csv")))),
    ]
    warmup = _cli_op("alien warm-up", ["alien", "--instance", paper, "--schedule",
                                        ",".join(str(e) for e in SCHEDULE)]
                     + common("alien-warmup.json"),
                     lambda: checks.check_alien(
                         expect, SCHEDULE[-1],
                         checks.alien_view_json(result("alien-warmup.json"))))
    return Workload(ops, warmup)


WORKLOADS = {
    "tangential-generic": tangential_generic,
    "tangential-symmetric": tangential_symmetric,
    "alien-partition": alien_partition,
    "cli-session": cli_session,
}


def make(name, seed, out_dir):
    """The workload ``name`` for ``seed``; only the CLI session writes files."""
    if name == "cli-session":
        return cli_session(seed, out_dir)
    return WORKLOADS[name](seed)
