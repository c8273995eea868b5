"""Output checks against the reference computations of `independent`.

Each check takes a plain view of one program output and returns None when
it holds, or a one-line reason when it does not.  Reference values that cost
more than a few milliseconds are computed once per input and cached on the
`Expect` object, outside the timed region.
"""

import math
from fractions import Fraction

import numpy as np

import independent as ind


class Expect:
    """Reference values for one (f, g, cycle) input, computed on demand."""

    def __init__(self, f, g, weights):
        self.f = list(f)
        self.g = list(g)
        self.weights = tuple(weights)
        self.m = len(f) - 1
        self.n = len(g) - 1
        self.mult = ind.symmetry_multiplicity(self.weights)
        crit = ind.critical_values(ind.as_complex(self.f))
        self.crit_f = ind.distinct(crit)
        # the scale the program's matching tolerances are relative to
        self.r_f = 4.0 * (1.0 + max(abs(c) for c in self.crit_f))
        self._tangential = None
        self._infinitesimal = {}
        self._product = None

    def tangential_roots(self):
        """Oracle roots of N away from the critical values of f."""
        if self._tangential is None:
            self._tangential = ind.tangential_count(self.f, self.g, self.weights)
        return self._tangential[0]

    def infinitesimal_roots(self, eps):
        if eps not in self._infinitesimal:
            self._infinitesimal[eps] = ind.infinitesimal_count(
                self.f, self.g, self.weights, eps)
        return self._infinitesimal[eps][0]

    def tangential_product(self):
        if self._product is None:
            self._product = ind.BranchProduct(
                ind.as_complex(self.f), self.g, ind.tangential_rows(self.weights))
        return self._product


# -- zero counts ---------------------------------------------------------------

def _roots_match(expect, count, roots, what):
    if roots != count * expect.mult:
        return (f"argument principle gives {roots} {what} oracle roots, "
                f"reported {count} zeros x symmetry {expect.mult}")
    return None


def check_tangential(expect, count, zeros=None, simple=False):
    """The count against the bounds and the argument principle; each listed
    zero must have a zero of N close by."""
    bound = ind.bound_tangential(expect.m, expect.n)
    if count > bound:
        return f"count {count} exceeds the tangential bound {bound}"
    if simple and count > ind.bound_simple(expect.m, expect.n):
        return f"count {count} exceeds the simple-cycle bound"
    problem = _roots_match(expect, count, expect.tangential_roots(), "tangential")
    if problem or zeros is None:
        return problem
    if len(zeros) != count:
        return f"{len(zeros)} zeros listed for count {count}"
    product = expect.tangential_product()
    for z in zeros:
        if product.winding(z, 1e-6 * (expect.r_f + abs(z)))[0] < 1:
            return f"reported zero {z} is not a zero of any branch"
    return None


def check_infinitesimal(expect, eps, count):
    bound = ind.bound_infinitesimal(expect.m, expect.n)
    if count > bound:
        return f"count {count} exceeds the infinitesimal bound {bound}"
    return _roots_match(expect, count, expect.infinitesimal_roots(eps),
                        f"eps={eps}")


def check_alien(expect, eps, view, no_aliens=False):
    """``view``: regular, alien, infinitesimal and tangential counts, and
    branches as (class, matched, limit or None, trajectory)."""
    branches = view["branches"]
    if view["regular"] + view["alien"] != view["infinitesimal"]:
        return "regular + alien differs from the infinitesimal count"
    if len(branches) != view["infinitesimal"]:
        return "one branch per displacement zero expected"
    if sum(b[0] == "regular" for b in branches) != view["regular"]:
        return "branch classes disagree with the regular count"
    if view["regular"] > view["tangential"]:
        return "more regular branches than tangential zeros"
    if no_aliens and view["alien"]:
        return f"{view['alien']} alien branches where deg g < deg f allows none"
    problem = (check_tangential(expect, view["tangential"])
               or check_infinitesimal(expect, eps, view["infinitesimal"]))
    if problem:
        return problem
    product = expect.tangential_product()
    for cls, matched, limit, _ in branches:
        if cls == "regular":
            radius = 1e-4 * (expect.r_f + abs(limit))
            if product.winding(limit, radius)[0] < 1:
                return f"regular limit {limit} is not a tangential zero"
        elif matched == "critical_value":
            tol = lambda c: 2.0 * max(1e-5 * (expect.r_f + abs(limit)),
                                      1e-3 * (1.0 + abs(c)))
            if not any(abs(limit - c) <= tol(c) for c in expect.crit_f):
                return f"critical-value limit {limit} is at no critical value of f"
        elif matched != "infinity" or limit is not None:
            return f"unknown branch end {cls}/{matched}"
    return None


# -- views of program outputs ------------------------------------------------

def alien_view(report):
    return {
        "regular": report.regular_count,
        "alien": report.alien_count,
        "infinitesimal": report.infinitesimal_count,
        "tangential": report.tangential_count,
        "branches": [(b["class"], b["matched"], b["limit"], b["trajectory"])
                     for b in report.branches],
    }


def _number(text):
    # design-g writes numpy scalars as "np.float64(x)" (see CHANGES.md)
    if text.startswith("np.float64("):
        text = text[len("np.float64("):-1]
    return float(text)


def _pair(value):
    return complex(_number(value[0]), _number(value[1]))


def alien_view_json(result):
    return {
        "regular": result["regular_count"],
        "alien": result["alien_count"],
        "infinitesimal": result["infinitesimal_count"],
        "tangential": result["tangential_count"],
        "branches": [(b["class"], b["matched"],
                      None if b["limit"] is None else _pair(b["limit"]),
                      [_pair(p) for p in b["trajectory"]])
                     for b in result["branches"]],
    }


def zeros_json(result):
    return [_pair(z["t"]) for z in result["distinct_regular_zeros"]]


# -- exact and combinatorial checks for the CLI commands -----------------------

def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def check_reduce(f, g, result):
    """g = sum a_i f^k_i + g_tilde exactly, deg g_tilde not a multiple of m."""
    g_tilde = [Fraction(c) for c in result["g_tilde"]]
    total = list(g_tilde)
    for item in result["subtracted"]:
        power = [Fraction(1)]
        for _ in range(item["power"]):
            power = poly_mul(power, f)
        total = poly_add(total, [Fraction(item["coefficient"]) * c for c in power])
    if trim(total) != trim(g):
        return "g differs from sum a_i f^k_i + g_tilde"
    g_tilde = trim(g_tilde)
    if g_tilde and (len(g_tilde) - 1) % (len(trim(f)) - 1) == 0:
        return "deg g_tilde is a multiple of deg f"
    return None


def check_bounds(m, n, result):
    want = {"tangential": ind.bound_tangential(m, n),
            "infinitesimal": ind.bound_infinitesimal(m, n),
            "simple": ind.bound_simple(m, n)}
    if result != want:
        return f"bounds {result} differ from the closed forms {want}"
    return None


def check_certify(weights, n, result):
    mult = ind.symmetry_multiplicity(weights)
    simple = sorted(w for w in weights if w) == [-1, 1]
    regular = not ind.infinity_sums_vanish(weights, n)
    got = (result["symmetry_order"], result["is_simple"], result["is_asymmetric"],
           result["certificate"]["regular_at_infinity"])
    want = (mult, simple, mult == 1, regular)
    if got != want:
        return f"certificate {got} differs from {want}"
    return None


def check_brieskorn(m, n, result):
    if result["dimension"] != ind.brieskorn_dimension(m, n):
        return f"dimension {result['dimension']} != n - floor(n/m)"
    want = [d for d in range(1, n + 1) if d % m]
    if result.get("generator_degrees", want) != want:
        return f"generator degrees {result['generator_degrees']} != {want}"
    return None


def check_design(f, weights, targets, result):
    g = np.array([_pair(c) for c in result["g"]])
    fc = ind.as_complex(f)
    for t in targets:
        z = ind.fibers(fc, [t])[0]
        z = np.array(sorted(z, key=lambda v: (v.real, v.imag)))
        gz = ind.polyval(g, z)
        scale = float(np.abs(weights).sum()
                      * ind.polyval(np.abs(g), np.abs(z)).real.max()) + 1.0
        if abs(np.dot(weights, gz)) > 1e-8 * scale:
            return f"designed g does not vanish at target {t}"
    return None


def _compose(first, second):
    return tuple(second[first[i]] for i in range(len(first)))


def _inverse(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _cycle_type(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        lengths.append(length)
    return sorted(lengths)


def rank_q(rows):
    """Rank over Q of integer vectors, by exact elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col] / mat[rank][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def orbit_rank(perms, weights):
    gens = list(perms) + [_inverse(p) for p in perms]
    orbit = {tuple(weights)}
    frontier = [tuple(weights)]
    while frontier:
        vec = frontier.pop()
        for p in gens:
            nxt = [0] * len(vec)
            for i, w in enumerate(vec):
                nxt[p[i]] = w
            nxt = tuple(nxt)
            if nxt not in orbit:
                orbit.add(nxt)
                frontier.append(nxt)
    return rank_q(sorted(orbit))


def check_monodromy(f, result):
    """Loops of x^4 - x^2: one per critical value, composing to the inverse
    of the loop at infinity, and the orbit ranks of criterion 10."""
    loops = result["loops"]
    crit = ind.distinct(ind.critical_values(ind.as_complex(f)))
    if len(loops) != len(crit):
        return f"{len(loops)} loops for {len(crit)} critical values"
    perms = [tuple(p - 1 for p in loop["permutation"]) for loop in loops]
    composed = perms[0]
    for p in perms[1:]:
        composed = _compose(composed, p)
    infinity = tuple(p - 1 for p in result["infinity_permutation"])
    if composed != _inverse(infinity):
        return "loop product is not the inverse of the loop at infinity"
    # x^4 - x^2: one node over 0, two nodes over -1/4
    for loop, p in zip(loops, perms):
        cv = _pair(loop["critical_value"])
        want = [1, 1, 2] if abs(cv) < 1e-9 else [2, 2]
        if _cycle_type(p) != want:
            return f"loop around {cv} has cycle type {_cycle_type(p)}"
    r1 = orbit_rank(perms, (1, -1, 0, 0))
    r2 = orbit_rank(perms, (0, 1, -1, 0))
    if r1 != 3 or r2 >= 3:
        return f"orbit ranks {r1}, {r2} (want 3 and < 3)"
    return None


def check_experiment(m, n, trials, result):
    bound = ind.bound_tangential(m, n)
    if result["bound"] != bound:
        return f"experiment bound {result['bound']} != {bound}"
    if len(result["counts"]) + len(result["failures"]) != trials:
        return "experiment lost trials"
    if result["failures"]:
        return f"experiment trials failed: {result['failures']}"
    for row in result["results"]:
        if row["count"] > bound:
            return f"trial count {row['count']} exceeds {bound}"
        if row["fitted_degree"] != n * math.factorial(m - 1):
            return f"fitted degree {row['fitted_degree']} off the degree law"
        if row["fit_residual"] > 1e-8:
            return f"fit residual {row['fit_residual']}"
    if result["max_count"] != max(result["counts"]):
        return "max_count is not the maximum count"
    return None


def plot_rows(report):
    """The (branch, epsilon, t, class) rows an alien report holds."""
    result = report["result"]
    eps = result["epsilon_schedule"]
    rows = []
    for idx, branch in enumerate(result["branches"]):
        traj = branch["trajectory"]
        offset = len(eps) - len(traj)
        for k, point in enumerate(traj):
            rows.append((idx, eps[offset + k], float(point[0]), float(point[1]),
                         branch["class"]))
    return rows


def check_plot(report, csv_text):
    lines = csv_text.strip().splitlines()
    if lines[0] != "branch,epsilon,re_t,im_t,class":
        return f"plot header {lines[0]!r}"
    got = []
    for line in lines[1:]:
        idx, eps, re, im, cls = line.split(",")
        got.append((int(idx), eps, float(re), float(im), cls))
    if got != plot_rows(report):
        return "plot rows differ from the report they were read from"
    return None

