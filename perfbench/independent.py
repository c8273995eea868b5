"""Reference computations made apart from `cycle_integrals`.

Nothing here imports the program.  Zero counts come from the argument
principle (Delves and Lyness, Math. Comp. 21, 1967) applied to the branch
product N(t) = prod_sigma sum_j n_j g(z_sigma(j)(t)) in double precision,
with every fiber solved afresh by numpy.  The product is symmetric in the
fiber points, so the order in which numpy returns them does not matter and
the phase of N at a sample is the sum of the phases of its factors.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


# -- polynomials -------------------------------------------------------------

def as_complex(coeffs):
    """Ascending coefficients (Fractions, ints or complex) as a complex array."""
    return np.array([complex(c) for c in coeffs], dtype=complex)


def polyval(coeffs, x):
    acc = np.zeros_like(np.asarray(x, dtype=complex))
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def fibers(p, ts):
    """Roots of p(z) = t for every t in ``ts``, one row per t.

    Companion-matrix eigenvalues, solved for all samples in one call.
    """
    p = np.asarray(p, dtype=complex)
    d = len(p) - 1
    monic = p / p[-1]
    ts = np.asarray(ts, dtype=complex)
    comp = np.zeros((len(ts), d, d), dtype=complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -monic[:-1]
    comp[:, 0, -1] += ts / p[-1]
    return np.linalg.eigvals(comp)


def critical_values(p):
    p = np.asarray(p, dtype=complex)
    dp = p[1:] * np.arange(1, len(p))
    points = np.roots(dp[::-1])
    return polyval(p, points)


def distinct(values, scale=1e-8):
    out = []
    for v in values:
        if all(abs(v - o) > scale * (1.0 + abs(o)) for o in out):
            out.append(complex(v))
    return out


# -- branch products ---------------------------------------------------------

def tangential_rows(weights):
    """One row per ordering sigma: row[k] is the weight that lands on root k."""
    m = len(weights)
    rows = []
    for perm in itertools.permutations(range(m)):
        row = [0.0] * m
        for j, k in enumerate(perm):
            row[k] = weights[j]
        rows.append(row)
    return np.array(rows, dtype=complex)


def injection_rows(weights, size):
    """One row per injection of the weight slots into a fiber of ``size``."""
    rows = []
    for slots in itertools.permutations(range(size), len(weights)):
        row = [0.0] * size
        for j, k in enumerate(slots):
            row[k] = weights[j]
        rows.append(row)
    return np.array(rows, dtype=complex)


class BranchProduct:
    """N(t) = prod over rows of sum_k row[k] * g(z_k(t)) on the fiber p = t."""

    def __init__(self, p, g, rows):
        self.p = as_complex(p)
        self.g = as_complex(g)
        self.rows = rows

    def phase(self, ts):
        factors = polyval(self.g, fibers(self.p, ts)) @ self.rows.T
        return np.angle(factors).sum(axis=1)

    def winding(self, center, radius, samples=256, max_samples=1 << 16):
        """Winding number of N around the circle |t - center| = radius.

        The sample count doubles until no phase step between neighbouring
        samples exceeds 1 radian, so that unwrapping is unambiguous.
        """
        while True:
            ts = center + radius * np.exp(2j * np.pi * np.arange(samples) / samples)
            phase = self.phase(ts)
            step = np.diff(np.append(phase, phase[0]))
            step = (step + np.pi) % (2.0 * np.pi) - np.pi
            if np.max(np.abs(step)) < 1.0 or samples >= max_samples:
                break
            samples *= 2
        total = float(step.sum()) / (2.0 * np.pi)
        return int(round(total)), abs(total - round(total))


def symmetry_multiplicity(weights):
    """Number of permutations sigma with w o sigma = +w or -w."""
    w = tuple(weights)
    neg = tuple(-v for v in w)
    count = 0
    for perm in itertools.permutations(range(len(w))):
        permuted = tuple(w[k] for k in perm)
        if permuted == w or permuted == neg:
            count += 1
    return count


def regular_zero_count(product, crit, big_radius):
    """Zeros of N inside |t| = big_radius minus those at critical values."""
    total, err = product.winding(0.0, big_radius)
    at_crit = 0
    for c in crit:
        w, e = product.winding(c, 1e-6 * (1.0 + abs(c)))
        at_crit += w
        err = max(err, e)
    return total - at_crit, err


def big_radius(crit):
    return 1e10 * (1.0 + max(abs(c) for c in crit))


def tangential_count(f, g, weights):
    """Independent count of N's zeros away from the critical values of f,
    in units of oracle roots (each distinct zero counts its multiplicity)."""
    fc = as_complex(f)
    crit = distinct(critical_values(fc))
    product = BranchProduct(fc, g, tangential_rows(weights))
    return regular_zero_count(product, crit, big_radius(crit))


def deformed(f, g, eps):
    n = max(len(f), len(g))
    fp = list(f) + [0] * (n - len(f))
    gp = list(g) + [0] * (n - len(g))
    return [a + eps * b for a, b in zip(fp, gp)]


def infinitesimal_count(f, g, weights, eps):
    """Independent count of displacement zeros at ``eps``, away from the
    critical values of f + eps*g.  On the fiber f + eps*g = t the
    displacement sum n_j f(w_j) equals -eps sum n_j g(w_j), so the product
    of the g-factors has the same zeros."""
    p = as_complex(deformed(f, g, Fraction(eps)))
    crit = distinct(critical_values(p))
    product = BranchProduct(p, g, injection_rows(weights, len(p) - 1))
    return regular_zero_count(product, crit, big_radius(crit))


# -- closed forms ------------------------------------------------------------

def bound_tangential(m, n):
    if m == 2:
        return (n - 1) // 2
    if n % m == 0:
        return (n - 1) * math.factorial(m - 1)
    return n * math.factorial(m - 1)


def bound_infinitesimal(m, n):
    if m == 2:
        return (n - 1) // 2
    if n < m:
        return n * math.factorial(m - 1)
    base = m * math.factorial(n - 1) // math.factorial(n - m)
    if n % m == 0:
        base -= math.factorial(m - 1)
    return base


def bound_simple(m, n):
    return ((n - 1) * (m - 1) - (math.gcd(m, n) - 1)) // 2


def brieskorn_dimension(m, n):
    return n - n // m


def infinity_sums_vanish(weights, n, tol=1e-9):
    """True when some sum_j n_j xi^(n alpha_j) vanishes, xi = exp(2 pi i/m),
    over the permutations alpha fixing the last index."""
    m = len(weights)
    scale = sum(abs(v) for v in weights)
    for perm in itertools.permutations(range(1, m)):
        alpha = perm + (m,)
        total = sum(w * np.exp(2j * np.pi * ((n * a) % m) / m)
                    for w, a in zip(weights, alpha))
        if abs(total) < tol * scale:
            return True
    return False
