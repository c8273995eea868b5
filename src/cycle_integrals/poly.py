"""Exact rational and floating polynomial arithmetic.

``RatPoly`` is the exact layer (arbitrary-precision rationals, no rounding
anywhere); ``ComplexPoly`` is its numeric mirror and the only lossy step.
Every double-precision root solve runs one simultaneous Aberth-Ehrlich
kernel on Python complex scalars, with a companion-matrix fallback.  The
oracles and the continuation in epsilon solve fibers of at most
``oracle_fiber_cap`` (6) points, where numpy's per-call overhead on arrays
of a few entries would cost more than the arithmetic.  A step costs d^2
interpreted operations, so a vectorised kernel wins at high degree: against
numpy this one is faster up to degree 16, about even at 24 and half as fast
at 32, degrees that only monodromy and direct calls of the public root
finders reach.
``precision.aberth_mp`` is its mpmath twin for extended precision.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT
from .errors import (DivisionByZeroPolynomial, NonConvergence, ZeroPolynomial,
                     InputError)


def as_fraction(value):
    """Parse an exact rational from int, Fraction, or a 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise InputError(f"not an exact rational: {value!r}")


def _trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


class RatPoly:
    """Univariate polynomial over Q, coefficients in ascending degree order.

    The zero polynomial is the empty tuple; otherwise the leading
    coefficient is nonzero.  All arithmetic is exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([as_fraction(c) for c in coeffs])

    @staticmethod
    def zero():
        return RatPoly(())

    @staticmethod
    def one():
        return RatPoly((1,))

    @staticmethod
    def x():
        return RatPoly((0, 1))

    @staticmethod
    def monomial(k, c=1):
        return RatPoly((0,) * k + (c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def __add__(self, other):
        if not isinstance(other, RatPoly):
            other = RatPoly((as_fraction(other),))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, RatPoly):
            other = RatPoly((as_fraction(other),))
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatPoly):
            c = as_fraction(other)
            return RatPoly([c * a for a in self.coeffs])
        if self.is_zero or other.is_zero:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise InputError("negative polynomial power")
        result = RatPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divrem(self, b):
        """Exact Euclidean division: self = q*b + r with deg r < deg b."""
        if b.is_zero:
            raise DivisionByZeroPolynomial("division by the zero polynomial")
        r = list(self.coeffs)
        db, lb = b.degree, b.leading
        q = [Fraction(0)] * max(len(r) - db, 1)
        while len(_trim(r)) - 1 >= db:
            r = list(_trim(r))
            shift = len(r) - 1 - db
            c = r[-1] / lb
            q[shift] = c
            for i, bc in enumerate(b.coeffs):
                r[shift + i] -= c * bc
        return RatPoly(q), RatPoly(r)

    def __floordiv__(self, b):
        return self.divrem(b)[0]

    def __mod__(self, b):
        return self.divrem(b)[1]

    def derivative(self):
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def compose(self, q):
        """p(q(z)), exact."""
        result = RatPoly.zero()
        for c in reversed(self.coeffs):
            result = result * q + RatPoly((c,))
        return result

    def evaluate(self, x):
        """Horner evaluation; exact for Fraction/int input, complex otherwise."""
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + complex(c)
        return acc

    def monic(self):
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lead = self.leading
        if lead == 1:
            return self
        return RatPoly([c / lead for c in self.coeffs])

    def to_complex(self):
        """Numeric mirror; the only lossy step, rounding error recorded."""
        coeffs = []
        err = 0.0
        for c in self.coeffs:
            z = float(c)
            coeffs.append(complex(z))
            if c != 0:
                err = max(err, abs(Fraction(z) - c) / abs(c))
        return ComplexPoly(tuple(coeffs), rounding_error=float(err))


def poly_gcd(a, b):
    """Monic gcd over Q by the exact Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


@dataclass(frozen=True)
class ComplexPoly:
    """Floating mirror of RatPoly: complex coefficients, ascending order."""

    coeffs: tuple
    rounding_error: float = 0.0

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def evaluate(self, x):
        acc = np.zeros_like(x, dtype=complex) if isinstance(x, np.ndarray) else 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return ComplexPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:],
                           self.rounding_error)

    def minus(self, t):
        """Coefficients of p(z) - t."""
        if not self.coeffs:
            return ComplexPoly((-t,))
        coeffs = list(self.coeffs)
        coeffs[0] -= t
        return ComplexPoly(tuple(coeffs), self.rounding_error)


@dataclass(frozen=True)
class CriticalData:
    """Critical points of f and the deduplicated set of critical values."""

    critical_points: tuple
    critical_values: tuple
    clustering_tolerance: float

    @property
    def spread(self):
        vals = self.critical_values
        if len(vals) < 2:
            return 0.0
        return max(abs(a - b) for a in vals for b in vals)

    @property
    def max_abs(self):
        return max(abs(v) for v in self.critical_values)


# -- numeric root finding ----------------------------------------------------

def _aberth(coeffs, init, tol, max_iter):
    """Aberth-Ehrlich iteration on complex scalars; returns (roots, converged).

    Every root takes the simultaneous (Jacobi) step from the previous
    iterates.  A root is accepted, and no longer moved, once
    |p(z)| <= tol * sum |c_i| |z|^i with both sides finite.  Two coincident
    iterates, or one that is not finite, end the iteration at once,
    unconverged, with the last finite iterates.
    """
    lead = coeffs[-1]
    c = [a / lead for a in reversed(coeffs)]
    absc = [abs(a) for a in c]
    d = len(c) - 1
    dc = [a * (d - i) for i, a in enumerate(c[:-1])]
    z = [complex(v) for v in init]
    todo = list(range(d))
    try:
        for _ in range(max_iter):
            p = {}
            for k in todo:
                zk = z[k]
                pk = 0j
                scale = 0.0
                r = abs(zk)
                for a, b in zip(c, absc):
                    pk = pk * zk + a
                    scale = scale * r + b
                # an overflowed residual or bound accepts nothing
                if not abs(pk) <= tol * (scale + 1e-300) < math.inf:
                    p[k] = pk
            if not p:
                return np.array(z), True
            new = list(z)
            for k, pk in p.items():
                zk = z[k]
                dpk = 0j
                for a in dc:
                    dpk = dpk * zk + a
                if abs(dpk) < 1e-300:
                    new[k] = zk - 0.05 * (1 + abs(zk))
                    continue
                s = 0j
                for j, zj in enumerate(z):
                    if j != k:
                        if zj == zk:
                            return np.array(z), False
                        s += 1.0 / (zk - zj)
                w = pk / dpk
                denom = 1.0 - w * s
                if abs(denom) < 1e-300:
                    denom = 1.0
                new[k] = zk - w / denom
                if not cmath.isfinite(new[k]):
                    return np.array(z), False
            z = new
            todo = list(p)
    except OverflowError:  # abs() of a finite complex beyond the float range
        pass
    return np.array(z), False


def _initial_circle(coeffs):
    d = len(coeffs) - 1
    radius = 1.0 + max(abs(a / coeffs[-1]) for a in coeffs[:-1])
    return [0.7 * radius * cmath.exp(1j * (2.0 * math.pi * (k + 0.27) / d + 0.4))
            for k in range(d)]


def roots_raw(coeffs, settings=DEFAULT, init=None):
    """All complex roots of an ascending coefficient list (no clustering).

    Runs the scalar Aberth-Ehrlich kernel from ``init`` when it holds d
    points distinct at 14 decimals, else from a circle enclosing the roots.
    If that does not converge, the kernel polishes the companion-matrix
    eigenvalues for up to 50 steps instead; if that fails too, the result
    is accepted at a 1e4 times looser residual, and NonConvergence is
    raised otherwise.  Returns an ndarray of the d roots.
    """
    coeffs = [complex(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ZeroPolynomial("root finding on the zero polynomial")
    d = len(coeffs) - 1
    if d == 0:
        return np.zeros(0, dtype=complex)
    if d == 1:
        return np.array([-coeffs[0] / coeffs[1]])

    start = None
    if init is not None and len(init) == d:
        start = [complex(v) for v in init]
        if len({complex(round(v.real, 14), round(v.imag, 14)) for v in start}) < d:
            start = None
    if start is None:
        start = _initial_circle(coeffs)

    tol = settings.tol_root
    z, ok = _aberth(coeffs, start, tol, settings.max_newton_iter)
    if ok:
        return z

    # companion fallback (numpy expects descending order)
    z = np.roots(np.array(coeffs[::-1]))
    z, ok = _aberth(coeffs, z, tol, 50)
    if ok:
        return z
    # accept a slightly looser residual before giving up: a one-step run
    # reports converged only if its first residual test passes
    z, ok = _aberth(coeffs, z, 1e4 * tol, 1)
    if ok:
        return z
    raise NonConvergence(f"root finder failed on degree {d}")


def lex_sorted(items, tol_cluster, key=lambda z: z):
    """``items`` sorted by (re, im) of ``key(item)``, where a real part within
    ``tol_cluster * (1 + |z|)`` of the one before it counts as equal to it.

    Conjugate zeros of a real problem have equal real parts in exact
    arithmetic, so their order must not follow the sign of rounding noise.
    Only the order changes; nothing is merged.
    """
    runs = []
    for item in sorted(items, key=lambda it: key(it).real):
        z = key(item)
        if runs and z.real - last <= tol_cluster * (1.0 + abs(z)):
            runs[-1].append(item)
        else:
            runs.append([item])
        last = z.real
    return [it for run in runs for it in sorted(run, key=lambda it: key(it).imag)]


def cluster_points(points, tol_of_point):
    """Single-linkage clustering; returns (center, members) pairs in the
    order of their first member in ``points``."""
    pts = list(points)
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            tol = min(tol_of_point(pts[i]), tol_of_point(pts[j]))
            if abs(pts[i] - pts[j]) <= tol:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(pts[i])
    out = []
    for members in groups.values():
        center = complex(sum(members) / len(members))
        out.append((center, [complex(m) for m in members]))
    return out


def roots(p, settings=DEFAULT):
    """Roots of a ComplexPoly with multiplicities.

    Roots within the cluster tolerance merge with summed multiplicity; the
    returned pairs are sorted by ``lex_sorted`` at the same tolerance.
    """
    if p.is_zero:
        raise ZeroPolynomial("roots of the zero polynomial")
    if p.degree < 1:
        raise InputError("roots requires degree >= 1")
    raw = roots_raw(p.coeffs, settings)
    tol = lambda z: settings.tol_cluster * (1.0 + abs(z))
    return lex_sorted([(center, len(members))
                       for center, members in cluster_points(raw, tol)],
                      settings.tol_cluster, key=lambda zm: zm[0])


def critical_values(f, settings=DEFAULT):
    """Critical points of f and its deduplicated critical values."""
    if f.degree < 2:
        raise InputError("critical values require deg f >= 2")
    df = f.derivative().to_complex()
    points = roots_raw(df.coeffs, settings)
    fc = f.to_complex()
    values = [complex(fc.evaluate(z)) for z in points]
    tol = lambda v: settings.tol_cluster * (1.0 + abs(v))
    centers = [c for c, _ in cluster_points(values, tol)]
    return CriticalData(
        critical_points=tuple(lex_sorted(points.tolist(), settings.tol_cluster)),
        critical_values=tuple(lex_sorted(centers, settings.tol_cluster)),
        clustering_tolerance=settings.tol_cluster,
    )


def divrem(a, b):
    """Module-level alias for RatPoly.divrem."""
    return a.divrem(b)
