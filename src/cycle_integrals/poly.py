"""Exact rational and floating polynomial arithmetic.

``RatPoly`` is the exact layer (arbitrary-precision rationals, no rounding
anywhere); ``ComplexPoly`` is its numeric mirror and the only lossy step.
The root finder is a simultaneous Aberth-Ehrlich iteration with a
companion-matrix fallback, plus an mpmath twin for extended precision.
"""

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

def _aberth_numpy(coeffs, init, tol, max_iter):
    """Vectorized Aberth-Ehrlich iteration; returns (roots, converged)."""
    c = np.asarray(coeffs, dtype=complex)
    c = c / c[-1]
    d = len(c) - 1
    dc = c[1:] * np.arange(1, d + 1)
    absc = np.abs(c)
    z = np.array(init, dtype=complex)

    def horner(vals, x):
        acc = np.zeros_like(x)
        for a in vals[::-1]:
            acc = acc * x + a
        return acc

    converged = np.zeros(d, dtype=bool)
    for _ in range(max_iter):
        p = horner(c, z)
        scale = horner(absc, np.abs(z).astype(complex)).real + 1e-300
        converged = np.abs(p) <= tol * scale
        if converged.all():
            return z, True
        dp = horner(dc, z)
        bad = np.abs(dp) < 1e-300
        dp = np.where(bad, 1.0, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (1.0 / diff).sum(axis=1) - 1.0
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        step = w / denom
        step = np.where(bad, 0.05 * (1 + np.abs(z)), step)
        z = z - np.where(converged, 0.0, step)
    return z, bool(converged.all())


def _initial_circle(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    c = c / c[-1]
    d = len(c) - 1
    radius = 1.0 + float(np.max(np.abs(c[:-1]))) if d > 0 else 1.0
    angles = 2.0 * np.pi * (np.arange(d) + 0.27) / d + 0.4
    return 0.7 * radius * np.exp(1j * angles)


def roots_raw(coeffs, settings=DEFAULT, init=None):
    """All complex roots of an ascending coefficient list (no clustering).

    Tries Aberth-Ehrlich first (warm-startable via ``init``), falls back to
    companion-matrix eigenvalues, and raises NonConvergence only if both
    leave a residual above tolerance.
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

    if init is not None and len(init) == d:
        start = np.asarray(init, dtype=complex)
        if len(np.unique(np.round(start, 14))) < d:
            start = _initial_circle(coeffs)
    else:
        start = _initial_circle(coeffs)

    z, ok = _aberth_numpy(coeffs, start, settings.tol_root, settings.max_newton_iter)
    if ok:
        return z

    # companion fallback (numpy expects descending order)
    z = np.roots(np.array(coeffs[::-1], dtype=complex))
    z, ok = _aberth_numpy(coeffs, z, settings.tol_root, 50)
    if ok:
        return z
    # accept a slightly looser residual before giving up
    c = np.asarray(coeffs, dtype=complex)
    absc = np.abs(c)
    p = np.zeros_like(z)
    s = np.zeros(len(z))
    for a, aa in zip(c[::-1], absc[::-1]):
        p = p * z + a
        s = s * np.abs(z) + aa
    if np.all(np.abs(p) <= 1e4 * settings.tol_root * (s + 1e-300)):
        return z
    raise NonConvergence(f"root finder failed on degree {d}")


def cluster_points(points, tol_of_point):
    """Single-linkage clustering; returns list of (center, members)."""
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
    out.sort(key=lambda cm: (cm[0].real, cm[0].imag))
    return out


def roots(p, settings=DEFAULT):
    """Roots of a ComplexPoly with multiplicities.

    Roots within the cluster tolerance merge with summed multiplicity; the
    returned pairs are sorted lexicographically by (re, im).
    """
    if p.is_zero:
        raise ZeroPolynomial("roots of the zero polynomial")
    if p.degree < 1:
        raise InputError("roots requires degree >= 1")
    raw = roots_raw(p.coeffs, settings)
    tol = lambda z: settings.tol_cluster * (1.0 + abs(z))
    return [(center, len(members)) for center, members in cluster_points(raw, tol)]


def critical_values(f, settings=DEFAULT):
    """Critical points of f and its deduplicated critical values."""
    if f.degree < 2:
        raise InputError("critical values require deg f >= 2")
    df = f.derivative().to_complex()
    points = roots_raw(df.coeffs, settings)
    fc = f.to_complex()
    values = [complex(fc.evaluate(z)) for z in points]
    tol = lambda v: settings.tol_cluster * (1.0 + abs(v))
    clustered = cluster_points(values, tol)
    return CriticalData(
        critical_points=tuple(sorted(points.tolist(), key=lambda z: (z.real, z.imag))),
        critical_values=tuple(c for c, _ in clustered),
        clustering_tolerance=settings.tol_cluster,
    )


def divrem(a, b):
    """Module-level alias for RatPoly.divrem."""
    return a.divrem(b)
