"""The extended-precision kernel: complex arithmetic at ``dps`` digits for
the oracle fit, its fiber solves and its root extraction.

A number at ``dps`` digits is a pair (re, im) of ``decimal.Decimal``.
Every function that takes ``dps`` evaluates under a ``decimal.Context``
built here: dps + 2 digits, rounding half-even and the widest exponent
range, so values from 1e-400 to 1e400 need no scaling.  The context is
entered with ``decimal.localcontext`` on a copy, so the caller's context
is neither read nor changed.  ``decimal`` runs on libmpdec, in C, and is
the one extended-precision library: the roots of unity of the sampling
circle and of the DFT are the double values refined by Newton's
iteration, cached once per (count, dps).  A root solve polishes a double
approximation: a seeded solve starts from the roots its caller passes (the
oracle fit passes the double fiber over the same sample), and a cold
start begins from the companion-matrix roots of the coefficients rounded
to doubles.
"""

import cmath
import decimal
import functools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import NonConvergence

_ZERO = Decimal(0)
# log10 |0| in the residual test's scale bound, which must stay finite
_LOG10_FLOOR = -1e9


def _context(dps):
    return decimal.Context(
        prec=dps + 2, rounding=decimal.ROUND_HALF_EVEN,
        Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero,
               decimal.Overflow])


def _working(dps):
    return decimal.localcontext(_context(dps))


def _pair(x):
    """``x`` (a pair, int, Fraction, float or complex) rounded to the
    current context."""
    if isinstance(x, tuple):
        return +x[0], +x[1]
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator), _ZERO
    x = complex(x)
    return +Decimal(x.real), +Decimal(x.imag)


def _horner(coeffs, z):
    zr, zi = z
    ar = ai = _ZERO
    for cr, ci in reversed(coeffs):
        ar, ai = ar * zr - ai * zi + cr, ar * zi + ai * zr + ci
    return ar, ai


def _inverse(z):
    n = z[0] * z[0] + z[1] * z[1]
    return z[0] / n, -z[1] / n


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _abs(z):
    return (z[0] * z[0] + z[1] * z[1]).sqrt()


def to_pairs(values, dps):
    """Pairs at ``dps`` digits of ints, Fractions, floats, complexes or
    pairs."""
    with _working(dps):
        return tuple(_pair(v) for v in values)


def to_complex(z):
    return complex(float(z[0]), float(z[1]))


def conj(z):
    return z[0], z[1].copy_negate()


def log10_abs(z):
    """log10 |z| as a float, exponents beyond the double range included;
    -inf at 0."""
    exps = [x.adjusted() for x in z if x]
    if not exps:
        return -math.inf
    e = max(exps)
    if abs(e) < 300:
        return math.log10(math.hypot(float(z[0]), float(z[1])))
    # scale the mantissas below 10 first
    ctx = _context(17)
    return e + math.log10(math.hypot(float(z[0].scaleb(-e, ctx)),
                                     float(z[1].scaleb(-e, ctx))))


def shifted(coeffs, t, dps):
    """The ascending coefficients of p - t, for p with ``coeffs``."""
    with _working(dps):
        c0 = coeffs[0]
        return ((c0[0] - t[0], c0[1] - t[1]),) + tuple(coeffs[1:])


@functools.cache
def _unity(count, dps):
    """exp(2 pi i k / count) for k < count, as pairs.  Up to k = count / 2
    each entry is its double value refined by Newton's step
    z - (z - z^(1 - count)) / count on z^count = 1, until count |s|^2, about
    the error a step s leaves, is below the last digit; the entries past
    count / 2 are the conjugates of those before it.  Every fit at one
    (count, dps) reads the same table, so it is built once."""
    with _working(dps):
        tiny = Decimal(10) ** -(dps + 2)
        table = []
        for k in range(count // 2 + 1):
            z, s2 = _pair(cmath.exp(2j * math.pi * k / count)), 1
            while count * s2 >= tiny:
                power, base, e = (Decimal(1), _ZERO), z, count - 1
                while e:
                    power = _mul(power, base) if e & 1 else power
                    base, e = _mul(base, base), e >> 1
                inv = _inverse(power)
                s = (z[0] - inv[0]) / count, (z[1] - inv[1]) / count
                z, s2 = (z[0] - s[0], z[1] - s[1]), s[0] * s[0] + s[1] * s[1]
            table.append(z)
        return tuple(table + [conj(table[count - k])
                              for k in range(len(table), count)])


def circle_mp(radius, count, stop, dps):
    """radius * exp(2 pi i k / count) for k < ``stop``, as pairs: radius
    times the first ``stop`` entries of the cached roots-of-unity table."""
    with _working(dps):
        r = Decimal(radius)
        return [(r * re, r * im) for re, im in _unity(count, dps)[:stop]]


def weighted_sums(coeffs, points, weights, patterns, dps):
    """sum_j weights[j] * h(points[pattern[j]]) for each pattern, with h the
    polynomial of ascending ``coeffs``, and log10 of max |h(point)|: the
    ``Cycle.integral`` of h batched over the patterns on Decimal pairs."""
    with _working(dps):
        vals = [_horner(coeffs, z) for z in points]
        sums = []
        for pattern in patterns:
            re = im = _ZERO
            for w, i in zip(weights, pattern):
                re += w * vals[i][0]
                im += w * vals[i][1]
            sums.append((re, im))
    return sums, max(log10_abs(v) for v in vals)


def product_mp(values, dps):
    """The product of ``values`` at ``dps`` digits."""
    with _working(dps):
        acc = (Decimal(1), _ZERO)
        for v in values:
            acc = _mul(acc, v)
        return acc


def normalized(values, dps):
    """``values`` divided by their largest modulus, which is not 0: a fit
    whose samples all vanish raises IdenticallyZeroIntegral first."""
    with _working(dps):
        top = max(_abs(v) for v in values)
        return [(v[0] / top, v[1] / top) for v in values]


def _double_seed(c):
    """Companion-matrix roots of the monic ascending pair list ``c``
    rounded to complex doubles, or None when a coefficient does not fit in
    a double (its rounding is infinite, or zero where it is not) or a root
    is not finite."""
    cd = np.array([to_complex(v) for v in reversed(c)])
    if not np.all(np.isfinite(cd)) or any(
            x == 0 and (v[0] or v[1]) for x, v in zip(cd, reversed(c))):
        return None
    z = np.roots(cd)
    return [_pair(v) for v in z] if np.all(np.isfinite(z)) else None


def _distinct(z):
    ctx = decimal.Context(prec=12, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
    return len({(ctx.plus(re), ctx.plus(im)) for re, im in z}) == len(z)


def _newton_polygon_start(c):
    """Bini's start for the monic ascending pair list ``c``: for each edge
    of the upper convex hull of (i, log10|c_i|), of width k and slope s,
    k points on the circle of radius 10**-s, and one point at 0 per
    vanishing low coefficient.  Root moduli spread over hundreds of orders
    of magnitude are then each started at their own scale."""
    d = len(c) - 1
    hull = []
    for q in [(i, log10_abs(v)) for i, v in enumerate(c) if v[0] or v[1]]:
        # drop the last vertex while it lies on or below the chord to q
        while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (q[1] - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])):
            hull.pop()
        hull.append(q)
    z = [(_ZERO, _ZERO)] * hull[0][0]
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        k = j - i
        radius = Decimal(10) ** Decimal((yi - yj) / k)
        for m in range(k):
            angle = math.pi * (2 * (m + 0.27) / k + 2 * i / d + 0.13)
            z.append((radius * Decimal(math.cos(angle)),
                      radius * Decimal(math.sin(angle))))
    return z


def aberth_mp(coeffs, dps, init=None, tol_exp=None):
    """All roots of an ascending list of coefficient pairs at ``dps``
    digits, as pairs.

    A seeded solve starts from ``init`` when it holds ``d`` points
    distinct at 12 digits, as a double-precision fiber of the same
    polynomial does.  A cold start, with no such ``init``, begins from the
    double-precision companion roots when the coefficients fit in doubles
    and the roots are distinct at 12 digits, else from the Newton-polygon
    circles of ``_newton_polygon_start``.  A root is
    accepted when |p(z)| <= 10**-tol_exp * max_i |c_i| |z|^i, tested in
    log10.  ``tol_exp`` is dps - 4 unless a caller lowers it: multiple
    roots converge only linearly, so callers that need limited root
    accuracy should not pay for the full working precision.  Raises
    NonConvergence when some root is still not accepted after 400 steps.
    """
    with _working(dps):
        c = [_pair(v) for v in coeffs]
        while c and not (c[-1][0] or c[-1][1]):
            c.pop()
        d = len(c) - 1
        if d < 1:
            return []
        lead = _inverse(c[-1])
        c = [_mul(v, lead) for v in c[:-1]] + [(Decimal(1), _ZERO)]
        if d == 1:
            return [(-c[0][0], -c[0][1])]
        dc = [(i * c[i][0], i * c[i][1]) for i in range(1, d + 1)]
        log_tol = -min(dps - 4 if tol_exp is None else tol_exp, dps - 4)
        clog = [max(log10_abs(v), _LOG10_FLOOR) for v in c]

        def log_scale(zk):
            la = max(log10_abs(zk), _LOG10_FLOOR)
            return max(lc + i * la for i, lc in enumerate(clog))

        z = None
        if init is not None and len(init) == d:
            z = [_pair(v) for v in init]
        if z is None or not _distinct(z):
            z = _double_seed(c)
        if z is None or not _distinct(z):
            z = _newton_polygon_start(c)

        tiny = Decimal(10) ** -dps
        for _ in range(400):
            p = [_horner(c, zk) for zk in z]
            conv = [log10_abs(pk) <= log_tol + log_scale(zk)
                    for pk, zk in zip(p, z)]
            if all(conv):
                return z
            new_z = list(z)
            for k in range(d):
                if conv[k]:
                    continue
                zr, zi = z[k]
                dpk = _horner(dc, z[k])
                if not (dpk[0] or dpk[1]):
                    new_z[k] = (zr + Decimal("0.05") * (1 + _abs(z[k])), zi)
                    continue
                wr, wi = _mul(p[k], _inverse(dpk))
                sr = si = _ZERO
                for j in range(d):
                    if j != k:
                        xr, xi = zr - z[j][0], zi - z[j][1]
                        if not (xr or xi):
                            xr = tiny * (1 + _abs(z[k]))
                        n = xr * xr + xi * xi
                        sr += xr / n
                        si -= xi / n
                # z - w / (1 - w s)
                dr, di = 1 - (wr * sr - wi * si), -(wr * si + wi * sr)
                if not (dr or di):
                    dr = Decimal(1)
                qr, qi = _mul((wr, wi), _inverse((dr, di)))
                new_z[k] = (zr - qr, zi - qi)
            z = new_z
        raise NonConvergence(f"root finder failed on degree {d} at {dps} digits")


def dft_fit_mp(samples, dps):
    """Coefficients c with samples[k] = sum_d c[d] * w^(k d), w = exp(2 pi i/K),
    as pairs: c[d] is the polynomial of the samples at w^-d, over K, with
    w^-d read from the cached roots-of-unity table."""
    k_count = len(samples)
    unity = _unity(k_count, dps)
    with _working(dps):
        values = [_pair(s) for s in samples]
        out = []
        for d in range(k_count):
            re, im = _horner(values, conj(unity[d]))
            out.append((re / k_count, im / k_count))
        return out
