"""Root solve, Horner evaluation and DFT at ``dps`` digits for the oracle fit.

The one fit of the oracle builder calls them on the rungs above doubles,
where double precision cannot separate the coefficient scales (singular
perturbations spread the zeros of the infinitesimal oracle over many
orders of magnitude).  Every function takes an explicit ``dps`` so results
are deterministic.  A cold-start root solve begins from the
companion-matrix roots of the coefficients rounded to doubles, so the
mpmath iteration only polishes them.
"""

import mpmath as mp
import numpy as np

from .errors import NonConvergence


def to_mpc(x):
    if isinstance(x, mp.mpc):
        return x
    return mp.mpc(x)


def horner_mp(coeffs, x):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _double_seed(c):
    """Companion-matrix roots of the monic ascending list ``c`` rounded to
    complex doubles, or None when a coefficient does not fit in a double
    (its rounding is infinite, or zero where it is not) or a root is not
    finite."""
    cd = np.array([complex(v) for v in reversed(c)])
    if not np.all(np.isfinite(cd)) or any(
            x == 0 and v != 0 for x, v in zip(cd, reversed(c))):
        return None
    z = np.roots(cd)
    return [mp.mpc(v) for v in z] if np.all(np.isfinite(z)) else None


def _distinct(z):
    return len({(mp.nstr(v.real, 12), mp.nstr(v.imag, 12)) for v in z}) == len(z)


def _newton_polygon_start(c):
    """Bini's start for the monic ascending list ``c``: for each edge of the
    upper convex hull of (i, log2|c_i|), of width k and slope s, k points on
    the circle of radius 2**-s, and one point at 0 per vanishing low
    coefficient.  Root moduli spread over hundreds of orders of magnitude
    are then each started at their own scale."""
    d = len(c) - 1
    hull = []
    for q in [(i, float(mp.log(abs(v), 2))) for i, v in enumerate(c) if v != 0]:
        # drop the last vertex while it lies on or below the chord to q
        while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (q[1] - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])):
            hull.pop()
        hull.append(q)
    z = [mp.mpc(0)] * hull[0][0]
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        k = j - i
        radius = mp.mpf(2) ** ((yi - yj) / k)
        z += [radius * mp.expjpi(2 * (m + mp.mpf("0.27")) / k + mp.mpf(2 * i) / d
                                 + mp.mpf("0.13"))
              for m in range(k)]
    return z


def aberth_mp(coeffs, dps, init=None, tol_exp=None):
    """All roots of an ascending mpc coefficient list at ``dps`` digits.

    The iteration starts from ``init`` when it holds ``d`` distinct points,
    else from the double-precision companion roots when the coefficients
    fit in doubles and the roots are distinct at 12 digits, else from the
    Newton-polygon circles of ``_newton_polygon_start``.
    ``tol_exp`` caps the residual demand at 10**-tol_exp; multiple roots
    converge only linearly, so callers that need limited root accuracy
    should not pay for the full working precision.
    """
    with mp.workdps(dps):
        c = [to_mpc(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        d = len(c) - 1
        if d < 1:
            return []
        lead = c[-1]
        c = [v / lead for v in c]
        if d == 1:
            return [-c[0]]
        dc = [i * c[i] for i in range(1, d + 1)]
        if tol_exp is None:
            tol_exp = dps - 4
        # residual acceptance in log2 via mp.mag and a float scale bound,
        # which avoids a full-precision scale evaluation per root per step
        log2_tol = -min(tol_exp, dps - 4) * 3.3219280948873626
        clog2 = [mp.mag(v) if v != 0 else -(10 ** 9) for v in c]

        def log2_scale(zk):
            la = float(mp.mag(zk)) if zk != 0 else -1e9
            return max(lc + i * la for i, lc in enumerate(clog2))

        z = None
        if init is not None and len(init) == d:
            z = [to_mpc(v) for v in init]
        if z is None or not _distinct(z):
            z = _double_seed(c)
        if z is None or not _distinct(z):
            z = _newton_polygon_start(c)

        for _ in range(400):
            p = [horner_mp(c, zk) for zk in z]
            conv = [mp.mag(pk) <= log2_tol + log2_scale(zk) + 2
                    for pk, zk in zip(p, z)]
            if all(conv):
                return z
            new_z = list(z)
            for k in range(d):
                if conv[k]:
                    continue
                dpk = horner_mp(dc, z[k])
                if dpk == 0:
                    new_z[k] = z[k] + mp.mpf("0.05") * (1 + abs(z[k]))
                    continue
                w = p[k] / dpk
                s = mp.mpc(0)
                for j in range(d):
                    if j != k:
                        diff = z[k] - z[j]
                        if diff == 0:
                            diff = mp.mpf(10) ** (-dps) * (1 + abs(z[k]))
                        s += 1 / diff
                denom = 1 - w * s
                if denom == 0:
                    denom = mp.mpc(1)
                new_z[k] = z[k] - w / denom
            z = new_z

        # last resort: mpmath's own solver
        try:
            z = mp.polyroots([v for v in reversed(c)], maxsteps=200,
                             extraprec=dps * 4)
            return [to_mpc(v) for v in z]
        except Exception as exc:  # mp raises bare exceptions on failure
            raise NonConvergence(f"mp root finder failed on degree {d}") from exc


def dft_fit_mp(samples, dps):
    """Coefficients c with samples[k] = sum_d c[d] * w^(k d), w = exp(2 pi i/K)."""
    with mp.workdps(dps):
        k_count = len(samples)
        unity = [mp.expjpi(mp.mpf(-2 * k) / k_count) for k in range(k_count)]
        values = [to_mpc(s) for s in samples]
        out = []
        for d in range(k_count):
            acc = mp.mpc(0)
            for k, s in enumerate(values):
                acc += s * unity[(d * k) % k_count]
            out.append(acc / k_count)
        return out
