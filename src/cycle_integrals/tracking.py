"""Fibers p(z) = t, certified continuation, monodromy, and orbit ranks.

Continuation uses nearest-neighbor matching accepted only when it is a
distance-halving bijection: every root must move less than half of its
distance to the nearest other root.  The disks of those radii are
disjoint, which makes the matching provably unique, and a root far from
the others (one escaping to infinity, say) may move in proportion to its
own isolation rather than to the closest pair.
Monodromy loops are keyholes from a common basepoint; loop order is
counterclockwise by argument as seen from the basepoint.
"""

import cmath
import math
from dataclasses import dataclass

from .config import DEFAULT
from .errors import (InputError, MatchingAmbiguous, NearCriticalValue,
                     NumericalError, OrbitExplosion, PathThroughCriticalDisk)
from .poly import (ComplexPoly, critical_values, lex_sorted, poly_gcd, roots_raw,
                   RatPoly)

ORBIT_CAP = 100_000


@dataclass(frozen=True)
class Fiber:
    """Ordered roots of p(z) = t; the order carries continuation history."""

    t: complex
    roots: tuple
    poly: ComplexPoly
    basepoint_tag: str


@dataclass(frozen=True)
class MonodromyRep:
    """Permutations of fiber indices induced by loops around critical values.

    A permutation p means the root starting at index i ends at index p[i].
    Loops are stored counterclockwise by argument from the basepoint, and
    composing them in storage order equals the inverse of the loop around
    infinity.
    """

    basepoint: complex
    fiber: Fiber
    loops: tuple  # of (critical_value, permutation tuple)
    infinity_permutation: tuple
    ordering: str

    def generators(self):
        return [perm for _, perm in self.loops]

    def as_dict(self):
        return {
            "basepoint": [repr(self.basepoint.real), repr(self.basepoint.imag)],
            "ordering": self.ordering,
            "loops": [
                {
                    "critical_value": [repr(cv.real), repr(cv.imag)],
                    "permutation": [p + 1 for p in perm],
                }
                for cv, perm in self.loops
            ],
            "infinity_permutation": [p + 1 for p in self.infinity_permutation],
        }


def exclusion_radius(critical, settings=DEFAULT):
    return settings.exclusion_scale * (1.0 + critical.spread)


def critical_exclusion(value, settings=DEFAULT):
    """Scale-aware exclusion radius around one critical value.

    Per-value scaling keeps the disks proportionate when a singular
    perturbation pushes some critical values to huge magnitudes while
    others stay small.
    """
    return settings.exclusion_scale * (1.0 + abs(value))


def per_cv_radii(critical, settings=DEFAULT):
    """Loop radius per critical value, shrunk near clustered values."""
    vals = critical.critical_values
    r = exclusion_radius(critical, settings)
    radii = []
    for i, cv in enumerate(vals):
        dmin = min((abs(cv - o) for j, o in enumerate(vals) if j != i),
                   default=None)
        radii.append(r if dmin is None else min(r, 0.3 * dmin))
    return radii


def _sorted_roots(values, ordering, settings):
    if ordering == "real":
        imag = max(abs(z.imag) for z in values)
        scale = 1.0 + max(abs(z) for z in values)
        if imag > 1e-6 * scale:
            raise InputError("real ordering requested for a non-real fiber")
        return tuple(sorted(values, key=lambda z: z.real))
    return tuple(lex_sorted(values, settings.tol_cluster))


def solve_fiber(p, t, settings=DEFAULT, ordering="lex", critical=None):
    """Fiber of p at t in canonical order (``lex_sorted`` by (re, im))."""
    if critical is not None:
        r = exclusion_radius(critical, settings)
        for cv in critical.critical_values:
            if abs(t - cv) <= r:
                raise NearCriticalValue(
                    f"t={t} is within {r:g} of critical value {cv}")
    raw = roots_raw(p.minus(t).coeffs, settings)
    values = [complex(z) for z in raw]
    tag = f"{ordering}@{t!r}"
    return Fiber(t=complex(t), roots=_sorted_roots(values, ordering, settings),
                 poly=p, basepoint_tag=tag)


def _match(old, new):
    """Nearest-neighbor matching old->new; None unless a halving bijection."""
    n = len(old)
    assignment = []
    for i in range(n):
        dists = [abs(new[j] - old[i]) for j in range(n)]
        assignment.append(min(range(n), key=dists.__getitem__))
    if len(set(assignment)) != n:
        return None
    for i in range(n):
        sep = min(abs(old[i] - old[j]) for j in range(n) if j != i)
        if abs(new[assignment[i]] - old[i]) >= 0.5 * sep:
            return None
    return assignment


def _segment_distance(point, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(point - a)
    s = ((point - a) * ab.conjugate()).real / denom
    s = min(1.0, max(0.0, s))
    return abs(point - (a + s * ab))


def track_path(fiber, path, settings=DEFAULT, critical=None):
    """Continue an ordered fiber along waypoints in the t-plane.

    Between waypoints the step is adaptive: it halves whenever the matching
    fails its certificate and grows again after successes.  The path must
    stay outside the hard exclusion disks around critical values.
    """
    if critical is not None:
        radii = per_cv_radii(critical, settings)
        for a, b in zip([fiber.t] + list(path[:-1]), path):
            for cv, r_cv in zip(critical.critical_values, radii):
                if _segment_distance(cv, complex(a), complex(b)) < 0.25 * r_cv:
                    raise PathThroughCriticalDisk(
                        f"segment {a} -> {b} enters the disk of {cv}")

    p = fiber.poly
    current_t = complex(fiber.t)
    current = list(fiber.roots)

    for waypoint in path:
        target = complex(waypoint)
        # adaptive continuation along the straight segment to the waypoint
        seg_len = abs(target - current_t)
        if seg_len == 0.0:
            continue
        direction = (target - current_t) / seg_len
        step = seg_len
        pos = 0.0
        while pos < seg_len:
            step = min(step, seg_len - pos)
            t_next = current_t + direction * (pos + step)
            try:
                raw = roots_raw(p.minus(t_next).coeffs, settings, init=current)
                new = [complex(z) for z in raw]
                assignment = _match(current, new)
            except NumericalError:
                assignment = None
            if assignment is None:
                step *= 0.5
                if step < settings.step_floor * (1.0 + abs(target)):
                    raise MatchingAmbiguous(
                        f"step size underflow near t={current_t}")
                continue
            current = [new[assignment[i]] for i in range(len(new))]
            pos += step
            step *= 1.7
        current_t = target

    return Fiber(t=current_t, roots=tuple(current), poly=p,
                 basepoint_tag=fiber.basepoint_tag + "+tracked")


def _permutation(fiber_start, fiber_end):
    """p with end.roots[p[i]] landing at the slot of start.roots[i].

    Both fibers sit over the same t, so the end roots are a permutation of
    the start roots; p[i] names the root whose continuation arrived at
    start slot i.  The convention is fixed and self-consistent: composing
    stored loop permutations in storage order equals the inverse of the
    stored infinity permutation.
    """
    old = fiber_start.roots
    new = fiber_end.roots
    n = len(old)
    perm = []
    for i in range(n):
        dists = [abs(new[j] - old[i]) for j in range(n)]
        perm.append(min(range(n), key=dists.__getitem__))
    if len(set(perm)) != n:
        raise MatchingAmbiguous("loop endpoints do not match bijectively")
    return tuple(perm)


def _compose(first, second):
    """Apply ``first`` then ``second``."""
    return tuple(second[first[i]] for i in range(len(first)))


def _inverse(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _circle(center, radius, start_angle, segments, turns=1.0):
    pts = []
    for k in range(1, segments + 1):
        theta = start_angle + 2.0 * math.pi * turns * k / segments
        pts.append(center + radius * cmath.exp(1j * theta))
    return pts


def loop_waypoints(basepoint, cv, radius, turns=1):
    """Keyhole loop around one critical value, starting and ending at the
    basepoint; ``turns`` full counterclockwise circles."""
    u = (basepoint - cv) / abs(basepoint - cv)
    approach = cv + radius * u
    theta0 = cmath.phase(u)
    return ([approach]
            + _circle(cv, radius, theta0, 16 * turns, turns=float(turns))
            + [basepoint])


def _clear_basepoint(critical, settings):
    """Deterministic basepoint right of all critical values with clear
    keyhole segments."""
    vals = critical.critical_values
    radii = per_cv_radii(critical, settings)
    spread = max(critical.spread, 1.0)
    max_re = max(v.real for v in vals)
    offsets = [0.0]
    for k in range(1, 21):
        offsets += [0.17 * k, -0.17 * k]
    for dist in (2.0, 1.0, 0.6, 3.2, 4.8):
        for eta in offsets:
            t0 = complex(max_re + dist * spread, eta * spread)
            ok = True
            for i, cv in enumerate(vals):
                u = (t0 - cv) / abs(t0 - cv)
                approach = cv + radii[i] * u
                for j, other in enumerate(vals):
                    if j == i:
                        continue
                    if _segment_distance(other, t0, approach) < 1.5 * radii[j]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return t0
    raise NumericalError("could not place a clear monodromy basepoint")


def _clear_ray_angle(t0, critical, settings):
    radii = per_cv_radii(critical, settings)
    base = cmath.phase(t0) if t0 != 0 else 0.0
    candidates = [base]
    for k in range(1, 16):
        candidates += [base + 0.4 * k, base - 0.4 * k]
    far = 2.0 * (abs(t0) + critical.max_abs) + 1.0
    for theta in candidates:
        end = far * cmath.exp(1j * theta)
        if all(_segment_distance(cv, t0, end) > 2.0 * r_cv
               for cv, r_cv in zip(critical.critical_values, radii)):
            return theta, far
    raise NumericalError("no clear ray to infinity from the basepoint")


def monodromy(f, settings=DEFAULT, basepoint=None, ordering="lex"):
    """Monodromy representation of f from keyhole loops.

    Loops are sorted counterclockwise by argument seen from the basepoint;
    composing their permutations in that order gives the inverse of the
    permutation of the loop around infinity.
    """
    if f.degree < 2:
        raise InputError("monodromy requires deg f >= 2")
    critical = critical_values(f, settings)
    radii = dict(zip(critical.critical_values, per_cv_radii(critical, settings)))
    p = f.to_complex()

    if basepoint is None:
        t0 = _clear_basepoint(critical, settings)
    else:
        t0 = complex(basepoint)
        for cv, r_cv in radii.items():
            if abs(t0 - cv) <= 2.0 * r_cv:
                raise NearCriticalValue("basepoint inside an exclusion disk")

    fiber0 = solve_fiber(p, t0, settings, ordering=ordering, critical=critical)

    # sort loops counterclockwise by argument, anchored at the (cleared)
    # ray direction used for the loop around infinity; this makes the
    # composition identity hold for interior basepoints too
    theta, far = _clear_ray_angle(t0, critical, settings)
    two_pi = 2.0 * math.pi
    order = sorted(critical.critical_values,
                   key=lambda cv: (cmath.phase(cv - t0) - theta) % two_pi)
    loops = []
    for cv in order:
        end = track_path(fiber0, loop_waypoints(t0, cv, radii[cv]),
                         settings, critical)
        loops.append((cv, _permutation(fiber0, end)))

    ray_start = far * cmath.exp(1j * theta)
    waypoints = [ray_start] + _circle(0.0, far, theta, 24) + [t0]
    end = track_path(fiber0, waypoints, settings, critical)
    infinity_perm = _permutation(fiber0, end)

    composed = loops[0][1] if loops else tuple(range(f.degree))
    for _, perm in loops[1:]:
        composed = _compose(composed, perm)
    if composed != _inverse(infinity_perm):
        raise NumericalError("monodromy composition consistency failed")

    return MonodromyRep(basepoint=t0, fiber=fiber0, loops=tuple(loops),
                        infinity_permutation=infinity_perm, ordering=ordering)


# -- orbits and ranks --------------------------------------------------------

def _apply_perm(perm, weights):
    """Transport weights along a loop: the weight at i moves to perm[i]."""
    out = [0] * len(weights)
    for i, w in enumerate(weights):
        out[perm[i]] = w
    return tuple(out)


def _int_rank(rows):
    """Exact rank over Q of integer row vectors (fraction-free elimination)."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    row = 0
    for col in range(cols):
        pivot = None
        for i in range(row, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pr = mat[row]
        for i in range(row + 1, len(mat)):
            if mat[i][col] == 0:
                continue
            a, b = pr[col], mat[i][col]
            g = math.gcd(a, b)
            mat[i] = [(a // g) * x - (b // g) * y for x, y in zip(mat[i], pr)]
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


def orbit_rank(f, cycle, settings=DEFAULT, rep=None):
    """Dimension over Q of the span of the monodromy orbit of a cycle."""
    if rep is None:
        rep = monodromy(f, settings)
    if len(cycle.weights) != len(rep.fiber.roots):
        raise InputError("cycle length must match the fiber size")
    gens = []
    for perm in rep.generators():
        gens.append(perm)
        gens.append(_inverse(perm))
    start = tuple(cycle.weights)
    orbit = {start}
    frontier = [start]
    while frontier:
        vec = frontier.pop()
        for perm in gens:
            nxt = _apply_perm(perm, vec)
            if nxt not in orbit:
                if len(orbit) >= ORBIT_CAP:
                    raise OrbitExplosion("monodromy orbit exceeded the cap")
                orbit.add(nxt)
                frontier.append(nxt)
    return _int_rank(sorted(orbit))


def circulant_rank(cycle):
    """Lower bound for the orbit rank from the cyclic monodromy at infinity:
    m - deg gcd(phi(x), x^m - 1) with phi built from the reversed weights."""
    w = cycle.weights
    m = len(w)
    phi = RatPoly([w[0]] + [w[m - 1 - k] for k in range(m - 1)])
    xm1 = RatPoly([-1] + [0] * (m - 1) + [1])
    g = poly_gcd(phi, xm1)
    return m - g.degree
