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
from fractions import Fraction

from .config import DEFAULT
from .errors import (InputError, MatchingAmbiguous, NearCriticalValue,
                     NumericalError, PathThroughCriticalDisk)
from .poly import (ComplexPoly, critical_values, lex_sorted, poly_gcd, roots_raw,
                   RatPoly)


@dataclass(frozen=True)
class Fiber:
    """Ordered roots of p(z) = t; the order carries continuation history."""

    t: complex
    roots: tuple
    poly: ComplexPoly


@dataclass(frozen=True)
class MonodromyRep:
    """Permutations of fiber indices induced by loops around critical values.

    A permutation p means the root starting at index i ends at index p[i].
    Loops are stored counterclockwise by argument from the basepoint, and
    their permutations, applied from the last stored loop to the first,
    give the permutation of the loop around infinity.
    """

    basepoint: complex
    fiber: Fiber
    loops: tuple  # of (critical_value, permutation tuple)
    infinity_permutation: tuple
    ordering: str

    def generators(self):
        return [perm for _, perm in self.loops]

    def as_dict(self):
        """The report form, complex values left for ``dump_report``."""
        return {
            "basepoint": self.basepoint,
            "ordering": self.ordering,
            "loops": [
                {
                    "critical_value": cv,
                    "permutation": [p + 1 for p in perm],
                }
                for cv, perm in self.loops
            ],
            "infinity_permutation": [p + 1 for p in self.infinity_permutation],
        }


def per_cv_radii(critical):
    """Exclusion radius per critical value: exclusion_scale*(1 + spread of
    the critical values), or 0.3 of the distance to the nearest other
    critical value when that is smaller."""
    vals = critical.critical_values
    r = DEFAULT.exclusion_scale * (1.0 + critical.spread)
    radii = []
    for i, cv in enumerate(vals):
        dmin = min((abs(cv - o) for j, o in enumerate(vals) if j != i),
                   default=None)
        radii.append(r if dmin is None else min(r, 0.3 * dmin))
    return radii


def _sorted_roots(values, ordering):
    if ordering == "lex":
        return tuple(lex_sorted(values, DEFAULT.tol_cluster))
    if ordering != "real":
        raise InputError(f"unknown fiber ordering {ordering!r}: 'lex' or 'real'")
    imag = max(abs(z.imag) for z in values)
    scale = 1.0 + max(abs(z) for z in values)
    if imag > 1e-6 * scale:
        raise InputError("real ordering requested for a non-real fiber")
    return tuple(sorted(values, key=lambda z: z.real))


def solve_fiber(p, t, ordering="lex", critical=None):
    """Fiber of p at t in canonical order (``lex_sorted`` by (re, im))."""
    if not cmath.isfinite(t):
        raise InputError(f"fiber over t={t}, which is not finite")
    if critical is not None:
        for cv, r in zip(critical.critical_values, per_cv_radii(critical)):
            if abs(t - cv) <= r:
                raise NearCriticalValue(
                    f"t={t} is within {r:g} of critical value {cv}")
    values = [complex(z) for z in roots_raw(p.minus(t).coeffs)]
    return Fiber(t=complex(t), roots=_sorted_roots(values, ordering), poly=p)


def _nearest(old, new):
    """Index of the nearest new point for each old one, the first of equal
    distances; None unless that is a bijection."""
    new = [complex(w) for w in new]
    assignment = []
    for z in map(complex, old):
        dist = [abs(w - z) for w in new]
        assignment.append(dist.index(min(dist)))
    return assignment if len(set(assignment)) == len(assignment) else None


def separations(points):
    """Distance from each point to its nearest other point, each pairwise
    distance computed once."""
    sep = [math.inf] * len(points)
    for i, z in enumerate(points):
        for j in range(i + 1, len(points)):
            d = abs(z - points[j])
            sep[i], sep[j] = min(sep[i], d), min(sep[j], d)
    return sep


def halving_match(old, new):
    """Nearest-neighbor matching old->new; None unless a halving bijection."""
    old = [complex(z) for z in old]
    new = [complex(w) for w in new]
    assignment = _nearest(old, new)
    if assignment is None or any(
            abs(new[k] - z) >= 0.5 * sep
            for z, k, sep in zip(old, assignment, separations(old))):
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


def track_path(fiber, path, critical=None):
    """Continue an ordered fiber along waypoints in the t-plane.

    Between waypoints the step is adaptive: it halves whenever the matching
    fails its certificate and grows again after successes.  The path must
    stay outside the hard exclusion disks around critical values.
    """
    for waypoint in path:
        if not cmath.isfinite(waypoint):
            raise InputError(f"waypoint {waypoint} is not finite")
    if critical is not None:
        radii = per_cv_radii(critical)
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
                raw = roots_raw(p.minus(t_next).coeffs, init=current)
                new = [complex(z) for z in raw]
                assignment = halving_match(current, new)
            except NumericalError:
                assignment = None
            if assignment is None:
                step *= 0.5
                if step < DEFAULT.step_floor * (1.0 + abs(target)):
                    raise MatchingAmbiguous(
                        f"step size underflow near t={current_t}")
                continue
            current = [new[assignment[i]] for i in range(len(new))]
            pos += step
            step *= 1.7
        current_t = target

    return Fiber(t=current_t, roots=tuple(current), poly=p)


def _permutation(fiber_start, fiber_end):
    """p with end.roots[p[i]] landing at the slot of start.roots[i].

    Both fibers sit over the same t, so the end roots are a permutation of
    the start roots; p[i] names the root whose continuation arrived at
    start slot i.  In this convention the stored loop permutations,
    applied from last to first, give the stored infinity permutation.
    """
    perm = _nearest(fiber_start.roots, fiber_end.roots)
    if perm is None:
        raise MatchingAmbiguous("loop endpoints do not match bijectively")
    return tuple(perm)


def _compose(first, second):
    """Apply ``first`` then ``second``."""
    return tuple(second[first[i]] for i in range(len(first)))


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


def _clear_basepoint(critical):
    """Deterministic basepoint right of all critical values with clear
    keyhole segments."""
    vals = critical.critical_values
    radii = per_cv_radii(critical)
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


def _clear_ray_angle(t0, critical):
    radii = per_cv_radii(critical)
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


def monodromy(f, basepoint=None, ordering="lex"):
    """Monodromy representation of f from keyhole loops.

    Loops are sorted counterclockwise by argument seen from the basepoint;
    their permutations, applied from the last loop to the first, give the
    permutation of the loop around infinity.  This holds for every loop,
    including the non-involutive loops of degenerate or merged critical
    values (a 3-cycle around the one critical value of x^3).
    """
    if f.degree < 2:
        raise InputError("monodromy requires deg f >= 2")
    critical = critical_values(f)
    radii = dict(zip(critical.critical_values, per_cv_radii(critical)))
    p = f.to_complex()

    if basepoint is None:
        t0 = _clear_basepoint(critical)
    else:
        t0 = complex(basepoint)
        for cv, r_cv in radii.items():
            if abs(t0 - cv) <= 2.0 * r_cv:
                raise NearCriticalValue("basepoint inside an exclusion disk")

    fiber0 = solve_fiber(p, t0, ordering=ordering, critical=critical)

    # sort loops counterclockwise by argument, anchored at the (cleared)
    # ray direction used for the loop around infinity; this makes the
    # composition identity hold for interior basepoints too
    theta, far = _clear_ray_angle(t0, critical)
    two_pi = 2.0 * math.pi
    order = sorted(critical.critical_values,
                   key=lambda cv: (cmath.phase(cv - t0) - theta) % two_pi)
    loops = []
    for cv in order:
        end = track_path(fiber0, loop_waypoints(t0, cv, radii[cv]), critical)
        loops.append((cv, _permutation(fiber0, end)))

    ray_start = far * cmath.exp(1j * theta)
    waypoints = [ray_start] + _circle(0.0, far, theta, 24) + [t0]
    end = track_path(fiber0, waypoints, critical)
    infinity_perm = _permutation(fiber0, end)

    composed = tuple(range(f.degree))
    for _, perm in reversed(loops):
        composed = _compose(composed, perm)
    if composed != infinity_perm:
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


def orbit_rank(f, cycle, rep=None):
    """Dimension over Q of the span of the monodromy orbit of a cycle.

    That span is the smallest subspace holding the weights that every loop
    permutation maps into itself (each has finite order, so its inverse
    does too).  Its basis grows one vector at a time, reduced against the
    vectors before it, and the images of each new vector are queued, so at
    most m vectors are ever kept.
    """
    if rep is None:
        rep = monodromy(f)
    if len(cycle.weights) != len(rep.fiber.roots):
        raise InputError("cycle length must match the fiber size")
    basis = []  # (pivot, row with row[pivot] == 1, zero at earlier pivots)
    queue = [cycle.weights]
    while queue:
        vec = [Fraction(v) for v in queue.pop()]
        for pivot, row in basis:
            c = vec[pivot]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
        pivot = next((i for i, a in enumerate(vec) if a), None)
        if pivot is not None:
            row = [a / vec[pivot] for a in vec]
            basis.append((pivot, row))
            queue += [_apply_perm(perm, row) for perm in rep.generators()]
    return len(basis)


def circulant_rank(cycle):
    """Lower bound for the orbit rank from the cyclic monodromy at infinity:
    m - deg gcd(phi(x), x^m - 1) with phi built from the reversed weights."""
    w = cycle.weights
    m = len(w)
    phi = RatPoly([w[0]] + [w[m - 1 - k] for k in range(m - 1)])
    xm1 = RatPoly([-1] + [0] * (m - 1) + [1])
    g = poly_gcd(phi, xm1)
    return m - g.degree
