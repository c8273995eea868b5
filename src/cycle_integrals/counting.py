"""Zero extraction, bound comparison, alien classification, and the
randomized sharpness experiments.

Counts are of distinct oracle zeros away from the (deduplicated) critical
values.  The oracle multiplies distinct branch factors, so every regular
zero is simple in it, or double when a sign symmetry of the cycle pairs
each factor with its negative; the count ignores multiplicities
(distinct-value semantics).

Alien classification continues each displacement zero in epsilon on its
own branch factor, with a Newton corrector and the halving-bijection
certificate of `tracking` on every fiber update, and sorts the branches
by where they end as epsilon tends to zero.
"""

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from .config import DEFAULT
from .cycles import (bound_infinitesimal, bound_tangential, random_generic_cycle,
                     random_simple_cycle, regular_at_infinity, symmetry_group)
from .errors import (BranchMatchingAmbiguous, IdenticallyZeroIntegral,
                     InputError, CycleIntegralsError, NumericalError)
from .melnikov import (Instance, brieskorn_dimension, build_infinitesimal_oracle,
                       build_tangential_oracle, reduce_deformation)
from .poly import RatPoly, cluster_points, critical_values, lex_sorted, roots_raw
from .tracking import _match, critical_exclusion


@dataclass(frozen=True)
class ZeroReport:
    """Distinct regular zeros of a branch-complete oracle with the verdict."""

    kind: str
    distinct_regular_zeros: tuple  # of (t, multiplicity_in_oracle)
    excluded_near_critical: tuple
    bound: int
    count: int
    sharp: bool
    symmetry_order_used: int
    fitted_degree: int
    degree_bound: int
    fit_residual: float
    precision_dps: int | None
    certificate: dict | None

    def as_dict(self):
        return {
            "kind": self.kind,
            "count": self.count,
            "bound": self.bound,
            "sharp": self.sharp,
            "symmetry_order_used": self.symmetry_order_used,
            "distinct_regular_zeros": [
                {"t": [repr(z.real), repr(z.imag)], "multiplicity": mult}
                for z, mult in self.distinct_regular_zeros
            ],
            "excluded_near_critical": [[repr(z.real), repr(z.imag)]
                                       for z in self.excluded_near_critical],
            "fitted_degree": self.fitted_degree,
            "degree_bound": self.degree_bound,
            "fit_residual": repr(self.fit_residual),
            "precision_dps": self.precision_dps,
            "certificate": self.certificate,
        }


@dataclass(frozen=True)
class AlienReport:
    """Where each displacement zero at the smallest epsilon ends as epsilon
    tends to zero: a tangential zero, a critical value or infinity.

    ``limit`` is the zero where its continuation settled (None when it
    escapes); ``trajectory`` is aligned at the smallest epsilon and stops
    short when continuing upward met a collision.
    """

    epsilon_schedule: tuple
    branches: tuple  # of dicts: trajectory, limit, class, matched
    tangential_zero_set: tuple
    regular_count: int
    alien_count: int
    infinitesimal_count: int
    tangential_count: int

    def as_dict(self):
        return {
            "epsilon_schedule": [str(e) for e in self.epsilon_schedule],
            "tangential_zero_set": [[repr(z.real), repr(z.imag)]
                                    for z in self.tangential_zero_set],
            "regular_count": self.regular_count,
            "alien_count": self.alien_count,
            "infinitesimal_count": self.infinitesimal_count,
            "tangential_count": self.tangential_count,
            "branches": [
                {
                    "class": b["class"],
                    "limit": (None if b["limit"] is None
                              else [repr(b["limit"].real), repr(b["limit"].imag)]),
                    "matched": b["matched"],
                    "trajectory": [[repr(z.real), repr(z.imag)]
                                   for z in b["trajectory"]],
                }
                for b in self.branches
            ],
        }


def _sign_multiplicity(group):
    """2 when some permutation maps the weights to their negatives, else 1:
    the multiplicity of every regular zero of the oracle."""
    return 2 if any(sign < 0 for _, sign in group.elements) else 1


def _cluster_zeros(zeros, base_scale, settings):
    """Group oracle zeros into distinct values.

    A double zero of a sign-symmetric product is extracted at 40 digits or
    more, which splits it far below the cluster radius.
    """
    tol = lambda z: settings.cluster_scale * (base_scale + abs(z))
    return cluster_points(zeros, tol)


def _split_regular(clusters, crit_values, settings):
    """Separate zero clusters sitting on a critical value from regular ones.

    The exclusion radius adapts to the observed cluster scatter: a cluster
    is a critical-value artifact when its center lies within its own
    extraction noise of the value.  Genuine zeros merely close to a
    critical value (alien limits approaching it) survive.  Both tuples are
    in ``lex_sorted`` order.
    """
    regular = []
    excluded = []
    for center, members in clusters:
        scatter = max((abs(z - center) for z in members), default=0.0)
        near = any(
            abs(center - cv) <= 10.0 * scatter
            + settings.exclusion_floor * (1.0 + abs(cv))
            for cv in crit_values)
        if near:
            excluded.append(center)
        else:
            regular.append((center, len(members)))
    return (tuple(lex_sorted(regular, settings.tol_cluster, key=lambda zm: zm[0])),
            tuple(lex_sorted(excluded, settings.tol_cluster)))


def _effective_tangential_degree(inst):
    if inst.n % inst.m != 0:
        return inst.n
    g_tilde, _ = reduce_deformation(inst.f, inst.g)
    return g_tilde.degree if not g_tilde.is_zero else 0


def count_tangential_zeros(inst, settings=DEFAULT):
    """Distinct regular zeros of the first-order integral on all branches."""
    if inst.epsilon not in (None, 0):
        raise InputError("tangential counting runs without epsilon")
    oracle = build_tangential_oracle(inst, settings)
    if oracle.identically_zero:
        raise IdenticallyZeroIntegral(
            "the integral vanishes identically on the cycle (tangential center)")
    crit = critical_values(inst.f, settings)
    base_scale = settings.radius_factor * (1.0 + crit.max_abs)
    group = symmetry_group(inst.cycle, settings)
    mult = _sign_multiplicity(group)
    clusters = _cluster_zeros(oracle.zeros, base_scale, settings)
    regular, excluded = _split_regular(clusters, crit.critical_values, settings)
    bound = bound_tangential(inst.m, inst.n)
    n_eff = _effective_tangential_degree(inst)
    cert = regular_at_infinity(inst.cycle, n_eff, settings) if n_eff else None
    count = len(regular)
    _check_bound(count, bound)
    report = ZeroReport(
        kind="tangential",
        distinct_regular_zeros=regular,
        excluded_near_critical=excluded,
        bound=bound,
        count=count,
        sharp=count == bound,
        symmetry_order_used=group.order,
        fitted_degree=oracle.fitted_degree,
        degree_bound=oracle.declared_degree_bound,
        fit_residual=oracle.fit_residual,
        precision_dps=oracle.precision_dps,
        certificate=cert.as_dict() if cert is not None else None,
    )
    return _finalize(report, count_tangential_zeros, inst, settings, mult)


def count_infinitesimal_zeros(inst, settings=DEFAULT):
    """Distinct regular zeros of the displacement at the instance epsilon."""
    if inst.epsilon in (None, 0):
        raise InputError("infinitesimal counting requires a nonzero epsilon")
    crit_f = critical_values(inst.f, settings)
    base_scale = settings.radius_factor * (1.0 + crit_f.max_abs)
    p = inst.deformed_poly()
    crit_eps = critical_values(p, settings)
    # perturbative-regime check: every critical value of f must have a
    # nearby critical value of the deformed polynomial
    for cv in crit_f.critical_values:
        if min(abs(cv - ce) for ce in crit_eps.critical_values) > 2.0 * base_scale:
            raise InputError(
                f"epsilon={inst.epsilon} is outside the perturbative regime")
    oracle = build_infinitesimal_oracle(inst, settings)
    if oracle.identically_zero:
        raise IdenticallyZeroIntegral(
            "the displacement vanishes identically on the deformed cycle")
    group = symmetry_group(inst.cycle, settings)
    mult = _sign_multiplicity(group)
    clusters = _cluster_zeros(oracle.zeros, base_scale, settings)
    regular, excluded = _split_regular(clusters, crit_eps.critical_values, settings)
    bound = bound_infinitesimal(inst.m, inst.n)
    count = len(regular)
    _check_bound(count, bound)
    report = ZeroReport(
        kind="infinitesimal",
        distinct_regular_zeros=regular,
        excluded_near_critical=excluded,
        bound=bound,
        count=count,
        sharp=count == bound,
        symmetry_order_used=group.order,
        fitted_degree=oracle.fitted_degree,
        degree_bound=oracle.declared_degree_bound,
        fit_residual=oracle.fit_residual,
        precision_dps=oracle.precision_dps,
        certificate=None,
    )
    return _finalize(report, count_infinitesimal_zeros, inst, settings, mult)


def _check_bound(count, bound):
    if count > bound:
        raise NumericalError(f"{count} distinct zeros exceed the bound {bound}")


def _finalize(report, counter, inst, settings, mult):
    """Multiplicity audit with one forced-precision retry as a safety net:
    under a sign symmetry a double root split into two clusters shows up
    as an odd multiplicity."""
    bad = any(m < 1 or m % mult for _, m in report.distinct_regular_zeros)
    if not bad:
        return report
    if settings.precision_bits is None:
        return counter(inst, settings.with_overrides(precision_bits=150))
    raise CycleIntegralsError(
        f"zero multiplicities {[m for _, m in report.distinct_regular_zeros]} "
        f"not divisible by the sign multiplicity {mult}")


@dataclass(frozen=True)
class _Point:
    """A certified point of a branch: epsilon, the zero t, the ordered
    deformed fiber over t, and the slope dt/deps of the zero."""

    eps: float
    t: complex
    roots: np.ndarray
    slope: complex


class _Branch:
    """One displacement zero continued in epsilon on its branch factor.

    The factor is G(t, eps) = sum_j n_j g(w_sigma(j)(t, eps)) on the fiber
    f + eps*g = t.  By the exact identity sum n_j f(w_j) = -eps sum n_j
    g(w_j) it has the displacement zeros of the branch sigma for eps != 0,
    and it tends to the abelian integral on that branch as eps -> 0.
    ``start`` is the zero at the seed epsilon, corrected on the branch whose
    factor vanishes there.
    """

    def __init__(self, inst, t, eps, settings):
        self.f = np.array(inst.f.to_complex().coeffs)
        self.g = np.array(inst.g.to_complex().coeffs)
        self.df = npoly.polyder(self.f)
        self.dg = npoly.polyder(self.g)
        self.weights = np.array(inst.cycle.weights, dtype=float)
        self.settings = settings
        roots = self._fiber(t, eps)
        self.slots = list(min(
            itertools.permutations(range(len(roots)), len(self.weights)),
            key=lambda s: abs(self.weights @ npoly.polyval(roots[list(s)], self.g))))
        self.start = self.advance(_Point(eps, t, roots, 0j), eps)
        if self.start is None:
            raise BranchMatchingAmbiguous(
                f"the displacement zero {t} does not lie on a certified branch")

    def _fiber(self, t, eps, init=None):
        coeffs = npoly.polyadd(self.f, eps * self.g)
        coeffs[0] -= t
        return roots_raw(coeffs, self.settings, init=init)

    def advance(self, point, eps):
        """Euler predictor and Newton corrector on G at a new epsilon.

        Every fiber update must pass the halving-bijection certificate and
        the Newton steps must contract; otherwise returns None so that the
        caller shortens the step.
        """
        t = point.t + point.slope * (eps - point.eps)
        roots = point.roots
        last = math.inf
        for _ in range(8):
            try:
                new = self._fiber(t, eps, init=roots)
            except NumericalError:
                return None
            order = _match(roots, new)
            if order is None:
                return None
            roots = new[order]
            z = roots[self.slots]
            gz = npoly.polyval(z, self.g)
            dgz = npoly.polyval(z, self.dg)
            dzdt = 1.0 / (npoly.polyval(z, self.df) + eps * dgz)
            g_t = self.weights @ (dgz * dzdt)
            if g_t == 0:
                return None
            # dw/deps = -g(w) dw/dt at fixed t, so dt/deps = -G_eps / G_t
            slope = (self.weights @ (dgz * gz * dzdt)) / g_t
            step = -(self.weights @ gz) / g_t
            if abs(step) <= self.settings.tol_cluster * (1.0 + abs(t)):
                return _Point(eps, complex(t), roots, complex(slope))
            if abs(step) > 0.5 * last:
                return None
            last = abs(step)
            t = t + step
        return None

    def walk(self, point, target):
        """Certified points from ``point`` toward eps = target in geometric
        steps; stops early when the step underflows."""
        h = math.log(2.0)
        while point.eps != target:
            span = math.log(target / point.eps)
            eps = (target if abs(span) <= h
                   else point.eps * math.exp(math.copysign(h, span)))
            new = self.advance(point, eps)
            if new is None:
                h *= 0.5
                if h < self.settings.step_floor:
                    return
                continue
            point = new
            yield point
            h = min(1.7 * h, math.log(2.0))


def _branch_end(branch, tzeros, crit_values, r_f, horizon, settings):
    """Continue a branch toward eps -> 0; return (limit, class, matched).

    A branch ends at a tangential zero (regular), at a critical value of f
    where fiber points collide (alien), or beyond the horizon while still
    growing (alien, escaping to infinity).  It has ended at a finite limit
    once its remaining drift |eps dt/deps| is below half the matching
    tolerance.  Tangential zeros are tested first, since some regular
    limits lie inside the exclusion disk of a critical value.
    """
    floor = branch.start.eps * settings.step_floor
    for point in itertools.chain([branch.start], branch.walk(branch.start, floor)):
        t = point.t
        if abs(t) > horizon and (t.conjugate() * point.slope).real < 0:
            return None, "alien", "infinity"
        tol = settings.match_scale * (r_f + abs(t))
        if abs(point.eps * point.slope) > 0.5 * tol:
            continue
        if any(abs(t - z) <= tol for z in tzeros):
            return t, "regular", "tangential_zero"
        cv = min(crit_values, key=lambda c: abs(t - c))
        if abs(t - cv) <= max(tol, critical_exclusion(cv, settings)):
            return t, "alien", "critical_value"
    raise BranchMatchingAmbiguous(
        f"the zero continued from {branch.start.t} stalls near {point.t} "
        f"at eps={point.eps:.3e} without reaching a tangential zero, a "
        "critical value or the horizon")


def _trajectory(branch, levels):
    """The zero at each schedule epsilon, continued upward from the
    smallest.  It ends at the last level reached when the continuation
    stalls on the way up, where the zero collides with another zero or
    with a critical value of f + eps*g."""
    point = branch.start
    trajectory = [point.t]
    for eps in reversed(levels[:-1]):
        for point in branch.walk(point, eps):
            pass
        if point.eps != eps:
            break
        trajectory.insert(0, point.t)
    return tuple(trajectory)


def classify_alien(inst, schedule, settings=DEFAULT):
    """Continue each displacement zero in epsilon and classify its branch
    as regular (it ends at a tangential zero) or alien (it ends at a
    critical value of f or escapes to infinity).

    The zeros at the smallest schedule epsilon seed the branches; each is
    continued toward eps -> 0 by `_branch_end`.  A branch's trajectory
    holds its zero at the schedule epsilons, continued upward from the
    smallest by `_trajectory`.  Only the smallest epsilon needs an oracle.
    """
    schedule = [Fraction(e) if not isinstance(e, Fraction) else e for e in schedule]
    if len(schedule) < 3:
        raise InputError("schedule needs at least 3 epsilon values")
    if any(e <= 0 for e in schedule) or any(
            a <= b for a, b in zip(schedule, schedule[1:])):
        raise InputError("schedule must be strictly decreasing and positive")

    base = replace(inst, epsilon=None)
    tangential = count_tangential_zeros(base, settings)
    tzeros = [z for z, _ in tangential.distinct_regular_zeros]

    crit_f = critical_values(inst.f, settings)
    r_f = settings.radius_factor * (1.0 + crit_f.max_abs)
    # escaping branches are those leaving the scale of everything finite:
    # the critical values of f and the tangential zeros themselves
    tz_scale = max((abs(z) for z in tzeros), default=0.0)
    horizon = settings.divergence_factor * max(r_f, 1.5 * tz_scale)

    report = count_infinitesimal_zeros(replace(inst, epsilon=schedule[-1]),
                                       settings)
    levels = [float(e) for e in schedule]
    branches = []
    for seed, _ in report.distinct_regular_zeros:
        branch = _Branch(inst, seed, levels[-1], settings)
        limit, cls, matched = _branch_end(branch, tzeros, crit_f.critical_values,
                                          r_f, horizon, settings)
        branches.append({"trajectory": _trajectory(branch, levels),
                         "limit": limit, "class": cls, "matched": matched})
    n_regular = sum(b["class"] == "regular" for b in branches)
    n_alien = sum(b["class"] == "alien" for b in branches)

    if n_regular + n_alien != report.count:
        raise NumericalError(
            f"{n_regular} regular + {n_alien} alien branches for "
            f"{report.count} displacement zeros")
    return AlienReport(
        epsilon_schedule=tuple(schedule),
        branches=tuple(branches),
        tangential_zero_set=tuple(tzeros),
        regular_count=n_regular,
        alien_count=n_alien,
        infinitesimal_count=report.count,
        tangential_count=tangential.count,
    )


# -- randomized experiments ----------------------------------------------------

def _random_rational(rng, bound=12):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))


def _random_morse_poly(rng, m, settings, tries=60):
    for _ in range(tries):
        coeffs = [_random_rational(rng) for _ in range(m)] + [Fraction(1)]
        f = RatPoly(coeffs)
        if f.degree != m:
            continue
        try:
            crit = critical_values(f, settings)
        except CycleIntegralsError:
            continue
        vals = crit.critical_values
        if len(vals) != m - 1:
            continue
        spread = max(crit.spread, 1.0)
        sep = min((abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:]),
                  default=math.inf)
        if sep > settings.morse_separation * spread:
            return f
    raise InputError(f"could not draw a Morse polynomial of degree {m}")


def _random_poly(rng, n):
    coeffs = [_random_rational(rng) for _ in range(n)]
    lead = Fraction(0)
    while lead == 0:
        lead = _random_rational(rng)
    return RatPoly(coeffs + [lead])


def _certificate_degree(kind, m, n, f, g):
    if kind == "tangential":
        if n % m:
            return n
        g_tilde, _ = reduce_deformation(f, g)
        return g_tilde.degree if not g_tilde.is_zero else n - 1
    if n < m or n % m:
        return n
    # m divides n: the eq-generic test cannot pass; certify with the
    # exponent pattern of the subleading growth order instead
    return m + 1 if n == m else 1


def _draw_cycle(kind, mode, m, n, f, g, trial_seed, settings):
    if mode == "simple" or m == 2:
        return random_simple_cycle(m, trial_seed)
    n_cert = _certificate_degree(kind, m, n, f, g)
    return random_generic_cycle(m, max(n_cert, 1), trial_seed, settings)


def run_sharpness_experiment(m, n, kind, trials, seed, cycle_mode="generic",
                             epsilon=Fraction(1, 100), settings=DEFAULT):
    """Randomized Morse suites recording the attained count distribution.

    Failed trials (degenerate draws, numerical rejections) are recorded and
    skipped.  The summary reports the maximum attained count, the fraction
    of successful trials attaining the theoretical bound, and the ratio of
    that maximum to the dimension of the space of deformations.
    """
    if kind not in ("tangential", "infinitesimal"):
        raise InputError(f"unknown experiment kind {kind!r}")
    effective_mode = "simple" if (cycle_mode == "simple" or m == 2) else "generic"
    if effective_mode == "simple":
        bound = None  # simple-cycle suites compare against bound_simple
    counts = []
    failures = []
    results = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        try:
            f = _random_morse_poly(rng, m, settings)
            g = _random_poly(rng, n)
            cycle = _draw_cycle(kind, effective_mode, m, n, f, g,
                                f"{seed}:{trial}:cycle", settings)
            if kind == "tangential":
                inst = Instance(f, g, cycle)
                report = count_tangential_zeros(inst, settings)
            else:
                inst = Instance(f, g, cycle, epsilon=Fraction(epsilon))
                report = count_infinitesimal_zeros(inst, settings)
            counts.append(report.count)
            results.append({
                "trial": trial,
                "count": report.count,
                "bound": report.bound,
                "fitted_degree": report.fitted_degree,
                "fit_residual": report.fit_residual,
                "cycle": list(cycle.weights),
                "precision_dps": report.precision_dps,
            })
        except CycleIntegralsError as exc:
            failures.append({"trial": trial, "error": type(exc).__name__,
                             "message": str(exc)})
    theory = (bound_tangential(m, n) if kind == "tangential"
              else bound_infinitesimal(m, n))
    max_count = max(counts, default=0)
    attained = (sum(1 for c in counts if c == theory) / len(counts)
                if counts else 0.0)
    dim = brieskorn_dimension(m, n)
    return {
        "m": m,
        "n": n,
        "kind": kind,
        "cycle_mode": effective_mode,
        "trials": trials,
        "seed": seed,
        "epsilon": str(epsilon) if kind == "infinitesimal" else None,
        "bound": theory,
        "max_count": max_count,
        "attained_fraction": attained,
        "counts": counts,
        "results": results,
        "failures": failures,
        "brieskorn_dimension": dim,
        "chebyshev_ratio": max_count / dim,
        "bound_over_dimension": theory / dim,
    }
