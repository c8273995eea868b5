"""Zero extraction, bound comparison, alien classification, and the
randomized sharpness experiments.

Counts are of distinct oracle zeros away from the (deduplicated) critical
values.  The oracle groups its zeros and decides their multiplicities:
every regular zero is simple, or of even multiplicity when a sign symmetry
of the cycle pairs each branch factor with its negative.  The count
ignores multiplicities (distinct-value semantics).

Alien classification continues each displacement zero in epsilon on its
own branch factor, with a Newton corrector and the halving-bijection
certificate of `tracking` on every fiber update, and sorts the branches
by where they end as epsilon tends to zero.  The instance is real, so one
branch of each conjugate pair is continued and the other is its mirror.
"""

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .config import DEFAULT
from .cycles import (bound_infinitesimal, bound_tangential, random_generic_cycle,
                     random_simple_cycle, regular_at_infinity, symmetry_group)
from .errors import (BranchMatchingAmbiguous, CycleIntegralsError, InputError,
                     NumericalError)
from .melnikov import (Instance, brieskorn_dimension, build_infinitesimal_oracle,
                       build_tangential_oracle, reduce_deformation)
from .poly import RatPoly, critical_values, poly_gcd, roots_raw
from .serialize import complex_pair
from .tracking import halving_match, separations


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
                {"t": complex_pair(z), "multiplicity": mult}
                for z, mult in self.distinct_regular_zeros
            ],
            "excluded_near_critical": [complex_pair(z)
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
    short when continuing upward met a collision.  Of each conjugate pair
    of branches one is continued and the other is its exact conjugate,
    with the same ``class`` and ``matched``.  The fields are the report's
    JSON keys, as ``serialize.dump_report`` writes them.
    """

    epsilon_schedule: tuple
    branches: tuple  # of dicts: trajectory, limit, class, matched
    tangential_zero_set: tuple
    regular_count: int
    alien_count: int
    infinitesimal_count: int
    tangential_count: int


def count_tangential_zeros(inst):
    """Distinct regular zeros of the first-order integral on all branches."""
    if inst.epsilon not in (None, 0):
        raise InputError("tangential counting runs without epsilon")
    oracle = build_tangential_oracle(inst)
    # the certificate degree is deg g after the oracle's reduction
    return _zero_report(
        inst, oracle, bound_tangential(inst.m, inst.n),
        regular_at_infinity(inst.cycle, oracle.integrand_degree).as_dict())


def count_infinitesimal_zeros(inst):
    """Distinct regular zeros of the displacement at the instance epsilon."""
    if inst.epsilon in (None, 0):
        raise InputError("infinitesimal counting requires a nonzero epsilon")
    oracle = build_infinitesimal_oracle(inst)
    return _zero_report(inst, oracle, bound_infinitesimal(inst.m, inst.n), None)


def _zero_report(inst, oracle, bound, certificate):
    count = len(oracle.regular)
    if count > bound:
        raise NumericalError(f"{count} distinct zeros exceed the bound {bound}")
    return ZeroReport(
        kind=oracle.kind,
        distinct_regular_zeros=oracle.regular,
        excluded_near_critical=oracle.excluded,
        bound=bound,
        count=count,
        sharp=count == bound,
        symmetry_order_used=symmetry_group(inst.cycle).order,
        fitted_degree=oracle.fitted_degree,
        degree_bound=oracle.declared_degree_bound,
        fit_residual=oracle.fit_residual,
        precision_dps=oracle.precision_dps,
        certificate=certificate,
    )


@dataclass(frozen=True)
class _Point:
    """A certified point of a branch: epsilon, the zero t, the ordered
    deformed fiber over t, and the slope dt/deps of the zero."""

    eps: float
    t: complex
    roots: tuple
    slope: complex


# each root may move at most this fraction of its distance to the nearest
# other root in one predicted step, below the halving certificate's 1/2
_REACH = 0.35


def _plus(p, q, eps):
    """Coefficients of p + eps*q."""
    return [a + eps * b for a, b in itertools.zip_longest(
        p.coeffs, q.coeffs, fillvalue=0j)]


def _real_roots(coeffs):
    """Sorted real parts of the roots of ``coeffs`` within tol_cluster of
    the real axis."""
    return sorted(float(z.real) for z in roots_raw(coeffs)
                  if abs(z.imag) <= DEFAULT.tol_cluster * (1.0 + abs(z)))


def _deflate(coeffs, z):
    """Quotient of the ascending ``coeffs`` by (x - z), remainder dropped."""
    out, acc = [], 0j
    for c in reversed(coeffs[1:]):
        acc = acc * z + c
        out.append(acc)
    return out[::-1]


class _Pencil:
    """The polynomials f + eps*g of an instance in doubles, its cycle, and
    the cusps of the pencil, shared by all its branches.

    A cusp is a real point z where two real critical points of f + eps*g
    meet: a real zero of the Wronskian W = f''g' - f'g'', reached at
    eps_c = -f'(z)/g'(z).  Near it f' + eps*g' is about
    g'(z)(eps - eps_c) + b (x - z)^2 / 2 with b = f'''(z) + eps_c g'''(z),
    so the pair exists below eps_c, and merges as eps grows, when
    g'(z) b > 0.
    """

    def __init__(self, inst):
        self.f = inst.f.to_complex()
        self.g = inst.g.to_complex()
        self.df = inst.f.derivative().to_complex()
        self.dg = inst.g.derivative().to_complex()
        self.cycle = inst.cycle
        try:
            self.cusps = self._cusps(inst.f.derivative(), inst.g.derivative())
        except NumericalError:
            self.cusps = ()

    def fiber(self, t, eps, init=None):
        coeffs = _plus(self.f, self.g, eps)
        coeffs[0] -= t
        return roots_raw(coeffs, init=init).tolist()

    def reach(self, point):
        """The largest log-eps step over which the first-order motion
        eps (slope - g(z)) / (f' + eps g')(z) of every root z of the fiber
        at ``point`` stays below _REACH times its distance to the nearest
        other root."""
        eps, h = point.eps, math.inf
        for z, sep in zip(point.roots, separations(point.roots)):
            speed = abs(eps * (point.slope - self.g.evaluate(z)))
            if speed:
                rate = self.df.evaluate(z) + eps * self.dg.evaluate(z)
                h = min(h, _REACH * sep * abs(rate) / speed)
        return h

    def _cusps(self, df, dg):
        """Sorted (eps, chamber) for each eps > 0 where the real critical
        points of f + eps*g can change: the cusps, and the eps where the
        degree of f' + eps*g' drops when deg f = deg g.  ``chamber`` is
        (i, k) when k real critical points lie just below eps and the i-th
        and (i+1)-th from the left (from 0) merge there, else None."""
        events = []
        if df.degree == dg.degree and -df.leading / dg.leading > 0:
            events.append((float(-df.leading / dg.leading), None))
        w = df.derivative() * dg - df * dg.derivative()
        if w.degree < 1:
            return tuple(events)
        w = w // poly_gcd(w, w.derivative())
        d3f = df.derivative().derivative().to_complex()
        d3g = dg.derivative().derivative().to_complex()
        for z in _real_roots(w.to_complex().coeffs):
            slope = self.dg.evaluate(z).real
            eps = -self.df.evaluate(z).real / slope if slope else math.inf
            if not 0 < eps < math.inf:
                continue
            a, b = d3f.evaluate(z).real, eps * d3g.evaluate(z).real
            chamber = None
            if (slope * (a + b) > 0
                    and abs(a + b) > DEFAULT.tol_cluster * (abs(a) + abs(b))):
                critical = _plus(self.df, self.dg, eps)
                rest = _real_roots(_deflate(_deflate(critical, z), z))
                chamber = (sum(r < z for r in rest), len(rest) + 2)
            events.append((eps, chamber))
        return tuple(sorted(events, key=lambda event: event[0]))

    def shut(self, point, target):
        """True when a cusp proves that a real walk from ``point`` cannot
        reach eps = target > point.eps (`_Branch.walk` gives the proof).

        It checks that t is real to the root tolerance, that the first
        event above point.eps is a cusp below target where the real
        critical points A < B of f + eps*g merge, and that t lies strictly
        between the critical values at A and B, so that a root of the real
        fiber lies strictly between A and B.  Any doubt answers False: t
        off the axis (a zero crawling onto it shows |Im t| up to about
        tol_cluster), a count of real critical points other than the
        cusp's, another event first, or t within tol_cluster of the
        critical value at A or B, where a root nears A or B.
        """
        t = point.t
        ahead = [event for event in self.cusps if event[0] > point.eps]
        if not (ahead and ahead[0][0] < target and ahead[0][1]
                and abs(t.imag) <= DEFAULT.tol_root * (1.0 + abs(t))):
            return False
        below, count = ahead[0][1]
        crit = _real_roots(_plus(self.df, self.dg, point.eps))
        if len(crit) != count:
            return False
        va, vb = (self.f.evaluate(z).real + point.eps * self.g.evaluate(z).real
                  for z in crit[below:below + 2])
        margin = DEFAULT.tol_cluster * (1.0 + abs(t))
        return min(va, vb) + margin < t.real < max(va, vb) - margin


class _Branch:
    """One displacement zero continued in epsilon on its branch factor.

    The factor is G(t, eps) = sum_j n_j g(w_sigma(j)(t, eps)) on the fiber
    f + eps*g = t.  By the exact identity sum n_j f(w_j) = -eps sum n_j
    g(w_j) it has the displacement zeros of the branch sigma for eps != 0,
    and it tends to the abelian integral on that branch as eps -> 0.
    ``start`` is the zero at the seed epsilon, corrected on the branch whose
    factor vanishes there.
    """

    def __init__(self, pencil, t, eps):
        self.pencil = pencil
        roots = pencil.fiber(t, eps)
        gz = [pencil.g.evaluate(z) for z in roots]
        self.slots = min(
            itertools.permutations(range(len(roots)), pencil.cycle.m),
            key=lambda s: abs(pencil.cycle.integral(gz.__getitem__, s)))
        self.start = self.advance(_Point(eps, t, tuple(roots), 0j), eps)
        if self.start is None:
            raise BranchMatchingAmbiguous(
                f"the displacement zero {t} does not lie on a certified branch")

    def advance(self, point, eps):
        """Euler predictor and Newton corrector on G at a new epsilon; G, G_t
        and G_eps, three ``Cycle.integral``s on the slots, share one pass.

        The fiber of every Newton iterate must pass the halving-bijection
        certificate against ``point.roots``, the fiber of the accepted
        point, so that no chain of small certified moves can carry the
        branch onto another; and the Newton steps must contract.  Otherwise
        returns None so that the caller shortens the step.
        """
        p = self.pencil
        t = point.t + point.slope * (eps - point.eps)
        roots = point.roots
        last = math.inf
        for _ in range(8):
            try:
                new = p.fiber(t, eps, init=roots)
            except NumericalError:
                return None
            order = halving_match(point.roots, new)
            if order is None:
                return None
            roots = tuple(new[k] for k in order)
            value = g_t = g_eps = 0j
            for w, k in zip(p.cycle.weights, self.slots):
                z = roots[k]
                gz, dgz = p.g.evaluate(z), p.dg.evaluate(z)
                rate = p.df.evaluate(z) + eps * dgz
                if rate == 0:
                    return None
                value += w * gz
                g_t += w * dgz / rate
                g_eps += w * dgz * gz / rate
            if g_t == 0:
                return None
            # dw/deps = -g(w) dw/dt at fixed t, so dt/deps = -G_eps / G_t
            slope = g_eps / g_t
            step = -value / g_t
            if abs(step) <= DEFAULT.tol_cluster * (1.0 + abs(t)):
                return _Point(eps, complex(t), roots, slope)
            if abs(step) > 0.5 * last:
                return None
            last = abs(step)
            t = t + step
        return None

    def walk(self, point, target):
        """Certified points from ``point`` toward eps = target in geometric
        steps; stops early when the step underflows.

        Each log-eps step is at most `_Pencil.reach` of the point it starts
        from, so that the first-order motion of every fiber root stays well
        inside its halving disk; a rejected step halves, and an accepted
        one grows the next by 1.7, up to ln 2 and that bound.

        An upward walk also stops as soon as `_Pencil.shut` certifies that
        a cusp closes the way: t is real and a root of its real fiber lies
        in the chamber between adjacent real critical points A < B of
        f + eps*g that merge at a cusp below target.  Proven: a step that
        `halving_match` accepts on a real fiber sends each real root to a
        real root, in order, since the halving disk of a real root is
        symmetric about the real axis and holds one new root.  Resting on
        the identity gates of `advance` (the halving match and the
        contracting Newton corrector), as every point of the walk does:
        the accepted steps follow the real branch, so t does not turn
        complex at a fold before the cusp, and the root leaves (A, B) only
        through a fiber collision at A or B, where the walk stalls.  The
        chamber closes at the cusp, so target is out of reach.  The proof
        holds at any accepted point, so the certificate is asked when the
        walk starts and after each accepted point; where it answers False
        the walk goes on, down to the step floor.  Downward walks never
        ask it.
        """
        upward = target > point.eps
        if upward and self.pencil.shut(point, target):
            return
        h = min(math.log(2.0), self.pencil.reach(point))
        while point.eps != target and h >= DEFAULT.step_floor:
            span = math.log(target / point.eps)
            eps = (target if abs(span) <= h
                   else point.eps * math.exp(math.copysign(h, span)))
            new = self.advance(point, eps)
            if new is None:
                h *= 0.5
                continue
            point = new
            yield point
            if upward and self.pencil.shut(point, target):
                return
            h = min(1.7 * h, math.log(2.0), self.pencil.reach(point))


def _branch_end(branch, tzeros, crit_values, r_f, horizon):
    """Continue a branch toward eps -> 0; return (limit, class, matched).

    A branch ends at a tangential zero (regular), at a critical value of f
    where fiber points collide (alien), or beyond the horizon while still
    growing (alien, escaping to infinity).  It has settled once its
    remaining drift |eps dt/deps| is below half the matching tolerance
    match_scale*(r_f + |t|), and it ends at a tangential zero or a critical
    value within that tolerance of t.  Tangential zeros are tested first,
    since one that the oracle keeps, outside its small exclusion radius,
    can lie within the matching tolerance of a critical value.
    """
    floor = branch.start.eps * DEFAULT.step_floor
    for point in itertools.chain([branch.start], branch.walk(branch.start, floor)):
        t = point.t
        if abs(t) > horizon and (t.conjugate() * point.slope).real < 0:
            return None, "alien", "infinity"
        tol = DEFAULT.match_scale * (r_f + abs(t))
        if abs(point.eps * point.slope) > 0.5 * tol:
            continue
        if any(abs(t - z) <= tol for z in tzeros):
            return t, "regular", "tangential_zero"
        if any(abs(t - c) <= tol for c in crit_values):
            return t, "alien", "critical_value"
    raise BranchMatchingAmbiguous(
        f"the zero continued from {branch.start.t} stalls near {point.t} "
        f"at eps={point.eps:.3e} without reaching a tangential zero, a "
        "critical value or the horizon")


def _trajectory(branch, levels):
    """The zero at each schedule epsilon, continued upward from the
    smallest.  It ends at the last level reached when the continuation
    stalls on the way up, where the zero collides with another zero or
    with a critical value of f + eps*g, or where `_Branch.walk` stops
    because a cusp shuts the way."""
    point = branch.start
    trajectory = [point.t]
    for eps in reversed(levels[:-1]):
        for point in branch.walk(point, eps):
            pass
        if point.eps != eps:
            break
        trajectory.insert(0, point.t)
    return tuple(trajectory)


def classify_alien(inst, schedule):
    """Continue each displacement zero in epsilon and classify its branch
    as regular (it ends at a tangential zero) or alien (it ends at a
    critical value of f or escapes to infinity).

    The zeros at the smallest schedule epsilon seed the branches; each is
    continued toward eps -> 0 by `_branch_end`.  A branch's trajectory
    holds its zero at the schedule epsilons, continued upward from the
    smallest by `_trajectory`.  Only the smallest epsilon needs an oracle.
    The polynomials of f + eps*g and its cusps, the real zeros of
    f''g' - f'g'' where two real critical points merge, are computed once
    per call in a `_Pencil` that every branch shares.  Each log-eps step
    is sized from the fiber it starts on (`_Pencil.reach`), and the fiber
    of every Newton iterate is certified against that fiber.  An upward
    walk stops as soon as a cusp certifies that the next level is out of
    reach; `_Branch.walk` gives the proof.

    f and g are in Q[x] and the weights are integers, so the fiber over
    conj(t) at a real epsilon is the conjugate of the fiber over t, and
    `halving_match`, the step bound and the Newton contraction test look
    only at moduli: the branch of a conjugate seed is the exact conjugate
    of the branch of its partner.  The seeds are taken in `lex_sorted`
    order, and a non-real seed whose conjugate already has a continued
    branch gets that branch conjugated, with the same class and matched
    kind.
    """
    schedule = [Fraction(e) if not isinstance(e, Fraction) else e for e in schedule]
    if len(schedule) < 3:
        raise InputError("schedule needs at least 3 epsilon values")
    if any(e <= 0 for e in schedule) or any(
            a <= b for a, b in zip(schedule, schedule[1:])):
        raise InputError("schedule must be strictly decreasing and positive")

    base = replace(inst, epsilon=None)
    tangential = count_tangential_zeros(base)
    tzeros = [z for z, _ in tangential.distinct_regular_zeros]

    crit_f = critical_values(inst.f)
    r_f = DEFAULT.radius_factor * (1.0 + crit_f.max_abs)
    # escaping branches are those leaving the scale of everything finite:
    # the critical values of f and the tangential zeros themselves
    tz_scale = max((abs(z) for z in tzeros), default=0.0)
    horizon = DEFAULT.divergence_factor * max(r_f, 1.5 * tz_scale)

    report = count_infinitesimal_zeros(replace(inst, epsilon=schedule[-1]))
    levels = [float(e) for e in schedule]
    pencil = _Pencil(inst)
    branches = []
    continued = []  # (seed, branch dict) of the branches continued here
    for seed, _ in report.distinct_regular_zeros:
        tol = DEFAULT.tol_cluster * (1.0 + abs(seed))
        partner = None
        if abs(seed.imag) > tol:
            partner = next((b for s, b in continued
                            if abs(s - seed.conjugate()) <= tol), None)
        if partner is not None:
            limit = partner["limit"]
            branches.append(dict(
                partner, limit=None if limit is None else limit.conjugate(),
                trajectory=tuple(z.conjugate() for z in partner["trajectory"])))
            continue
        branch = _Branch(pencil, seed, levels[-1])
        limit, cls, matched = _branch_end(branch, tzeros, crit_f.critical_values,
                                          r_f, horizon)
        branches.append({"trajectory": _trajectory(branch, levels),
                         "limit": limit, "class": cls, "matched": matched})
        continued.append((seed, branches[-1]))
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


# `_unused` is never read; perfbench/regen_literals.py and the tests pass DEFAULT
def _random_morse_poly(rng, m, _unused=None):
    for _ in range(60):
        coeffs = [_random_rational(rng) for _ in range(m)] + [Fraction(1)]
        f = RatPoly(coeffs)
        try:
            crit = critical_values(f)
        except CycleIntegralsError:
            continue
        vals = crit.critical_values
        if len(vals) != m - 1:
            continue
        spread = max(crit.spread, 1.0)
        sep = min((abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:]),
                  default=math.inf)
        if sep > DEFAULT.morse_separation * spread:
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
        g_tilde, _ = reduce_deformation(f, g)
        return g_tilde.degree if not g_tilde.is_zero else n - 1
    if n < m or n % m:
        return n
    # m divides n: the eq-generic test cannot pass; certify with the
    # exponent pattern of the subleading growth order instead
    return m + 1 if n == m else 1


# `_unused` as in `_random_morse_poly`
def _draw_cycle(kind, mode, m, n, f, g, trial_seed, _unused=None):
    if mode == "simple" or m == 2:
        return random_simple_cycle(m, trial_seed)
    n_cert = _certificate_degree(kind, m, n, f, g)
    return random_generic_cycle(m, max(n_cert, 1), trial_seed)


def run_sharpness_experiment(m, n, kind, trials, seed, cycle_mode="generic",
                             epsilon=Fraction(1, 100)):
    """Randomized Morse suites recording the attained count distribution.

    Failed trials (degenerate draws, numerical rejections) are recorded and
    skipped.  The summary reports the maximum attained count, the fraction
    of successful trials attaining the theoretical bound, and the ratio of
    that maximum to the dimension of the space of deformations.
    """
    if kind not in ("tangential", "infinitesimal"):
        raise InputError(f"unknown experiment kind {kind!r}")
    if cycle_mode not in ("generic", "simple"):
        raise InputError(f"unknown cycle mode {cycle_mode!r}")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if kind == "infinitesimal" and Fraction(epsilon) == 0:
        raise InputError("infinitesimal counting requires a nonzero epsilon")
    effective_mode = "simple" if (cycle_mode == "simple" or m == 2) else "generic"
    counts = []
    failures = []
    results = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        try:
            f = _random_morse_poly(rng, m)
            g = _random_poly(rng, n)
            cycle = _draw_cycle(kind, effective_mode, m, n, f, g,
                                f"{seed}:{trial}:cycle")
            if kind == "tangential":
                inst = Instance(f, g, cycle)
                report = count_tangential_zeros(inst)
            else:
                inst = Instance(f, g, cycle, epsilon=Fraction(epsilon))
                report = count_infinitesimal_zeros(inst)
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
