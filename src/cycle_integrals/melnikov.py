"""Abelian integrals, displacement values, degree reduction, and the
branch-complete product oracles.

The tangential oracle is the product of the distinct branch factors
sum_j n_j g(z_sigma(j)(t)) over the orderings sigma of the fiber; the
infinitesimal oracle takes the deformed fiber of f + eps*g and the distinct
factors over injections of the weight slots into the fiber.  Monodromy
permutes the distinct factors, so both products are single-valued
polynomials in t, recovered by sampling on one circle of radius
radius_factor * (1 + max |critical value|) and reading the coefficients off
a DFT.  The instance is real, so the product has real coefficients and only
the upper half of the circle is solved; the lower half is its conjugate.
The product over all assignments is this one to the power K, the
number of assignments per distinct factor, so the declared degree bound is
the growth of the branches at infinity divided by K.  Every zero is simple,
or of even multiplicity when a sign symmetry of the cycle pairs each factor
F with -F.  Zeros far outside the circle make the top coefficients small;
the circle stays, and the build climbs one fixed precision ladder
(doubles, then 40, 80, 160 and 320 digits) until the fit resolves them;
a sign-symmetric product starts at 40 digits.  The product sampler works
in doubles only: its fibers, branch factors and ring ratios.  Every step
that depends on the rung is in ``_fit``: a double rung runs on numpy; a
rung of 40 digits or more runs its fiber solves, factor evaluations,
sample products, DFT, noise floors and root extraction on the (re, im)
Decimal pairs of ``precision``, the one extended-precision kernel, on
``decimal``.  The double fibers over the upper half circle are solved
once per build, before the ladder: the double rung samples on them, and
each fiber solve at 40 digits or more starts from the double fiber over
its own sample, so the extended iteration only polishes.  Each
fiber solve and each extraction at 40 digits or more accepts a root by one
residual test, or raises NonConvergence.  A rung is accepted when every
regular zero cluster, away from the critical values of the fiber
polynomial, passes the first-order ring ratio on the double fiber over it
and, for a sign-symmetric product, has even size; this module alone
decides zero multiplicities.  A double fit is accepted only at the full
declared degree; a fit at 40 digits or more may be shorter than the
bound.  A product that vanishes identically raises
IdenticallyZeroIntegral where it is seen: g reducing to zero, or a fit.
"""

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT
from .cycles import Cycle, symmetry_group
from .errors import (CycleIntegralsError, FitRejected, IdenticallyZeroIntegral,
                     IdentityViolation, InputError, LengthMismatch,
                     SingularDesignSystem)
from .poly import (ComplexPoly, RatPoly, as_fraction, cluster_points,
                   critical_values, lex_sorted, roots_raw)
from .precision import (aberth_mp, circle_mp, conj, dft_fit_mp, log10_abs,
                        normalized, product_mp, shifted, to_complex, to_pairs,
                        weighted_sums)
from .tracking import solve_fiber


@dataclass(frozen=True)
class Instance:
    """A polynomial pair with a cycle and an optional exact deformation size."""

    f: RatPoly
    g: RatPoly
    cycle: Cycle
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.f.degree < 2:
            raise InputError("deg f must be >= 2")
        if self.g.degree < 1:
            raise InputError("g must be nonconstant")
        if self.cycle.m != self.f.degree:
            raise LengthMismatch(
                f"cycle length {self.cycle.m} != deg f {self.f.degree}")
        if self.epsilon is not None and not isinstance(self.epsilon, Fraction):
            object.__setattr__(self, "epsilon", as_fraction(self.epsilon))

    @property
    def m(self):
        return self.f.degree

    @property
    def n(self):
        return self.g.degree

    def deformed_poly(self):
        """f + eps*g with eps kept exact rational."""
        if self.epsilon is None or self.epsilon == 0:
            raise InputError("instance has no nonzero epsilon")
        return self.f + self.g * self.epsilon


@dataclass(frozen=True)
class OraclePoly:
    """Fitted single-valued product polynomial with its audit trail.

    ``coeffs`` are in the scaled variable u = t/radius, where ``radius``
    is the critical-value circle the product was sampled on, up to an
    overall constant factor; zeros are reported in t units and each has
    been re-verified against a vanishing branch.
    ``precision_dps`` is the rung of the precision ladder whose fit was
    accepted (None for doubles, which only a fit of the full declared
    degree passes); ``fitted_degree`` may fall short of the declared bound
    only at 40 digits or more.  ``zeros`` are the extracted roots;
    ``regular`` groups them into (center, multiplicity) pairs away from the
    critical values, every multiplicity even for a sign-symmetric product,
    and ``excluded`` holds the centers of the clusters on a critical value,
    both in ``lex_sorted`` order.  ``integrand_degree`` is the degree of
    the integrand in the branch factors: deg g after its reduction for the
    tangential oracle.  An identically zero product has no oracle: its
    build raises IdenticallyZeroIntegral.
    """

    kind: str
    coeffs: tuple
    radius: float
    declared_degree_bound: int
    fitted_degree: int
    fit_residual: float
    precision_dps: int | None
    zeros: tuple
    regular: tuple
    excluded: tuple
    integrand_degree: int


@dataclass(frozen=True)
class BrieskornBasis:
    generators: tuple  # of RatPoly f^i * z^j
    dimension: int


# -- integrals ---------------------------------------------------------------

def abelian_integral(inst, fiber):
    """sum_j n_j g(z_j) over an ordered fiber; the first-order term of the
    displacement is the negative of this value."""
    return inst.cycle.integral(inst.g.to_complex().evaluate, fiber.roots)


def displacement(inst, t, branch_fiber):
    """sum_j n_j f(w_j) on a fiber of f + eps*g, checked against the exact
    identity sum n_j f(w_j) = -eps * sum n_j g(w_j)."""
    if inst.epsilon is None:
        raise InputError("displacement requires epsilon")
    if inst.epsilon == 0:
        return 0j
    roots = branch_fiber.roots
    delta = inst.cycle.integral(inst.f.to_complex().evaluate, roots)
    gsum = inst.cycle.integral(inst.g.to_complex().evaluate, roots)
    eps = float(inst.epsilon)
    scale = 1.0 + abs(t) + abs(delta) + abs(eps * gsum)
    if abs(delta + eps * gsum) > DEFAULT.tol_identity * scale:
        raise IdentityViolation(
            f"displacement identity violated at t={t}: {delta} vs {-eps * gsum}")
    return delta


def reduce_deformation(f, g):
    """Strip multiples of powers of f from g without changing any integral.

    Returns (g_tilde, subtracted) with g = sum a_i f^k_i + g_tilde exactly
    and deg g_tilde not a multiple of deg f (or g_tilde = 0).  Constants
    count as the k = 0 power.
    """
    if f.degree < 2:
        raise InputError("reduction requires deg f >= 2")
    m = f.degree
    g_tilde = g
    subtracted = []
    while not g_tilde.is_zero and g_tilde.degree % m == 0:
        k = g_tilde.degree // m
        a = g_tilde.leading / f.leading ** k
        g_tilde = g_tilde - f ** k * a
        subtracted.append((a, k))
    return g_tilde, subtracted


# -- product oracles ---------------------------------------------------------

# precisions of the fit, in decimal digits; None is double precision
_DPS_LADDER = (None, 40, 80, 160, 320)


class _ProductSampler:
    """The distinct branch factors of the product on double-precision
    fibers of p.

    The factor of an assignment phi is sum_j w_j h(z_phi(j)), the
    ``Cycle.integral`` of h on the fiber ordered by phi, so it depends
    only on the set of (weight, fiber index) pairs on the support of the
    weights; the first assignment seen represents its set.  Every set comes
    from the same number ``power`` of assignments, so the product over all
    assignments is the product sampled here to that power.  ``signed`` says
    whether the factors come in pairs F, -F: a permutation of the cycle maps
    its weights to their negatives, which gives every zero of the product
    even multiplicity.  ``pc`` and ``hc`` are the double mirrors of p and
    the integrand h; ``_fit`` reads ``p``, ``integrand``, ``weights`` and
    ``patterns`` for its extended rungs.  ``crit_values``, the critical
    values of p, bound the disk of ``ring_ratio``.
    """

    def __init__(self, p, integrand, cycle, assignments, crit_values):
        self.p = p
        self.crit_values = crit_values
        self.integrand = integrand
        weights = cycle.weights
        support = [j for j, w in enumerate(weights) if w]
        patterns = {}
        for phi in assignments:
            key = frozenset((weights[j], phi[j]) for j in support)
            patterns.setdefault(key, tuple(phi[j] for j in support))
        self.patterns = tuple(patterns.values())
        self.power = len(assignments) // len(self.patterns)
        self.signed = any(sign < 0 for _, sign in symmetry_group(cycle).elements)
        self.index = np.array(self.patterns, dtype=np.intp)
        self.weights = tuple(weights[j] for j in support)
        self.wvec = np.array(self.weights, dtype=complex)
        self.wabs = float(sum(abs(w) for w in weights))
        self.pc = p.to_complex().coeffs
        self.hc = integrand.to_complex()
        self.dh = integrand.derivative().to_complex()
        self.dp = p.derivative().to_complex()

    def fiber(self, t, init=None):
        """The roots of p - t."""
        return roots_raw((self.pc[0] - t,) + self.pc[1:], init=init)

    def circle(self, radius, k_count):
        """The fibers over the upper half circle, t_k = radius *
        exp(2 pi i k / k_count) for k = 0 .. k_count // 2: the first cold,
        each later one warm from the one before it."""
        roots = None
        fibers = []
        for k in range(k_count // 2 + 1):
            roots = self.fiber(radius * cmath.exp(2j * cmath.pi * k / k_count),
                               init=roots)
            fibers.append(roots)
        return fibers

    def factors(self, roots):
        """The distinct branch factors on a fiber, ``Cycle.integral`` batched
        over all patterns in one matrix product, and whether one of them
        vanishes to 1e-10 of sum |w| * max |integrand| on the fiber."""
        vals = self.hc.evaluate(np.asarray(roots, dtype=complex))
        factors = vals[self.index] @ self.wvec
        # ``1e-300`` keeps every modulus positive
        floor = 100.0 * DEFAULT.identically_zero * (
            self.wabs * float(np.max(np.abs(vals))) + 1e-300)
        return factors, not np.min(np.abs(factors) + 1e-300) > floor

    def ring_ratio(self, t):
        """|N(t)| against |N| at distance delta, to first order, from the
        fiber over t: the product over the distinct factors F of
        min(1, |F| / (|F'| delta)), F' = sum_j w_j h'(z_j) / p'(z_j), the
        ``Cycle.integral`` of h'/p' batched like the factors.

        delta is ring_delta * (1 + |t|), but at most half the distance from
        t to the nearest critical value c of p: near c two fiber roots
        collide, p' vanishes and |F'| grows like |t - c|^(-1/2), so the
        first-order model holds only on a disk that leaves c outside.  A
        zero of multiplicity k extracted with error e scores ~ (e/delta)^k
        and a phantom root O(1); an exact zero scores 0, and a zero on a
        critical value, or a ratio that is not finite, scores inf."""
        delta = min([DEFAULT.ring_delta * (1.0 + abs(t))]
                    + [0.5 * abs(t - c) for c in self.crit_values])
        if delta == 0.0:
            return math.inf
        roots = np.asarray(self.fiber(t), dtype=complex)
        factors, _ = self.factors(roots)
        if np.any(factors == 0.0):
            return 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = (self.dh.evaluate(roots) / self.dp.evaluate(roots))[self.index]
            ratio = float(np.prod(np.minimum(
                1.0, np.abs(factors) / (np.abs(slopes @ self.wvec) * delta))))
        return ratio if math.isfinite(ratio) else math.inf


def _fit(sampler, fibers, degree_bound, radius, dps):
    """One rung of the ladder: the product sampled on the circle, its DFT,
    its fitted degree and its zeros, in doubles when ``dps`` is None and on
    the kernel's pairs at ``dps`` digits otherwise.

    f, g and the weights are real, so the fiber over conj(t) is the
    conjugate of the fiber over t and the product N has real coefficients:
    N(conj t) = conj N(t).  Only the upper half circle, k = 0 .. K//2, is
    solved and evaluated; the other samples are the exact conjugates of
    their mirrors.  ``fibers`` are the double fibers over those samples
    (``_ProductSampler.circle``).  The double fit samples on them; at
    ``dps`` digits ``aberth_mp`` solves the fiber over sample k from the
    double fiber over sample k, accurate to ~tol_root, and only polishes
    it.  The product is symmetric in the fiber, so root order does not
    matter.  A branch factor vanishes to noise at 1e-10 in doubles and at
    10**(8 - dps) at ``dps`` digits, relative to sum |w| * max |integrand|
    on the fiber.  In doubles each factor is prescaled by one real number,
    taken at the real point t = radius, so the product stays in range; at
    ``dps`` digits the samples are normalised to a largest modulus of 1
    instead.

    The fitted degree is the index of the top coefficient above the fit
    noise: ten times the DFT tail, and at least the working precision,
    1e-13 of the largest coefficient in doubles and 10**(3 - dps) of it at
    ``dps`` digits, so an extended fit keeps top coefficients that doubles
    cannot see.  At ``dps`` digits the moduli are compared in log10,
    because they may lie beyond the double range.  A double fit is rooted
    by ``np.roots`` and accepted only at the full declared degree, since
    doubles cannot tell a top coefficient 1e-13 below the largest from
    noise; a fit at 40 digits or more is rooted by ``aberth_mp`` on its
    Decimal pairs and may be shorter than the bound.

    Returns (coeffs, fitted, residual, zeros): the coefficients up to
    ``degree_bound``, in the scaled variable u = t/radius, the fitted
    degree, the DFT tail relative to the largest sample modulus, and the
    zeros in t units, all as complex doubles; coeffs, fitted and zeros are
    None when the residual is above tol_fit or a double fit falls short of
    ``degree_bound``.  Raises IdenticallyZeroIntegral when a branch factor
    vanishes to noise at every sample.
    """
    k_count = DEFAULT.samples_factor * (degree_bound + 1)
    upper = k_count // 2 + 1
    # a branch vanishing to noise at every sample means the product is
    # identically zero (a nonzero polynomial of degree <= D cannot be tiny
    # at all K > D samples)
    all_zero = True
    samples = []
    if dps is None:
        rescale = None
        for roots in fibers:
            factors, vanishing = sampler.factors(roots)
            all_zero = all_zero and vanishing
            if rescale is None:
                # the real prescale at t = radius: one over the geometric
                # mean of the factor moduli there
                rescale = np.exp(-float(np.mean(np.log(np.abs(factors) + 1e-300))))
            samples.append(np.prod(factors * rescale))
    else:
        p_pairs = to_pairs(sampler.p.coeffs, dps)
        h_pairs = to_pairs(sampler.integrand.coeffs, dps)
        log_wabs = math.log10(sampler.wabs)
        for t, seed in zip(circle_mp(radius, k_count, upper, dps), fibers):
            factors, log_vmax = weighted_sums(
                h_pairs, aberth_mp(shifted(p_pairs, t, dps), dps, init=seed),
                sampler.weights, sampler.patterns, dps)
            all_zero = all_zero and not (min(log10_abs(v) for v in factors)
                                         > 8 - dps + log_wabs + log_vmax)
            samples.append(product_mp(factors, dps))
    if all_zero:
        raise IdenticallyZeroIntegral(
            "a branch factor vanishes identically on the sampling circle")
    if dps is None:
        samples += [samples[k_count - k].conjugate()
                    for k in range(upper, k_count)]
        max_abs = np.max(np.abs(samples))
        coeffs = np.fft.fft(samples) / k_count
        tail = (np.max(np.abs(coeffs[degree_bound + 1:]))
                if degree_bound + 1 < k_count else 0.0)
        residual = float(tail / max_abs)
        if (residual > DEFAULT.tol_fit or not abs(coeffs[degree_bound])
                > max(10.0 * tail, 1e-13 * max_abs)):
            return None, None, residual, None
        fitted, u_roots = degree_bound, np.roots(coeffs[degree_bound::-1])
    else:
        # the decimal exponent range holds the unscaled product, so the
        # samples need no prescale; they are normalised to a largest
        # modulus of 1
        coeffs = dft_fit_mp(normalized(
            samples + [conj(samples[k_count - k]) for k in range(upper, k_count)],
            dps), dps)
        residual = 10.0 ** max((log10_abs(c) for c in coeffs[degree_bound + 1:]),
                               default=-math.inf)
        if residual > DEFAULT.tol_fit:
            return None, None, residual, None
        floor = max(math.log10(10.0 * residual) if residual else -math.inf,
                    3 - dps)
        fitted = next((d for d in range(degree_bound, 0, -1)
                       if log10_abs(coeffs[d]) > floor), 0)
        # roots only need ~1e-12 relative accuracy downstream and a double
        # root converges linearly, so cap the demand but let it grow with
        # the working precision
        u_roots = [to_complex(u) for u in aberth_mp(
            coeffs[:fitted + 1], dps, tol_exp=max(32, (dps - 4) // 2))]
        coeffs = [to_complex(c) for c in coeffs[:degree_bound + 1]]
    return (tuple(complex(c) for c in coeffs[:degree_bound + 1]), fitted,
            residual, tuple(complex(radius * u) for u in u_roots))


def _split_regular(clusters, crit_values):
    """Separate zero clusters sitting on a critical value from regular ones.

    The exclusion radius adapts to the observed cluster scatter: a cluster
    is a critical-value artifact when its center lies within its own
    extraction noise of the value.  Genuine zeros merely close to a
    critical value (alien limits approaching it) survive.  Returns the
    regular clusters, as (center, members), and the excluded centers, both
    in ``lex_sorted`` order.
    """
    regular = []
    excluded = []
    for center, members in clusters:
        scatter = max((abs(z - center) for z in members), default=0.0)
        near = any(
            abs(center - cv) <= 10.0 * scatter
            + DEFAULT.exclusion_floor * (1.0 + abs(cv))
            for cv in crit_values)
        if near:
            excluded.append(center)
        else:
            regular.append((center, members))
    return (tuple(lex_sorted(regular, DEFAULT.tol_cluster, key=lambda zm: zm[0])),
            tuple(lex_sorted(excluded, DEFAULT.tol_cluster)))


def _build_oracle(kind, p, integrand, cycle, degree_bound, crit_f, crit_p):
    """Fit the product of the distinct branch factors of ``integrand`` over
    the injections of the cycle's slots into the fiber of p, once per rung
    of the precision ladder, then cluster and verify its zeros.

    ``degree_bound``, the degree of the product over all injections, and
    deg p are capped before anything is enumerated; the fit's bound is
    ``degree_bound`` over the injections per distinct factor.  The circle
    has radius radius_factor * (1 + max |critical value of p|) and stays
    fixed: the DFT recovers the coefficients of the product exactly
    wherever its zeros lie, and zeros far outside the circle only make the
    top coefficients small, which a higher rung resolves.  The double
    fibers over the upper half circle are solved once, before the ladder,
    and every rung reads them (see ``_fit``).  A sign-symmetric product
    starts at 40 digits: a double fit locates a double zero to about the
    square root of its residual, so its ring ratio seldom passes; it
    solves the double fibers only to seed its extended fits.

    Zeros are clustered at cluster_scale * (base_scale + |z|), base_scale
    from the critical values of f (those of f + eps*g lie far out when
    deg g > deg f), and the clusters on a critical value of p are set
    apart.  The first-order ring ratio then checks the first zero of each
    regular cluster against root_verify, on the one double fiber over it
    whatever rung produced the fit: the branch factors and their Newton
    steps resolve it far below the threshold.  An excluded cluster carries
    no count and is not checked.  Under a sign symmetry an odd regular
    cluster means the rung split a multiple zero.
    """
    if p.degree > DEFAULT.oracle_fiber_cap:
        raise InputError(
            f"fiber size {p.degree} exceeds oracle cap {DEFAULT.oracle_fiber_cap}")
    if degree_bound > DEFAULT.degree_cap:
        raise InputError(
            f"oracle degree bound {degree_bound} exceeds cap {DEFAULT.degree_cap}")
    sampler = _ProductSampler(p, integrand, cycle,
                              tuple(itertools.permutations(range(p.degree), cycle.m)),
                              crit_p.critical_values)
    degree_bound //= sampler.power
    radius = DEFAULT.radius_factor * (1.0 + crit_p.max_abs)
    base_scale = DEFAULT.radius_factor * (1.0 + crit_f.max_abs)
    tol = lambda z: DEFAULT.cluster_scale * (base_scale + abs(z))
    fibers = sampler.circle(radius, DEFAULT.samples_factor * (degree_bound + 1))
    residual = None
    for dps in _DPS_LADDER[1:] if sampler.signed else _DPS_LADDER:
        coeffs, fitted, residual, zeros = _fit(sampler, fibers, degree_bound,
                                               radius, dps)
        if zeros is None:
            continue
        regular, excluded = _split_regular(cluster_points(zeros, tol),
                                           crit_p.critical_values)
        if not all(sampler.ring_ratio(members[0]) <= DEFAULT.root_verify
                   for _, members in regular):
            continue
        if sampler.signed and any(len(members) % 2 for _, members in regular):
            continue
        return OraclePoly(kind, coeffs, radius, degree_bound, fitted, residual,
                          dps, zeros,
                          tuple((center, len(members))
                                for center, members in regular),
                          excluded, integrand.degree)
    raise FitRejected(
        f"{kind} oracle fit failed at every precision (last residual "
        f"{residual})")


def build_tangential_oracle(inst):
    """Product of the distinct branch factors of the integral of g on the
    cycle over all fiber orderings.

    The deformation is reduced first, a no-op unless deg f divides deg g;
    raises IdenticallyZeroIntegral when it reduces to zero.  The product
    over all orderings has degree at most deg(g_tilde) * (m-1)!.
    """
    m = inst.m
    g_eff, _ = reduce_deformation(inst.f, inst.g)
    crit = critical_values(inst.f)
    if g_eff.is_zero:
        raise IdenticallyZeroIntegral(
            "g reduces to zero: the integral vanishes identically (tangential center)")
    degree_bound = g_eff.degree * math.factorial(m - 1)
    if inst.cycle.is_simple and m > 2:
        # a simple cycle forces (d-1)(m-2)! intersection points at
        # infinity, each of which lowers the product degree by one
        d = math.gcd(m, g_eff.degree)
        degree_bound -= (d - 1) * math.factorial(m - 2)
    return _build_oracle("tangential", inst.f, g_eff, inst.cycle,
                         degree_bound, crit, crit)


def build_infinitesimal_oracle(inst):
    """Product of the distinct branch factors over injections of the weight
    slots into the deformed fiber.

    Uses the integrand f when deg g >= deg f (lower hypersurface degree
    via the exact displacement identity) and g when deg g < deg f.
    Raises InputError when epsilon is outside the perturbative regime:
    some critical value of f has no critical value of f + eps*g nearby.
    """
    m, n = inst.m, inst.n
    p = inst.deformed_poly()
    if p.degree != max(m, n):
        raise InputError("epsilon degenerates the leading coefficient")
    crit_f = critical_values(inst.f)
    crit_p = critical_values(p)
    reach = 2.0 * DEFAULT.radius_factor * (1.0 + crit_f.max_abs)
    for cv in crit_f.critical_values:
        if min(abs(cv - ce) for ce in crit_p.critical_values) > reach:
            raise InputError(
                f"epsilon={inst.epsilon} is outside the perturbative regime")
    if n < m:
        degree_bound = n * math.factorial(m - 1)
        integrand = inst.g
    else:
        degree_bound = m * math.factorial(n - 1) // math.factorial(n - m)
        if n % m == 0:
            degree_bound -= math.factorial(m - 1)
        integrand = inst.f
    return _build_oracle("infinitesimal", p, integrand, inst.cycle,
                         degree_bound, crit_f, crit_p)


# -- Brieskorn data ----------------------------------------------------------

def brieskorn_dimension(m, n):
    """Dimension of the degree-n truncation of the Brieskorn modulus."""
    if m < 2 or n < 1:
        raise InputError("need m >= 2 and n >= 1")
    return n - n // m


def brieskorn_generators(f, n):
    """Generators f^i z^j; degrees are exactly the integers in [1, n] not
    divisible by deg f."""
    m = f.degree
    if m < 2 or n < 1:
        raise InputError("need deg f >= 2 and n >= 1")
    ell = n // m
    r = n - ell * m
    z = RatPoly.x()
    gens = []
    fpow = RatPoly.one()
    for i in range(ell + 1):
        top = (m - 1) if i < ell else r
        zpow = z
        for j in range(1, top + 1):
            gens.append(fpow * zpow)
            zpow = zpow * z
        fpow = fpow * f
    basis = BrieskornBasis(generators=tuple(gens), dimension=brieskorn_dimension(m, n))
    if len(basis.generators) != basis.dimension:
        raise CycleIntegralsError(
            f"{len(basis.generators)} generators for dimension {basis.dimension}")
    return basis


def design_g_with_zeros(f, cycle, targets, n):
    """A degree-<=n deformation whose integral on the lex-ordered fiber
    vanishes at every target.

    Solves the kernel of the interpolation system over the Brieskorn
    generators and checks each target residual of the result on the fibers
    the system was built from.  Raises SingularDesignSystem when the
    targets exhaust or degenerate the available dimensions, or when the
    generator integrals overflow at one.  Returns a ComplexPoly for every
    target list: with no targets, the first generator.
    """
    basis = brieskorn_generators(f, n)
    dim = basis.dimension
    targets = [complex(t) for t in targets]
    if len(targets) >= dim:
        raise SingularDesignSystem(
            f"{len(targets)} targets with only {dim} generator dimensions")
    if not targets:
        return basis.generators[0].to_complex()
    if len(set(targets)) != len(targets):
        raise InputError("targets must be pairwise distinct")
    crit = critical_values(f)
    pc = f.to_complex()
    fibers = [solve_fiber(pc, t, critical=crit) for t in targets]
    gens = [gen.to_complex().evaluate for gen in basis.generators]
    rows = [[cycle.integral(h, fib.roots) for h in gens] for fib in fibers]
    for t, row in zip(targets, rows):
        if not all(cmath.isfinite(v) for v in row):
            raise SingularDesignSystem(f"integrals overflow at target {t}")
    a = np.array(rows, dtype=complex)
    _, _, vh = np.linalg.svd(a)
    x = vh[-1].conj()
    x = x / np.linalg.norm(x)
    coeffs = [0j] * (max(gen.degree for gen in basis.generators) + 1)
    for ck, gen in zip(x, basis.generators):
        for d, c in enumerate(gen.coeffs):
            coeffs[d] += ck * complex(c)
    g = ComplexPoly(tuple(complex(c) for c in coeffs))
    # a poorly conditioned system leaves the assembled g off its targets;
    # check it on the fibers the rows were built from
    scale = max(1.0, float(np.max(np.abs(a))))
    for t, fib in zip(targets, fibers):
        val = cycle.integral(g.evaluate, fib.roots)
        if abs(val) > DEFAULT.tol_design * scale:
            raise SingularDesignSystem(
                f"design residual {abs(val):.2e} at target {t}; "
                "perturb the targets and retry")
    return g
