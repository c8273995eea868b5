import itertools
import math
from decimal import Decimal
import random
from fractions import Fraction

import numpy as np
import pytest

from cycle_integrals.config import DEFAULT
from cycle_integrals.cycles import Cycle, random_generic_cycle
from cycle_integrals.errors import (FitRejected, IdenticallyZeroIntegral,
                                    IdentityViolation, InputError,
                                    SingularDesignSystem)
import mpmath as mp

from cycle_integrals import melnikov
from cycle_integrals.melnikov import (Instance, _fit, _ProductSampler,
                                      abelian_integral,
                                      brieskorn_dimension, brieskorn_generators,
                                      build_infinitesimal_oracle,
                                      build_tangential_oracle,
                                      design_g_with_zeros, displacement,
                                      reduce_deformation)
from cycle_integrals.poly import RatPoly, critical_values
from cycle_integrals.precision import (aberth_mp, product_mp, shifted,
                                       to_complex, to_pairs, weighted_sums)
from cycle_integrals.tracking import solve_fiber

PAPER_F = RatPoly([0, 0, 1, 1])        # z^3 + z^2
PAPER_G = RatPoly([0, 1, 3])           # 3z^2 + z
PAPER_C = Cycle((1, 1, -2))


class TestIntegrals:
    def test_square_root_branch_closed_form(self):
        # f = z^2, g = z^3, branch ordered (sqrt t, -sqrt t): integral is
        # 2 t^(3/2); the lex fiber order is (-sqrt t, sqrt t)
        inst = Instance(RatPoly([0, 0, 1]), RatPoly([0, 0, 0, 1]), Cycle((-1, 1)))
        fib = solve_fiber(inst.f.to_complex(), 4.0)
        value = abelian_integral(inst, fib)
        assert value == pytest.approx(2 * 4.0 ** 1.5, abs=1e-9)

    def test_even_integrand_on_symmetric_fiber(self):
        inst = Instance(RatPoly([0, 0, 1]), RatPoly([0, 0, 1]), Cycle((1, -1)))
        fib = solve_fiber(inst.f.to_complex(), 2.7)
        assert abs(abelian_integral(inst, fib)) < 1e-12

    def test_powers_of_f_integrate_to_zero(self):
        f = PAPER_F
        for k in (1, 2, 3):
            inst = Instance(f, f ** k, Cycle((1, 2, -3)))
            fib = solve_fiber(f.to_complex(), 1.3)
            scale = max(abs(z) for z in fib.roots) ** (3 * k)
            assert abs(abelian_integral(inst, fib)) <= 1e-10 * (1 + scale)

    def test_displacement_identity(self):
        inst = Instance(PAPER_F, PAPER_G, PAPER_C, epsilon=Fraction(1, 100))
        p = inst.deformed_poly().to_complex()
        fib = solve_fiber(p, 1.0)
        delta = displacement(inst, 1.0, fib)
        gsum = sum(w * inst.g.to_complex().evaluate(z)
                   for w, z in zip(PAPER_C.weights, fib.roots))
        assert delta == pytest.approx(-0.01 * gsum, abs=1e-10)

    def test_zero_epsilon_displacement(self):
        inst = Instance(PAPER_F, PAPER_G, PAPER_C, epsilon=Fraction(0))
        assert displacement(inst, 1.0, None) == 0j


class TestReduction:
    def test_single_step(self):
        g_tilde, subs = reduce_deformation(RatPoly([0, 0, 1]), RatPoly([0, 1, 1]))
        assert g_tilde == RatPoly([0, 1])
        assert subs == [(Fraction(1), 1)]

    def test_two_steps_to_zero(self):
        g_tilde, subs = reduce_deformation(RatPoly([0, 0, 1]),
                                           RatPoly([0, 0, 1, 0, 1]))
        assert g_tilde.is_zero
        assert subs == [(Fraction(1), 2), (Fraction(1), 1)]

    def test_noop_branch(self):
        g = RatPoly([1, 2, 3, 4, 5])  # degree 4, not a multiple of 3
        g_tilde, subs = reduce_deformation(PAPER_F, g)
        assert g_tilde == g and subs == []

    def test_exact_decomposition(self):
        rng = random.Random(12)
        for _ in range(25):
            m = rng.choice([2, 3, 4])
            f = RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(m)] + [Fraction(rng.randint(1, 3))])
            n = rng.randint(1, 8)
            g = RatPoly([Fraction(rng.randint(-5, 5)) for _ in range(n)]
                        + [Fraction(1)])
            g_tilde, subs = reduce_deformation(f, g)
            rebuilt = g_tilde
            for a, k in subs:
                rebuilt = rebuilt + f ** k * a
            assert rebuilt == g
            assert g_tilde.is_zero or g_tilde.degree % m != 0

    def test_integral_invariance(self):
        rng = random.Random(8)
        checked = 0
        while checked < 12:
            f = RatPoly([Fraction(rng.randint(-4, 4)) for _ in range(3)]
                        + [Fraction(1)])
            if f.degree != 3:
                continue
            n = rng.choice([3, 6])
            g = RatPoly([Fraction(rng.randint(-4, 4)) for _ in range(n)]
                        + [Fraction(1)])
            head = [rng.randint(-4, 4) for _ in range(2)]
            w = tuple(head) + (-sum(head),)
            if not any(w):
                continue
            cycle = Cycle(w)
            g_tilde, _ = reduce_deformation(f, g)
            if g_tilde.is_zero:
                continue
            t = complex(rng.uniform(2, 4), rng.uniform(0.5, 1.5))
            fib_a = solve_fiber(f.to_complex(), t)
            fib_b = solve_fiber(f.to_complex(), t)
            va = abelian_integral(Instance(f, g, cycle), fib_a)
            vb = abelian_integral(Instance(f, g_tilde, cycle), fib_b)
            assert abs(va - vb) <= 1e-9 * (1 + abs(va))
            checked += 1


class TestTangentialOracle:
    def test_paper_example_is_square(self):
        # exact closed form: the product of the three distinct branch
        # factors (each ordering pair swapping the two unit weights gives
        # one factor) is a constant multiple of (t - 4/27)^2
        oracle = build_tangential_oracle(Instance(PAPER_F, PAPER_G, PAPER_C))
        # the double fit splits the double zero by about 1e-7, and the
        # product of the per-factor ring ratios still accepts it in doubles
        assert oracle.precision_dps is None
        assert oracle.declared_degree_bound == 2
        assert oracle.fitted_degree == 2
        cs = np.array(oracle.coeffs[:3])
        cs = cs / cs[2]
        r = oracle.radius
        expect = np.array([math.comb(2, k) * (-4 / 27) ** (2 - k) * r ** k
                           for k in range(3)])
        expect = expect / expect[2]
        assert np.max(np.abs(cs - expect)) < 1e-10
        assert all(abs(z - 4 / 27) < 1e-6 for z in oracle.zeros)

    def test_degree_law_regular_instance(self):
        f = RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1])
        g = RatPoly([1, 2, -1, Fraction(1, 2), 1])
        cycle = random_generic_cycle(3, 4, 11)
        oracle = build_tangential_oracle(Instance(f, g, cycle))
        assert oracle.declared_degree_bound == 8
        assert oracle.fitted_degree == 8
        assert oracle.fit_residual <= DEFAULT.tol_fit
        assert len(oracle.zeros) == 8

    def test_reduction_route_when_degree_divisible(self):
        f = RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1])
        g = RatPoly([1, 2, -1, 1])  # degree 3 = m
        cycle = random_generic_cycle(3, 2, 3)
        oracle = build_tangential_oracle(Instance(f, g, cycle))
        assert oracle.declared_degree_bound == 4  # deg g_tilde = 2
        assert oracle.fitted_degree == 4

    def test_identically_zero_for_composed_integrand(self):
        with pytest.raises(IdenticallyZeroIntegral):
            build_tangential_oracle(
                Instance(PAPER_F, PAPER_F * Fraction(3, 2), Cycle((1, 2, -3))))

    def test_conjugate_symmetry_for_real_instance(self):
        f = RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1])
        g = RatPoly([1, 2, -1, Fraction(1, 2), 1])
        oracle = build_tangential_oracle(Instance(f, g, random_generic_cycle(3, 4, 11)))
        # real data: coefficients are real up to fit noise, so the zero
        # set is closed under conjugation
        zeros = sorted(oracle.zeros, key=lambda z: (round(z.real, 6), z.imag))
        conj = sorted((z.conjugate() for z in oracle.zeros),
                      key=lambda z: (round(z.real, 6), z.imag))
        for a, b in zip(zeros, conj):
            assert abs(a - b) < 1e-5 * (1 + abs(a))

    def test_branch_agreement(self):
        # every verified zero admits a vanishing weight assignment: some
        # ordering of the fiber makes the integral vanish relative to
        # sum |w_j| * max |g(z_j)|
        f = RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1])
        g = RatPoly([1, 2, -1, Fraction(1, 2), 1])
        cycle = random_generic_cycle(3, 4, 11)
        inst = Instance(f, g, cycle)
        oracle = build_tangential_oracle(inst)
        assert oracle.zeros
        gc = g.to_complex()
        wabs = sum(abs(w) for w in cycle.weights)
        for z in oracle.zeros:
            fib = solve_fiber(f.to_complex(), z)
            scale = wabs * max(abs(gc.evaluate(r)) for r in fib.roots)
            residual = min(abs(abelian_integral(Instance(f, g, Cycle(weights)),
                                                fib))
                           for weights in itertools.permutations(cycle.weights))
            assert residual <= 1e-7 * scale

    def test_fitted_degree_floor_follows_working_precision(self, monkeypatch):
        # a top coefficient 1e-20 below the largest is noise in doubles
        # but well above the floor of a 40-digit fit: each rung's DFT is
        # replaced by these coefficients, with a tail of 1e-38
        inst = Instance(PAPER_F, PAPER_G, PAPER_C)
        sampler = _sampler(inst)
        radius = build_tangential_oracle(inst).radius
        k_count = DEFAULT.samples_factor * 3
        coeffs = [1, 0.5, 1e-20, 1e-38] + [0] * (k_count - 4)
        monkeypatch.setattr(melnikov, "dft_fit_mp",
                            lambda samples, dps: to_pairs(coeffs, dps))
        monkeypatch.setattr(np.fft, "fft", lambda samples: k_count * np.array(
            coeffs, dtype=complex))
        fibers = sampler.circle(radius, k_count)
        _, fitted, _, _ = _fit(sampler, fibers, 2, radius, 40)
        assert fitted == 2
        # the double fit drops it and so falls short of the declared degree
        _, fitted, residual, _ = _fit(sampler, fibers, 2, radius, None)
        assert residual <= DEFAULT.tol_fit and fitted is None

    def test_fit_agrees_across_precisions(self):
        # one fit at every rung: doubles and 40 digits give the same
        # coefficients, each normalised by its largest
        inst = Instance(PAPER_F, PAPER_G, PAPER_C)
        oracle = build_tangential_oracle(inst)
        sampler = _sampler(inst)
        fibers = _circle(sampler, oracle)
        fits = []
        for dps in (None, 40):
            coeffs, _, _, _ = _fit(sampler, fibers, oracle.declared_degree_bound,
                                   oracle.radius, dps)
            coeffs = np.array(coeffs)
            fits.append(coeffs / np.max(np.abs(coeffs)))
        assert np.max(np.abs(fits[0] - fits[1])) <= 1e-10

    def test_extended_fits_carry_their_working_precision(self, monkeypatch):
        # the fits of trial 0 at 40 and 80 digits, each normalised by its
        # largest coefficient, agree to 1e-35, and the DFT tail of each is
        # at the noise of its own precision: a kernel that ran either rung
        # at fewer digits would fail one or the other.  The coefficients
        # are read at their working precision, as the DFT returns them.
        oracle = build_tangential_oracle(TRIAL0)
        bound = oracle.declared_degree_bound
        dfts = []
        original = melnikov.dft_fit_mp

        def dft(samples, dps):
            dfts.append(original(samples, dps))
            return dfts[-1]

        monkeypatch.setattr(melnikov, "dft_fit_mp", dft)
        sampler = _sampler(TRIAL0)
        fibers = _circle(sampler, oracle)
        fits = []
        with mp.workdps(100):
            for dps in (40, 80):
                _, _, residual, _ = _fit(sampler, fibers, bound, oracle.radius,
                                         dps)
                assert residual <= 10.0 ** (8 - dps)
                coeffs = [mp.mpc(str(re), str(im))
                          for re, im in dfts[-1][:bound + 1]]
                top = max(coeffs, key=abs)
                fits.append([c / top for c in coeffs])
            assert max(abs(a - b) for a, b in zip(*fits)) <= mp.mpf("1e-35")

    def test_rejected_zeros_climb_the_whole_ladder(self, monkeypatch):
        # a rung whose zeros fail verification is never accepted; the
        # build fits once per rung, then gives up
        inst = Instance(PAPER_F, PAPER_G, PAPER_C)
        assert _rejected_fits(monkeypatch, inst) == [None, 40, 80, 160, 320]

    def test_sign_symmetric_ladder_starts_at_40_digits(self, monkeypatch):
        # a sign-symmetric product never accepts a double fit, so it
        # climbs from 40 digits without making one
        inst = Instance(PAPER_F, PAPER_G, Cycle((1, -1, 0)))
        assert _rejected_fits(monkeypatch, inst) == [40, 80, 160, 320]
        assert _sampler(inst).signed


def _fail_ring_ratios(monkeypatch):
    """Make every zero cluster regular and fail its ring ratio, so that no
    rung verifies its zeros."""
    monkeypatch.setattr(melnikov, "_split_regular",
                        lambda clusters, crit_values: (tuple(clusters), ()))
    monkeypatch.setattr(_ProductSampler, "ring_ratio", lambda *args: math.inf)


def _rejected_fits(monkeypatch, inst):
    """The precision of each fit a tangential build makes when no rung
    verifies its zeros (None for doubles)."""
    fits = []

    def fit(*args):
        fits.append(args[-1])
        return original(*args)

    original = melnikov._fit
    monkeypatch.setattr(melnikov, "_fit", fit)
    _fail_ring_ratios(monkeypatch)
    with pytest.raises(FitRejected):
        build_tangential_oracle(inst)
    return fits


# seed-2026 (4,3) tangential trial 0: its product fits at 40 digits
TRIAL0 = Instance(RatPoly([Fraction(10, 3), -2, 10, Fraction(7, 3), 1]),
                  RatPoly([-2, -4, -3, -2]), Cycle((7, 4, -6, -5)))


def _sampler(inst, crit_values=()):
    """The tangential sampler of ``inst``; with no critical values its ring
    ratio keeps the disk ring_delta * (1 + |t|) everywhere."""
    return _ProductSampler(inst.f, inst.g, inst.cycle,
                           tuple(itertools.permutations(range(inst.m))),
                           crit_values)


def _circle(sampler, oracle):
    """The double fibers over the upper half of the circle of ``oracle``."""
    return sampler.circle(oracle.radius, DEFAULT.samples_factor
                          * (oracle.declared_degree_bound + 1))


def _fiber_calls(monkeypatch, inst):
    """(t, dps, init, roots) of every fiber solve of the tangential oracle
    of ``inst``, in call order: the double solves of ``_ProductSampler``
    (dps None) and the extended ones, which are the seeded ``aberth_mp``
    calls (root extraction passes no seed).  An extended solve is of
    f - t, so t is read off its constant coefficient."""
    calls = []
    double, extended = _ProductSampler.fiber, melnikov.aberth_mp
    f0 = complex(inst.f.coeffs[0])

    def recorded_double(self, t, init=None):
        roots = double(self, t, init=init)
        calls.append((t, None, init, roots))
        return roots

    def recorded_extended(coeffs, dps, init=None, **kwargs):
        roots = extended(coeffs, dps, init=init, **kwargs)
        if init is not None:
            calls.append((f0 - to_complex(coeffs[0]), dps, init, roots))
        return roots

    monkeypatch.setattr(_ProductSampler, "fiber", recorded_double)
    monkeypatch.setattr(melnikov, "aberth_mp", recorded_extended)
    return calls


def _upper_half_count(oracle):
    return DEFAULT.samples_factor * (oracle.declared_degree_bound + 1) // 2 + 1


class TestHalfCircleSampling:
    """The instance is real, so the fits solve only the upper half circle
    and take the lower half as its conjugate."""

    def test_double_fit_solves_upper_half(self, monkeypatch):
        inst = Instance(PAPER_F, PAPER_G, PAPER_C)
        oracle = build_tangential_oracle(inst)
        calls = _fiber_calls(monkeypatch, inst)
        sampler = _sampler(inst)
        _fit(sampler, _circle(sampler, oracle), oracle.declared_degree_bound,
             oracle.radius, None)
        assert len(calls) == _upper_half_count(oracle)
        assert all(dps is None and t.imag >= 0 for t, dps, _, _ in calls)

    def test_mp_fit_solves_upper_half(self, monkeypatch):
        # the extended solves and the double solves that seed them each
        # cover the upper half circle once
        oracle = build_tangential_oracle(TRIAL0)
        assert oracle.precision_dps == 40
        calls = _fiber_calls(monkeypatch, TRIAL0)
        sampler = _sampler(TRIAL0)
        _fit(sampler, _circle(sampler, oracle), oracle.declared_degree_bound,
             oracle.radius, 40)
        extended = [t for t, dps, _, _ in calls if dps == 40]
        seeds = [t for t, dps, _, _ in calls if dps is None]
        assert len(extended) == len(seeds) == _upper_half_count(oracle)
        assert all(t.imag >= 0 for t in seeds)
        assert all(abs(t - s) <= 1e-12 * oracle.radius
                   for t, s in zip(extended, seeds))


    @pytest.mark.parametrize("inst, dps, rel", [
        pytest.param(Instance(PAPER_F, PAPER_G, PAPER_C), None, 1e-12,
                     id="paper-double"),
        pytest.param(TRIAL0, 40, 1e-30, id="trial0-40"),
    ])
    def test_lower_half_is_conjugate_of_upper(self, inst, dps, rel):
        # N(conj t) = conj N(t), each side from its own fiber solve
        radius = build_tangential_oracle(inst).radius
        sampler = _sampler(inst)

        def sample(turns):
            turn = mp.expjpi(turns)
            if dps is None:
                t = radius * complex(turn)
            else:
                t = tuple(Decimal(mp.nstr(radius * x, dps + 10))
                          for x in (turn.real, turn.imag))
            if dps is None:
                factors, _ = sampler.factors(sampler.fiber(t))
                return complex(np.prod(factors))
            roots = aberth_mp(shifted(to_pairs(inst.f.coeffs, dps), t, dps), dps)
            factors, _ = weighted_sums(to_pairs(inst.g.coeffs, dps), roots,
                                       sampler.weights, sampler.patterns, dps)
            return mp.mpc(*(str(x) for x in product_mp(factors, dps)))

        with mp.workdps(dps or 15):
            for q in (1, 2, 3):
                low = sample(-mp.mpf(q) / 4)
                high = sample(mp.mpf(q) / 4)
                assert abs(low - mp.conj(high)) <= rel * abs(low)


class TestCircleSeeds:
    """The double fibers over the circle are solved once per build; the
    double rung samples on them and every extended rung starts its fiber
    solve over each sample from the double fiber over that sample."""

    def test_build_solves_each_double_circle_fiber_once(self, monkeypatch):
        # trial 0 fits in doubles, is rejected and climbs to 40 digits
        calls = _fiber_calls(monkeypatch, TRIAL0)
        oracle = build_tangential_oracle(TRIAL0)
        assert oracle.precision_dps == 40
        circle = [t for t, dps, _, _ in calls if dps is None
                  and abs(abs(t) - oracle.radius) <= 1e-12 * oracle.radius]
        assert len(circle) == _upper_half_count(oracle)

    @pytest.mark.parametrize("inst", [
        pytest.param(TRIAL0, id="trial0"),
        pytest.param(Instance(PAPER_F, PAPER_G, Cycle((1, -1, 0))),
                     id="paper-sign-symmetric"),
    ])
    def test_extended_solves_start_from_their_own_double_fiber(
            self, monkeypatch, inst):
        calls = _fiber_calls(monkeypatch, inst)
        oracle = build_tangential_oracle(inst)
        doubles = [(t, roots) for t, dps, _, roots in calls if dps is None]
        extended = [(t, init) for t, dps, init, _ in calls if dps is not None]
        assert extended
        for t, init in extended:
            seed = [roots for s, roots in doubles
                    if abs(s - t) <= 1e-12 * oracle.radius]
            assert len(seed) == 1 and init is seed[0]


class TestRingRatio:
    """The ring ratio of a claimed zero comes from the one fiber over it."""

    def test_solves_one_fiber(self, monkeypatch):
        inst = Instance(PAPER_F, PAPER_G, PAPER_C)
        sampler = _sampler(inst)
        calls = _fiber_calls(monkeypatch, inst)
        sampler.ring_ratio(4 / 27 + 1e-7)
        assert [(t, dps) for t, dps, _, _ in calls] == [(4 / 27 + 1e-7, None)]

    def test_disk_stops_short_of_a_critical_value(self):
        # the paper example's double zero sits on the critical value 4/27,
        # split into two zeros about 5e-7 from it: with the critical values
        # known, the ring shrinks to half the distance to 4/27 and the split
        # zeros fail, a point on a critical value scores inf, and far from
        # them nothing changes
        inst = Instance(PAPER_F, PAPER_G, PAPER_C)
        oracle = build_tangential_oracle(inst)
        blind = _sampler(inst)
        crit = critical_values(inst.f).critical_values
        sampler = _sampler(inst, crit)
        assert all(sampler.ring_ratio(z) > DEFAULT.root_verify
                   for z in oracle.zeros)
        assert all(sampler.ring_ratio(c) == math.inf for c in crit)
        assert sampler.ring_ratio(1.0) == blind.ring_ratio(1.0)

    def test_zeros_pass_and_phantom_fails(self):
        inst = Instance(PAPER_F, PAPER_G, PAPER_C)
        oracle = build_tangential_oracle(inst)
        sampler = _sampler(inst)
        assert all(sampler.ring_ratio(z) <= DEFAULT.root_verify
                   for z in oracle.zeros)
        assert sampler.ring_ratio(1.0) > DEFAULT.root_verify


class TestInfinitesimalOracle:
    def test_paper_example_closed_form_roots(self):
        inst = Instance(PAPER_F, PAPER_G, PAPER_C, epsilon=Fraction(1, 100))
        oracle = build_infinitesimal_oracle(inst)
        # the swap of the two unit weights pairs the 6 injections into 3
        # distinct factors, so the bound 4 of the full product halves
        assert oracle.declared_degree_bound == 2
        assert oracle.fitted_degree == 2
        # independent closed form: the factor product vanishes where the
        # deformed polynomial takes equal values at the two stationary
        # points of the factor, i.e. t = p(s) for 9s^2 + 3s - A = 0 with
        # A = 2 + 9 eps + 27 eps^2
        eps = 0.01
        a = 2 + 9 * eps + 27 * eps * eps
        roots_s = [(-1 + math.sqrt(1 + 4 * a)) / 6, (-1 - math.sqrt(1 + 4 * a)) / 6]
        p = lambda z: z ** 3 + z ** 2 + eps * (3 * z ** 2 + z)
        expect = sorted(p(s) for s in roots_s)
        got = sorted({round(z.real, 9) for z in oracle.zeros})
        assert got == pytest.approx(expect, abs=1e-7)

    def test_low_degree_deformation_uses_integrand_g(self):
        # n < m keeps the m-point fiber and the degree-n hypersurface
        f = RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1])
        g = RatPoly([1, 2, 1])
        cycle = random_generic_cycle(3, 2, 5)
        oracle = build_infinitesimal_oracle(
            Instance(f, g, cycle, epsilon=Fraction(1, 100)))
        assert oracle.declared_degree_bound == 4
        assert oracle.fitted_degree == 4

    def test_singular_perturbation_degree(self):
        f = RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1])
        g = RatPoly([1, 2, -1, Fraction(1, 2), 1])
        cycle = random_generic_cycle(3, 4, 11)
        oracle = build_infinitesimal_oracle(
            Instance(f, g, cycle, epsilon=Fraction(1, 100)))
        assert oracle.declared_degree_bound == 18
        assert oracle.fitted_degree == 18
        assert len(oracle.zeros) == 18

    def test_epsilon_required(self):
        with pytest.raises(InputError):
            build_infinitesimal_oracle(Instance(PAPER_F, PAPER_G, PAPER_C))


class TestBrieskorn:
    def test_dimension_formula(self):
        assert brieskorn_dimension(3, 4) == 3
        assert brieskorn_dimension(2, 5) == 3
        assert brieskorn_dimension(5, 3) == 3  # n < m degenerates to n

    def test_generators_explicit(self):
        basis = brieskorn_generators(PAPER_F, 4)
        assert basis.dimension == 3
        assert [g.degree for g in basis.generators] == [1, 2, 4]
        z = RatPoly.x()
        assert basis.generators[0] == z
        assert basis.generators[1] == z * z
        assert basis.generators[2] == PAPER_F * z

    def test_generator_degrees_avoid_multiples(self):
        for m in range(2, 7):
            f = RatPoly([0] * m + [1]) + RatPoly([1, 1])
            for n in range(1, 13):
                basis = brieskorn_generators(f, n)
                degrees = [g.degree for g in basis.generators]
                assert degrees == [d for d in range(1, n + 1) if d % m != 0]
                assert len(degrees) == brieskorn_dimension(m, n)


class TestDesign:
    def test_zero_targets_returns_first_generator(self):
        g = design_g_with_zeros(PAPER_F, Cycle((1, 2, -3)), [], 4)
        assert g == RatPoly.x().to_complex()

    def test_places_two_zeros(self):
        cycle = Cycle((1, 2, -3))
        g = design_g_with_zeros(PAPER_F, cycle, [1.0, 2.0], 4)
        pc = PAPER_F.to_complex()
        for t in (1.0, 2.0):
            fib = solve_fiber(pc, t)
            val = sum(w * g.evaluate(z) for w, z in zip(cycle.weights, fib.roots))
            assert abs(val) <= 1e-9

    def test_overconstrained_rejected(self):
        with pytest.raises(SingularDesignSystem):
            design_g_with_zeros(PAPER_F, Cycle((1, 2, -3)), [1.0, 2.0, 3.0], 4)

    def test_overflowing_target_rejected(self):
        # the generators overflow to inf on the fiber over 1e300, which
        # the SVD cannot take; 1e100 still designs a g
        f = RatPoly([0, 0, 0, 1])
        with pytest.raises(SingularDesignSystem, match=r"1e\+300"):
            design_g_with_zeros(f, Cycle((1, -1, 0)), [1e300], 4)
        design_g_with_zeros(f, Cycle((1, -1, 0)), [1e100], 4)
