import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from cycle_integrals.cycles import (Cycle, bound_infinitesimal, bound_simple,
                                    bound_tangential, infinity_point_count,
                                    is_asymmetric, random_generic_cycle,
                                    random_simple_cycle, regular_at_infinity,
                                    symmetry_group)
from cycle_integrals.errors import (DomainError, GenericCycleNotFound,
                                    InvalidCycle, LengthMismatch)


def weights(m):
    body = st.lists(st.integers(-6, 6), min_size=m - 1, max_size=m - 1)
    return body.map(lambda head: tuple(head) + (-sum(head),)).filter(
        lambda w: any(w) and max(abs(v) for v in w) <= 6)


class TestCycle:
    def test_cycle_condition_enforced(self):
        with pytest.raises(InvalidCycle):
            Cycle((1, 1))
        with pytest.raises(InvalidCycle):
            Cycle((0, 0, 0))

    @pytest.mark.parametrize("weights", [(1.5, -1.5), (True, False, -1),
                                         ("1", "-1"), (1.0, -1.0)])
    def test_weights_must_be_integers(self, weights):
        with pytest.raises(InvalidCycle):
            Cycle(weights)

    def test_integral_weights_become_ints(self):
        cycle = Cycle(np.array([2, -1, -1]))
        assert cycle.weights == (2, -1, -1)
        assert all(type(w) is int for w in cycle.weights)

    def test_simple_detection(self):
        assert Cycle((1, -1, 0)).is_simple
        assert Cycle((0, -1, 1, 0)).is_simple
        assert not Cycle((2, -2, 0)).is_simple
        assert not Cycle((1, 1, -2)).is_simple

    def test_integral_gives_extra_roots_weight_zero(self):
        # sum_j n_j h(z_j) in weight order; the roots of a deformed fiber
        # past the last weight do not contribute
        assert Cycle((1, -1)).integral(lambda z: z * z, (2, 3, 100)) == -5

    def test_integral_needs_a_root_per_weight(self):
        with pytest.raises(LengthMismatch, match="3 weights for 2"):
            Cycle((1, 1, -2)).integral(lambda z: z, (1.0, 2.0))


class TestSymmetryGroup:
    def test_simple_cycle_on_four_points(self):
        assert symmetry_group(Cycle((1, -1, 0, 0))).order == 4  # 2*(4-2)!

    def test_alternating_cycle(self):
        # exhaustive enumeration of signed permutations fixing the vector:
        # 4 sign-preserving and 4 sign-flipping elements
        group = symmetry_group(Cycle((1, -1, 1, -1)))
        assert group.order == 8
        assert sum(1 for _, s in group.elements if s == 1) == 4

    def test_distinct_magnitudes_trivial(self):
        assert symmetry_group(Cycle((1, 2, -3))).order == 1

    def test_contains_identity(self):
        group = symmetry_group(Cycle((2, 4, -3, -3)))
        assert ((0, 1, 2, 3), 1) in group.elements
        assert group.order > 1

    @given(weights(4))
    @hyp_settings(max_examples=40, deadline=None)
    def test_order_divides_double_factorial(self, w):
        order = symmetry_group(Cycle(w)).order
        assert (2 * math.factorial(4)) % order == 0


class TestAsymmetry:
    def test_examples(self):
        assert is_asymmetric(Cycle((1, 2, -3)))
        assert not is_asymmetric(Cycle((1, -1, 0)))
        assert not is_asymmetric(Cycle((2, 4, -3, -3)))


class TestRegularAtInfinity:
    def test_regular_case(self):
        cycle = Cycle((1, 2, -3))
        cert = regular_at_infinity(cycle, 4)
        assert cert.regular_at_infinity
        assert cert.failing_permutations == ()
        assert is_asymmetric(cycle) and not cycle.is_simple

    def test_divisible_degree_never_regular(self):
        cert = regular_at_infinity(Cycle((1, 2, -3)), 3)
        assert not cert.regular_at_infinity
        assert len(cert.failing_permutations) == 2  # all of Stab_3

    def test_sum_vanishing_without_pairwise_cancellation(self):
        # xi = exp(2 pi i/6) has 1 + xi^2 + xi^4 = 0.  With n = 1 the last
        # weight sits on exponent 0, so the sum vanishes exactly when the
        # -1 weights take the exponents {0, 2, 4} and the +1 weights
        # {1, 3, 5}, although no two of its terms cancel
        cert = regular_at_infinity(Cycle((1, 1, 1, -1, -1, -1)), 1)
        assert not cert.regular_at_infinity
        assert set(cert.failing_permutations) == {
            odd + even + (6,) for odd in itertools.permutations((1, 3, 5))
            for even in itertools.permutations((2, 4))}

    def test_two_point_fiber(self):
        assert regular_at_infinity(Cycle((1, -1)), 3).regular_at_infinity
        assert not regular_at_infinity(Cycle((1, -1)), 4).regular_at_infinity

    @given(weights(4), st.integers(1, 9).filter(lambda n: n % 4 == 0))
    @hyp_settings(max_examples=20, deadline=None)
    def test_multiple_degree_forces_failure(self, w, n):
        assert not regular_at_infinity(Cycle(w), n).regular_at_infinity


class TestCounts:
    def test_infinity_point_count(self):
        assert infinity_point_count(3, 4) == 0
        assert infinity_point_count(3, 6) == 12
        assert infinity_point_count(2, 4) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            infinity_point_count(3, 2)

    def test_zero_iff_not_divisible(self):
        for m in range(2, 7):
            for n in range(m, 13):
                assert (infinity_point_count(m, n) == 0) == (n % m != 0)


class TestBounds:
    def test_tangential(self):
        assert bound_tangential(3, 4) == 8
        assert bound_tangential(3, 3) == 4
        assert bound_tangential(2, 5) == 2

    def test_infinitesimal(self):
        assert bound_infinitesimal(3, 4) == 18
        assert bound_infinitesimal(3, 3) == 4
        assert bound_infinitesimal(3, 2) == 4
        assert bound_infinitesimal(2, 3) == 1

    def test_simple(self):
        assert bound_simple(3, 4) == 3
        assert bound_simple(4, 6) == 7
        assert bound_simple(2, 5) == 2 == bound_tangential(2, 5)

    def test_simple_is_the_exact_formula(self):
        # the numerator is even for every parity of m and n
        for m in range(2, 9):
            for n in range(1, 41):
                exact = Fraction((n - 1) * (m - 1) - (math.gcd(m, n) - 1), 2)
                assert exact.denominator == 1
                assert bound_simple(m, n) == exact

    def test_first_order_below_full_table(self):
        for m in range(2, 7):
            for n in range(1, 9):
                assert bound_tangential(m, n) <= bound_infinitesimal(m, n)

    def test_divisible_matches_previous_degree(self):
        for m in range(3, 7):
            for n in range(m, 25, m):
                if (n - 1) % m:
                    assert bound_tangential(m, n) == bound_tangential(m, n - 1)


class TestRandomCycles:
    def test_deterministic_and_certified(self):
        a = random_generic_cycle(3, 4, 42)
        b = random_generic_cycle(3, 4, 42)
        assert a.weights == b.weights
        assert is_asymmetric(a)
        assert regular_at_infinity(a, 4).regular_at_infinity

    def test_four_point_fiber(self):
        c = random_generic_cycle(4, 5, 9)
        assert sum(c.weights) == 0
        assert is_asymmetric(c)
        assert regular_at_infinity(c, 5).regular_at_infinity

    def test_two_point_fiber_impossible(self):
        with pytest.raises(GenericCycleNotFound):
            random_generic_cycle(2, 5, 1)

    def test_simple_cycle_draw(self):
        c = random_simple_cycle(5, 3)
        assert c.is_simple
        assert random_simple_cycle(5, 3).weights == c.weights
