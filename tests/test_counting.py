import json
from fractions import Fraction

import pytest

from cycle_integrals import counting
from cycle_integrals.config import DEFAULT
from cycle_integrals.cycles import Cycle, random_generic_cycle
from cycle_integrals.errors import IdenticallyZeroIntegral, InputError
from cycle_integrals.melnikov import Instance
from cycle_integrals.counting import (classify_alien, count_infinitesimal_zeros,
                                      count_tangential_zeros,
                                      run_sharpness_experiment)
from cycle_integrals.poly import RatPoly

PAPER = Instance(RatPoly([0, 0, 1, 1]), RatPoly([0, 1, 3]), Cycle((1, 1, -2)))
PAPER_EPS = Instance(RatPoly([0, 0, 1, 1]), RatPoly([0, 1, 3]), Cycle((1, 1, -2)),
                     epsilon=Fraction(1, 100))
SCHEDULE = [Fraction(1, 50), Fraction(1, 100), Fraction(1, 200)]


class TestTangentialCount:
    def test_worked_example_count_zero(self):
        report = count_tangential_zeros(PAPER)
        assert report.count == 0
        assert report.bound == 4
        assert not report.sharp
        assert len(report.excluded_near_critical) >= 1
        assert report.symmetry_order_used == 2

    def test_two_point_fiber_closed_form(self):
        # f = z^2, g = z^3 - 3z: the integral is proportional to
        # sqrt(t) (t - 3); only t = 3 is a regular zero
        inst = Instance(RatPoly([0, 0, 1]), RatPoly([0, -3, 0, 1]), Cycle((1, -1)))
        report = count_tangential_zeros(inst)
        assert report.count == 1
        z, mult = report.distinct_regular_zeros[0]
        assert z == pytest.approx(3.0, abs=1e-7)
        assert mult == 2  # the simple-cycle sign swap doubles every zero

    def test_generic_cubic_quartic_sharp(self):
        inst = Instance(RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1]),
                        RatPoly([1, 2, -1, Fraction(1, 2), 1]),
                        random_generic_cycle(3, 4, 11))
        report = count_tangential_zeros(inst)
        assert report.count == 8 and report.sharp

    def test_distinct_zeros_kept_apart_at_grown_radius(self):
        # trial 18 of the seed-2026 (4,3) generic suite: the sampling circle
        # grows far beyond the critical values, and zeros clustered at that
        # radius's scale used to merge and be excluded as critical
        inst = Instance(RatPoly([2, Fraction(9, 2), Fraction(7, 3),
                                 Fraction(-11, 3), 1]),
                        RatPoly([Fraction(-7, 2), -1, 7, 2]),
                        Cycle((-6, 0, 2, 4)))
        report = count_tangential_zeros(inst)
        assert report.count == 18 and report.sharp

    def test_double_zero_next_to_critical_value_kept_apart(self):
        # a sign-symmetric cycle: every zero is double.  One sits 3.4e-4
        # from the critical value -40.0293 of f, next to the zero on it; a
        # cluster radius widened for double zeros split in doubles merged
        # the two, and the count was 2 where the argument principle finds 3
        inst = Instance(RatPoly([0, -12, Fraction(-10, 3), 1]),
                        RatPoly([2, -1, -6, -1, -9]),
                        Cycle((-1, 0, 1)))
        report = count_tangential_zeros(inst)
        assert report.precision_dps == 40
        assert report.count == 3
        assert [m for _, m in report.distinct_regular_zeros] == [2, 2, 2]

    def test_excluded_zeros_ordered_at_root_tolerance(self):
        # the real parts differ by 1e-7: more than tol_cluster * (1 + |z|)
        # but less than the cluster radius, so the order is by real part
        left, right = complex(0.0, 1.0), complex(1e-7, -1.0)
        for zeros in ([left, right], [right, left]):
            clusters = counting._cluster_zeros(zeros, 1.0, DEFAULT)
            regular, excluded = counting._split_regular(clusters, zeros, DEFAULT)
            assert regular == () and excluded == (left, right)

    def test_identically_zero_raises(self):
        inst = Instance(PAPER.f, PAPER.f * 2, Cycle((1, 2, -3)))
        with pytest.raises(IdenticallyZeroIntegral):
            count_tangential_zeros(inst)

    def test_epsilon_rejected(self):
        with pytest.raises(InputError):
            count_tangential_zeros(PAPER_EPS)


class TestInfinitesimalCount:
    def test_worked_example_count_two(self):
        report = count_infinitesimal_zeros(PAPER_EPS)
        assert report.count == 2
        assert report.bound == 4
        # (1, 1, -2) has no sign symmetry, so both zeros are simple
        assert all(mult == 1 for _, mult in report.distinct_regular_zeros)

    def test_requires_epsilon(self):
        with pytest.raises(InputError):
            count_infinitesimal_zeros(PAPER)

    def test_determinism(self):
        a = count_infinitesimal_zeros(PAPER_EPS).as_dict()
        b = count_infinitesimal_zeros(PAPER_EPS).as_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestAlienClassification:
    def test_worked_example_all_alien(self):
        report = classify_alien(PAPER_EPS, SCHEDULE)
        assert report.tangential_count == 0
        assert report.infinitesimal_count == 2
        assert report.regular_count == 0
        assert report.alien_count == 2
        for branch in report.branches:
            assert branch["class"] == "alien"
            assert branch["matched"] == "critical_value"
            assert branch["limit"] == pytest.approx(4 / 27, abs=1e-3)

    def test_low_degree_deformation_all_regular(self):
        inst = Instance(RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1]),
                        RatPoly([1, 2, 1]),
                        random_generic_cycle(3, 2, 5),
                        epsilon=Fraction(1, 100))
        report = classify_alien(inst, SCHEDULE)
        assert report.alien_count == 0
        assert report.regular_count == report.infinitesimal_count == 4
        assert report.regular_count <= report.tangential_count

    def test_escaping_branches_continue_to_infinity(self):
        # partition trial 15 of criterion 6: ten zeros escape like eps^-3
        # and mix with the finite ones at the larger epsilons
        inst = Instance(RatPoly([-12, Fraction(7, 3), -6, 1]),
                        RatPoly([Fraction(-10, 3), 6, Fraction(5, 3), -1, -4]),
                        Cycle((9, -1, -8)), epsilon=Fraction(1, 100))
        report = classify_alien(inst, SCHEDULE)
        assert report.regular_count == 8
        assert report.alien_count == 10
        assert all(branch["matched"] == "infinity" for branch in report.branches
                   if branch["class"] == "alien")
        assert (report.regular_count + report.alien_count
                == report.infinitesimal_count)

    def test_schedule_validation(self):
        with pytest.raises(InputError):
            classify_alien(PAPER_EPS, [Fraction(1, 50), Fraction(1, 100)])
        with pytest.raises(InputError):
            classify_alien(PAPER_EPS, [Fraction(1, 100), Fraction(1, 50),
                                       Fraction(1, 200)])


class TestExperiments:
    def test_small_tangential_suite(self):
        summary = run_sharpness_experiment(3, 2, "tangential", 5, seed=2026)
        assert summary["bound"] == 4
        assert summary["max_count"] == 4
        assert summary["attained_fraction"] == 1.0
        assert summary["failures"] == []
        assert summary["chebyshev_ratio"] == 2.0

    def test_two_point_suite_forces_simple_mode(self):
        summary = run_sharpness_experiment(2, 5, "tangential", 5, seed=2026)
        assert summary["cycle_mode"] == "simple"
        assert summary["max_count"] == 2

    def test_deterministic_summaries(self):
        a = run_sharpness_experiment(3, 2, "infinitesimal", 4, seed=5)
        b = run_sharpness_experiment(3, 2, "infinitesimal", 4, seed=5)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_count_above_bound_is_recorded(self, monkeypatch):
        monkeypatch.setattr(counting, "bound_tangential", lambda m, n: 0)
        summary = run_sharpness_experiment(3, 2, "tangential", 2, seed=2026)
        assert summary["counts"] == []
        assert [f["error"] for f in summary["failures"]] == ["NumericalError"] * 2

    def test_counts_never_exceed_bound(self):
        summary = run_sharpness_experiment(3, 3, "tangential", 6, seed=1)
        assert all(c <= summary["bound"] for c in summary["counts"])
