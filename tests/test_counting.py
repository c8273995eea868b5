import decimal
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cycle_integrals import counting, melnikov
from cycle_integrals.config import DEFAULT
from cycle_integrals.cycles import (Cycle, random_generic_cycle,
                                    regular_at_infinity)
from cycle_integrals.errors import (BranchMatchingAmbiguous,
                                    IdenticallyZeroIntegral, InputError)
from cycle_integrals.melnikov import (Instance, build_infinitesimal_oracle,
                                      build_tangential_oracle)
from cycle_integrals.counting import (classify_alien, count_infinitesimal_zeros,
                                      count_tangential_zeros,
                                      run_sharpness_experiment)
from cycle_integrals.poly import RatPoly, cluster_points, critical_values

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

    def test_deformation_reduced_once_per_count(self, monkeypatch):
        # deg f divides deg g: the oracle reduces g, and the certificate
        # takes the reduced degree from the oracle instead of reducing again
        calls = []
        original = melnikov.reduce_deformation

        def counted(f, g):
            calls.append(g)
            return original(f, g)

        monkeypatch.setattr(melnikov, "reduce_deformation", counted)
        monkeypatch.setattr(counting, "reduce_deformation", counted)
        inst = Instance(RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1]),
                        RatPoly([1, 2, -1, 1]), Cycle((1, 2, -3)))
        report = count_tangential_zeros(inst)
        assert len(calls) == 1
        assert report.certificate == regular_at_infinity(inst.cycle, 2).as_dict()

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

    @pytest.mark.parametrize("f, g, weights", [
        pytest.param([3, -9, -1, -5, 1], [-7, 1, -8, Fraction(-7, 3)],
                     (-3, 7, -8, 4), id="trial14"),
        pytest.param([2, Fraction(9, 2), Fraction(7, 3), Fraction(-11, 3), 1],
                     [Fraction(-7, 2), -1, 7, 2], (-6, 0, 2, 4), id="trial18"),
        pytest.param([Fraction(3, 2), -7, Fraction(10, 3), -1, 1],
                     [-1, -9, 10, 2], (-7, 5, 8, -6), id="trial19"),
    ])
    def test_far_zeros_fit_on_critical_value_circle(self, f, g, weights):
        # trials of the seed-2026 (4,3) generic suite whose branch products
        # have zeros far outside the critical values: a 40-digit fit on
        # the critical-value circle resolves them, with no radius growth
        inst = Instance(RatPoly(f), RatPoly(g), Cycle(weights))
        report = count_tangential_zeros(inst)
        assert report.count == 18 and report.sharp
        assert report.precision_dps == 40
        crit = critical_values(inst.f)
        assert build_tangential_oracle(inst).radius == \
            DEFAULT.radius_factor * (1.0 + crit.max_abs)

    def test_count_leaves_the_decimal_context_alone(self):
        # trial 14 settles at 40 digits; the kernel evaluates under a
        # context of its own, so a coarse caller context neither changes
        # the count nor is changed by it
        inst = Instance(RatPoly([3, -9, -1, -5, 1]),
                        RatPoly([-7, 1, -8, Fraction(-7, 3)]), Cycle((-3, 7, -8, 4)))
        caller = decimal.Context(prec=6, rounding=decimal.ROUND_FLOOR,
                                 traps=[decimal.Inexact])
        with decimal.localcontext(caller) as ctx:
            before = repr(ctx)
            report = count_tangential_zeros(inst)
            assert decimal.getcontext() is ctx
            assert repr(ctx) == before
        assert report.count == 18 and report.precision_dps == 40

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

    def test_zeros_on_the_ring_threshold(self):
        # seed-2026 (3,3) trial 15: four real zeros crowd near t = 10 and
        # the first-order ring ratio of a double fit, from the fiber over
        # each zero, sits near root_verify, so the count and the zeros must
        # not depend on which rung accepts
        inst = Instance(RatPoly([9, Fraction(-2, 3), Fraction(3, 2), 1]),
                        RatPoly([Fraction(-5, 3), Fraction(9, 2),
                                 Fraction(-7, 3), -5]),
                        Cycle((4, -1, -3)))
        report = count_tangential_zeros(inst)
        assert report.count == 4
        zeros = [z for z, _ in report.distinct_regular_zeros]
        expected = [9.869067599879, 10.091947551686, 10.226946513406,
                    10.232046784018]
        for z, t in zip(zeros, expected):
            assert abs(z - t) <= 1e-6

    def test_excluded_zeros_ordered_at_root_tolerance(self):
        # the real parts differ by 1e-7: more than tol_cluster * (1 + |z|)
        # but less than the cluster radius, so the order is by real part
        left, right = complex(0.0, 1.0), complex(1e-7, -1.0)
        for zeros in ([left, right], [right, left]):
            clusters = cluster_points(
                zeros, lambda z: DEFAULT.cluster_scale * (1.0 + abs(z)))
            regular, excluded = melnikov._split_regular(clusters, zeros)
            assert regular == () and excluded == (left, right)

    def test_identically_zero_raises(self):
        inst = Instance(PAPER.f, PAPER.f * 2, Cycle((1, 2, -3)))
        with pytest.raises(IdenticallyZeroIntegral):
            count_tangential_zeros(inst)

    @pytest.mark.parametrize("count, epsilon", [
        (count_tangential_zeros, None),
        (count_infinitesimal_zeros, Fraction(1, 100)),
    ], ids=["tangential", "infinitesimal"])
    def test_identically_zero_product_raises(self, count, epsilon):
        # g does not reduce to zero, but f = x^4 - x^2 and g = x^2 are both
        # polynomials in x^2, so the factor g(z) - g(-z) vanishes
        # identically and the fit sees it vanish at every sample
        inst = Instance(RatPoly([0, 0, -1, 0, 1]), RatPoly([0, 0, 1]),
                        Cycle((1, -1, 0, 0)), epsilon=epsilon)
        with pytest.raises(IdenticallyZeroIntegral):
            count(inst)

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

    def test_oracle_rejects_epsilon_outside_perturbative_regime(self):
        # at eps = 1000 the critical values of f + eps*g have left the
        # scale of those of f
        inst = Instance(PAPER.f, PAPER.g, PAPER.cycle, epsilon=Fraction(1000))
        with pytest.raises(InputError, match="perturbative regime"):
            build_infinitesimal_oracle(inst)

    def test_product_shorter_than_its_bound(self):
        # a criterion-5 (3,3) draw whose product has degree 2 under a
        # declared bound of 4: doubles cannot tell a short fit from a lost
        # top coefficient, so the fit escalates on the critical-value circle
        inst = Instance(RatPoly([-2, Fraction(7, 2), Fraction(-8, 3), 1]),
                        RatPoly([-10, Fraction(2, 3), Fraction(4, 3),
                                 Fraction(-1, 2)]),
                        Cycle((-3, -1, 4)), epsilon=Fraction(1, 100))
        oracle = build_infinitesimal_oracle(inst)
        crit = critical_values(inst.deformed_poly())
        assert oracle.radius == DEFAULT.radius_factor * (1.0 + crit.max_abs)
        assert (oracle.fitted_degree, oracle.declared_degree_bound) == (2, 4)
        report = count_infinitesimal_zeros(inst)
        assert report.count == 2
        (low, _), (high, _) = report.distinct_regular_zeros
        assert high == pytest.approx(complex(-0.3806, 0.3545), abs=1e-4)
        assert abs(low - high.conjugate()) < 1e-12

    def test_determinism(self):
        a = count_infinitesimal_zeros(PAPER_EPS).as_dict()
        b = count_infinitesimal_zeros(PAPER_EPS).as_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


SIX_FOLD_F = [0, 3, 1, 1]
SIX_FOLD_G = [Fraction(3, 2), 0, Fraction(-5, 3), -1, Fraction(-1, 3)]


@pytest.mark.parametrize("f, g, weights, epsilon, zeros", [
    pytest.param([-9, Fraction(2, 3), 0, 1],
                 [-11, Fraction(2, 3), Fraction(11, 3), -1, Fraction(11, 2)],
                 (-1, 1, 0), None, [(-9.242424242424, 6)],
                 id="tangential-six-fold-off-integer"),
    pytest.param(SIX_FOLD_F, SIX_FOLD_G, (1, 0, -1), None, [(6.0, 6)],
                 id="tangential-six-fold-at-six"),
    pytest.param(SIX_FOLD_F, SIX_FOLD_G, (1, 0, -1), Fraction(1, 100),
                 [(5.975, 6)], id="infinitesimal-six-fold"),
    pytest.param([-1, 10, Fraction(11, 2), 1],
                 [Fraction(-7, 2), 0, Fraction(-4, 3), Fraction(1, 3), -2],
                 (0, 1, -1), Fraction(1, 100),
                 [(-61.638821522205, 2), (-10.084553297868, 2),
                  (170.171708153406, 2)], id="infinitesimal-three-double"),
])
def test_sign_symmetric_zeros_keep_even_multiplicity(f, g, weights, epsilon,
                                                     zeros):
    # every cycle here has a sign symmetry, so every zero of the branch
    # product has even multiplicity; a rung of the precision ladder that
    # splits a multiple zero into an odd cluster must not be accepted
    inst = Instance(RatPoly(f), RatPoly(g), Cycle(weights), epsilon=epsilon)
    count = count_tangential_zeros if epsilon is None else count_infinitesimal_zeros
    report = count(inst)
    assert report.count == len(zeros)
    assert [m for _, m in report.distinct_regular_zeros] == [m for _, m in zeros]
    for (z, _), (t, _) in zip(report.distinct_regular_zeros, zeros):
        assert abs(z - t) <= 1e-6


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

    def test_conjugate_branches_mirror_exactly(self, monkeypatch):
        # the partition-trial-15 instance above: 2 real seeds and 8
        # conjugate pairs, so 10 branches are continued for 18 seeds
        inst = Instance(RatPoly([-12, Fraction(7, 3), -6, 1]),
                        RatPoly([Fraction(-10, 3), 6, Fraction(5, 3), -1, -4]),
                        Cycle((9, -1, -8)), epsilon=Fraction(1, 100))
        built = []

        class CountedBranch(counting._Branch):
            def __init__(self, *args):
                built.append(args[1])
                super().__init__(*args)

        monkeypatch.setattr(counting, "_Branch", CountedBranch)
        report = classify_alien(inst, SCHEDULE)
        assert report.infinitesimal_count == 18
        assert len(built) == 10

        def conjugate(branch):
            limit = branch["limit"]
            return {"trajectory": tuple(z.conjugate()
                                        for z in branch["trajectory"]),
                    "limit": None if limit is None else limit.conjugate(),
                    "class": branch["class"], "matched": branch["matched"]}

        for branch in report.branches:
            seed = branch["trajectory"][-1]
            if abs(seed.imag) <= DEFAULT.tol_cluster * (1.0 + abs(seed)):
                continue
            assert any(other == conjugate(branch)
                       for other in report.branches if other is not branch)

    def test_no_two_branches_share_a_non_real_point(self):
        # partition trial 141 of criterion 6: a Newton corrector certified
        # only against its previous iterate carried the alien pair seeded at
        # -79239.5 -+ 57336.2i onto the regular pair's zeros -58.673 +- 16.626i
        # at eps = 1/100
        inst = Instance(RatPoly([4, 6, 1, 1]), RatPoly([-6, -3, 9, -10, -4]),
                        Cycle((4, 5, -9)), epsilon=Fraction(1, 100))
        report = classify_alien(inst, SCHEDULE)
        seen = []
        for branch in report.branches:
            # trajectories are aligned at the smallest epsilon
            for level, t in enumerate(reversed(branch["trajectory"])):
                tol = DEFAULT.tol_cluster * (1.0 + abs(t))
                if abs(t.imag) > tol:
                    assert not any(k == level and abs(z - t) <= tol
                                   for k, z in seen)
                    seen.append((level, t))

    def test_schedule_validation(self):
        with pytest.raises(InputError):
            classify_alien(PAPER_EPS, [Fraction(1, 50), Fraction(1, 100)])
        with pytest.raises(InputError):
            classify_alien(PAPER_EPS, [Fraction(1, 100), Fraction(1, 50),
                                       Fraction(1, 200)])


# partition trials 3 and 15 of criterion 6; upward continuation of some of
# their branches from eps = 1/100 cannot reach 1/50, because a cusp of
# f + eps*g at eps = 0.0158949 and 0.0117851 closes the chamber of a root
PARTITION_3 = Instance(RatPoly([-1, 3, Fraction(-10, 3), 1]),
                       RatPoly([-6, 2, Fraction(11, 2), Fraction(8, 3), 6]),
                       Cycle((1, -5, 4)), epsilon=Fraction(1, 100))
PARTITION_15 = Instance(RatPoly([-12, Fraction(7, 3), -6, 1]),
                        RatPoly([Fraction(-10, 3), 6, Fraction(5, 3), -1, -4]),
                        Cycle((9, -1, -8)), epsilon=Fraction(1, 100))


def partition_draw(trial):
    """Partition trial ``trial`` of criterion 6."""
    rng = random.Random(f"partition:{trial}")
    f = counting._random_morse_poly(rng, 3)
    g = counting._random_poly(rng, 4)
    return Instance(f, g, random_generic_cycle(3, 4, f"partition:{trial + 1}:c"))


def recorded_walks(monkeypatch, inst):
    """classify_alien on inst, with (start, target, last point, advance
    calls, branch, accepted points) for every walk of every continued
    branch."""
    walks = []

    class RecordedBranch(counting._Branch):
        calls = 0

        def advance(self, point, eps):
            self.calls += 1
            return super().advance(point, eps)

        def walk(self, point, target):
            before, accepted = self.calls, []
            try:  # `_branch_end` leaves its walk once the branch has ended
                for last in super().walk(point, target):
                    accepted.append(last)
                    yield last
            finally:
                last = accepted[-1] if accepted else point
                walks.append((point, target, last, self.calls - before, self,
                              accepted))

    monkeypatch.setattr(counting, "_Branch", RecordedBranch)
    return classify_alien(inst, SCHEDULE), walks


def is_real(t):
    return abs(t.imag) <= DEFAULT.tol_root * (1.0 + abs(t))


class TestStallCertificate:
    # f = x^3 - 3x, g = -x^4: W = f''g' - f'g'' = 12 x^2 (x^2 - 3), and of
    # its zeros only z = sqrt(3) gives a positive eps = -f'(z)/g'(z)
    CUSP = Instance(RatPoly([0, -3, 0, 1]), RatPoly([0, 0, 0, 0, -1]),
                    Cycle((1, 1, -2)))

    def test_closed_form_cusp(self):
        pencil = counting._Pencil(self.CUSP)
        (eps_c, chamber), = pencil.cusps
        assert eps_c == pytest.approx(1 / (2 * 3 ** 0.5), rel=1e-12)
        # three real critical points below the cusp; the right two merge
        assert chamber == (1, 3)
        crit = counting._real_roots(counting._plus(
            pencil.df, pencil.dg, eps_c * (1 - 1e-6)))
        assert len(crit) == 3
        assert crit[2] - crit[1] < 1e-2
        assert (crit[1] + crit[2]) / 2 == pytest.approx(3 ** 0.5, abs=1e-5)

    def test_degree_drop_is_an_event(self):
        # f' = 3x^2 - 3 and g' = -3x^2 + 1: f' + eps*g' drops degree at
        # eps = 1, and W = -12x gives eps = 3 at z = 0, where the pair of
        # critical points separates as eps grows
        pencil = counting._Pencil(Instance(
            RatPoly([0, -3, 0, 1]), RatPoly([0, 1, 0, -1]), Cycle((1, 1, -2))))
        assert pencil.cusps == ((1.0, None), (3.0, None))
        for eps, target in ((0.5, 2.0), (0.5, 5.0), (2.0, 5.0)):
            assert not pencil.shut(counting._Point(eps, 0j, None, 0j), target)

    def test_certifies_only_a_root_in_the_closing_chamber(self):
        # at eps = 0.1 the right two critical values of x^3 - 3x - x^4/10
        # are -2.116 and 83.17; the fiber over 0 has the root 1.93 between
        # the critical points 1.08 and 7.36
        pencil = counting._Pencil(self.CUSP)

        def at(t):
            return counting._Point(0.1, complex(t), None, 0j)

        assert pencil.shut(at(0.0), 0.5)
        assert not pencil.shut(at(0.0), 0.25)   # the cusp lies beyond 0.25
        assert not pencil.shut(at(-10.0), 0.5)  # no root in the chamber
        assert not pencil.shut(at(90.0), 0.5)
        assert not pencil.shut(at(1e-3j), 0.5)  # t is not real

    @pytest.mark.parametrize("inst, short", [(PARTITION_3, 2), (PARTITION_15, 6)],
                             ids=["partition3", "partition15"])
    def test_stalls_at_a_cusp_stop_at_once(self, monkeypatch, inst, short):
        report, walks = recorded_walks(monkeypatch, inst)
        assert sum(len(b["trajectory"]) == 2 for b in report.branches) == short
        stalled = [w for w in walks if w[1] == 0.02 and w[2].eps != 0.02]
        assert stalled
        for start, _, last, calls, branch, _ in stalled:
            assert start.eps == 0.01
            if is_real(start.t):
                assert calls <= 5
            else:
                # a branch that turns real on the way stops at the first
                # accepted point after that
                assert is_real(last.t) and branch.pencil.shut(last, 0.02)
        if inst is PARTITION_15:
            # the non-real branch from 40.47 - 0.00056i took 110 calls when
            # the certificate was asked only after a rejected step
            (calls,) = [w[3] for w in stalled
                        if abs(w[0].t - (40.47 - 0.00056j)) < 1e-2]
            assert calls < 110

    def test_open_chamber_walk_reaches_its_level(self, monkeypatch):
        # the non-real partition-15 branch seeded near 5572.88 - 0.92i
        # crawls near eps = 0.0098638 on its way up, in log-eps steps
        # below 1e-2, and then passes 1/100
        report, walks = recorded_walks(monkeypatch, PARTITION_15)
        (start, _, last, _, _, accepted), = [
            w for w in walks
            if w[1] == 0.01 and abs(w[0].t - (5572.876 - 0.9208j)) < 1e-2]
        eps = [start.eps] + [point.eps for point in accepted]
        assert min(math.log(b / a) for a, b in zip(eps, eps[1:])) < 1e-2
        assert last.eps == 0.01
        assert (last.t, start.t) in [b["trajectory"][-2:] for b in report.branches]


class TestStepBound:
    def test_escaping_root_moves_by_its_own_distance(self):
        # on x^3 - 3x - eps x^4 = 0 one root z escapes like 1/eps; at slope 0
        # it moves by eps |z^4 / (f' + eps g')(z)|, about |z|, per unit log
        # eps, and |z| is also its distance to the other roots
        pencil = counting._Pencil(TestStallCertificate.CUSP)
        eps = 1e-6
        point = counting._Point(eps, 0j, tuple(pencil.fiber(0.0, eps)), 0j)
        assert max(abs(z) for z in point.roots) == pytest.approx(1 / eps)
        assert pencil.reach(point) == pytest.approx(counting._REACH, rel=1e-2)

    def test_downward_walks_make_no_rejected_step(self, monkeypatch):
        # partition trial 0 of criterion 6; fixed log-eps steps of ln 2
        # rejected 126 of the 300 steps of its downward walks
        _, walks = recorded_walks(monkeypatch, partition_draw(0))
        down = [w for w in walks if w[1] < w[0].eps]
        assert down
        assert sum(len(w[5]) for w in down) == sum(w[3] for w in down)


class TestDefectLedger:
    """Draws that the program gets wrong today, each asserting the exact
    value from sympy resultants.  A fix turns its test into an unexpected
    pass, and the fix drops the mark."""

    DRAW_32 = Instance(RatPoly([Fraction(11, 2), 0, -3, 1]),
                       RatPoly([Fraction(-4, 3), -1, 1]), Cycle((-8, 2, 6)))
    MERGED = ("two zeros within one cluster radius of a critical value merge, "
              "and the merged cluster is excluded")

    def test_32_draw_tangential_count(self):
        # the split triple zero at the critical value 3/2 must not pass the
        # ring ratio as three regular zeros
        assert count_tangential_zeros(self.DRAW_32).count == 1

    def test_32_draw_classifies_one_regular_and_one_alien(self):
        report = classify_alien(replace(self.DRAW_32, epsilon=Fraction(1, 100)),
                                SCHEDULE)
        assert (report.tangential_count, report.regular_count,
                report.alien_count) == (1, 1, 1)

    @pytest.mark.xfail(strict=True, reason="counts 2 displacement zeros at eps = 1/100")
    def test_32_draw_infinitesimal_count(self):
        inst = replace(self.DRAW_32, epsilon=Fraction(1, 100))
        assert count_infinitesimal_zeros(inst).count == 4

    @pytest.mark.parametrize("inst", [
        pytest.param(partition_draw(24), id="partition24", marks=pytest.mark.xfail(
            strict=True, reason=("counts 5: three zeros within 7.1e-5 of the "
                                 "critical value -16.7512 are excluded"))),
        pytest.param(partition_draw(77), id="partition77", marks=pytest.mark.xfail(
            strict=True, reason=f"counts 6: {MERGED} (5/3)")),
        pytest.param(Instance(RatPoly([Fraction(5, 3), Fraction(-1, 3), -1, 1]),
                              RatPoly([3, Fraction(-3, 2), Fraction(-1, 3), 0, 1]),
                              Cycle((4, -6, 2))),
                     id="sweep1-34-trial43", marks=pytest.mark.xfail(
            strict=True, reason=f"counts 6: {MERGED} (1.690995)")),
    ])
    def test_34_tangential_count(self, inst):
        assert count_tangential_zeros(inst).count == 8

    @pytest.mark.xfail(strict=True, reason=(
        "counts 16: the cluster radius (about 6e-3, set by the critical "
        "value 1546) merges two zeros near -10.6875"))
    def test_sweep1_43_trial10_tangential_count(self):
        inst = Instance(RatPoly([-10, 0, -8, 10, 1]),
                        RatPoly([Fraction(-11, 2), Fraction(-5, 2), 3, 11]),
                        Cycle((6, -2, -4, 0)))
        assert count_tangential_zeros(inst).count == 18

    @pytest.mark.xfail(strict=True, reason=(
        "counts 8: a 6-fold zero common to all branches is split into six"))
    def test_partition_18_tangential_count(self):
        assert count_tangential_zeros(partition_draw(18)).count == 3

    # seed-2026 (3,5) trial 28, with its generic and its simple cycle
    @pytest.mark.parametrize("cycle, exact", [
        pytest.param((-1, -2, 3), 10, id="generic", marks=pytest.mark.xfail(
            strict=True, reason=("counts 7: three zeros within 2.3e-6 of the "
                                 "critical value -11.83215 are merged and "
                                 "excluded"))),
        pytest.param((-1, 1, 0), 4, id="simple", marks=pytest.mark.xfail(
            strict=True, reason=("counts 3: a zero 2.5e-7 from the critical "
                                 "value -11.83215 is excluded"))),
    ])
    def test_35_trial28_tangential_count(self, cycle, exact):
        inst = Instance(RatPoly([Fraction(7, 3), Fraction(4, 3), -5, 1]),
                        RatPoly([-1, 1, Fraction(11, 2), 6, 3, Fraction(-5, 3)]),
                        Cycle(cycle))
        assert count_tangential_zeros(inst).count == exact

    @pytest.mark.parametrize("trial", [38, 47, 66, 88, 181, 187, 191])
    @pytest.mark.xfail(strict=True, raises=BranchMatchingAmbiguous, reason=(
        "the downward walk of a branch stalls between eps = 1.9e-3 and 4.9e-3"))
    def test_partition_38_classifies(self, trial):
        assert isinstance(classify_alien(partition_draw(trial), SCHEDULE),
                          counting.AlienReport)

    # draws of the benchmark's tangential pools, named pool:candidate
    @pytest.mark.parametrize("f, g, cycle", [
        pytest.param([Fraction(9, 2), -3, -3, 1], [3, Fraction(-3, 2), 3],
                     (-2, 3, -1), id="tangential-32-generic-0"),
        pytest.param([-12, -1, 12, 1], [-8, 4, -3, -10, 11], (-7, 1, 6),
                     id="tangential-34-generic-4"),
        pytest.param([4, 8, 10, 1], [-9, Fraction(1, 2), -3, 1, 6], (1, -1, 0),
                     id="tangential-34-simple-4"),
        pytest.param([Fraction(1, 3), -12, Fraction(7, 2), 1],
                     [-1, -3, -2, Fraction(10, 3), -6], (0, 1, -1),
                     id="tangential-34-simple-20"),
    ])
    @pytest.mark.xfail(strict=True, raises=BranchMatchingAmbiguous, reason=(
        "a continued zero stalls between eps = 2.0e-3 and 4.3e-3 without "
        "reaching a tangential zero, a critical value or the horizon"))
    def test_pool_draw_classifies(self, f, g, cycle):
        inst = Instance(RatPoly(f), RatPoly(g), Cycle(cycle))
        assert isinstance(classify_alien(inst, SCHEDULE), counting.AlienReport)


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

    @pytest.mark.parametrize("kind, cycle_mode", [
        ("bogus", "generic"), ("tangential", "bogus")])
    def test_unknown_kind_or_cycle_mode_rejected(self, kind, cycle_mode):
        with pytest.raises(InputError, match="unknown"):
            run_sharpness_experiment(3, 2, kind, 1, seed=2026,
                                     cycle_mode=cycle_mode)
