import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from cycle_integrals.cycles import Cycle
from cycle_integrals.errors import (InputError, MatchingAmbiguous,
                                   NearCriticalValue, PathThroughCriticalDisk)
from cycle_integrals.poly import RatPoly, critical_values
from cycle_integrals import tracking
from cycle_integrals.tracking import (Fiber, MonodromyRep, circulant_rank,
                                      halving_match, loop_waypoints, monodromy,
                                      orbit_rank, per_cv_radii, solve_fiber,
                                      track_path)
from cycle_integrals.config import DEFAULT


def nearest_radius(crit, value):
    """The critical value nearest ``value`` and its `per_cv_radii` entry."""
    radii = dict(zip(crit.critical_values, per_cv_radii(crit)))
    cv = min(radii, key=lambda v: abs(v - value))
    return cv, radii[cv]


def cube_roots_of_unity():
    return sorted([complex(1), complex(-0.5, 3 ** 0.5 / 2),
                   complex(-0.5, -3 ** 0.5 / 2)], key=lambda z: (z.real, z.imag))


class TestSolveFiber:
    def test_pure_cube(self):
        fib = solve_fiber(RatPoly([0, 0, 0, 1]).to_complex(), 1.0)
        expect = cube_roots_of_unity()
        assert all(abs(a - b) < 1e-9 for a, b in zip(fib.roots, expect))

    def test_square(self):
        fib = solve_fiber(RatPoly([0, 0, 1]).to_complex(), 4.0)
        assert fib.roots == pytest.approx((-2, 2))

    def test_vieta_sum(self):
        fib = solve_fiber(RatPoly([0, 0, 1, 1]).to_complex(), 1.0)
        assert sum(fib.roots) == pytest.approx(-1.0, abs=1e-9)

    def test_exclusion(self):
        f = RatPoly([0, 0, 1, 1])
        crit = critical_values(f)
        with pytest.raises(NearCriticalValue):
            solve_fiber(f.to_complex(), 1e-5, critical=crit)

    def test_real_ordering_requires_real_fiber(self):
        p = RatPoly([0, 0, 0, 1]).to_complex()
        with pytest.raises(InputError):
            solve_fiber(p, 1.0, ordering="real")

    def test_unknown_ordering_rejected(self):
        # only "lex" and "real" name an ordering; MonodromyRep records it
        with pytest.raises(InputError, match="unknown fiber ordering"):
            solve_fiber(RatPoly([0, 0, 1]).to_complex(), 4.0, ordering="bogus")
        with pytest.raises(InputError, match="unknown fiber ordering"):
            monodromy(RatPoly([0, 0, 1, 1]), ordering="Real")

    def test_non_finite_t_rejected(self):
        with pytest.raises(InputError, match="not finite"):
            solve_fiber(RatPoly([0, 0, 1]).to_complex(), float("inf"))


class TestHalvingMatch:
    @hyp_settings(max_examples=300, deadline=None)
    @given(real=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
           gap=st.floats(1e-3, 0.2),
           pairs=st.lists(st.tuples(st.floats(-3, 3), st.floats(0.05, 2)),
                          max_size=2),
           bump=st.lists(st.floats(-1, 1), min_size=10, max_size=10),
           size=st.integers(1, 10))
    def test_accepted_real_change_keeps_real_roots_real_and_in_order(
            self, real, gap, pairs, bump, size):
        # a real polynomial with simple roots, one close real pair among
        # them, and a small real change of its coefficients.  The halving
        # disk of a real root is symmetric about the real axis and holds
        # one new root, so an accepted match sends it to a real root, and
        # the disjoint disks keep their order along the axis.  np.roots
        # returns the new fiber exactly closed under conjugation, as the
        # fiber of a real polynomial is.
        real = sorted(real + [real[0] + gap])
        old = ([complex(r) for r in real]
               + [complex(a, s * b) for a, b in pairs for s in (1, -1)])
        assume(min(abs(a - b) for i, a in enumerate(old) for b in old[i + 1:])
               >= 1e-3)
        coeffs = np.poly(old).real
        new = np.roots([c + 10.0 ** -size * b * (1.0 + abs(c))
                        for c, b in zip(coeffs, bump)])
        order = halving_match(old, new)
        if order is None:
            return
        images = [new[order[i]] for i in range(len(real))]
        assert all(z.imag == 0 for z in images)
        assert [z.real for z in images] == sorted(z.real for z in images)

    @hyp_settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 5))
    def test_same_assignment_as_the_pairwise_reference(self, data, n):
        # on a coarse grid distances tie exactly, both between new points
        # and with half a separation; off it, each new point is an old one
        # moved a little
        grid = st.builds(complex, *[st.integers(-2, 2).map(lambda k: k / 2)] * 2)
        free = st.builds(complex, *[st.floats(-2, 2)] * 2)
        if data.draw(st.booleans()):
            old = data.draw(st.lists(grid, min_size=n, max_size=n))
            new = data.draw(st.lists(grid, min_size=n, max_size=n))
        else:
            old = data.draw(st.lists(free, min_size=n, max_size=n))
            perm = data.draw(st.permutations(range(n)))
            moves = data.draw(st.lists(free, min_size=n, max_size=n))
            new = [old[k] + 0.1 * d for k, d in zip(perm, moves)]
        for a, b in [(old, new), (np.array(old), np.array(new))]:
            assert tracking._nearest(a, b) == reference_nearest(a, b)
            assert halving_match(a, b) == reference_halving_match(a, b)


def reference_nearest(old, new):
    # the matching as first written, scanning every pair from both ends
    n = len(old)
    assignment = [min(range(n), key=lambda j: abs(new[j] - old[i]))
                  for i in range(n)]
    return assignment if len(set(assignment)) == n else None


def reference_halving_match(old, new):
    n = len(old)
    assignment = reference_nearest(old, new)
    if assignment is None:
        return None
    for i in range(n):
        sep = min(abs(old[i] - old[j]) for j in range(n) if j != i)
        if abs(new[assignment[i]] - old[i]) >= 0.5 * sep:
            return None
    return assignment


class TestTrackPath:
    def test_constant_path(self):
        fib = solve_fiber(RatPoly([0, 0, 1, 1]).to_complex(), 2.0)
        out = track_path(fib, [2.0])
        assert all(abs(a - b) < 1e-9 for a, b in zip(out.roots, fib.roots))

    def test_square_root_monodromy(self):
        import cmath
        fib = solve_fiber(RatPoly([0, 0, 1]).to_complex(), 1.0)
        circle = [cmath.exp(2j * cmath.pi * k / 16) for k in range(1, 17)]
        out = track_path(fib, circle)
        assert abs(out.roots[0] - fib.roots[1]) < 1e-8
        assert abs(out.roots[1] - fib.roots[0]) < 1e-8

    def test_morse_loop_is_transposition(self):
        # small loop around the critical value 4/27 exchanges exactly the
        # two roots that collide at z = -2/3
        f = RatPoly([0, 0, 1, 1])
        crit = critical_values(f)
        fib = solve_fiber(f.to_complex(), 1.0, critical=crit)
        cv, radius = nearest_radius(crit, 4 / 27)
        out = track_path(fib, loop_waypoints(1.0, cv, radius), critical=crit)
        moved = [i for i, (a, b) in enumerate(zip(fib.roots, out.roots))
                 if abs(a - b) > 1e-6]
        assert len(moved) == 2
        colliders = sorted(moved, key=lambda i: abs(fib.roots[i] - (-2 / 3)))
        assert abs(fib.roots[colliders[0]] - (-2 / 3)) < abs(fib.roots[colliders[0]] - 0)

    def test_double_traversal_is_square(self):
        from cycle_integrals.tracking import _permutation
        f = RatPoly([0, 0, 1, 1])
        crit = critical_values(f)
        rep = monodromy(f)
        cv, perm = rep.loops[0]
        _, radius = nearest_radius(crit, cv)
        fib = rep.fiber
        twice = track_path(
            fib, loop_waypoints(rep.basepoint, cv, radius, turns=2),
            critical=crit)
        got = _permutation(fib, twice)
        once_sq = tuple(perm[perm[i]] for i in range(len(perm)))
        assert got == once_sq

    def test_path_through_a_critical_value_rejected(self):
        # the segment from 1 to -1 passes both critical values 4/27 and 0
        f = RatPoly([0, 0, 1, 1])
        crit = critical_values(f)
        fib = solve_fiber(f.to_complex(), 1.0, critical=crit)
        with pytest.raises(PathThroughCriticalDisk):
            track_path(fib, [-1.0], critical=crit)

    def test_step_underflow_raises(self, monkeypatch):
        monkeypatch.setattr(tracking, "halving_match", lambda old, new: None)
        fib = solve_fiber(RatPoly([0, 0, 1, 1]).to_complex(), 1.0)
        with pytest.raises(MatchingAmbiguous, match="underflow"):
            track_path(fib, [2.0])

    def test_non_finite_waypoint_rejected(self):
        # a NaN segment has no length, so it would return the start fiber
        fib = solve_fiber(RatPoly([0, 0, 1, 1]).to_complex(), 1.0)
        with pytest.raises(InputError, match="waypoint nan is not finite"):
            track_path(fib, [float("nan")])


class TestMonodromy:
    def test_non_finite_basepoint_rejected(self):
        with pytest.raises(InputError, match="not finite"):
            monodromy(RatPoly([0, 0, -1, 0, 1]), basepoint=float("nan"))

    def test_square_swap(self):
        rep = monodromy(RatPoly([0, 0, 1]))
        assert rep.loops[0][1] == (1, 0)
        assert rep.infinity_permutation == (1, 0)

    def test_cubic_generates_full_group(self):
        rep = monodromy(RatPoly([0, 0, 1, 1]))
        perms = rep.generators()
        assert all(sorted(p) == [0, 1, 2] for p in perms)
        # two transpositions generating a transitive group on 3 points
        assert all(sum(1 for i, v in enumerate(p) if v != i) == 2 for p in perms)
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for p in perms:
                if p[i] not in seen:
                    seen.add(p[i])
                    frontier.append(p[i])
        assert seen == {0, 1, 2}

    def test_infinity_is_full_cycle(self):
        for coeffs in ([0, 0, 1, 1], [0, 0, -1, 0, 1], [1, 2, 1, 0, 0, 1]):
            rep = monodromy(RatPoly(coeffs))
            perm = rep.infinity_permutation
            seen = set()
            i = 0
            while i not in seen:
                seen.add(i)
                i = perm[i]
            assert len(seen) == len(perm)

    def test_consistency_on_random_morse(self):
        # the stored loops, applied from last to first, must give the loop
        # around infinity; monodromy() raises internally when this fails
        rng = random.Random(99)
        built = 0
        while built < 20:
            m = rng.choice([2, 3, 4, 5])
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(m)] + [Fraction(1)]
            f = RatPoly(coeffs)
            if f.degree != m:
                continue
            try:
                crit = critical_values(f)
            except Exception:
                continue
            if len(crit.critical_values) != m - 1:
                continue
            monodromy(f)
            built += 1

    @pytest.mark.parametrize("coeffs", [
        [0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, 0, 1, 1], "ledger-24"],
        ids=["x^3", "x^4", "x^3+x^4", "degree-24"])
    def test_non_involutive_loops(self, coeffs):
        # a degenerate critical value (0 for x^3, x^4 and x^3 + x^4), or
        # merged ones, give a loop that is not an involution: the one loop
        # of x^3 is a 3-cycle.  The degree-24 polynomial is prod (z - r_k)
        # with r_k = (2k - 23)/24 + (k mod 3)/168, whose 23 critical values
        # within 4.4e-5 merge into 5
        if coeffs == "ledger-24":
            f = RatPoly([1])
            for k in range(24):
                r_k = Fraction(2 * k - 23, 24) + Fraction(k % 3, 168)
                f = f * RatPoly([-r_k, 1])
        else:
            f = RatPoly(coeffs)
        rep = monodromy(f)
        assert any(perm[perm[i]] != i for perm in rep.generators()
                   for i in range(len(perm)))
        # the loops applied from last to first give the loop at infinity
        composed = range(f.degree)
        for perm in reversed(rep.generators()):
            composed = [perm[i] for i in composed]
        assert tuple(composed) == rep.infinity_permutation

    def test_basepoint_guard_is_twice_the_radius(self):
        # 1.5 radii from 4/27 passes the fiber guard of solve_fiber but not
        # the basepoint guard of monodromy, which keeps keyholes clear
        f = RatPoly([0, 0, 1, 1])
        crit = critical_values(f)
        _, radius = nearest_radius(crit, 4 / 27)
        t0 = 4 / 27 + 1.5 * radius
        solve_fiber(f.to_complex(), t0, critical=crit)
        with pytest.raises(NearCriticalValue):
            monodromy(f, basepoint=t0)

    def test_quartic_splitting_example(self):
        rep = monodromy(RatPoly([0, 0, -1, 0, 1]), basepoint=-0.125,
                        ordering="real")
        perms = {tuple(p) for p in rep.generators()}
        assert (0, 2, 1, 3) in perms          # middle pair collides at 0
        assert (1, 0, 3, 2) in perms          # outer pairs collide at -1/4


class TestRanks:
    def test_circulant_examples(self):
        assert circulant_rank(Cycle((1, -1, 1, -1))) == 1
        assert circulant_rank(Cycle((1, 2, -3))) == 2

    def test_prime_fiber_full_rank(self):
        for w in [(1, -1, 0, 0, 0), (2, -1, -1, 0, 0), (1, 1, 1, -2, -1)]:
            assert circulant_rank(Cycle(w)) == 4

    def test_orbit_ranks_for_quartic(self):
        f = RatPoly([0, 0, -1, 0, 1])
        rep = monodromy(f, basepoint=-0.125, ordering="real")
        assert orbit_rank(f, Cycle((1, -1, 0, 0)), rep=rep) == 3
        assert orbit_rank(f, Cycle((0, 1, -1, 0)), rep=rep) == 2

    def test_rank_of_a_large_orbit(self):
        # (0 1) and the 9-cycle generate S_9, whose orbit of these weights
        # has 9! vectors; its span is the whole sum-zero hyperplane
        transposition = (1, 0) + tuple(range(2, 9))
        rotation = tuple((i + 1) % 9 for i in range(9))
        weights = tuple(range(1, 9)) + (-36,)
        rep = _rep([transposition, rotation])
        assert orbit_rank(None, Cycle(weights), rep=rep) == 8

    def test_rank_matches_orbit_enumeration(self):
        rng = random.Random(12)
        for _ in range(300):
            m = rng.randint(2, 7)
            gens = [tuple(rng.sample(range(m), m))
                    for _ in range(rng.randint(1, 3))]
            head = [rng.choice([0, 0, 1, -1, 2]) for _ in range(m - 1)]
            weights = tuple(head) + (-sum(head),)
            if not any(weights):
                continue
            assert (orbit_rank(None, Cycle(weights), rep=_rep(gens))
                    == _orbit_rank_by_enumeration(gens, weights))

    def test_orbit_dominates_circulant(self):
        rng = random.Random(4)
        checked = 0
        while checked < 8:
            m = rng.choice([3, 4])
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(m)] + [Fraction(1)]
            f = RatPoly(coeffs)
            if f.degree != m:
                continue
            try:
                rep = monodromy(f)
            except Exception:
                continue
            head = [rng.randint(-3, 3) for _ in range(m - 1)]
            w = tuple(head) + (-sum(head),)
            if not any(w):
                continue
            c = Cycle(w)
            assert orbit_rank(f, c, rep=rep) >= circulant_rank(c)
            checked += 1


def _rep(perms):
    """A monodromy representation with the given loop permutations."""
    m = len(perms[0])
    fiber = Fiber(t=0j, roots=tuple(complex(i) for i in range(m)), poly=None)
    return MonodromyRep(basepoint=0j, fiber=fiber,
                        loops=tuple((complex(k), p) for k, p in enumerate(perms)),
                        infinity_permutation=tuple(range(m)), ordering="lex")


def _orbit_rank_by_enumeration(gens, weights):
    """Rank of the matrix of every vector in the orbit of the weights."""
    orbit = {weights}
    frontier = [weights]
    while frontier:
        vec = frontier.pop()
        for perm in gens:
            image = [0] * len(vec)
            for i, w in enumerate(vec):
                image[perm[i]] = w
            image = tuple(image)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return np.linalg.matrix_rank(np.array(sorted(orbit), dtype=float))
