import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from cycle_integrals import poly
from cycle_integrals.config import DEFAULT
from cycle_integrals.errors import DivisionByZeroPolynomial, ZeroPolynomial
from cycle_integrals.poly import (ComplexPoly, RatPoly, critical_values,
                                  lex_sorted, poly_gcd, roots, roots_raw)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


class TestRatPoly:
    def test_zero_polynomial_canonical(self):
        assert RatPoly([0, 0]).coeffs == ()
        assert RatPoly([0, 0]).is_zero
        assert RatPoly([1, 0]).degree == 0

    def test_exact_arithmetic(self):
        p = RatPoly([Fraction(1, 3), 1])
        q = RatPoly([Fraction(-1, 3), 1])
        assert (p * q).coeffs == (Fraction(-1, 9), Fraction(0), Fraction(1))
        assert (p + q).coeffs == (Fraction(0), Fraction(2))

    def test_divrem_examples(self):
        q, r = RatPoly([0, 1, 1]).divrem(RatPoly([0, 0, 1]))
        assert q == RatPoly([1]) and r == RatPoly([0, 1])
        q, r = RatPoly([0, 0, 1, 0, 1]).divrem(RatPoly([0, 0, 1]))
        assert q == RatPoly([1, 0, 1]) and r.is_zero
        q, r = RatPoly([5, 0, 0, 2, 0, 0, 1]).divrem(RatPoly([1, 0, 0, 1]))
        assert q == RatPoly([1, 0, 0, 1]) and r == RatPoly([4])

    def test_divrem_by_zero(self):
        with pytest.raises(DivisionByZeroPolynomial):
            RatPoly([1, 1]).divrem(RatPoly.zero())

    def test_compose_derivative_evaluate(self):
        assert RatPoly([0, 0, 1]).compose(RatPoly([1, 1])) == RatPoly([1, 2, 1])
        assert RatPoly([0, 0, 1, 1]).derivative() == RatPoly([0, 2, 3])
        assert RatPoly([0, 0, 1, 1]).evaluate(Fraction(-2, 3)) == Fraction(4, 27)

    @given(st.lists(st.fractions(max_denominator=20), min_size=1, max_size=6),
           st.lists(st.fractions(max_denominator=20), min_size=1, max_size=5))
    @hyp_settings(max_examples=60, deadline=None)
    def test_divrem_exact_identity(self, ac, bc):
        a = RatPoly(ac + [1])
        b = RatPoly(bc + [1])
        q, r = a.divrem(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    def test_gcd(self):
        g = poly_gcd(RatPoly([1, -3, 2]), RatPoly([-1, 0, 0, 1]))
        assert g == RatPoly([-1, 1])


class TestRoots:
    def test_factorable_examples(self):
        got = roots(RatPoly([-4, 0, 1]).to_complex())
        assert sorted(z.real for z, _ in got) == pytest.approx([-2, 2])
        cube = roots(RatPoly([-1, 0, 0, 1]).to_complex())
        assert len(cube) == 3
        assert all(m == 1 for _, m in cube)
        assert all(close(z ** 3, 1, 1e-9) for z, _ in cube)

    def test_derivative_roots_exact_oracle(self):
        # 3z^2 + 2z = z(3z + 2), exact factorization
        got = roots(RatPoly([0, 2, 3]).to_complex())
        vals = sorted(z.real for z, _ in got)
        assert vals == pytest.approx([-2 / 3, 0.0], abs=1e-12)
        # z^3 - z = (z + 1) z (z - 1)
        got = roots(RatPoly([0, -1, 0, 1]).to_complex())
        assert [z for z, _ in got] == pytest.approx([-1, 0, 1], abs=1e-12)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            roots(RatPoly.zero().to_complex())

    def test_root_sum_matches_coefficient(self):
        rng = np.random.default_rng(3)
        random_degrees = (int(rng.integers(2, 9)) for _ in range(15))
        for d in itertools.chain(random_degrees, range(2, 13)):
            coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            coeffs[-1] = 1.0
            zs = roots_raw(list(coeffs))
            assert isinstance(zs, np.ndarray) and len(zs) == d
            assert abs(zs.sum() - (-coeffs[-2])) <= 1e-7 * (1 + abs(coeffs[-2]))
            assert _same_multiset(zs, np.roots(coeffs[::-1]), 1e-9)

    def test_residuals_small(self):
        rng = np.random.default_rng(5)
        coeffs = list(rng.normal(size=13) + 1j * rng.normal(size=13))
        zs = roots_raw(coeffs)
        scale = max(abs(c) for c in coeffs)
        for z in zs:
            val = 0j
            for c in reversed(coeffs):
                val = val * z + c
            local = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
            assert abs(val) <= 1e-9 * (local + scale)

    def test_multiplicity_clustering(self):
        # (z-1)^3 (z+2); a triple root scatters ~cbrt(eps) at double
        # precision, so merge with a matching cluster tolerance
        p = RatPoly([-2, 5, -3, -1, 1])
        got = roots(p.to_complex(), DEFAULT.with_overrides(tol_cluster=1e-3))
        got.sort(key=lambda zm: zm[0].real)
        assert [m for _, m in got] == [1, 3]
        assert close(got[0][0], -2, 1e-7)
        assert close(got[1][0], 1, 1e-3)


def _same_multiset(found, expected, rel):
    unused = list(expected)
    for z in found:
        k = min(range(len(unused)), key=lambda i: abs(z - unused[i]))
        if abs(z - unused[k]) > rel * (1 + abs(unused[k])):
            return False
        unused.pop(k)
    return not unused


def _residuals_pass(coeffs, zs, tol):
    for z in zs:
        val = 0j
        for c in reversed(coeffs):
            val = val * z + c
        if not abs(val) <= tol * sum(abs(c) * abs(z) ** i
                                     for i, c in enumerate(coeffs)):
            return False
    return True


class _KernelSpy:
    """Records the start and the outcome of every Aberth kernel run."""

    def __init__(self, monkeypatch):
        self.calls = []
        kernel = poly._aberth

        def spy(coeffs, init, tol, max_iter):
            start = [complex(v) for v in init]
            z, ok = kernel(coeffs, init, tol, max_iter)
            self.calls.append((start, max_iter, [complex(v) for v in z], ok))
            return z, ok

        monkeypatch.setattr(poly, "_aberth", spy)


class TestAberthKernel:
    def test_warm_start_follows_nearby_polynomial(self, monkeypatch):
        old = [1.0, -2.0, 3.0, -4.0, 1.0]
        new = [1.0 + 1e-3j, -2.0, 3.0, -4.0, 1.0]
        spy = _KernelSpy(monkeypatch)
        zs = roots_raw(new, init=roots_raw(old))
        assert _same_multiset(zs, np.roots(new[::-1]), 1e-9)
        # the warm start converged without the companion fallback
        assert spy.calls[-1][1] == DEFAULT.max_newton_iter and spy.calls[-1][3]

    def test_double_root_returns_both_copies(self):
        # (z - 1)^2 (z + 2) = z^3 - 3z + 2
        zs = roots_raw([2, -3, 0, 1])
        # a double root is only determined to about sqrt(tol_root)
        assert sum(abs(z - 1) < 10 * DEFAULT.tol_root ** 0.5 for z in zs) == 2
        assert sum(abs(z + 2) < 1e-12 for z in zs) == 1

    def test_coincident_init_falls_back_to_circle(self, monkeypatch):
        coeffs = [-6.0, 11.0, -6.0, 1.0]
        spy = _KernelSpy(monkeypatch)
        zs = roots_raw(coeffs, init=[1.0, 1.0 + 1e-16, 3.0])
        assert spy.calls[0][0] == poly._initial_circle([complex(c) for c in coeffs])
        assert _same_multiset(zs, [1, 2, 3], 1e-9)

    def test_non_finite_iterate_reaches_companion_fallback(self, monkeypatch):
        coeffs = [-1.0, 0.0, 0.0, 1.0]
        init = [1e200, -1e200, 1e200j]
        spy = _KernelSpy(monkeypatch)
        zs = roots_raw(coeffs, init=init)
        start, _, stopped, ok = spy.calls[0]
        # the first step overflows: the run stops at once, on its start
        assert not ok and stopped == start == init
        assert spy.calls[1][1] == 50
        assert _residuals_pass(coeffs, zs, DEFAULT.tol_root)
        assert _same_multiset(zs, np.roots(coeffs[::-1]), 1e-9)


@pytest.mark.parametrize("noise", [(1e-17, -1e-17), (-1e-17, 1e-17),
                                   (1e-17, 1e-17), (-1e-17, -1e-17)])
def test_lex_order_ignores_noise_in_equal_real_parts(noise):
    plus_i, minus_i = complex(noise[0], 1.0), complex(noise[1], -1.0)
    for values in ([plus_i, minus_i], [minus_i, plus_i]):
        assert (lex_sorted(values + [2.0, -2.0], DEFAULT.tol_cluster)
                == [-2.0, minus_i, plus_i, 2.0])


class TestCriticalValues:
    def test_cubic(self):
        cd = critical_values(RatPoly([0, 0, 1, 1]))
        vals = sorted(v.real for v in cd.critical_values)
        assert vals == pytest.approx([0.0, 4 / 27], abs=1e-12)

    def test_quartic_merges_equal_values(self):
        cd = critical_values(RatPoly([0, 0, -1, 0, 1]))
        vals = sorted(v.real for v in cd.critical_values)
        assert vals == pytest.approx([-0.25, 0.0], abs=1e-12)
        assert len(cd.critical_points) == 3

    def test_pure_power(self):
        cd = critical_values(RatPoly([0, 0, 0, 0, 1]))
        assert len(cd.critical_values) == 1
        assert close(cd.critical_values[0], 0)

    def test_shift_by_constant(self):
        f = RatPoly([Fraction(1, 2), -2, Fraction(1, 3), 1])
        shift = Fraction(7, 5)
        cd = critical_values(f)
        cd_shifted = critical_values(f + RatPoly([shift]))
        base = sorted(cd.critical_values, key=lambda z: (z.real, z.imag))
        moved = sorted(cd_shifted.critical_values, key=lambda z: (z.real, z.imag))
        for a, b in zip(base, moved):
            assert close(b - a, complex(float(shift)), 1e-10)

    def test_count_bounded_by_degree(self):
        cd = critical_values(RatPoly([1, 2, 3, 4, 5, 1]))
        assert len(cd.critical_points) <= 4


def test_complex_poly_conversion_records_error():
    p = RatPoly([Fraction(1, 3), Fraction(2, 7)]).to_complex()
    assert isinstance(p, ComplexPoly)
    assert 0 < p.rounding_error < 1e-15
    assert RatPoly([1, 2]).to_complex().rounding_error == 0.0
