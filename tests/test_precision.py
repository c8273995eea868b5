import mpmath as mp

from cycle_integrals.precision import _double_seed, aberth_mp, horner_mp


def _poly_from_roots(roots):
    """Ascending coefficients of prod (z - r) at the current precision."""
    coeffs = [mp.mpc(1)]
    for r in roots:
        shifted = [mp.mpc(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    return coeffs


def _match(found, expected, rel):
    """Whether ``found`` equals ``expected`` as a multiset, each root to
    ``rel`` relative accuracy."""
    unused = list(expected)
    for z in found:
        k = min(range(len(unused)), key=lambda i: abs(z - unused[i]))
        if abs(z - unused[k]) > rel * abs(unused[k]):
            return False
        unused.pop(k)
    return not unused


def _within_residual(coeffs, roots, dps):
    """Every root meets the solver's residual acceptance, with slack for
    its power-of-two scale bound."""
    tol = mp.mpf(10) ** (-(dps - 8))
    for z in roots:
        scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
        if abs(horner_mp(coeffs, z)) > tol * scale:
            return False
    return True


class TestAberthMp:
    def test_wide_range_matches_polyroots(self):
        dps = 60
        with mp.workdps(dps):
            roots = [mp.mpf(10) ** k * mp.expjpi(mp.mpf(2 * k + 13) / 17)
                     for k in range(-6, 7)]
            coeffs = _poly_from_roots(roots)
            monic = [c / coeffs[-1] for c in coeffs]
            # the cold start takes the double-precision companion roots
            assert _double_seed(monic) is not None
            found = aberth_mp(coeffs, dps)
            reference = mp.polyroots(coeffs[::-1], maxsteps=200,
                                     extraprec=4 * dps)
            assert len(found) == 13
            assert _match(found, reference, mp.mpf(10) ** -40)
            assert _match(found, roots, mp.mpf(10) ** -40)

    def test_tiny_constant_term_takes_circle_start(self):
        # z(z^5 - 1) + 1e-400: the constant term rounds to zero in doubles
        dps = 60
        with mp.workdps(dps):
            coeffs = [mp.mpc(c) for c in ("1e-400", -1, 0, 0, 0, 0, 1)]
            assert _double_seed(coeffs) is None
            found = aberth_mp(coeffs, dps)
            assert len(found) == 6
            assert _within_residual(coeffs, found, dps)
            tiny = min(found, key=abs)
            assert abs(tiny - mp.mpf("1e-400")) <= mp.mpf("1e-440")
            unit = [mp.expjpi(mp.mpf(2 * k) / 5) for k in range(5)]
            assert _match([z for z in found if z != tiny], unit,
                          mp.mpf(10) ** -40)

    def test_huge_coefficient_takes_circle_start(self):
        # (z - 1e400)(z^2 - 1): two coefficients overflow a double
        dps = 60
        with mp.workdps(dps):
            big = mp.mpf("1e400")
            coeffs = [mp.mpc(big), mp.mpc(-1), mp.mpc(-big), mp.mpc(1)]
            assert _double_seed(coeffs) is None
            found = aberth_mp(coeffs, dps)
            assert _within_residual(coeffs, found, dps)
            assert _match(found, [big, mp.mpf(1), mp.mpf(-1)],
                          mp.mpf(10) ** -40)

    def test_double_root_returns_both_copies(self):
        dps = 50
        with mp.workdps(dps):
            roots = [mp.mpc(1), mp.mpc(1), mp.mpc(-2), mp.mpc(0, 1),
                     mp.mpc(3, -1)]
            coeffs = _poly_from_roots(roots)
            found = aberth_mp(coeffs, dps)
            assert len(found) == 5
            # a double root is only determined to about half the digits
            assert sum(abs(z - 1) < 1e-15 for z in found) == 2
            others = [z for z in found if abs(z - 1) >= 1e-15]
            assert _match(others, roots[2:], mp.mpf(10) ** -40)


class TestNewtonPolygonStart:
    """Polynomials that do not fit in doubles and whose root moduli lie
    hundreds of orders of magnitude from the coefficient-bound circle."""

    dps = 60

    def _check(self, coeffs, expected):
        with mp.workdps(self.dps):
            coeffs = [mp.mpc(c) for c in coeffs]
            # no double seed: the fallback start is the only one
            assert _double_seed([c / coeffs[-1] for c in coeffs]) is None
            found = aberth_mp(coeffs, self.dps)
            assert len(found) == len(expected)
            assert _within_residual(coeffs, found, self.dps)
            assert _match(found, expected, mp.mpf(10) ** -40)

    def _ring(self, radius, d, offset):
        return [radius * mp.expjpi(mp.mpf(2 * k + offset) / d) for k in range(d)]

    def test_huge_constant_term(self):
        # z^3 - 1e400
        with mp.workdps(self.dps):
            roots = self._ring(mp.cbrt(mp.mpf("1e400")), 3, 0)
        self._check(["-1e400", 0, 0, 1], roots)

    def test_huge_leading_coefficient(self):
        # 1e400 z^3 - 1
        with mp.workdps(self.dps):
            roots = self._ring(mp.cbrt(mp.mpf("1e-400")), 3, 0)
        self._check([-1, 0, 0, "1e400"], roots)

    def test_tiny_constant_term_all_roots_small(self):
        # z^6 + 1e-400
        with mp.workdps(self.dps):
            roots = self._ring(mp.root(mp.mpf("1e-400"), 6), 6, 1)
        self._check(["1e-400", 0, 0, 0, 0, 0, 1], roots)

    def test_tiny_roots_next_to_unit_roots(self):
        # z^2 (z^4 - 1) + 1e-400: two roots near +-1e-200, none exactly 0
        with mp.workdps(self.dps):
            roots = [mp.mpf("1e-200"), mp.mpf("-1e-200")] + self._ring(1, 4, 0)
        self._check(["1e-400", 0, -1, 0, 0, 0, 1], roots)

    def test_vanishing_low_coefficients_start_at_zero(self):
        # z^2 (z^4 - 1): the double seed holds 0 twice, so the Newton-polygon
        # start applies and puts the double root exactly at 0
        with mp.workdps(self.dps):
            coeffs = [mp.mpc(c) for c in (0, 0, -1, 0, 0, 0, 1)]
            found = aberth_mp(coeffs, self.dps)
            assert sum(z == 0 for z in found) == 2
            assert _match([z for z in found if z != 0], self._ring(1, 4, 0),
                          mp.mpf(10) ** -40)
