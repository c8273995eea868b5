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
