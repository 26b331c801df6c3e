import math

import numpy as np
import pytest

from sdmstab.polynomial import (
    Poly,
    binom_power,
    cheb_expand,
    chebyshev_t,
    chebyshev_u,
    poly_rem,
    real_roots_open,
)
from sdmstab.oracles import all_roots
from sdmstab.transfer import g_from_b


def approx_poly(p: Poly, coeffs, tol=1e-12):
    q = Poly(coeffs)
    assert p.degree == q.degree, (p, q)
    for a, b in zip(p.coeffs, q.coeffs):
        assert abs(a - b) <= tol, (p, q)


class TestPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert Poly([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)
        assert Poly([0.0, 0.0]).is_zero
        assert Poly().degree == -1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Poly([1.0, math.inf])
        with pytest.raises(ValueError):
            Poly([math.nan])

    def test_mul_binomial_square(self):
        z_minus_1 = Poly([-1.0, 1.0])
        approx_poly(z_minus_1 * z_minus_1, [1.0, -2.0, 1.0])

    def test_add_cancellation_renormalizes(self):
        p = Poly([1.0, 0.0, 1.0]) + Poly([0.0, 0.0, -1.0])
        assert p == Poly([1.0])
        assert p.degree == 0

    def test_scalar_scale(self):
        approx_poly(2.0 * Poly([1.0, -3.0, 3.0]), [2.0, -6.0, 6.0])

    def test_eval_hand_sums(self):
        p = Poly([0.75, 0.5, 1.0])
        assert p(1.0) == 2.25
        assert p(-1.0) == 1.25
        assert p(0.0) == 0.75  # constant coefficient

    def test_eval_complex(self):
        p = Poly([1.0, 0.0, 1.0])  # z^2 + 1
        assert abs(p(1j)) < 1e-15


class TestBinomPower:
    def test_empty_product(self):
        assert binom_power(0) == Poly([1.0])

    def test_cubes_and_fifths(self):
        approx_poly(binom_power(3, 1.0), [-1.0, 3.0, -3.0, 1.0], tol=0)
        approx_poly(
            binom_power(5, 1.0), [-1.0, 5.0, -10.0, 10.0, -5.0, 1.0], tol=0
        )

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            binom_power(13)
        with pytest.raises(ValueError):
            binom_power(-1)


class TestPolyRem:
    def test_simple_cubic(self):
        q, r = poly_rem(Poly([1.0, 0.0, 0.0, 1.0]), Poly([0.0, 0.0, 1.0]))
        assert q == Poly([0.0, 1.0])
        assert r == Poly([1.0])

    def test_hand_division_r0_r1(self):
        # R0/R1 pair of the worked order-3 design at |I| = 1.5
        q, r = poly_rem(Poly([0.0, 0.0, 3.0, -2.0]), Poly([-1.0, 3.0, -2.0]))
        assert q == Poly([0.0, 1.0])
        approx_poly(r, [0.0, 1.0])

    def test_quadratic_by_own_truncation(self):
        d1, d2, a = 1.0, 0.1, 0.6
        num = Poly([a - d2, d1, 2 * d2])
        den = Poly([d1, 2 * d2])
        _, r = poly_rem(num, den)
        assert r.degree == 0
        assert abs(r.coeffs[0] - 0.5) < 1e-12

    def test_zero_divisor(self):
        with pytest.raises(ValueError):
            poly_rem(Poly([1.0]), Poly())

    def test_small_remainders_are_kept(self):
        # (x - 1)**2 + 2**-52 * x**2 leaves 2**-52 at x = 1, exactly; a
        # relative floor on remainders once zeroed it, and with it g1.
        _, r = poly_rem(Poly([1.0, -2.0, 1.0 + 2**-52]), Poly([-1.0, 1.0]))
        assert r == Poly([2.0**-52])
        assert g_from_b((1.0, -2.0, 1.0 + 2**-52)) == (2.0**-52, 0.0, 1.0)

    def test_reconstruction_identity_random(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(400):
            dp = rng.integers(0, 9)
            dq = rng.integers(0, 9)
            p = Poly(rng.uniform(-4, 4, dp + 1))
            q = Poly(rng.uniform(-4, 4, dq + 1))
            if q.is_zero or p.is_zero:
                continue
            # A near-vanishing divisor lead amplifies the quotient by
            # (scale/lead)**gap; past ~1e5 double precision cannot carry
            # the identity at 1e-9, so such draws prove nothing.
            gap = max(p.degree - q.degree + 1, 0)
            if (q.scale_max() / abs(q.leading)) ** gap > 1e5:
                continue
            quot, rem = poly_rem(p, q)
            resid = p - (q * quot + rem)
            assert resid.scale_max() <= 1e-9 * max(p.scale_max(), 1e-30)
            checked += 1
        assert checked > 350


class TestChebExpand:
    def test_t3_identity(self):
        approx_poly(cheb_expand([0.0, 0.0, 1.0], 0.0, "cosine"), [0.0, -3.0, 0.0, 4.0])

    def test_u2_identity(self):
        approx_poly(cheb_expand([0.0, 0.0, 1.0], kind="sine"), [-1.0, 0.0, 4.0])

    def test_worked_order3_profiles(self):
        d = (-1.5, 1.5, -0.5)
        approx_poly(cheb_expand(d, 1.5, "cosine"), [0.0, 0.0, 3.0, -2.0])
        approx_poly(cheb_expand(d, 1.5, "sine"), [-1.0, 3.0, -2.0])

    def test_order_and_kind_validation(self):
        with pytest.raises(ValueError):
            cheb_expand([], 0.0, "cosine")
        with pytest.raises(ValueError):
            cheb_expand([1.0] * 6, 0.0, "cosine")
        with pytest.raises(ValueError):
            cheb_expand([1.0], 0.0, "tangent")

    def test_round_trip_against_trig(self):
        rng = np.random.default_rng(11)
        phis = np.linspace(0.011, np.pi - 0.011, 64)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            d = rng.uniform(-4, 4, n)
            a = float(rng.uniform(-4, 4))
            r0 = cheb_expand(d, a, "cosine")
            r1 = cheb_expand(d, kind="sine")
            for phi in phis:
                x = math.cos(phi)
                cos_sum = a + sum(d[k - 1] * math.cos(k * phi) for k in range(1, n + 1))
                sin_sum = sum(d[k - 1] * math.sin(k * phi) for k in range(1, n + 1))
                assert abs(r0(x) - cos_sum) <= 1e-10
                assert abs(r1(x) * math.sin(phi) - sin_sum) <= 1e-10

    def test_basis_tables(self):
        assert chebyshev_t(0) == Poly([1.0])
        assert chebyshev_u(1) == Poly([0.0, 2.0])
        with pytest.raises(ValueError):
            chebyshev_t(6)


class TestRealRootsOpen:
    def test_linear(self):
        assert real_roots_open(Poly([-1.0, 2.0]), -1.0, 1.0) == pytest.approx([0.5])

    def test_boundary_root_excluded(self):
        roots = real_roots_open(Poly([-1.0, 3.0, -2.0]), -1.0, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_real_roots(self):
        assert real_roots_open(Poly([1.0, 0.0, 1.0]), -1.0, 1.0) == []

    def test_double_root_found_once(self):
        # (x - 0.375)**2 is exact in floats.  The float square of (x - 0.3)
        # is not a square: its exact roots are the pair 0.3 +- 1.8e-9j.
        p = Poly([-0.375, 1.0]) * Poly([-0.375, 1.0])
        roots = real_roots_open(p, -1.0, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.375, abs=1e-7)
        assert real_roots_open(Poly([-0.3, 1.0]) * Poly([-0.3, 1.0]), -1.0, 1.0) == []

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            real_roots_open(Poly(), -1.0, 1.0)

    def test_scale_invariance(self):
        p = Poly([-0.06, 0.1, 0.5, 1.0])  # roots well inside (-1, 1)
        base = real_roots_open(p, -1.0, 1.0)
        assert base  # sanity: it does have interior roots
        for c in (1e-8, 1e8):
            scaled = real_roots_open(c * p, -1.0, 1.0)
            assert len(scaled) == len(base)
            for a, b in zip(scaled, base):
                assert abs(a - b) <= 1e-10

    def test_close_root_pair_resolved(self):
        sep = 1e-7
        p = Poly([-0.5, 1.0]) * Poly([-(0.5 + sep), 1.0])
        roots = real_roots_open(p, -1.0, 1.0)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.5, abs=1e-9)
        assert roots[1] == pytest.approx(0.5 + sep, abs=1e-9)

    def test_triple_root(self):
        lin = Poly([-0.2, 1.0])
        roots = real_roots_open(lin * lin * lin, -1.0, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.2, abs=1e-6)

    def test_near_boundary_inclusion(self):
        inside = 1.0 - 1e-6
        roots = real_roots_open(Poly([-inside, 1.0]), -1.0, 1.0)
        assert roots == pytest.approx([inside])
        hugging = 1.0 - 1e-10  # inside the exclusion band: treated as outside
        assert real_roots_open(Poly([-hugging, 1.0]), -1.0, 1.0) == []

    def test_far_root_does_not_hide_interior_roots(self):
        # A sine-kind profile of an order-5 design whose coefficients span
        # 1e-125..1e196.  Its leading term is negligible on (-1, 1), since it
        # carries a root near 5.5e195, and the Sturm remainders of the
        # unmapped polynomial lost two of the three interior roots.
        p = Poly([8.9e192, -4.4e196, -3.6e193, 8.8e196, -16.0])
        want = [-0.707003409229458, 2.0227271034910457e-4, 0.7072102274281998]  # 40-digit solve
        assert real_roots_open(p, -1.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_interior_roots_next_to_far_roots(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            inner = sorted(rng.uniform(-0.95, 0.95, int(rng.integers(1, 4))))
            p = Poly([rng.uniform(0.5, 2.0)])
            for r in inner:
                p = p * Poly([-r, 1.0])
            for _ in range(int(rng.integers(1, 3))):
                far = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(6.0, 150.0)
                # a far real root, or a far conjugate pair +-i*far
                p = p * (Poly([1.0, -1.0 / far]) if rng.random() < 0.7 else Poly([1.0, 0.0, far**-2]))
            assert real_roots_open(p, -1.0, 1.0) == pytest.approx(inner, abs=1e-9), p

    def test_far_root_on_an_offset_interval(self):
        p = Poly([-3.0, 1.0]) * Poly([-4.5, 1.0]) * Poly([1.0, -1e-200])
        assert real_roots_open(p, 2.0, 5.0) == pytest.approx([3.0, 4.5], rel=1e-14)
        assert real_roots_open(p, -5.0, -2.0) == []

    def test_root_next_to_a_tiny_root(self):
        # 4x**3 - 2x + 1e-300: the root at +0.7071 was once lost beside the
        # root at 5e-301.
        roots = real_roots_open(Poly([1e-300, -2.0, 0.0, 4.0]), -1.0, 1.0)
        assert roots == pytest.approx([-math.sqrt(0.5), 5e-301, math.sqrt(0.5)], rel=1e-15)

    def test_narrow_cluster_resolved(self):
        # The remainder floor of the float Sturm chain once merged this pair.
        p = Poly([-3.41e205, -2.75e88, 2.27e-218, -1.63e-184, 6.78e227])
        want = math.sqrt(3.41e205 / 6.78e227) ** 0.5  # the pair +-(-c0/c4)**(1/4)
        assert real_roots_open(p, -1.0, 1.0) == pytest.approx([-want, want], rel=1e-12)

    def test_wide_and_infinite_intervals(self):
        want = [-math.sqrt(2.0), math.sqrt(2.0)]
        for lo, hi in ((-1e308, 1e308), (-math.inf, math.inf)):
            assert real_roots_open(Poly([-2.0, 0.0, 1.0]), lo, hi) == pytest.approx(want)

    def test_residuals_meet_contract(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = Poly(rng.uniform(-4, 4, int(rng.integers(2, 7))))
            if p.degree < 1:
                continue
            for x in real_roots_open(p, -1.0, 1.0):
                assert abs(p(x)) <= 1e-12 * p.scale_max()


class TestAllRoots:
    def test_constructed_factors(self):
        roots = all_roots(Poly([1.0, -2.5, 1.0]))
        assert roots[0].real == pytest.approx(0.5, abs=1e-12)
        assert roots[1].real == pytest.approx(2.0, abs=1e-12)

    def test_modulus_from_constant_term(self):
        roots = all_roots(Poly([0.75, 0.5, 1.0]))
        for z in roots:
            assert abs(abs(z) - math.sqrt(0.75)) <= 1e-12

    def test_hand_factorization_cubic(self):
        roots = all_roots(Poly([-1.0, 3.0, -3.0, 2.0]))
        mods = sorted(abs(z) for z in roots)
        assert mods[0] == pytest.approx(0.5, abs=1e-10)
        assert mods[1] == pytest.approx(1.0, abs=1e-10)
        assert mods[2] == pytest.approx(1.0, abs=1e-10)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            all_roots(Poly([3.0]))

    def test_completeness_and_vieta(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            p = Poly(rng.uniform(-4, 4, int(rng.integers(2, 7))))
            if p.degree < 1:
                continue
            roots = all_roots(p)
            assert len(roots) == p.degree
            prod = 1.0 + 0.0j
            for z in roots:
                prod *= z
            expected = (-1.0) ** p.degree * p.coeffs[0] / p.leading
            assert abs(prod - expected) <= 1e-8 * max(1.0, abs(expected))
            scale = p.scale_max()
            for z in roots:
                assert abs(p(z)) <= 1e-8 * scale * max(1.0, abs(z)) ** p.degree

    def test_agrees_with_sturm_isolation(self):
        rng = np.random.default_rng(19)
        checked = 0
        for _ in range(1000):
            p = Poly(rng.uniform(-4, 4, int(rng.integers(2, 7))))
            if p.degree < 1:
                continue
            roots = all_roots(p)
            # Skip ambiguous cases: near-real complex pairs and roots close
            # to the interval boundary read differently by construction.
            if any(0.0 < abs(z.imag) < 1e-6 for z in roots):
                continue
            if any(abs(abs(z.real) - 1.0) < 1e-6 for z in roots):
                continue
            expected = sorted(
                z.real for z in roots if abs(z.imag) <= 1e-9 and abs(z.real) < 1.0
            )
            got = real_roots_open(p, -1.0, 1.0)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert abs(a - b) <= 1e-7
            checked += 1
        assert checked > 800
