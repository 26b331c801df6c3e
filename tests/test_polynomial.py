import math
import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from oracles import T_TABLE, U_TABLE, all_roots, cheb_expand
from sdmstab.polynomial import (
    COS_ROWS,
    MAX_ORDER,
    SHIFTED_ROWS,
    SIN_ROWS,
    Poly,
    _pdiv,
    _prem,
    _roots_inside,
    _scaled,
)


def approx_poly(p: Poly, coeffs, tol=1e-12):
    q = Poly(coeffs)
    assert p.degree == q.degree, (p, q)
    for a, b in zip(p.coeffs, q.coeffs):
        assert abs(a - b) <= tol, (p, q)


def product(*factors) -> Poly:
    """The float product of coefficient lists, by numpy."""
    acc = [1.0]
    for f in factors:
        acc = P.polymul(acc, f)
    return Poly(acc)


class TestPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert Poly([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)
        assert Poly([0.0, 0.0]).is_zero
        assert Poly().degree == -1
        for zero in (Poly([]), Poly([0.0])):
            with pytest.raises(ValueError, match="^zero polynomial has no leading coefficient$"):
                zero.leading

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Poly([1.0, math.inf])
        with pytest.raises(ValueError):
            Poly([math.nan])

    def test_eval_hand_sums(self):
        p = Poly([0.75, 0.5, 1.0])
        assert p(1.0) == 2.25
        assert p(-1.0) == 1.25
        assert p(0.0) == 0.75  # constant coefficient

    def test_eval_complex(self):
        p = Poly([1.0, 0.0, 1.0])  # z^2 + 1
        assert abs(p(1j)) < 1e-15


class TestShiftedRows:
    """``SHIFTED_ROWS[n]``: the integer coefficients of ``(z - 1)**n``."""

    def test_empty_product(self):
        assert SHIFTED_ROWS[0] == [1]

    def test_cubes_and_fifths(self):
        assert SHIFTED_ROWS[3] == [-1, 3, -3, 1]
        assert SHIFTED_ROWS[5] == [-1, 5, -10, 10, -5, 1]

    def test_every_order_is_a_binomial_power(self):
        assert len(SHIFTED_ROWS) == MAX_ORDER + 1
        for n, row in enumerate(SHIFTED_ROWS):
            assert all(isinstance(c, int) for c in row)
            assert row == list(P.polypow([-1.0, 1.0], n))


def _times(p: list[int], q: list[int]) -> list[int]:
    """The exact integer product, by numpy on Python ints."""
    return list(np.convolve(np.array(p, dtype=object), np.array(q, dtype=object)))


class TestPolyRem:
    """The package's one polynomial division: the integer pseudo-division
    ``|lc b|**(deg a - deg b + 1) * a = q*b + r`` of ``_pdiv`` (``q``) and
    ``_prem`` (``r``)."""

    def test_simple_cubic(self):
        a, b = [1, 0, 0, 1], [0, 0, 1]  # z**3 + 1 by z**2
        assert _pdiv(a, b) == [0, 1]
        assert _prem(a, b) == [1, 0]

    def test_hand_division_r0_r1(self):
        # R0/R1 pair of the worked order-3 design at |I| = 1.5: the float
        # quotient z and remainder z, times |lc|**2 = 4
        a, b = [0, 0, 3, -2], [-1, 3, -2]
        assert _pdiv(a, b) == [0, 4]
        assert _prem(a, b) == [0, 4]

    def test_small_remainders_are_kept(self):
        # (z - 1)**2 + 2**-52 * z**2, times 2**52, leaves 1 at z = 1, exactly.
        a = _scaled((1.0, -2.0, 1.0 + 2**-52))[0]
        assert a == [2**52, -2**53, 2**52 + 1]
        assert _prem(a, [-1, 1]) == [1]

    def test_reconstruction_identity_random(self):
        rng = random.Random(42)
        for _ in range(400):
            b = [rng.randint(-2**40, 2**40) for _ in range(rng.randint(1, 6))]
            b.append(rng.choice((-1, 1)) * rng.randint(1, 99))  # the leading coefficient
            a = [rng.randint(-2**40, 2**40) for _ in range(len(b) + rng.randint(0, 5))]
            q, r = _pdiv(a, b), _prem(a, b)
            assert len(r) == len(b) - 1
            lhs = [abs(b[-1]) ** (len(a) - len(b) + 1) * c for c in a]
            rhs = _times(q, b)
            for k, c in enumerate(r):
                rhs[k] += c
            assert lhs == rhs


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
        # The package's integer rows are the float recurrence's, exactly:
        # COS_ROWS[k] is T_k and SIN_ROWS[k] is U_(k-1), with U_(-1) = 0.
        assert COS_ROWS[0] == [1] and SIN_ROWS[0] == [] and SIN_ROWS[2] == [0, 2]
        assert len(COS_ROWS) == len(SIN_ROWS) == MAX_ORDER + 1
        assert [Poly(row) for row in COS_ROWS] == T_TABLE
        assert [Poly(row) for row in SIN_ROWS[1:]] == U_TABLE[:MAX_ORDER]
        assert all(isinstance(c, int) for row in COS_ROWS + SIN_ROWS for c in row)


def real_roots_open(p: Poly) -> list[float]:
    """The package's exact isolation of the roots of ``p`` in (-1, 1)."""
    return _roots_inside(_scaled(p.coeffs)[0])


class TestRealRootsOpen:
    """The exact isolation of real roots in the open interval (-1, 1)."""

    def test_linear(self):
        assert real_roots_open(Poly([-1.0, 2.0])) == pytest.approx([0.5])

    def test_boundary_root_excluded(self):
        roots = real_roots_open(Poly([-1.0, 3.0, -2.0]))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_real_roots(self):
        assert real_roots_open(Poly([1.0, 0.0, 1.0])) == []

    def test_double_root_found_once(self):
        # (x - 0.375)**2 is exact in floats.  The float square of (x - 0.3)
        # is not a square: its exact roots are the pair 0.3 +- 1.8e-9j.
        p = product([-0.375, 1.0], [-0.375, 1.0])
        roots = real_roots_open(p)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.375, abs=1e-7)
        assert real_roots_open(product([-0.3, 1.0], [-0.3, 1.0])) == []

    def test_scale_invariance(self):
        p = Poly([-0.06, 0.1, 0.5, 1.0])  # roots well inside (-1, 1)
        base = real_roots_open(p)
        assert base  # sanity: it does have interior roots
        for c in (1e-8, 1e8):
            scaled = real_roots_open(Poly(c * np.asarray(p.coeffs)))
            assert len(scaled) == len(base)
            for a, b in zip(scaled, base):
                assert abs(a - b) <= 1e-10

    def test_close_root_pair_resolved(self):
        sep = 1e-7
        p = product([-0.5, 1.0], [-(0.5 + sep), 1.0])
        roots = real_roots_open(p)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.5, abs=1e-9)
        assert roots[1] == pytest.approx(0.5 + sep, abs=1e-9)

    def test_triple_root(self):
        lin = [-0.2, 1.0]
        roots = real_roots_open(product(lin, lin, lin))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.2, abs=1e-6)

    def test_near_boundary_inclusion(self):
        inside = 1.0 - 1e-6
        roots = real_roots_open(Poly([-inside, 1.0]))
        assert roots == pytest.approx([inside])
        # No band around the ends: a root is kept up to the last float before 1.
        for hugging in (1.0 - 1e-10, math.nextafter(1.0, 0.0)):
            assert real_roots_open(Poly([-hugging, 1.0])) == [hugging]
            assert real_roots_open(Poly([hugging, 1.0])) == [-hugging]

    def test_far_root_does_not_hide_interior_roots(self):
        # A sine-kind profile of an order-5 design whose coefficients span
        # 1e-125..1e196.  Its leading term is negligible on (-1, 1), since it
        # carries a root near 5.5e195, and the Sturm remainders of the
        # unmapped polynomial lost two of the three interior roots.
        p = Poly([8.9e192, -4.4e196, -3.6e193, 8.8e196, -16.0])
        want = [-0.707003409229458, 2.0227271034910457e-4, 0.7072102274281998]  # 40-digit solve
        assert real_roots_open(p) == pytest.approx(want, rel=1e-12)

    def test_interior_roots_next_to_far_roots(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            inner = sorted(rng.uniform(-0.95, 0.95, int(rng.integers(1, 4))))
            factors = [[rng.uniform(0.5, 2.0)]] + [[-r, 1.0] for r in inner]
            for _ in range(int(rng.integers(1, 3))):
                far = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(6.0, 150.0)
                # a far real root, or a far conjugate pair +-i*far
                factors.append([1.0, -1.0 / far] if rng.random() < 0.7 else [1.0, 0.0, far**-2])
            p = product(*factors)
            assert real_roots_open(p) == pytest.approx(inner, abs=1e-9), p

    def test_root_next_to_a_tiny_root(self):
        # 4x**3 - 2x + 1e-300: the root at +0.7071 was once lost beside the
        # root at 5e-301.
        roots = real_roots_open(Poly([1e-300, -2.0, 0.0, 4.0]))
        assert roots == pytest.approx([-math.sqrt(0.5), 5e-301, math.sqrt(0.5)], rel=1e-15)

    def test_narrow_cluster_resolved(self):
        # The remainder floor of the float Sturm chain once merged this pair.
        p = Poly([-3.41e205, -2.75e88, 2.27e-218, -1.63e-184, 6.78e227])
        want = math.sqrt(3.41e205 / 6.78e227) ** 0.5  # the pair +-(-c0/c4)**(1/4)
        assert real_roots_open(p) == pytest.approx([-want, want], rel=1e-12)

    def test_residuals_meet_contract(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = Poly(rng.uniform(-4, 4, int(rng.integers(2, 7))))
            if p.degree < 1:
                continue
            for x in real_roots_open(p):
                assert abs(p(x)) <= 1e-12 * max(map(abs, p.coeffs))


    def test_roots_are_the_nearest_floats(self):
        def value(c, x):
            return sum(Fraction(k) * x**j for j, k in enumerate(c))

        # Ties between adjacent floats go to the even one, as int / int does:
        # 0.5 + 2**-54 lies halfway between 0.5 and the float above it.
        for num in range(2**53 - 4, 2**53 + 5):
            assert _roots_inside([-num, 2**54]) == [num / 2**54]
        # Two roots 2**-80 apart, within one float of each other: both are
        # kept, each rounded on its own.
        p = 3 * 2**80 // 7
        assert _roots_inside([p * (p + 1), -(2 * p + 1) * 2**80, 2**160]) == [p / 2**80, (p + 1) / 2**80]
        # Irrational roots: the exact root lies within half a gap of each float.
        rng = random.Random(97)
        checked = 0
        for _ in range(300):
            c = [rng.randint(-2**70, 2**70) for _ in range(rng.randint(2, 5))]
            for x in _roots_inside(c):
                down, up = (Fraction(math.nextafter(x, t)) for t in (-math.inf, math.inf))
                lo, hi = (Fraction(x) + down) / 2, (Fraction(x) + up) / 2
                assert value(c, lo) * value(c, hi) <= 0, (c, x)
                checked += 1
        assert checked > 150


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
            scale = max(map(abs, p.coeffs))
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
            got = real_roots_open(p)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert abs(a - b) <= 1e-7
            checked += 1
        assert checked > 800
