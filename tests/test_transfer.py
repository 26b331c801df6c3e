import random

import numpy as np
import pytest

from sdmstab import transfer
from sdmstab.polynomial import Poly, binom_power
from sdmstab.transfer import (
    SdmDesign,
    b_from_g,
    char_poly,
    d_coeffs,
    g_from_b,
    ntf_series,
)


class TestBFromG:
    def test_order1_passthrough(self):
        assert b_from_g([2.5]) == (2.5,)

    def test_order2_hand_expansion(self):
        assert b_from_g([1.0, 2.0]) == (2.0, -1.0)

    def test_order3_hand_expansion(self):
        assert b_from_g([1.0, 2.0, 3.0]) == (3.0, -4.0, 2.0)

    def test_order_range(self):
        with pytest.raises(ValueError):
            b_from_g([])
        with pytest.raises(ValueError):
            b_from_g([1.0] * 6)

    def test_inverse_map_round_trip(self):
        assert g_from_b((3.0, -3.0, 1.0)) == (1.0, 3.0, 3.0)
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            g = tuple(rng.uniform(-3, 3, n))
            back = g_from_b(b_from_g(g))
            assert all(abs(x - y) <= 1e-11 for x, y in zip(g, back))

    def test_reconstruction_at_sample_points(self):
        rng = np.random.default_rng(5)
        zs = np.linspace(-2.0, 2.0, 16)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            g = rng.uniform(-3, 3, n)
            b = b_from_g(g)
            d_poly = char_poly(b, n, 0.0)
            for z in zs:
                direct = sum(g[j] * (z - 1.0) ** j for j in range(n))
                assert abs(d_poly(z) - direct) <= 1e-12 * max(1.0, abs(direct))


class TestCharPoly:
    def test_linear_case_is_monomial(self):
        assert char_poly((3.0, -3.0, 1.0), 3, 1.0) == Poly([0, 0, 0, 1.0])

    def test_doubled_magnitude(self):
        p = char_poly((3.0, -3.0, 1.0), 3, 2.0)
        assert p == Poly([-1.0, 3.0, -3.0, 2.0])

    def test_zero_magnitude_leaves_difference_poly(self):
        assert char_poly((3.0, -3.0, 1.0), 3, 0.0) == Poly([1.0, -3.0, 3.0])

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            char_poly((1.0,), 1, -0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            char_poly((1.0, 2.0), 3, 1.0)


def three_poly_char_poly(b, n, a):
    """Reference: ``a*(z-1)**n + D(z)`` as the sum of Polys."""
    asc = [0.0] * (n + 1)
    for k in range(1, n + 1):
        asc[n - k] = b[k - 1]
    return a * binom_power(n, 1.0) + Poly(asc)


def reference_cases():
    yield (1.0, -0.0), 2, 0.0  # the sum keeps D's -0.0; a*C + b would give +0.0
    yield (-0.0, 0.0, -0.0), 3, 0.0
    yield (0.0, -0.0, 1.0, -0.0), 4, -0.0
    yield (1e300, -1e300, 1e300, -1e300, 1e300), 5, 1e300
    yield (-1e300, 1e300), 2, 5e-324
    rng = random.Random(29)
    zeros = (0.0, -0.0)
    for _ in range(600):
        n = rng.randint(1, 5)
        b = tuple(rng.choice((rng.choice(zeros), rng.uniform(-4.0, 4.0),
                              rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 300.0)))
                  for _ in range(n))
        a = rng.choice((*zeros, 5e-324, 2.0**-1060, rng.uniform(0.0, 4.0), 10.0 ** rng.uniform(-320.0, 300.0)))
        yield b, n, a


class TestCharPolyReference:
    def test_bit_identical_to_the_sum_of_polys(self):
        for b, n, a in reference_cases():
            # repr tells -0.0 from 0.0, which Poly.__eq__ does not
            want = repr(three_poly_char_poly(b, n, a))
            assert repr(char_poly(b, n, a)) == repr(transfer._char_poly(b, n, a)) == want

    def test_overflow_refused_alike(self):
        b = (1e308, 1e308)
        for make in (three_poly_char_poly, transfer._char_poly):
            with pytest.raises(ValueError, match="must be finite"):
                make(b, 2, 1e308)

    def test_g_from_b_and_ntf_series_unchanged(self, monkeypatch):
        cases = [(b, n) for b, n, _ in reference_cases() if max(map(abs, b)) < 1e4]
        got = [(g_from_b(b), ntf_series(b, n, 16)) for b, n in cases]
        monkeypatch.setattr(transfer, "_char_poly", three_poly_char_poly)
        assert repr(got) == repr([(g_from_b(b), ntf_series(b, n, 16)) for b, n in cases])


class TestDCoeffs:
    def test_worked_values(self):
        assert d_coeffs((3.0, -3.0, 1.0), 3, 1.5).d == (-1.5, 1.5, -0.5)
        assert d_coeffs((3.0, -3.0, 1.0), 3, 0.0).d == (3.0, -3.0, 1.0)
        assert d_coeffs((1.0, 0.5, 0.1), 3, 1.0).d == (-2.0, 3.5, -0.9)

    def test_char_poly_identity_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            b = tuple(rng.uniform(-4, 4, n))
            a = float(rng.uniform(0, 4))
            f = char_poly(b, n, a)
            d = d_coeffs(b, n, a).d
            expected = [0.0] * (n + 1)
            expected[n] = a
            for k in range(1, n + 1):
                expected[n - k] += d[k - 1]
            got = list(f.coeffs) + [0.0] * (n + 1 - len(f.coeffs))
            assert got == pytest.approx(expected, abs=0.0)


class TestNtfSeries:
    def test_first_order(self):
        assert ntf_series(b_from_g([1.0]), 1, 6) == [1.0, -1.0, 0.0, 0.0, 0.0, 0.0]

    def test_second_order(self):
        assert ntf_series(b_from_g([1.0, 2.0]), 2, 6) == [1.0, -2.0, 1.0, 0.0, 0.0, 0.0]

    def test_zero_feedback_is_identity(self):
        assert ntf_series(b_from_g([0.0, 0.0, 0.0]), 3, 5) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_division_inverse(self):
        rng = np.random.default_rng(29)
        terms = 40
        for _ in range(100):
            n = int(rng.integers(1, 6))
            b = tuple(rng.uniform(-2, 2, n))
            h = ntf_series(b, n, terms)
            beta = char_poly(b, n, 1.0).coeffs[::-1]
            c = binom_power(n).coeffs[::-1]
            # h * B (in powers of 1/z) must reproduce C's coefficients;
            # cancellation headroom scales with the terms actually summed.
            for m in range(terms):
                acc = sum(
                    beta[i] * h[m - i] for i in range(0, min(m, n) + 1)
                )
                want = c[m] if m < len(c) else 0.0
                mag = max(abs(h[m - i]) for i in range(0, min(m, n) + 1))
                assert abs(acc - want) <= 1e-10 * max(1.0, mag)


class TestDesignTypes:
    def test_from_g_round(self):
        d = SdmDesign.from_g([1.0, 2.0, 3.0])
        assert d.n == 3
        assert d.b == (3.0, -4.0, 2.0)
        assert d.g == (1.0, 2.0, 3.0)

    def test_from_b(self):
        d = SdmDesign.from_b([3.0, -3.0, 1.0])
        assert d.n == 3 and d.g is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SdmDesign(n=2, b=(1.0,))
        with pytest.raises(ValueError):
            SdmDesign.from_b([])
