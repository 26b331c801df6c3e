import hashlib
import random

import numpy as np
import pytest

from oracles import d_coeffs
from sdmstab import transfer
from sdmstab.polynomial import SHIFTED_ROWS, Poly
from sdmstab.transfer import (
    b_from_g,
    char_poly,
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

    def test_small_remainders_are_kept(self):
        # (z - 1)**2 + 2**-52 * z**2 leaves 2**-52 at z = 1, exactly; a
        # relative floor on remainders once zeroed it, and with it g1.
        assert g_from_b((1.0, -2.0, 1.0 + 2**-52)) == (2.0**-52, 0.0, 1.0)

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
    """Reference: ``a*(z-1)**n + D(z)`` as the sum of two coefficient lists,
    with the signed zeros of the sum of Polys it replaces: no binomial term
    at ``a = 0``, ``D`` without its trailing zeros, and each coefficient of
    the longer list plus the one of the shorter below it."""
    term = [a * c for c in SHIFTED_ROWS[n]] if a else []
    d = list(b[::-1])
    while d and d[-1] == 0.0:
        d.pop()
    longer, shorter = (term, d) if len(term) >= len(d) else (d, term)
    out = list(longer)
    for k, c in enumerate(shorter):
        out[k] += c
    return Poly(out)


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
        # Both conversions on the whole corpus, read as b and as g: the
        # digest of their reprs before they were rewritten on SHIFTED_ROWS.
        got = [(shown(b_from_g, b), shown(g_from_b, b)) for b, _, _ in reference_cases()]
        digest = hashlib.sha256(repr(got).encode()).hexdigest()
        assert digest == "e9d9da4a43c83a7dae1b86a252a3e8a19c1bccb6b2a4bbd27895033036dbf3ae"
        cases = [(b, n) for b, n, _ in reference_cases() if max(map(abs, b)) < 1e4]
        got = [ntf_series(b, n, 16) for b, n in cases]
        monkeypatch.setattr(transfer, "_char_poly", three_poly_char_poly)
        assert repr(got) == repr([ntf_series(b, n, 16) for b, n in cases])


def shown(convert, v) -> str:
    try:
        return repr(convert(v))
    except ValueError:
        return "ValueError"


def conversion_corpus():
    yield (1.0, -1.0)
    yield (-1.0, 1.0)
    yield (1.0, -2.0, 1.0)
    yield (3.0, -3.0, 1.0)
    yield (0.0, -0.0, 0.0)
    yield (1e300, -1e300, 1e300)
    special = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0, 2.0**-52)
    rng = random.Random(43)
    for _ in range(34):
        n = rng.randint(1, 5)
        yield tuple(rng.choice((rng.choice(special), rng.uniform(-4.0, 4.0), float(rng.randint(-3, 3))))
                    for _ in range(n))


# (v, repr(b_from_g(v)), repr(g_from_b(v))) for each v of conversion_corpus(),
# captured before both were rewritten on SHIFTED_ROWS.
CONVERSION_PINS = [
    ((1.0, -1.0),
     '(-1.0, 2.0)',
     '(0.0, 1.0)'),
    ((-1.0, 1.0),
     '(1.0, -2.0)',
     '(0.0, -1.0)'),
    ((1.0, -2.0, 1.0),
     '(1.0, -4.0, 4.0)',
     '(0.0, 0.0, 1.0)'),
    ((3.0, -3.0, 1.0),
     '(1.0, -5.0, 7.0)',
     '(1.0, 3.0, 3.0)'),
    ((0.0, -0.0, 0.0),
     '(0.0, 0.0, 0.0)',
     '(0.0, 0.0, 0.0)'),
    ((1e+300, -1e+300, 1e+300),
     'ValueError',
     '(1e+300, 1e+300, 1e+300)'),
    ((1.5697945810964224,),
     '(1.5697945810964224,)',
     '(1.5697945810964224,)'),
    ((1.587509023723082, -3.0, 1.0),
     '(1.0, -5.0, 5.587509023723082)',
     '(-0.412490976276918, 0.175018047446164, 1.587509023723082)'),
    ((1e-300, -0.0, 2.6760692892061018, -1.0),
     '(-1.0, 5.676069289206102, -8.352138578412204, 3.6760692892061018)',
     '(1.6760692892061018, 2.6760692892061018, 3e-300, 1e-300)'),
    ((1e-300, 5e-324),
     '(5e-324, 1e-300)',
     '(1e-300, 1e-300)'),
    ((1.0, 3.0, 2.220446049250313e-16),
     '(2.220446049250313e-16, 2.9999999999999996, -1.9999999999999998)',
     '(4.0, 5.0, 1.0)'),
    ((2.0,),
     '(2.0,)',
     '(2.0,)'),
    ((0.23113135481537483, -2.989295551278609, 3.011091267550488),
     '(3.011091267550488, -9.011478086379585, 6.231518173644472)',
     '(0.252927071087254, -2.527032841647859, 0.23113135481537483)'),
    ((1.0, 3.0),
     '(3.0, -2.0)',
     '(4.0, 1.0)'),
    ((0.0, -0.0, 1.8489459844889948),
     '(1.8489459844889948, -3.6978919689779897, 1.8489459844889948)',
     '(1.8489459844889948, 0.0, 0.0)'),
    ((1.0,),
     '(1.0,)',
     '(1.0,)'),
    ((0.0, 1.8767257342965573),
     '(1.8767257342965573, -1.8767257342965573)',
     '(1.8767257342965573, 0.0)'),
    ((3.0,),
     '(3.0,)',
     '(3.0,)'),
    ((-1e+300, -2.0, -2.4480931946607187, 0.7540140501453765),
     '(0.7540140501453765, -4.710135345096848, 5.158228539757567, -1e+300)',
     '(-1e+300, -3e+300, -3e+300, -1e+300)'),
    ((-1e+300, -3.0, 3.670559126133627, 2.212766421826057),
     '(2.212766421826057, -2.967740139344544, -3.702818986789083, -1e+300)',
     '(-1e+300, -3e+300, -3e+300, -1e+300)'),
    ((0.0, 3.0),
     '(3.0, -3.0)',
     '(3.0, 0.0)'),
    ((-3.0, -1.8920605051744346, 1e-300, -3.00386312209125, -5e-324),
     '(-5e-324, -3.00386312209125, 9.01158936627375, -10.903649871448184, 1.8959236272656845)',
     '(-7.8959236272656845, -20.680044637614554, -23.676181515523304, -13.892060505174435, -3.0)'),
    ((-3.0688444776307646, 1.0),
     '(1.0, -4.068844477630765)',
     '(-2.0688444776307646, -3.0688444776307646)'),
    ((-2.108010945090678, -1.0),
     '(-1.0, -1.1080109450906779)',
     '(-3.108010945090678, -2.108010945090678)'),
    ((1.6267060839922074,),
     '(1.6267060839922074,)',
     '(1.6267060839922074,)'),
    ((0.0, -1.7114528674190286),
     '(-1.7114528674190286, 1.7114528674190286)',
     '(-1.7114528674190286, 0.0)'),
    ((-1.0, 1.0, 1.0),
     '(1.0, -1.0, -1.0)',
     '(1.0, -1.0, -1.0)'),
    ((2.0,),
     '(2.0,)',
     '(2.0,)'),
    ((-1.0, 3.0),
     '(3.0, -4.0)',
     '(2.0, -1.0)'),
    ((1.0, -3.517508610711462),
     '(-3.517508610711462, 4.517508610711462)',
     '(-2.517508610711462, 1.0)'),
    ((-1.6222010812650343, -1e-300, 2.4347993326998756, 0.0),
     '(0.0, 2.4347993326998756, -4.869598665399751, 0.8125982514348413)',
     '(0.8125982514348413, -2.431803911095227, -4.866603243795103, -1.6222010812650343)'),
    ((-1e+300, 2.3303457178482416, -2.0, 1e+300),
     'ValueError',
     '(0.0, -3e+300, -3e+300, -1e+300)'),
    ((5e-324, 2.0, 1.7310018367595932),
     '(1.7310018367595932, -1.4620036735191864, -0.2689981632404068)',
     '(3.731001836759593, 2.0, 5e-324)'),
    ((3.309836300064106, 2.732809766915225, -3.172688136502572, 1.0),
     '(1.0, -6.172688136502572, 12.078186039920368, -3.5956616033536912)',
     '(3.869957930476759, 12.222440297520194, 12.662318667107542, 3.309836300064106)'),
    ((-1.0, 0.6053812765643194),
     '(0.6053812765643194, -1.6053812765643194)',
     '(-0.3946187234356806, -1.0)'),
    ((-1e-300, 2.220446049250313e-16, 1e+300, 2.0, 1.0),
     'ValueError',
     '(1e+300, 2e+300, 1e+300, 2.220446049250313e-16, -1e-300)'),
    ((0.0, 3.129426750909248, 5e-324),
     '(5e-324, 3.129426750909248, -3.129426750909248)',
     '(3.129426750909248, 3.129426750909248, 0.0)'),
    ((-0.0, 2.220446049250313e-16, -5e-324),
     '(-5e-324, 2.220446049250313e-16, -2.220446049250313e-16)',
     '(2.220446049250313e-16, 2.220446049250313e-16, 0.0)'),
    ((3.1509461469013873, 3.0, 3.0, -2.2040242398324645),
     '(-2.2040242398324645, 9.612072719497395, -9.612072719497395, 5.354970386733852)',
     '(6.946921907068922, 18.452838440704163, 12.452838440704163, 3.1509461469013873)'),
    ((2.0, -0.06983847619693329, 0.0, 1.0, -0.46043488759735673),
     '(-0.46043488759735673, 2.841739550389427, -5.76260932558414, 4.771901074192494, 0.6094035885995766)',
     '(2.46972663620571, 8.7904845714092, 11.7904845714092, 7.930161523803067, 2.0)'),
]


def test_conversions_repr_pinned():
    got = [(v, shown(b_from_g, v), shown(g_from_b, v)) for v in conversion_corpus()]
    assert got == CONVERSION_PINS


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
            c = SHIFTED_ROWS[n][::-1]
            # h * B (in powers of 1/z) must reproduce C's coefficients;
            # cancellation headroom scales with the terms actually summed.
            for m in range(terms):
                acc = sum(
                    beta[i] * h[m - i] for i in range(0, min(m, n) + 1)
                )
                want = c[m] if m < len(c) else 0.0
                mag = max(abs(h[m - i]) for i in range(0, min(m, n) + 1))
                assert abs(acc - want) <= 1e-10 * max(1.0, mag)

