import hashlib
import json
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import sdmstab.boundary as boundary
import sdmstab.winding as winding
from oracles import (
    T_TABLE,
    U_TABLE,
    DCoeffs,
    all_roots,
    bisect_boundary,
    cheb_expand,
    crossing_param,
    crossing_value,
    d_coeffs,
    t2_order5,
)
from sdmstab.boundary import (
    DegenerateBoundaryError,
    ZeroPointCandidate,
    classify_intervals,
    i_max_order3,
    i_min,
    zero_point_candidates,
)
from sdmstab.cli import asdict
from sdmstab.polynomial import SHIFTED_ROWS, Poly, _div, _prem, _scaled
from sdmstab.transfer import char_poly
from sdmstab.winding import _count_at, count_inside_e1
from test_acceptance import stable_b_sample

B3 = (3.0, -3.0, 1.0)

# Its valid event, at x = 0.999999999999999, has a ~ 7e314, past the float
# range: the last interval (a_min, inf) is stable for every float a.
OVERFLOW_EVENT_B = (6e299, -8.999999999999995e299, 3e299)

# The least magnitude that rounds to an infinite float.
_EDGE = Fraction(2**1024 - 2**970)


def _value(c, x):
    return sum(ck * x**k for k, ck in enumerate(c))


def _rounding_cell(x):
    """The midpoints between ``x`` and its float neighbours: the reals that
    round to ``x``."""
    ends = []
    for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
        ends.append((Fraction(x) + Fraction(y)) / 2 if math.isfinite(y) else _EDGE if y > 0 else -_EDGE)
    return ends


def _roots_between(c, lo, hi):
    """Distinct real roots in ``(lo, hi)`` of ``c`` (ascending, degree 0..2),
    neither end a root."""
    if len(c) < 3:
        return int(len(c) == 2 and lo < Fraction(-c[0]) / c[1] < hi)
    c0, c1, c2 = c
    disc, vertex = c1 * c1 - 4 * c0 * c2, Fraction(-c1) / (2 * c2)
    if disc <= 0:
        return int(disc == 0 and lo < vertex < hi)
    up = _value(c, lo) > 0
    if up != (_value(c, hi) > 0):
        return 1
    return 2 if lo < vertex < hi and (_value(c, vertex) > 0) != up else 0


def _slope_at_root(c, lo, hi):
    """Exact sign of ``c'`` at the one root of ``c`` in ``(lo, hi)``, a
    simple one: that of ``c`` just right of it, so at ``hi``, or minus that
    at ``lo`` when ``hi`` is another root."""
    right = _value(c, hi) or -_value(c, lo)
    return (right > 0) - (right < 0)


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _exact_profiles(b, n):
    """``p0, q0, p1, q1`` of the unit-circle profiles ``r0 = p0 + a*q0`` and
    ``r1 = p1 + a*q1`` in Fractions, from the exact Chebyshev recurrences."""

    def combine(coeffs, basis, offset=0):
        out = [Fraction(offset)] + [Fraction(0)] * n
        for ck, pk in zip(coeffs, basis):
            for j, v in enumerate(pk):
                out[j] += ck * v
        return out

    t, u = [[1], [0, 1]], [[1], [0, 2]]
    for table in (t, u):
        while len(table) <= n:
            two_x = [0] + [2 * v for v in table[-1]]
            table.append([v - (table[-2][j] if j < len(table[-2]) else 0) for j, v in enumerate(two_x)])
    bf = [Fraction(v) for v in b]
    binom = [math.comb(n, k) * (-1) ** k for k in range(1, n + 1)]
    return combine(bf, t[1:]), combine(binom, t[1:], 1), combine(bf, u), combine(binom, u)


def _exact_event_poly(b, n):
    """The deflated event polynomial of ``b``, up to a constant, in Fractions:
    ``p0*q1 - p1*q0`` over ``(1 - x)**(n // 2)``."""
    p0, q0, p1, q1 = _exact_profiles(b, n)
    e = [x - y for x, y in zip(_mul(p0, q1), _mul(p1, q0))]
    for _ in range(n // 2):  # synthetic division by x - 1
        rem = Fraction(0)
        for j in range(len(e) - 1, -1, -1):
            e[j], rem = rem, e[j] + rem
        assert rem == 0
        e.pop()  # the quotient is e[:-1]
    return _trim(e)


def generic_event_poly(ints, s, n):
    """The generic solve each generated kernel unrolls: ``R`` without
    trailing zeros (empty when it vanishes), ``A`` and ``2**(n-m) *
    (1-x)**m``, ascending, times the ``2**s`` making ``b`` the integers
    ``ints``, from the columns of ``boundary._event_basis``."""
    k_cols, l_cols, den = boundary._event_basis(n)
    r = [sum(map(operator.mul, ints, column)) for column in k_cols]
    while r and r[-1] == 0:
        r.pop()
    return r, [sum(map(operator.mul, ints, column)) for column in l_cols], [c << s for c in den]


def _rem(p, c):
    """The remainder of ``p`` by ``c`` in Fractions, ascending, of length ``deg c``."""
    p = [Fraction(v) for v in p] + [Fraction(0)] * (len(c) - 1 - len(p))
    while len(p) >= len(c):
        t = p.pop() / c[-1]
        for j in range(len(c) - 1):
            p[len(p) - len(c) + 1 + j] -= t * c[j]
    return p


def _sign_at_root(g, c, lo, hi):
    """The exact sign of ``g`` at the only root of ``c`` (degree 1 or 2) in
    ``(lo, hi)``."""
    sign = lambda v: (v > 0) - (v < 0)
    if len(c) == 2:
        return sign(_value(g, Fraction(-c[0], c[1])))
    g0, g1 = _rem(g, c)
    if g1 == 0:
        return sign(g0)
    x = -g0 / g1  # g = g1*(r - x) at the root r
    if lo < x < hi and _value(c, x) == 0:
        return 0
    below = x >= hi or (x > lo and _roots_between(c, lo, x) == 1)
    return -sign(g1) if below else sign(g1)


def _a_at_root(c, num, den, x, a):
    """Whether ``a`` is the float nearest ``num(r)/den(r)`` (``inf`` where
    ``den(r)`` is 0) at the only root ``r`` of ``c`` that rounds to ``x``:
    ``(num - lo*den) * (num - hi*den)`` is negative at ``r`` for the ends
    ``lo, hi`` of ``a``'s rounding cell."""
    cell = _rounding_cell(x)
    less = lambda t: [u - t * v for u, v in zip(num, den)]  # num - t*den
    if math.isinf(a):
        if _sign_at_root(den, c, *cell) == 0:
            return a > 0
        edge = _EDGE if a > 0 else -_EDGE  # a past the float range: (num/den - edge)*sign(a) > 0
        return _sign_at_root(_mul(less(edge), den), c, *cell) == (1 if a > 0 else -1)
    lo, hi = _rounding_cell(a)
    return _sign_at_root(_mul(less(lo), less(hi)), c, *cell) < 0


def _exactly_inside(c, x):
    """Whether the root of ``c`` that rounds to ``x`` (the only one in its
    rounding cell) has ``|r| < 1``."""
    if abs(x) != 1.0:
        return abs(x) < 1.0  # the whole cell lies on one side of the circle
    lo, hi = _rounding_cell(x)
    return _value(c, Fraction(x)) != 0 and _roots_between(c, max(lo, -1), min(hi, 1)) == 1


class TestIMin:
    def test_worked_design(self):
        a = i_min(B3, 3)
        assert a == 0.875
        f = char_poly(B3, 3, a)
        assert abs(f(-1.0)) <= 1e-12

    def test_first_order(self):
        assert i_min((1.0,), 1) == 0.5

    def test_vanishing_alternating_sum(self):
        assert i_min((1.0, 1.0), 2) == 0.0
        # +0.0, not -0.0: -0.0 == 0.0, but repr and json print its sign.
        assert math.copysign(1.0, i_min((1.0, 1.0), 2)) == 1.0
        assert math.copysign(1.0, i_min((0.0,), 1)) == 1.0

    def test_one_rounding_to_the_nearest_float(self):
        # -sum((-1)**k * b_k) / 2**n rounds once: a subnormal a_min is the
        # float nearest it (an fsum, then / 2**n, gave 1.1125369292536017e-308
        # here), a vanishing sum is +0.0 and a tiny negative one -0.0.
        b = (math.ldexp(2**52 + 3, -1070), 0.0, -5e-324, 0.0, 0.0)
        assert i_min(b, 5) == classify_intervals(b, 5).a_min == 1.112536929253601e-308
        rng = random.Random(1703)
        draws = (lambda: rng.randint(-9, 9) * 5e-324,
                 lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0))
        negative_zero = 0
        for i in range(4000):
            n = i % 5 + 1
            b = tuple(draws[i % 2]() for _ in range(n))
            nearest = float(-sum((-1) ** k * Fraction(b[k - 1]) for k in range(1, n + 1)) / 2**n)
            got = i_min(b, n)
            assert (got, math.copysign(1.0, got)) == (nearest, math.copysign(1.0, nearest)), (b, n)
            negative_zero += repr(got) == "-0.0"
        assert negative_zero > 10


class TestZeroPointCandidates:
    def test_worked_design_single_valid(self):
        cands = zero_point_candidates(B3, 3)
        valid = [c for c in cands if c.valid]
        assert len(valid) == 1
        assert valid[0].a == pytest.approx(2.0, abs=1e-9)
        assert valid[0].x == pytest.approx(0.5, abs=1e-9)

    def test_a_where_a_profile_loses_its_a_term(self):
        # The cosine profile's a-term q0 = -2*(x-1)**2*(2x+1) vanishes at
        # this event (x = -1/2), the sine profile's q1 at the worked one;
        # the closed form a = (3 - 2x)/(4*(1 - x)) needs neither.
        (cand,) = zero_point_candidates((3.0, -1.0, 1.0), 3)
        assert cand.valid and cand.x == -0.5
        assert cand.a == 2 / 3

    def test_event_root_at_z_equals_one_is_skipped(self):
        # sum(b) = 0 leaves the event polynomial 2x - 2 with its root at
        # x = 1, where both profiles lose their a-term.
        assert zero_point_candidates((1.0, -2.0, 1.0), 3) == []

    def test_spurious_root_flagged_invalid(self):
        cands = zero_point_candidates((1.0, 0.5, 0.1), 3)
        assert [c for c in cands if c.valid] == []
        assert len(cands) == 1
        assert cands[0].a == pytest.approx(0.05625, abs=1e-9)
        assert cands[0].x == pytest.approx(-7.0, abs=1e-6)

    def test_reciprocal_design_is_a_continuum(self):
        with pytest.raises(DegenerateBoundaryError):
            zero_point_candidates((1.0, 0.0), 2)

    def test_first_order_has_no_self_intersections(self):
        assert zero_point_candidates((1.0,), 1) == []

    def test_order2_has_no_isolated_candidates(self):
        # second-order designs flip stability only at the z = -1 crossing
        assert [c for c in zero_point_candidates((1.0, -0.5), 2) if c.valid] == []
        assert [c for c in zero_point_candidates((1.0, 0.5), 2) if c.valid] == []

    def test_event_polynomial_is_the_eliminant_of_a(self):
        # Eliminating a from r0 = p0 + a*q0 and r1 = p1 + a*q1 gives
        # E = p0*q1 - p1*q0; the event polynomial is E with its structural
        # factor (1 - x)**(n // 2) and a constant divided out.  The closed
        # form A/den is the real part of the crossing value -D(z)/(z-1)**n
        # at every angle; at an event the imaginary part is zero.
        rng = np.random.default_rng(89)
        for n in range(1, 6):
            binom = [math.comb(n, k) * (-1.0) ** k for k in range(1, n + 1)]
            q0, q1 = cheb_expand(binom, 1.0), cheb_expand(binom, kind="sine")
            for _ in range(20):
                b = tuple(rng.uniform(-4, 4, n))
                p0, p1 = cheb_expand(b), cheb_expand(b, kind="sine")
                eliminant = P.polysub(P.polymul(p0.coeffs, q1.coeffs), P.polymul(p1.coeffs, q0.coeffs))
                event, num, den = generic_event_poly(*_scaled(b), n)
                exact = _exact_event_poly(b, n)
                assert len(event) == len(exact)
                assert all(r * exact[-1] == e * event[-1] for r, e in zip(event, exact))
                deflated = P.polymul(list(map(float, event)), SHIFTED_ROWS[n // 2])
                e, r = np.zeros(2 * n), np.zeros(2 * n)
                e[: len(eliminant)], r[: len(deflated)] = eliminant, deflated
                c = float(e @ r / (r @ r))
                tol = 1e-12 * np.abs(e).max()
                assert np.abs(e - c * r).max() <= tol
                assert np.abs(e[n:]).max() <= tol  # structural degree n - 1
                assert len(num) == len(den) == n // 2 + 1
                for phi in rng.uniform(0.01, math.pi, 5):
                    x = Fraction(math.cos(phi))
                    closed = float(_value(num, x) / _value(den, x))
                    assert closed == pytest.approx(crossing_value(b, n, phi).real, rel=1e-9)

    def test_event_roots_are_the_nearest_floats(self):
        # The integer solve checked in rational arithmetic, on polynomials
        # whose coefficients span 2**+-1000, so that roots underflow,
        # overflow or land anywhere between, on polynomials with
        # perfect-square and zero discriminants, on roots next to a rounding
        # tie and next to the circle, and with a = num(x)/den(x) for seeded
        # integer forms, some with a pole next to a root.  Each x's rounding
        # cell holds a root, the cells of all x hold every distinct root
        # inside the float range, a's cell holds num/den at the root in x's
        # cell, valid is the exact |x| < 1, and slope is the exact sign of
        # c' at that root (0 at a double root).
        from sdmstab.boundary import _event_roots

        rng = random.Random(61)
        cases = []
        for _ in range(3000):
            degree = rng.choice((1, 2, 2, 2))
            c = [rng.choice((-1.0, 1.0)) * rng.uniform(1, 2) * 2.0 ** rng.randint(-1000, 1000)
                 for _ in range(degree + 1)]
            if rng.random() < 0.2:
                c[rng.randrange(degree)] = 0.0  # c0 = 0 (a root at 0) or c1 = 0
            cases.append(_scaled(tuple(c))[0])
        for _ in range(300):
            (p1, q1), (p2, q2) = [(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(2)]
            m = rng.choice((-1, 1)) << rng.randint(0, 2000)
            cases.append([m * p1 * p2, -m * (p1 * q2 + p2 * q1), m * q1 * q2])  # disc a square
            cases.append([m * p1 * p1, -2 * m * p1 * q1, m * q1 * q1])  # disc = 0
        for _ in range(50):
            # Roots within about 1/m of the midpoint m between two floats:
            # the first sqrt bracket straddles m and has to be refined.
            m = (rng.randrange(2**52, 2**53) * 2 + 1) << rng.randint(0, 900)
            cases.append([-(m * m) + rng.choice((-1, 1)), 0, 1])
        for _ in range(50):
            # A root 2**-e inside or outside x = +-1, the other one at 3.
            e, side = rng.randint(40, 300), rng.choice((-1, 1))
            s, top = rng.choice((-1, 1)), 2**e + side  # the root s*top/2**e
            cases.append([3 * s * top, -(s * top + 3 * 2**e), 2**e])
        cases += [
            [-(2**1100), 1],  # past the float range
            [-(2**2100), 0, 1],  # both roots past it
            [3 * 2**1100, -(2**1100) - 3, 1],  # one root past it, one at 3
            [-1, 2**1100 - 1, 2**1100],  # one root at -1, one at 2**-1100, rounding to 0
            [1, 2**1100 - 1, -(2**1100)],  # one root at -2**-1100, rounding to 0 too
            [2**2000, 0, 1],  # no real root
            [-((2**1024 - 2**970 - 2**960) ** 2), 0, 1],  # roots just inside the float range
            [-(2**1024 - 2**970 + 2**960), 1],  # a root just past it
            [-1, 0, 1],  # roots at +-1 exactly: invalid
            [-1, 1],  # x = 1 exactly
        ]
        forms = []
        for c in cases:
            draw = lambda: [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 300)) for _ in c[1:]]
            num, den = draw(), draw()
            kind = rng.random()
            if kind < 0.1:
                num = [rng.randint(-3, 3) * v for v in den]  # a constant (0 included)
            elif kind < 0.15 and len(c) == 3:
                den = [-rng.randint(1, 9), rng.randint(1, 9)]  # a pole at a rational x
            forms.append((c, num, den if any(den) else [1] + den[1:]))
        # den = 1 - x: a = inf at the exact x = 1, dropped by the caller
        forms += [([-1, 1], [5], [0]), ([-1, 0, 1], [2, 3], [1, -1])]
        # sqrt(2) and a pole x = p/q within 2**-80 of it, inside the first bracket
        p, q = 1, 1
        while abs(Fraction(p, q) ** 2 - 2) > Fraction(1, 2**80):
            p, q = p + 2 * q, p + q
        forms += [([-2, 0, 1], [rng.randint(-9, 9), rng.randint(1, 9)], [-p, q]) for _ in range(20)]
        # a = 1 + 1/(q*x - p) with p/q within 2**-240 of sqrt(2): a rounds
        # to 1 at both ends of the first bracket, with the pole between them
        # and a near 1e36 at the root; only the sign of den tells.
        while q < 2**120:
            p, q = p + 2 * q, p + q
        forms.append(([-2, 0, 1], [1 - p, q], [-p, q]))
        tangent, slopes = 0, {-1: 0, 1: 0}
        for c, num, den in forms:
            got = _event_roots(c, num, den)
            assert got == sorted(set(got)), (c, got)
            assert len({event[:3] for event in got}) == len(got), (c, got)
            xs = sorted({x for _, x, _, _ in got})
            assert all(map(math.isfinite, xs)), (c, got)
            assert all(math.copysign(1.0, v) == 1.0 for a, x, _, _ in got for v in (a, x) if v == 0.0)
            held = [_roots_between(c, *_rounding_cell(x)) for x in xs]
            assert min(held, default=1) >= 1, (c, got)
            assert sum(held) == _roots_between(c, -_EDGE, _EDGE), (c, got)
            double = len(c) == 3 and c[1] ** 2 == 4 * c[0] * c[2]
            if double:
                assert xs == [float(Fraction(-c[1], 2 * c[2]))] or not xs, (c, got)
                assert all(slope == 0 for *_, slope in got), (c, got)
                tangent += bool(got)
            for a, x, valid, slope in got:
                cell = _rounding_cell(x)
                if _roots_between(c, *cell) == 1:  # else two roots round to x
                    assert _a_at_root(c, num, den, x, a), (c, num, den, x, a)
                    assert valid == _exactly_inside(c, x), (c, x, valid)
                    if not double:
                        assert slope == _slope_at_root(c, *cell), (c, x, slope)
                        slopes[slope] += 1
        assert tangent > 250 and min(slopes.values()) > 2000, (tangent, slopes)
        assert _event_roots([-1, 0, 1], [2, 3], [1, -1]) == [(-0.5, -1.0, False, -1), (math.inf, 1.0, False, 1)]

    def test_candidates_sit_on_the_nearest_floats(self):
        # The event polynomial rebuilt independently in Fractions, as the
        # eliminant p0*q1 - p1*q0 of the exact unit-circle profiles with
        # (1 - x)**(n // 2) divided out: every candidate's x must be the
        # float nearest one of its real roots, its a the float nearest the
        # a = -p/q of a profile at one, and valid the exact |x| < 1.
        rng = random.Random(5)
        log_uniform = lambda lo, hi: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)
        checked = 0
        for i in range(900):
            n = rng.randint(3, 5)
            draw = (
                lambda: rng.uniform(-4, 4),  # ordinary
                lambda: log_uniform(-6, 6),
                lambda: log_uniform(296, 300),  # near the 1e300 cap
            )[i % 3]
            b = tuple(draw() for _ in range(n))
            event = _exact_event_poly(b, n)
            p0, q0, p1, q1 = _exact_profiles(b, n)
            forms = [([-v for v in _rem(p, event)], _rem(q, event)) for p, q in ((p0, q0), (p1, q1))]
            for cand in zero_point_candidates(b, n):
                cell = _rounding_cell(cand.x)
                assert _roots_between(event, *cell) == 1, (b, cand)
                # a = -p/q of a profile whose a-term q does not vanish there
                num, den = next(f for f in forms if _sign_at_root(f[1], event, *cell))
                assert _a_at_root(event, num, den, cand.x, cand.a), (b, cand)
                assert cand.valid == _exactly_inside(event, cand.x), (b, cand)
                checked += 1
        assert checked > 500

    def test_candidates_carry_no_negative_zero(self):
        # a = A/den is a zero when the event sits on a root of A: it must
        # come out +0.0, not -0.0, which repr and json print with its sign.
        rng = random.Random(3)
        zeros = 0
        for _ in range(3000):
            n = rng.randint(1, 5)
            b = tuple(float(rng.randint(-3, 3)) for _ in range(n))
            try:
                cands = zero_point_candidates(b, n)
            except DegenerateBoundaryError:
                continue
            for c in cands:
                assert math.copysign(1.0, c.a) == 1.0, (b, c)
                zeros += c.a == 0.0
        assert zeros > 0

    def test_event_polynomial_vanishes_only_on_reciprocal_designs(self):
        # b_n = 0 and b_k = (-1)**n * b_{n-k} make F self-reciprocal for
        # every a; the exactly rounded coefficients then cancel to zero.
        rng = np.random.default_rng(97)
        for n in range(2, 6):
            for _ in range(50):
                b = list(rng.uniform(-4, 4, n))
                b[n - 1] = 0.0
                for k in range(n // 2 + 1, n):
                    b[k - 1] = (-1.0) ** n * b[n - k - 1]
                b = tuple(b)
                with pytest.raises(DegenerateBoundaryError):
                    zero_point_candidates(b, n)
                rep = classify_intervals(b, n)
                assert rep.candidates == ()
                assert all(not iv.stable for iv in rep.intervals)
                # the smallest departure from symmetry leaves isolated events
                zero_point_candidates(b[:-1] + (1e-300,), n)

    def test_candidates_sit_on_exact_terminal_roots(self):
        # Exact-rational replay of the chain: every reported candidate must
        # have a negligible exact Newton correction on the true terminal
        # equation, whatever the float pipeline's internal conditioning.
        def exact_terminal(b, n):
            # polys in x; each coefficient is a list of Fractions in a
            d_lin = [
                [Fraction(b[k - 1]), Fraction(math.comb(n, k) * (-1) ** k)]
                for k in range(1, n + 1)
            ]

            def ap_mul(p, q):
                out = [Fraction(0)] * (len(p) + len(q) - 1)
                for i, pi in enumerate(p):
                    for j, qj in enumerate(q):
                        out[i + j] += pi * qj
                return out

            def ap_addto(p, q, c):
                for j, qj in enumerate(q):
                    p[j] = p[j] + Fraction(c) * qj

            r0 = [[Fraction(0), Fraction(0)] for _ in range(n + 1)]
            r0[0][1] = Fraction(1)
            r1 = [[Fraction(0), Fraction(0)] for _ in range(n)]
            for k in range(1, n + 1):
                for j, c in enumerate(T_TABLE[k].coeffs):
                    ap_addto(r0[j], d_lin[k - 1], c)
                for j, c in enumerate(U_TABLE[k - 1].coeffs):
                    ap_addto(r1[j], d_lin[k - 1], c)

            def trim(el):
                for coeff in el:
                    while coeff and coeff[-1] == 0:
                        coeff.pop()
                while el and not el[-1]:
                    el.pop()
                return el

            def prem(pa, pb):
                db = len(pb) - 1
                lead = pb[-1]
                r = [list(c) for c in pa]
                while len(r) - 1 >= db:
                    top = r[-1]
                    if not top:
                        r.pop()
                        continue
                    shift = len(r) - 1 - db
                    new = []
                    for j in range(len(r) - 1):
                        term = ap_mul(lead, r[j]) if r[j] else []
                        k = j - shift
                        if 0 <= k < db and pb[k]:
                            sub = ap_mul(top, pb[k])
                            m = max(len(term), len(sub))
                            term = term + [Fraction(0)] * (m - len(term))
                            for t, sv in enumerate(sub):
                                term[t] -= sv
                        new.append([c for c in term])
                    r = trim(new)
                return r

            chain = [trim(r0), trim(r1)]
            while chain[-1] and len(chain[-1]) - 1 >= 1:
                nxt = prem(chain[-2], chain[-1])
                chain.append(nxt)
                if not nxt:
                    break
            term = chain[-1]
            if not term:
                return None
            return term[0]  # exact polynomial in a

        rng = np.random.default_rng(2718)
        checked = 0
        for _ in range(250):
            n = int(rng.integers(2, 6))
            b = tuple(float(v) for v in rng.uniform(-4, 4, n))
            try:
                cands = zero_point_candidates(b, n)
            except DegenerateBoundaryError:
                continue
            valid = [c for c in cands if c.valid and 1e-3 < c.a < 1e3]
            if not valid:
                continue
            eq = exact_terminal(b, n)
            if eq is None:
                continue
            deq = [k * c for k, c in enumerate(eq)][1:]
            for c in valid:
                af = Fraction(c.a)
                t = sum(co * af**k for k, co in enumerate(eq))
                tp = sum(co * af**k for k, co in enumerate(deq))
                if tp == 0:
                    continue
                correction = abs(float(t / tp))
                assert correction <= 1e-7 * max(1.0, c.a), (b, n, c, correction)
                checked += 1
        assert checked > 40

    def test_valid_candidates_put_roots_on_circle(self):
        rng = np.random.default_rng(47)
        confirmed = 0
        for _ in range(150):
            n = int(rng.integers(3, 6))
            b = tuple(rng.uniform(-4, 4, n))
            try:
                cands = zero_point_candidates(b, n)
            except DegenerateBoundaryError:
                continue
            for c in cands:
                if not c.valid:
                    continue
                roots = all_roots(char_poly(b, n, c.a))
                assert min(abs(abs(z) - 1.0) for z in roots) <= 1e-7
                confirmed += 1
        assert confirmed > 30


def bounds_mix_corpus(seed, count):
    """``count`` designs of orders 1-5 cycling, without numpy: even ones
    linear-stable (poles of radius below 0.9, as ``stable_b_sample``), odd
    ones uniform in [-4, 4]."""
    rng = random.Random(seed)
    designs = []
    for i in range(count):
        n = i // 2 % 5 + 1
        if i % 2:
            designs.append(tuple(rng.uniform(-4.0, 4.0) for _ in range(n)))
            continue
        f = [1.0]
        while len(f) <= n:
            if n + 1 - len(f) >= 2 and rng.random() < 0.5:
                r, th = 0.9 * math.sqrt(rng.random()), rng.uniform(0.0, math.pi)
                factor = [r * r, -2.0 * r * math.cos(th), 1.0]
            else:
                factor = [-rng.uniform(-0.9, 0.9), 1.0]
            f = [sum(f[j] * factor[k - j] for j in range(len(f)) if 0 <= k - j < len(factor))
                 for k in range(len(f) + len(factor) - 1)]
        designs.append(tuple(f[n - k] - SHIFTED_ROWS[n][n - k] for k in range(1, n + 1)))
    return designs


# The kernel's output on each design of ``TestEventKernel``'s lower
# branches, as ``generic_event_poly`` and ``_prem`` make it: () where that
# R is a nonzero constant (3, -2, 1, 1 and 1 in turn).
LOWER_BRANCH_FORMS = {
    (1.0, 2.0, 0.0): (),
    (1.0, -2.0, 3.0, 0.0): (),
    (1.0, -2.0, 3.0, 0.5, 0.0): ([-1, 6], [312], [400]),
    (1.0, 1.0, 0.0, -1.0, 0.0): (),
    (1.0, 2.0, -2.0, -1.0, 0.0): None,
    (1.0,): (),
    (1.0, -0.5): (),
    (1.0, 0.0): None,
    (1.0, 0.5, 1.0, 0.0): None,
}


class TestEventKernel:
    def test_kernels_make_the_generic_integers(self):
        # R, A mod R and den mod R, integer for integer, at every order, on
        # the benchmark's design mix and on every family of the pinned
        # corpus, b_n = 0 and reciprocal designs among them: None exactly
        # when R vanishes, and () for a nonzero constant R.
        families = classify_pin_corpus()
        families["bounds mix"] = bounds_mix_corpus(2604, 3000)
        families["lower branches"] = list(LOWER_BRANCH_FORMS)
        shapes = set()  # (n, length of R) seen
        for name, designs in families.items():
            for b in designs:
                n, (ints, s) = len(b), _scaled(b)
                forms = boundary._kernel(n)(b)[1]
                event, num, den = generic_event_poly(ints, s, n)
                if not event:
                    assert forms is None, (name, b)
                elif len(event) == 1:
                    assert forms == (), (name, b)
                else:
                    assert forms == (event, _prem(num, event), _prem(den, event)), (name, b)
                shapes.add((n, len(event)))
        # every degree R can have at every order, and R = 0
        assert shapes == {(n, length) for n in range(1, 6) for length in range((n + 1) // 2 + 1)}

    @pytest.mark.parametrize("b, candidates", [
        ((1.0, 2.0, 0.0), []),  # order 3, b3 = 0: R is the constant b1 + b2
        ((1.0, -2.0, 3.0, 0.0), []),  # order 4, b4 = 0: R is the constant b1 - b3
        # order 5, b5 = 0: R = 6x - 1 drops to degree 1, and A = 9 - 2x
        # over 16*(1 - x)**2 is reduced in two steps
        ((1.0, -2.0, 3.0, 0.5, 0.0), [ZeroPointCandidate(a=0.78, x=1 / 6, valid=True)]),
        ((1.0, 2.0, -2.0, -1.0, 0.0), None),  # reciprocal: R vanishes identically
        ((1.0, 1.0, 0.0, -1.0, 0.0), []),  # order 5, b5 = 0 and b4 = -b1: R is the constant 1
        ((1.0,), []),  # orders 1 and 2: R is the constant b1 or -b2
        ((1.0, -0.5), []),
        ((1.0, 0.0), None),  # order 2, b2 = 0: R vanishes identically
        ((1.0, 0.5, 1.0, 0.0), None),  # reciprocal at order 4
    ])
    def test_each_fallback_is_reached(self, b, candidates):
        # Each branch below R's full degree, pinned to the generic solve's
        # integers: a constant R has no event, and R = 0 is a continuum.
        n = len(b)
        assert boundary._kernel(n)(b)[1] == LOWER_BRANCH_FORMS[b]
        if candidates is None:
            with pytest.raises(DegenerateBoundaryError):
                zero_point_candidates(b, n)
        else:
            assert zero_point_candidates(b, n) == candidates

    def test_kernels_build_once_per_order(self):
        first = boundary._kernel(3)
        assert boundary._kernel(3) is first
        assert boundary._kernel(4) is not first

    def test_kernel_head_is_the_scaled_design(self):
        # The head each kernel makes is b scaled by _scaled, a_min rounded
        # once from the alternating sum of those integers and v with the
        # weights (-1)**(k-1) * (2k - n), compared by repr so that the sign
        # of a zero a_min counts.
        families = classify_pin_corpus()
        families["bounds mix"] = bounds_mix_corpus(2604, 3000)
        families["lower branches"] = list(LOWER_BRANCH_FORMS)
        rng = random.Random(2910)
        edges = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)
        families["subnormal, zero and 1e300"] = [(e,) for e in edges] + [
            tuple(rng.choice(edges + (rng.randint(-9, 9) * 5e-324, rng.uniform(-4.0, 4.0))) for _ in range(i % 5 + 1))
            for i in range(3000)]
        negative_zero = 0
        for name, designs in families.items():
            for b in designs:
                n, (ints, s) = len(b), _scaled(b)
                a_min = _div(sum(ints[::2]) - sum(ints[1::2]), 1 << (s + n))
                v = sum((-1) ** (k - 1) * (2 * k - n) * c for k, c in enumerate(ints, 1))
                head = boundary._kernel(n)(b)[0]
                assert repr(head) == repr((ints, s, a_min, v)), (name, b)
                negative_zero += repr(a_min) == "-0.0"
        assert negative_zero > 10


class TestIMaxOrder3:
    def test_worked_design(self):
        a, valid = i_max_order3(B3)
        assert a == 2.0
        assert valid

    def test_crossing_location_outside(self):
        a, valid = i_max_order3((1.0, 0.5, 0.1))
        assert a == pytest.approx(0.05625, abs=1e-15)
        assert not valid

    def test_zero_numerator(self):
        a, _ = i_max_order3((1.0, 1.0, 1.0))
        assert a == 0.0

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            i_max_order3((1.0, -2.0, 1.0))

    def test_zero_b3_has_no_crossing(self):
        # x = (b3 - b1 - b2) / (2*b3) is undefined: no candidate, and the flag is off.
        assert i_max_order3((1.0, 0.5, 0.0)) == (0.0, False)
        assert zero_point_candidates((1.0, 0.5, 0.0), 3) == []

    @pytest.mark.parametrize("b, want", [
        ((2.13563380706334, -1.0488567696704658, 0.5244283848352334), True),  # x = -0.536
        ((-1.8509460352747888, -0.7337483870905733, 0.3668741935452866), False),  # x = 4.02
        ((1e300, 1.0, 1e10), False),  # a = 1e10, x = -5e289: no overflow
        ((1e300, 1.0, 1e300), True),  # a = 0, x = -5e-301
        ((3.0, -2.0, 1.0), True),  # b2 = -2*b3: a = b3 = 1, x = 0
        ((5.0, -4.0, 2.0), True),  # b2 = -2*b3: a = b3 = 2, x = 0.25
    ])
    def test_float_rounding_decides_nothing(self, b, want):
        # The float closed form once got the first four wrong, or refused
        # them; the form with x = 0/0 at b2 = -2*b3 called the last two invalid.
        (c,) = zero_point_candidates(b, 3)
        assert i_max_order3(b) == (c.a, want) and c.valid == want

    def test_equals_the_order3_candidate(self):
        # At order 3 the event polynomial is linear, so the one candidate is
        # exact; so is the closed form, which must give the same floats.
        def corpus():
            rng = random.Random(61)
            for _ in range(1000):
                yield tuple(rng.uniform(-4.0, 4.0) for _ in range(3))
                b3 = rng.uniform(-4.0, 4.0)  # b2 next to -2*b3, where b3 - a nearly cancels
                yield rng.uniform(-4.0, 4.0), -2.0 * b3 * (1.0 + rng.choice((-1, 1)) * rng.randint(1, 4) * 2.0**-52), b3
                yield rng.uniform(-4.0, 4.0), -2.0 * b3, b3  # exactly, where a = b3
                yield tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0) for _ in range(3))

        checked = 0
        for b in corpus():
            try:
                cands = zero_point_candidates(b, 3)
            except DegenerateBoundaryError:
                continue
            for c in cands:
                assert repr(i_max_order3(b)) == repr((c.a, c.valid)), b
                checked += 1
        assert checked > 1900

    def test_matches_bisection_on_random_designs(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 40:
            b = tuple(rng.uniform(-4, 4, 3))
            if abs(math.fsum(b)) < 1e-6:
                continue
            try:
                a, valid = i_max_order3(b)
            except ValueError:
                continue
            if not valid or a <= 1e-3:
                continue
            lo, hi = a * 0.99, a * 1.01
            try:
                flip = bisect_boundary(b, 3, lo, hi)
            except ValueError:
                continue
            assert abs(a - flip) <= 1e-6 * max(1.0, a)
            checked += 1


class TestT2Order5:
    def test_basis_unit_vectors(self):
        def mk(*d):
            return DCoeffs(d=tuple(float(v) for v in d), a=0.0)

        assert t2_order5(mk(0, 1, 0, 0, 0)) == Poly([1.0])
        assert t2_order5(mk(0, 0, 0, 0, 1)) == Poly([0.0, -4.0, 0.0, 8.0])
        assert t2_order5(mk(0, 0, 0, 1, 0)) == Poly([-1.0, 0.0, 4.0])

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            t2_order5(d_coeffs((1.0, 2.0, 3.0), 3, 0.0))

    def test_remainder_identity_random(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            d = tuple(rng.uniform(-4, 4, 5))
            a = float(rng.uniform(0, 4))
            r0 = cheb_expand(d, a, "cosine")
            r1 = cheb_expand(d, kind="sine")
            _, rem = P.polydiv(r0.coeffs, r1.coeffs)
            expect = P.polysub([a], t2_order5(DCoeffs(d=d, a=a)).coeffs)
            scale = max(np.abs(expect).max(), 1e-30)
            assert np.abs(P.polysub(rem, expect)).max() <= 1e-9 * scale


class TestCrossingParam:
    def test_worked_design(self):
        cands = crossing_param(B3, 3)
        assert len(cands) == 1
        assert cands[0].a == pytest.approx(2.0, abs=1e-8)
        assert cands[0].x == pytest.approx(0.5, abs=1e-8)
        assert cands[0].valid

    def test_no_interior_crossing(self):
        assert crossing_param((1.0, 0.5, 0.1), 3) == []

    def test_endpoint_reproduces_lower_bound(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            b = tuple(rng.uniform(-4, 4, n))
            val = crossing_value(b, n, math.pi)
            assert abs(val.real - i_min(b, n)) <= 1e-10
            assert abs(val.imag) <= 1e-10

    def test_cross_oracle_agreement(self):
        rng = np.random.default_rng(67)
        pairs = 0
        for n in (3, 4, 5):
            for _ in range(500):
                b = tuple(rng.uniform(-4, 4, n))
                try:
                    chain = [c for c in zero_point_candidates(b, n) if c.valid]
                except DegenerateBoundaryError:
                    continue
                scan = crossing_param(b, n)
                for c in chain:
                    # Boundary events out at a ~ 1e6 are grazing crossings
                    # whose location is ill-conditioned for any method.
                    if not c.a < 1e3:
                        continue
                    match = min(
                        (abs(c.a - s.a) for s in scan), default=math.inf
                    )
                    assert match <= 1e-8 * max(1.0, c.a)
                    pairs += 1
        assert pairs > 200


class TestClassifyIntervals:
    def test_worked_design(self):
        rep = classify_intervals(B3, 3)
        assert rep.sum_b == 1.0
        assert rep.a_min == 0.875
        assert len(rep.intervals) == 3
        first, mid, tail = rep.intervals
        assert (first.lo, first.hi) == (0.0, 0.875)
        assert not first.stable
        assert mid.lo == 0.875
        assert mid.hi == pytest.approx(2.0, abs=1e-9)
        assert mid.stable
        assert mid.witness_a == 1.0
        assert mid.witness_count == 3
        assert math.isinf(tail.hi)
        assert not tail.stable

    def test_all_unstable_when_sum_nonpositive(self):
        rep = classify_intervals((1.0, -2.0, 1.0), 3)
        assert rep.sum_b == 0.0
        assert len(rep.intervals) == 1
        assert not rep.intervals[0].stable
        assert math.isinf(rep.intervals[0].hi)
        assert rep.candidates == ()

    def test_nonpositive_sum_is_unstable_even_when_the_probe_rounds_inside(self):
        # fsum(b) == 0 puts an exact root at z = 1, but both roots of the
        # rounded F at a = 1 lie about 3.7e-9 inside the circle, past the
        # marginal radius: a count of the rounded F would call it stable.
        # The probe counts the exact F, whose root on the circle leaves no count.
        v = 2.0**-27 + 2.0**-53 + 2.0**-60
        assert count_inside_e1(char_poly((v, -v), 2, 1.0)).inside == 2
        rep = classify_intervals((v, -v), 2)
        assert rep.sum_b == 0.0
        assert len(rep.intervals) == 1
        (only,) = rep.intervals
        assert (only.lo, only.hi, only.witness_a) == (0.0, math.inf, 1.0)
        assert (only.stable, only.witness_count) == (False, None)

    def test_interval_between_adjacent_floats(self):
        # a_min = 5e-324 leaves (0, 5e-324), which holds no float: the
        # midpoint rounds to 0, so the witness is the edge 5e-324, where
        # F = a*(z + 1) has its root on the circle.
        rep = classify_intervals((1e-323,), 1)
        assert [(iv.lo, iv.hi, iv.stable, iv.witness_a, iv.witness_count) for iv in rep.intervals] == [
            (0.0, 5e-324, False, 5e-324, None), (5e-324, math.inf, True, 1.0, 1)]

    def test_oracle_driven_classification(self):
        rep = classify_intervals((1.0, 1.0, 1.0), 3)
        assert rep.a_min == 0.125
        assert rep.intervals[0].lo == 0.0
        assert math.isinf(rep.intervals[-1].hi)
        for prev, nxt in zip(rep.intervals, rep.intervals[1:]):
            assert prev.hi == nxt.lo
        for iv in rep.intervals:
            assert iv.witness_count is not None
            roots = all_roots(char_poly((1.0, 1.0, 1.0), 3, iv.witness_a))
            assert iv.stable == all(abs(z) < 1.0 for z in roots)

    def test_linear_case_anchor(self):
        # Designs whose linear model (a = 1) is stable by construction.
        rng = np.random.default_rng(71)
        anchored = 0
        for _ in range(120):
            n = int(rng.integers(1, 6))
            b = stable_b_sample(rng, n)
            try:
                rep = classify_intervals(b, n)
            except DegenerateBoundaryError:
                continue
            hit = [iv for iv in rep.intervals if iv.lo < 1.0 < iv.hi]
            assert len(hit) == 1 and hit[0].stable
            anchored += 1
        assert anchored > 100

    def test_reciprocal_design_falls_back_to_scan(self):
        # A continuum design has no isolated events: the only edge is a_min,
        # and the probes find both sides unstable.
        rep = classify_intervals((1.0, 0.0), 2)
        assert rep.candidates == ()
        assert [iv.lo for iv in rep.intervals] == [0.0, 0.25]
        assert all(not iv.stable for iv in rep.intervals)

    def test_intervals_correct_throughout_their_extent(self):
        # The verdict must hold across each whole interval, not just at the
        # witness: any missed boundary event would flip some interior probe.
        # Half the designs have a stable linear model, where stable
        # intervals (and so falsely-stable ones) are common.
        rng = np.random.default_rng(424242)
        probes = 0
        for i in range(300):
            n = int(rng.integers(1, 6))
            b = stable_b_sample(rng, n) if i % 2 else tuple(rng.uniform(-4, 4, n))
            rep = classify_intervals(b, n)
            for iv in rep.intervals:
                hi = iv.lo + 10.0 * max(iv.lo, 1.0) if math.isinf(iv.hi) else iv.hi
                for u in (0.11, 0.37, 0.63, 0.89):
                    a = iv.lo + (hi - iv.lo) * u
                    if a <= 1e-9:
                        continue
                    roots = all_roots(char_poly(b, n, a))
                    if min(abs(abs(z) - 1.0) for z in roots) < 1e-7:
                        continue  # too close to a flip to trust either side
                    assert iv.stable == all(abs(z) < 1.0 for z in roots), (b, n, iv, a)
                    probes += 1
        assert probes > 1200

    def test_edges_scale_with_b(self):
        # F(z; a) scales with (a, b), and every edge is the float nearest an
        # exact value, so scaling b by 2**j scales each edge by exactly 2**j.
        # The a = 1 witness is not scale-free, so only edges are compared.
        rng = random.Random(13)
        scaled = 0
        for i in range(840):
            n = i % 5 + 1
            b = stable_b_sample(rng, n) if i % 2 else tuple(rng.uniform(-4, 4) for _ in range(n))
            edges = [iv.lo for iv in classify_intervals(b, n).intervals]
            for j in (-60, -40, -30, 20, 40):
                got = [iv.lo for iv in classify_intervals([math.ldexp(v, j) for v in b], n).intervals]
                assert got == [math.ldexp(e, j) for e in edges], (b, n, j)
                scaled += len(edges) > 1
        assert scaled > 2000

    def test_adjacent_counts_differ_by_the_roots_that_cross(self):
        # One real root crosses at z = -1 at a_min and conjugate pairs cross
        # at an interior event, so across a_min the witness counts differ by
        # an odd number, across any other edge by an even one.
        rng = random.Random(4)
        edges = 0
        for i in range(6000):
            n = i % 5 + 1
            b = stable_b_sample(rng, n) if i % 2 else tuple(rng.uniform(-4, 4) for _ in range(n))
            rep = classify_intervals(b, n)
            for left, right in zip(rep.intervals, rep.intervals[1:]):
                if left.witness_count is None or right.witness_count is None:
                    continue
                odd = (left.witness_count - right.witness_count) % 2 == 1
                assert odd == (left.hi == rep.a_min), (b, n, left, right)
                edges += 1
        assert edges > 2000

    def test_every_stepped_count_is_the_probes(self, monkeypatch):
        # Only sum(b) <= 0, a continuum, a valid event past the float range,
        # the intervals below a crossing with no sign and an interval holding
        # no float are probed; every other count is stepped down from the
        # a -> inf limit by the turn at each edge.  Each interval's verdict and count equal the exact
        # probe's at its witness, stepped or not.
        probe, probed = boundary._probe, []

        def recording(ints, s, n, a):
            probed.append(a)
            return probe(ints, s, n, a)

        rng = random.Random(2106)
        designs = [b for family in classify_pin_corpus().values() for b in family]
        designs += near_cancelling_corpus()
        designs += [stable_b_sample(rng, i % 5 + 1) if i % 2 else tuple(rng.uniform(-4, 4) for _ in range(i % 5 + 1))
                    for i in range(6000)]
        monkeypatch.setattr(boundary, "_probe", recording)
        stepped, pairs = [0] * 6, {-2: 0, 2: 0}
        for b in designs:
            n = len(b)
            probed.clear()
            try:
                rep = classify_intervals(b, n)
            except ValueError:
                continue
            ints, s = _scaled(b)
            for iv in rep.intervals:
                assert (iv.stable, iv.witness_count) == probe(ints, s, n, iv.witness_a), (b, n, iv)
                stepped[n] += iv.witness_a not in probed
            valid = {c.a for c in rep.candidates if c.valid}
            for below, above in zip(rep.intervals, rep.intervals[1:]):
                if below.hi in valid and below.hi != rep.a_min and not probed:
                    turn = above.witness_count - below.witness_count
                    assert turn in pairs, (b, n, below, above)
                    pairs[turn] += 1
        assert min(stepped[1:]) > 3000 and min(pairs.values()) > 1000, (stepped, pairs)

    @pytest.mark.parametrize(
        "b, a_min, candidates, intervals",
        [
            # A tangent interior event (a double root of R): a zero turn.
            ((-4.0, 2.0, 1.0, 1.0, 3.0), -0.09375, [(6.0, 0.5, True)],
             [(0.0, 6.0, False, 1.0, 3), (6.0, math.inf, False, 61.0, 3)]),
            # R's double root is at a < 0, so a_min is the one edge.
            ((3.0, 5.0, 5.0, 3.0, 2.0), 0.0625, [],
             [(0.0, 0.0625, False, 0.03125, 2), (0.0625, math.inf, False, 1.0, 3)]),
            # v = 0: two real roots meet at z = -1 at a_min, a zero turn.
            ((3.0, 0.0, 1.0), 0.5, [(0.5, -1.0, False)],
             [(0.0, 0.5, False, 0.25, 2), (0.5, math.inf, False, 1.0, 1)]),
            # Order 2 with b2 < 0: the pair's limit is inside.
            ((1.0, -0.5), 0.375, [],
             [(0.0, 0.375, False, 0.1875, 1), (0.375, math.inf, True, 1.0, 2)]),
        ],
    )
    def test_turn_fallbacks_and_order2_limits_pinned(self, b, a_min, candidates, intervals):
        rep = classify_intervals(b, len(b))
        assert rep.a_min == a_min
        assert [(c.a, c.x, c.valid) for c in rep.candidates] == candidates
        assert [(iv.lo, iv.hi, iv.stable, iv.witness_a, iv.witness_count) for iv in rep.intervals] == intervals

    def test_the_lowest_count_is_the_count_of_d(self):
        # As a -> 0+, deg D of the roots of F(z; a) tend to the roots of D
        # and the others go to infinity.  So when sum(b) > 0, D is not
        # constant and no root of D is on the circle, stepping down from the
        # a -> inf limit through every turn lands, in the lowest interval,
        # on the exact count of D that check prints at a = 0.
        rng = random.Random(2609)
        designs = bounds_mix_corpus(2609, 4000)
        designs += [tuple(float(rng.randint(-4, 4)) for _ in range(i % 5 + 1)) for i in range(2000)]
        designs += [tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(i % 5 + 1))
                    for i in range(2000)]
        checked = 0
        for b in designs:
            n = len(b)
            if math.fsum(b) <= 0.0 or not any(b[:-1]):
                continue
            inside = _count_at(b, n, 0.0).inside
            if inside is None:
                continue
            assert classify_intervals(b, n).intervals[0].witness_count == inside, b
            checked += 1
        assert checked > 3000, checked

    def test_b_is_checked_once_per_call(self, monkeypatch):
        check, calls = boundary._check_coeffs, []

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(boundary, "_check_coeffs", counting)
        # worked, sum(b) <= 0, reciprocal (a continuum) and first-order designs
        for b in (B3, (1.0, -2.0, 1.0), (1.0, 0.0), (1.0,), [2, -1.5, 0.75, -0.125]):
            calls.clear()
            classify_intervals(b, len(b))
            assert len(calls) == 1

    def test_b_is_scaled_once_per_call(self, monkeypatch):
        # The order's kernel scales b, once per call; _scaled is not called.
        kernel, scaled, calls = boundary._kernel, winding._scaled, []

        def counting_kernel(n):
            def counted(b):
                calls.append("kernel")
                return kernel(n)(b)
            return counted

        def counting_scaled(*args):
            calls.append("_scaled")
            return scaled(*args)

        monkeypatch.setattr(boundary, "_kernel", counting_kernel)
        monkeypatch.setattr(boundary, "_scaled", counting_scaled)
        monkeypatch.setattr(winding, "_scaled", counting_scaled)
        # worked, sum(b) <= 0, reciprocal (a continuum) and first-order
        # designs, and one whose witness 3/32 has more fractional bits than b
        designs = (B3, (1.0, -2.0, 1.0), (1.0, 0.5, 1.0, 0.0), (1.0,), [2, -1.5, 0.75, -0.125], (4.0, 0.0, 2.0, 3.0))
        for b in designs:
            calls.clear()
            rep = classify_intervals(b, len(b))
            assert calls == ["kernel"] and len(rep.intervals) >= 1

    def test_boundary_past_the_float_range_is_refused_before_any_probe(self, monkeypatch):
        probe, calls = boundary._probe, []

        def counting(*args):
            calls.append(args)
            return probe(*args)

        monkeypatch.setattr(boundary, "_probe", counting)
        # The interior event is at a ~ 1.0e307, so F at the witness past it,
        # 10*a + 1 ~ 1e308, would overflow: the design is refused unprobed.
        with pytest.raises(ValueError, match="^the stability boundary overflows the float range"):
            classify_intervals((2e299, -2.99999999e299, 1e299), 3)
        assert calls == []
        # Each count is stepped down from the a -> inf limit by the exact
        # turn at each edge: no probe for B3 (a_min and an interior event),
        # order 2 with b2 > 0 and b2 < 0, and (3, 5, 5, 3, 2), whose tangent
        # event has a < 0 and so is no edge.
        for b in (B3, (1.0, 0.5), (1.0, -0.5), (3.0, 5.0, 5.0, 3.0, 2.0)):
            calls.clear()
            assert len(classify_intervals(b, len(b)).intervals) > 1 and calls == [], b
        # sum(b) <= 0 takes one probe for its one interval.
        calls.clear()
        assert len(classify_intervals((1.0, -2.0, 1.0), 3).intervals) == len(calls) == 1
        # A reciprocal design (a continuum) and a valid event past the float
        # range are probed at every interval.
        for b in ((1.0, 0.5, 1.0, 0.0), OVERFLOW_EVENT_B):
            calls.clear()
            assert len(classify_intervals(b, len(b)).intervals) == len(calls) > 1, b
        # A tangent interior event at a = 6 and a double root at z = -1 at
        # a_min = 0.5 (v = 0) cross with no sign: every interval below that
        # edge is probed, and none at or above it.
        for b, edge in (((-4.0, 2.0, 1.0, 1.0, 3.0), 6.0), ((3.0, 0.0, 1.0), 0.5)):
            calls.clear()
            below = [iv.witness_a for iv in classify_intervals(b, len(b)).intervals if iv.hi <= edge]
            assert below and [args[3] for args in calls] == below[::-1], b

    def test_top_witness_is_checked_only_near_overflow(self, monkeypatch):
        # With |b_k| <= 1e300 and binomials of at most 10, F at a top
        # witness below 1e307 has finite coefficients, so only a larger one
        # is checked.  This design's last event puts it at ~1.67e307: the
        # check runs, every coefficient is finite, and the design is
        # classified, not refused.
        check, calls = boundary._check_result, []

        def counting(vals, name):
            calls.append(list(vals))
            return check(vals, name)

        monkeypatch.setattr(boundary, "_check_result", counting)
        last = classify_intervals((2e299, -2.99999994e299, 1e299), 3).intervals[-1]
        assert 1e307 <= last.witness_a < 2e307 and last.hi == math.inf
        assert last.witness_count == 1 and not last.stable
        (coeffs,) = calls  # below z**3, whose coefficient is the witness itself
        assert len(coeffs) == 3 and all(map(math.isfinite, coeffs))
        calls.clear()
        assert len(classify_intervals(B3, 3).intervals) == 3 and calls == []

    def test_past_the_last_event_the_count_is_the_limit(self):
        # With sum(b) > 0 the roots gather at z = 1 + (sum(b)/a)**(1/n) * w,
        # w**n = -1, as a -> inf, and those with Re w < 0 are inside: the
        # last interval's count is the probe's at its witness, designs whose
        # valid event lies past the float range included (there the limit
        # does not hold past the last edge).
        designs = [b for family in classify_pin_corpus().values() for b in family]
        designs += near_cancelling_corpus()
        checked = beyond = 0
        for b in designs:
            n = len(b)
            try:
                rep = classify_intervals(b, n)
            except ValueError:
                continue
            last = rep.intervals[-1]
            _, count = boundary._probe(*_scaled(b), n, last.witness_a)
            assert (last.witness_count, last.stable) == (count, count == n), (b, n)
            checked += 1
            forms = boundary._kernel(n)(b)[1]
            if rep.sum_b > 0.0 and forms is not None:
                beyond += boundary._zero_point_candidates(forms)[1]
        assert checked > 5000 and beyond > 100
        last = classify_intervals(OVERFLOW_EVENT_B, 3).intervals[-1]
        assert (last.lo, last.hi, last.stable, last.witness_count) == (2.2499999999999994e299, math.inf, True, 3)
        assert zero_point_candidates(OVERFLOW_EVENT_B, 3) == []


def near_cancelling_corpus():
    """4,000 seeded designs of orders 1-5 with ``|b_k|`` up to 1e300 and
    ``sum(b)`` a few ulps above 0, so that their events overflow."""
    rng = random.Random(1704)

    def near_cancelling(n):
        scale = 10.0 ** rng.uniform(250.0, 300.0) / n
        b = [rng.uniform(-1.0, 1.0) * scale for _ in range(n - 1)]
        last = -math.fsum(b)
        for _ in range(rng.randint(1, 4)):
            last = math.nextafter(last, math.inf)
        return tuple(b + [last])

    return [near_cancelling(i % 5 + 1) for i in range(4000)]


def classify_pin_corpus():
    """Seeded designs of orders 1-5 from five coefficient families, and edge
    designs: reciprocal (a continuum), refused past the float range, and
    ``bounds --b=1e-323``, whose interval ``(0, 5e-324)`` has a root on the
    circle at its witness."""
    rng = random.Random(1702)
    draws = {
        "uniform": lambda: rng.uniform(-4.0, 4.0),
        "log-uniform 1e+-300": lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0),
        "small integers": lambda: float(rng.randint(-4, 4)),
        "subnormal": lambda: rng.randint(-9, 9) * 5e-324,
        "log-uniform 1e+-12": lambda: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 12.0),
    }
    corpus = {name: [tuple(draw() for _ in range(i % 5 + 1)) for i in range(500)]
              for name, draw in draws.items()}
    reciprocal = []
    for i in range(60):
        n = i % 3 + 3
        b = [rng.uniform(-4.0, 4.0) for _ in range(n)]
        b[n - 1] = 0.0
        for k in range(n // 2 + 1, n):
            b[k - 1] = (-1.0) ** n * b[n - k - 1]
        reciprocal.append(tuple(b))
    corpus["edges"] = reciprocal + [
        (1e-323,), (1e-10,), (2e-9,), B3, (3.0, -2.0, 1.0), (4.0, 0.0, 2.0, 3.0), (1.0, 0.0),
        (2e299, -2.99999999e299, 1e299), (1e300, -1e300, 1e300),
    ]
    return corpus


# sha256 of the reprs (or exception types and messages) of each family's
# reports, taken before the probes shared one scaling of b per design.
CLASSIFY_PINS = {
    "uniform": "fc136647f291a06dd46c264b61e020133d2f60007280146014d8cdb5b3695c03",
    "log-uniform 1e+-300": "64f7fd48fcbe9fcff1c1972cd12b116b7e8d1cf9664fe0a9163add5f7244668f",
    "small integers": "7b5a5356447a42437cb2d403743bb1db3c5b6788543067a512701568e9bc2bd7",
    "subnormal": "4985577076c58c4996cf65a350e20a92246b593efdb4ad12103f0515b860e5ba",
    "log-uniform 1e+-12": "88f79aab9f4e8e5f6276479064498da6cbc5740f082e543776aa49425f98ec6b",
    "edges": "daf999111a2bc8dbc5537a0ed06af91fdc2c357d62b8d1f41c7109c992b42b0d",
}


def _pinned_report(b):
    try:
        return classify_intervals(b, len(b))
    except ValueError as exc:
        return exc


def _shown(report):
    return f"{type(report).__name__}: {report}" if isinstance(report, ValueError) else repr(report)


def test_classify_intervals_repr_pinned():
    got, finer, refused = {}, 0, 0
    for name, designs in classify_pin_corpus().items():
        reports = [_pinned_report(b) for b in designs]
        shown = [_shown(r) for r in reports]
        got[name] = hashlib.sha256("\n".join(shown).encode()).hexdigest()
        for b, rep in zip(designs, reports):
            if isinstance(rep, ValueError):
                refused += 1
                continue
            # witnesses with more fractional bits than every b_k
            bits = max(v.as_integer_ratio()[1] for v in b)
            finer += sum(iv.witness_a.as_integer_ratio()[1] > bits for iv in rep.intervals)
    assert finer > 100 and refused > 0
    assert got == CLASSIFY_PINS


def test_classify_intervals_reads_the_forms_alone(monkeypatch):
    # An R that vanishes identically is a form like any other: classifying
    # builds no DegenerateBoundaryError, and every pinned design, the
    # reciprocal ones and order 2's b2 = 0 among them, gets the same report.
    designs = [b for family in classify_pin_corpus().values() for b in family]
    expected = [_shown(_pinned_report(b)) for b in designs]

    class Unbuilt(ValueError):
        def __init__(self, *args):
            raise AssertionError("classify_intervals built a DegenerateBoundaryError")

    monkeypatch.setattr(boundary, "DegenerateBoundaryError", Unbuilt)
    assert sum(boundary._kernel(len(b))(b)[1] is None for b in designs) > 60
    assert (1.0, 0.0) in designs
    assert [_shown(_pinned_report(b)) for b in designs] == expected
    with pytest.raises(AssertionError):
        zero_point_candidates((1.0, 0.0), 2)


class TestBisectBoundary:
    def test_upper_flip(self):
        assert bisect_boundary(B3, 3, 1.0, 3.0) == pytest.approx(2.0, abs=1e-9)

    def test_lower_flip(self):
        assert bisect_boundary(B3, 3, 0.5, 1.0) == pytest.approx(0.875, abs=1e-9)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            bisect_boundary(B3, 3, 1.0, 1.5)  # both stable


class TestReportSerialization:
    def test_json_round_trip(self):
        rep = classify_intervals(B3, 3)
        doc = asdict(rep)
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["sum_b"] == rep.sum_b
        assert back["a_min"] == rep.a_min
        assert len(back["intervals"]) == len(rep.intervals)
        assert back["intervals"][1]["stable"] is True
        assert back["intervals"][2]["hi"] == math.inf
