import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

import sdmstab.boundary as boundary
from oracles import all_roots, bisect_boundary, crossing_param
from sdmstab.boundary import (
    DegenerateBoundaryError,
    classify_intervals,
    crossing_value,
    i_max_order3,
    i_min,
    t2_order5,
    zero_point_candidates,
)
from sdmstab.cli import asdict
from sdmstab.polynomial import Poly, binom_power, cheb_expand, poly_rem
from sdmstab.transfer import DCoeffs, char_poly, d_coeffs
from test_acceptance import stable_b_sample

B3 = (3.0, -3.0, 1.0)


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


class TestZeroPointCandidates:
    def test_worked_design_single_valid(self):
        cands = zero_point_candidates(B3, 3)
        valid = [c for c in cands if c.valid]
        assert len(valid) == 1
        assert valid[0].a == pytest.approx(2.0, abs=1e-9)
        assert valid[0].x == pytest.approx(0.5, abs=1e-9)

    def test_a_from_either_profile(self):
        # The cosine profile's a-term q0 = -2*(x-1)**2*(2x+1) vanishes at
        # this event (x = -1/2), the sine profile's q1 at the worked one.
        (cand,) = zero_point_candidates((3.0, -1.0, 1.0), 3)
        assert cand.valid and cand.x == -0.5
        assert cand.a == pytest.approx(2.0 / 3.0, abs=1e-12)

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
        # factor (1 - x)**(n // 2) and one constant per order divided out.
        from sdmstab.boundary import _event_poly

        rng = np.random.default_rng(89)
        for n in range(1, 6):
            binom = [math.comb(n, k) * (-1.0) ** k for k in range(1, n + 1)]
            q0, q1 = cheb_expand(binom, 1.0), cheb_expand(binom, kind="sine")
            consts = []
            for _ in range(20):
                b = tuple(rng.uniform(-4, 4, n))
                p0, p1 = cheb_expand(b), cheb_expand(b, kind="sine")
                eliminant = (p0 * q1 - p1 * q0).coeffs
                deflated = (_event_poly(b, n) * binom_power(n // 2)).coeffs
                e, r = np.zeros(2 * n), np.zeros(2 * n)
                e[: len(eliminant)], r[: len(deflated)] = eliminant, deflated
                c = float(e @ r / (r @ r))
                tol = 1e-12 * np.abs(e).max()
                assert np.abs(e - c * r).max() <= tol
                assert np.abs(e[n:]).max() <= tol  # structural degree n - 1
                consts.append(c)
            assert max(consts) - min(consts) <= 1e-12 * abs(consts[0])

    def test_event_roots_match_exact_arithmetic(self):
        # The float closed-form solve checked in rational arithmetic, on
        # event polynomials whose coefficients span the whole float range.
        # The number of roots comes from the exact discriminant and the exact
        # signs at +-(largest float); each real root must be bracketed by an
        # exact sign change within 1e-12 relative (or two subnormal steps),
        # unless both roots fall in its bracket, and a tangency root must
        # sit at the exact vertex.
        from sdmstab.boundary import _event_roots

        big = Fraction(sys.float_info.max)

        def sign(p, x):
            return (p[0] + p[1] * x + (p[2] * x * x if len(p) == 3 else 0)) > 0

        def near(x, r):
            return abs(Fraction(x) - r) <= Fraction(1e-12) * abs(r) + Fraction(2.0**-1073)

        # Conjugate pairs +-i*w just inside and outside the tangency rule,
        # with all coefficients scaled by powers of two.
        cases = [[e * w * w, 0.0, e] for w in (0.9e-8, 1.1e-8) for e in (1.0, 2.0**600, 2.0**-600)]
        rng = random.Random(61)
        for _ in range(3000):
            degree = rng.choice((1, 2, 2, 2))
            c = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 300) for _ in range(degree + 1)]
            if rng.random() < 0.2:
                c[rng.randrange(degree)] = 0.0
            cases.append(c)
        for c in cases:
            degree = len(c) - 1
            got = _event_roots(Poly(c))
            p = [Fraction(v) for v in c]
            assert got == sorted(got) and all(math.isfinite(x) for x in got), (c, got)
            if degree == 1:
                r = -p[0] / p[1]
                assert [near(x, r) for x in got] == ([True] if abs(r) < big else []), (c, got)
                continue
            vertex = -p[1] / (2 * p[2])
            disc = p[1] ** 2 - 4 * p[0] * p[2]
            if disc <= 0:
                # one root if the pair is a tangency: |Im| <= 1e-8*(1+|Re|)
                tangent = -disc / (4 * p[2] ** 2) <= (Fraction(1e-8) * (1 + abs(vertex))) ** 2
                assert [near(x, vertex) for x in got] == ([True] if tangent else []), (c, got)
                continue
            up = p[2] > 0  # the sign of p beyond both roots
            count = (vertex < big and sign(p, big) == up) + (vertex > -big and sign(p, -big) == up)
            merged = 0  # both roots inside one bracket: they round to one float
            for x in got:
                d = max(abs(Fraction(x)) * Fraction(1e-12), Fraction(2.0**-1073))
                lo, hi = Fraction(x) - d, Fraction(x) + d
                both = sign(p, lo) == sign(p, hi) == up and lo < vertex < hi
                assert both or sign(p, lo) != sign(p, hi), (c, got)
                merged += both
            assert len(got) + merged == count, (c, got)

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
        from sdmstab.polynomial import chebyshev_t, chebyshev_u

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
                for j, c in enumerate(chebyshev_t(k).coeffs):
                    ap_addto(r0[j], d_lin[k - 1], c)
                for j, c in enumerate(chebyshev_u(k - 1).coeffs):
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
            _, rem = poly_rem(r0, r1)
            expect = Poly([a]) - t2_order5(DCoeffs(d=d, a=a))
            scale = max(expect.scale_max(), 1e-30)
            diff = rem - expect
            assert diff.scale_max() <= 1e-9 * scale


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
        # An ordinary design takes one probe per interval, no more.
        assert len(classify_intervals(B3, 3).intervals) == len(calls) == 3


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
