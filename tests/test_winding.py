import hashlib
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import sdmstab.winding as winding
from oracles import all_roots, count_inside_eig, jury_stable, winding_oracle
from sdmstab.polynomial import Poly, _scaled
from sdmstab.transfer import char_poly
from sdmstab.winding import RootCountResult, characteristic_points, contour_table, count_inside_e1
from test_acceptance import stable_b_sample
from test_validation import schur_cohn_inside

FIG2 = Poly([0.75, 0.5, 1.0])  # z^2 + z/2 + 3/4


class TestCharacteristicPoints:
    def test_fig2_values(self):
        cp = characteristic_points(FIG2)
        assert cp.w_plus == 2.25
        assert cp.w_minus == 1.25
        assert len(cp.selfx) == 1
        assert cp.selfx[0].x == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert cp.selfx[0].re_w == pytest.approx(0.25, abs=1e-9)

    def test_pure_monomial_has_constant_image(self):
        cp = characteristic_points(Poly([0, 0, 0, 1.0]))
        assert cp.w_plus == 1.0
        assert cp.w_minus == 1.0
        assert cp.selfx == ()

    def test_root_of_sine_profile_outside_interval(self):
        cp = characteristic_points(Poly([0.1, 1.0, 1.0]))
        assert cp.selfx == ()  # crossing parameter sits at x = -5

    def test_sign_normalization(self):
        cp_pos = characteristic_points(FIG2)
        cp_neg = characteristic_points(Poly(-c for c in FIG2.coeffs))
        assert cp_pos == cp_neg

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            characteristic_points(Poly())
        with pytest.raises(ValueError):
            characteristic_points(Poly([1.0]))

    def test_permanent_point_identities_random(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            b = tuple(rng.uniform(-4, 4, n))
            a = float(rng.uniform(0.01, 4))
            f = char_poly(b, n, a)
            if f.degree != n:
                continue
            cp = characteristic_points(f)
            w1 = math.fsum(b)
            wm1 = 2.0**n * a + math.fsum(
                (-1.0) ** k * b[k - 1] for k in range(1, n + 1)
            )
            assert abs(cp.w_plus - w1) <= 1e-12 * max(1.0, abs(w1))
            assert abs(cp.w_minus - wm1) <= 1e-12 * max(1.0, abs(wm1))

    def test_self_intersections_lie_on_real_axis(self):
        # Im W vanishes at every reported x: evaluate the image directly.
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            f = Poly(rng.uniform(-4, 4, n + 1))
            if f.degree < 2:
                continue
            cp = characteristic_points(f)
            fn = f if f.leading > 0 else Poly(-c for c in f.coeffs)
            for pt in cp.selfx:
                phi = math.acos(pt.x)
                z = complex(math.cos(phi), math.sin(phi))
                w = fn(z) / z**fn.degree
                assert abs(w.imag) <= 1e-8 * max(1.0, *map(abs, fn.coeffs))
                assert abs(w.real - pt.re_w) <= 1e-8 * max(1.0, abs(pt.re_w))


def _fuzz_corpus():
    """Random polynomials of degree 1-5 with no root within 1e-6 of the
    circle, each with its eigenvalue count of roots inside."""
    rng = np.random.default_rng(41)
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        f = Poly(rng.uniform(-4, 4, n + 1))
        if f.degree != n:
            continue
        roots = all_roots(f)
        if min(abs(abs(z) - 1.0) for z in roots) < 1e-6:
            continue
        yield f, sum(1 for z in roots if abs(z) < 1.0)


class TestCountInsideE1:
    def test_fig2_all_inside_despite_failed_sufficient_condition(self):
        res = count_inside_e1(FIG2)
        assert res.inside == 2
        assert not res.marginal

    def test_monomial(self):
        for n in range(1, 6):
            f = Poly([0.0] * n + [1.0])
            assert count_inside_e1(f).inside == n

    def test_fallback_count(self):
        # roots 0.5 and 2: W(1) < 0 is the only crossing left of the origin
        res = count_inside_e1(Poly([1.0, -2.5, 1.0]))
        assert res.inside == 1
        assert res.winding == -1

    def test_marginal_on_circle_root(self):
        res = count_inside_e1(Poly([1.0, -1.0, 1.0]))  # roots exactly on |z|=1
        assert res.marginal
        assert res.inside is None

    def test_oracle_agreement_fuzz(self):
        checked = 0
        for f, truth in _fuzz_corpus():
            res = count_inside_e1(f)
            assert not res.marginal
            assert res.inside == truth
            assert res.winding == res.inside - f.degree
            assert f.degree + winding_oracle(f) == truth
            assert count_inside_eig(f).inside == truth
            checked += 1
        assert checked > 1800

    def test_tangency_contributes_nothing(self):
        # r1 = -4*(x - 0.5)**2 touches zero at x = 0.5, where Re W = -0.5:
        # the image grazes the negative real axis without crossing it.
        f = Poly([-1.0, 2.0, -2.0, 0.5])
        cp = characteristic_points(f)
        assert [(pt.x, pt.re_w) for pt in cp.selfx] == [(0.5, -0.5)]
        assert cp.w_plus < 0.0 < cp.w_minus
        res = count_inside_e1(f)
        assert res.winding == -1  # from W(1) alone
        assert res.inside == count_inside_eig(f).inside == 2

    @pytest.mark.parametrize("a", [0.5, 1.5, 3.0])
    def test_subnormal_coefficients_count_like_scaled_ones(self, a):
        # Every coefficient lies below 2**-1024, where 1/max overflows;
        # scaling by 2**600 is exact, so both polynomials have the same roots.
        tiny = Poly(math.ldexp(c, -1060) for c in char_poly((3.0, -3.0, 1.0), 3, a).coeffs)
        assert 0.0 < max(map(abs, tiny.coeffs)) < 2.0**-1024
        scaled = Poly(math.ldexp(c, 600) for c in tiny.coeffs)
        res = count_inside_e1(tiny)
        assert not res.marginal
        assert res.inside == count_inside_e1(scaled).inside == count_inside_eig(scaled).inside

    def test_subnormal_roots_on_circle_are_marginal(self):
        # t*(z**2 - 1) has its roots at +-1: W(1) = W(-1) = 0 exactly, which
        # MARGIN * scale once missed because that product underflowed to 0.
        t = 2.0**-1070
        assert count_inside_e1(Poly([-1.0, 0.0, 1.0])).marginal
        assert count_inside_e1(Poly([-t, 0.0, t])).marginal

    def test_interior_root_on_circle_is_detected(self):
        # At rho = 1, z**2 + 1, z*(z**2 + 1) and (z**2 + 1)*(2z - 1) have roots
        # at +-i: r0 and r1 share the factor x, whose root 0 lies in (-1, 1).
        for coeffs in ([1, 0, 1], [0, 1, 0, 1], [-1, 2, -1, 2]):
            assert winding._count_exact(coeffs[::-1]) is None
        assert count_inside_e1(Poly([0.25, 0.0, 1.0])).inside == 2  # at +-i/2

    def test_degree_above_five_rejected(self):
        with pytest.raises(ValueError):
            count_inside_e1(Poly([1.0] * 7))

    @pytest.mark.parametrize("edge", [1.0, -1.0])
    @pytest.mark.parametrize("offset", [0.0, 5e-10])
    def test_sine_root_next_to_turning_point(self, edge, offset):
        # r1 = d1 + 2*x has its root at x = edge -+ offset, next to the
        # turning point, where W(edge) = -0.5: a root at the turning point
        # is no self-intersection, and one 5e-10 inside it is.
        x_root = edge - math.copysign(offset, edge)
        f = Poly([1.0, -2.0 * x_root, 0.5])
        cp = characteristic_points(f)
        assert [pt.x for pt in cp.selfx] == ([x_root] if offset else [])
        assert (cp.w_plus if edge > 0 else cp.w_minus) < 0.0
        res = count_inside_e1(f)
        assert not res.marginal
        assert res.inside == count_inside_eig(f).inside == 1


def _one_radius_corpus():
    """Seeded characteristic polynomials of orders 1-5, half of them with a
    stable linear model, at ``a`` log-uniform in [0.05, 20]."""
    rng = random.Random(53)
    for i in range(1600):
        n = rng.randint(1, 5)
        b = stable_b_sample(rng, n) if i % 2 else tuple(rng.uniform(-4.0, 4.0) for _ in range(n))
        yield char_poly(b, n, math.exp(rng.uniform(math.log(0.05), math.log(20.0))))


def _from_roots(roots):
    """The monic polynomial with these real roots; its float coefficients
    are exact."""
    c = [Fraction(1)]
    for r in map(Fraction, roots):
        c = [x - r * y for x, y in zip([Fraction(0)] + c, c + [Fraction(0)])]
    assert all(Fraction(float(x)) == x for x in c)
    return Poly(map(float, c))


INNER, OUTER = 1.0 - 2.0**-30, 1.0 + 2.0**-30
EARLY = (0.5, -0.25, 0.75, -0.625)  # roots well inside
LATE = (2.0, -3.0, 1.5, -4.0)  # roots well outside
# A root within 2**-30 of the circle, beside roots on its side of it.
MARGINAL = [
    _from_roots(roots)
    for n in range(1, 6)
    for roots in (
        (1.0 - 2.0**-31, *EARLY[: n - 1]),  # inside the circle, outside the inner one
        (-(1.0 + 2.0**-31), *LATE[: n - 1]),  # outside the circle, inside the outer one
        (INNER, *EARLY[: n - 1]),  # on the inner circle
        (-OUTER, *LATE[: n - 1]),  # on the outer circle
    )
]
# A root at +-(1 -+ 2**-k), k = 6..32, beside roots well inside or well
# outside: (k, polynomial).
NEAR_CIRCLE = [
    (k, _from_roots((sign * (1.0 + side * 2.0**-k), *companions[: n - 1])))
    for n in range(1, 6)
    for k in range(6, 33)
    for sign in (1.0, -1.0)
    for side in (-1.0, 1.0)
    for companions in ((EARLY, LATE) if n > 1 else (EARLY,))
]


class TestOneRadius:
    # The count is taken at rho = 1 alone: it is the exact Schur-Cohn count
    # there wherever that table is regular, and it is refused only for a
    # root exactly on the circle.
    def test_agrees_with_exact_schur_cohn(self):
        counts = set()
        for f in _one_radius_corpus():
            want = schur_cohn_inside(f.coeffs, eps=0)
            if want is not None:
                assert count_inside_e1(f).inside == want
                counts.add((want == 0, want == f.degree))
        assert counts == {(True, False), (False, True), (False, False)}

    def test_marginal_roots_are_counted(self):
        for f in MARGINAL:
            assert schur_cohn_inside(f.coeffs, eps=Fraction(1, 2**30)) is None
            want = schur_cohn_inside(f.coeffs, eps=0)
            assert want in (0, f.degree)
            assert count_inside_e1(f) == RootCountResult(inside=want, winding=want - f.degree)
        for n in range(1, 6):
            for root in (1.0, -1.0):
                res = count_inside_e1(_from_roots((root, *EARLY[: n - 1])))
                assert res.marginal and res.inside is None

    def test_near_circle_roots_are_counted(self):
        ks = set()
        for k, f in NEAR_CIRCLE:
            want = schur_cohn_inside(f.coeffs, eps=0)
            res = count_inside_e1(f)
            assert want is not None and (res.inside, res.marginal) == (want, False), (k, f)
            ks.add(k)
        assert ks == set(range(6, 33))

    def test_one_exact_count_per_query(self, monkeypatch):
        # One float-kernel call on f's own coefficients, and the generic
        # walk on the integers _count_exact would take only where that call
        # leaves the normal case.
        kernel, generic, calls = winding._kernel, winding._count_generic, []

        def counting_kernel(n, floats):
            def count(coeffs):
                calls.append(("kernel", floats, coeffs))
                return kernel(n, floats)(coeffs)
            return count

        def counting_generic(coeffs):
            calls.append(("generic", coeffs))
            return generic(coeffs)

        monkeypatch.setattr(winding, "_kernel", counting_kernel)
        monkeypatch.setattr(winding, "_count_generic", counting_generic)
        fell_back = 0
        for f in [*_one_radius_corpus(), *_small_integer_corpus(), *MARGINAL, *(f for _, f in NEAR_CIRCLE)]:
            calls.clear()
            count_inside_e1(f)
            tail = [("generic", _unit_args(f))] if kernel(f.degree, True)(f.coeffs) == -1 else []
            assert calls == [("kernel", True, f.coeffs), *tail]
            fell_back += bool(tail)
        assert fell_back > 100


GENERIC = winding._count_generic  # the kernels' fallback, unwrapped


def _small_integer_corpus():
    """Seeded designs of orders 1-5 with ``b_k`` in -3..3 and ``a`` in
    {0.25, 0.5, 1, 2, 3}: exact coefficients, often degenerate chains."""
    rng = random.Random(61)
    for _ in range(1500):
        n = rng.randint(1, 5)
        b = tuple(float(rng.randint(-3, 3)) for _ in range(n))
        yield char_poly(b, n, rng.choice((0.25, 0.5, 1.0, 2.0, 3.0)))


def _unit_args(f):
    """The ``_count_exact`` argument for ``f``: its integer coefficients,
    sign-normalized, leading first."""
    return _scaled(winding._normalized(f).coeffs)[0][::-1]


def _log_uniform_corpus():
    """Seeded designs of orders 1-5 with ``b_k`` and ``a`` log-uniform over
    1e+-6."""
    rng = random.Random(67)
    for _ in range(1500):
        n = rng.randint(1, 5)
        b = tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6, 6) for _ in range(n))
        yield char_poly(b, n, 10.0 ** rng.uniform(-6, 6))


# One chain per way out of the kernels' normal case, leading coefficient first.
FALLBACK_REASONS = [
    [1, 1, 0],  # z**2 + z: F(0) = 0
    [2, -2, 1],  # 2z**2 - 2z + 1: r1 = 2x - 2 vanishes at 1
    [1, 0, 1],  # z**2 + 1: r0 = 2x**2 and r1 = 2x leave a zero remainder
    [2, -3, -3, -4, 2],  # the chain's degrees go 4, 3, 2, 0
]


def _float_head_edges():
    """Polynomials whose float coefficients test the float kernel's head:
    negative leading coefficients, -0.0 entries, subnormals, +-1e300 beside
    tiny values, and each fallback reason of ``TestKernel``."""
    for coeffs in FALLBACK_REASONS:
        f = Poly(map(float, coeffs[::-1]))
        yield f
        yield Poly(-c for c in f.coeffs)
    rng = random.Random(71)
    special = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1070, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0)
    for f in _small_integer_corpus():
        sign = rng.choice((-1.0, 1.0))
        yield Poly(sign * c if c else -0.0 for c in f.coeffs)  # every zero a -0.0
        yield Poly(math.ldexp(sign * c, -1074 + 4) for c in f.coeffs)  # subnormal
    for _ in range(1500):
        n = rng.randint(1, 5)
        lead = rng.choice((-1.0, 1.0)) * rng.choice((1e300, 1.0, 5e-324, rng.uniform(0.5, 4.0)))
        yield Poly([*(rng.choice((rng.choice(special), rng.uniform(-4.0, 4.0))) for _ in range(n)), lead])


CORPORA = {"ordinary": _one_radius_corpus, "log-uniform": _log_uniform_corpus,
           "small-integer": _small_integer_corpus}


@pytest.mark.parametrize("corpus", CORPORA.values(), ids=CORPORA.keys())
def test_printed_points_give_the_count(corpus):
    # The count follows from what check prints: w is the sum over the
    # self-intersections with re_w < 0 of s_left - s_right, plus s_m if
    # W(1) < 0 and -s_0 if W(-1) < 0, where s_0 .. s_m are the signs of
    # r1 = -Im W / sin(phi) on the gaps between the points, from left to
    # right, each read in Fractions at its gap's midpoint.
    counted = 0
    for f in corpus():
        res = count_inside_e1(f)
        if res.marginal:
            continue
        cp = characteristic_points(f)
        lead, *d = map(Fraction, winding._normalized(f).coeffs[::-1])

        def r1_sign(x):
            u, u_prev, acc = Fraction(1), Fraction(0), Fraction(0)  # U_0, U_-1
            for dk in d:
                acc += dk * u
                u, u_prev = 2 * x * u - u_prev, u
            return (acc > 0) - (acc < 0)

        edges = [Fraction(-1), *(Fraction(pt.x) for pt in cp.selfx), Fraction(1)]
        s = [r1_sign((lo + hi) / 2) for lo, hi in zip(edges, edges[1:])]
        w = sum(s[i] - s[i + 1] for i, pt in enumerate(cp.selfx) if pt.re_w < 0)
        w += (s[-1] if cp.w_plus < 0 else 0) - (s[0] if cp.w_minus < 0 else 0)
        assert f.degree + w == res.inside, (f, cp, s)
        counted += 1
    assert counted > 1000


# sha256 of the reprs of each family's counts.  Each count that the radius
# pairs 1 -+ 2**-30 once gave is the same at rho = 1.
COUNT_PINS = {
    "ordinary": "c894f2408efe1cfed0f3ec1ffd00c6b22c629f2363f8b247522a71b223e97128",
    "log-uniform": "1e22e78501f823f4e892fb0210c26e0ae44aeb326c682f53f9afed0906165c59",
    "small-integer": "6cc04e19a391caae6ba4f745b5eb006c055a79befc309ff561c246ccf9f3c8f7",
    "near-circle": "21cd7a917ece619ad7ebbfc85719857c76523ae25e1fac37c832efaed44c63cc",
}


def test_count_inside_e1_repr_pinned():
    families = {**CORPORA, "near-circle": lambda: (f for _, f in NEAR_CIRCLE)}
    got = {name: hashlib.sha256("\n".join(repr(count_inside_e1(f)) for f in corpus()).encode()).hexdigest()
           for name, corpus in families.items()}
    assert got == COUNT_PINS


class TestKernel:
    @pytest.fixture
    def deferred(self, monkeypatch):
        """Arguments of every call the kernels leave to ``_count_generic``."""
        calls = []

        def counting(coeffs):
            calls.append(coeffs)
            return GENERIC(coeffs)

        monkeypatch.setattr(winding, "_count_generic", counting)
        return calls

    def test_ordinary_corpus_never_leaves_the_kernel(self, deferred):
        counts = set()
        for f in _one_radius_corpus():
            coeffs = _unit_args(f)
            inside = winding._count_exact(coeffs)
            assert inside == GENERIC(coeffs)
            counts.add(inside)
        assert deferred == []
        assert counts == {0, 1, 2, 3, 4, 5}

    def test_small_integer_designs_count_as_the_generic_walk(self, deferred):
        fell_back = 0
        for f in _small_integer_corpus():
            coeffs = _unit_args(f)
            deferred.clear()
            assert winding._count_exact(coeffs) == GENERIC(coeffs)
            fell_back += len(deferred)
        assert fell_back > 100

    @pytest.mark.parametrize("coeffs", FALLBACK_REASONS)
    def test_each_fallback_reason_is_reached(self, deferred, coeffs):
        assert winding._count_exact(coeffs) == GENERIC(coeffs)
        assert deferred == [coeffs]

    def test_float_head_counts_as_the_integer_kernel(self, deferred):
        # The float head makes _count_exact's integers from f.coeffs, so both
        # kernels agree, -1 included, and count_inside_e1 hands the generic
        # walk those integers where the float kernel leaves the normal case.
        families = {**CORPORA, "near-circle": lambda: (f for _, f in NEAR_CIRCLE), "edges": _float_head_edges}
        fell_back = {}
        for name, corpus in families.items():
            fell_back[name] = 0
            for f in corpus():
                n, coeffs = f.degree, _unit_args(f)
                inside = winding._kernel(n, True)(f.coeffs)
                assert inside == winding._kernel(n, False)(coeffs), f
                deferred.clear()
                count_inside_e1(f)
                assert deferred == ([coeffs] if inside == -1 else []), f
                fell_back[name] += inside == -1
        assert fell_back["ordinary"] == 0
        assert fell_back["small-integer"] > 100 and fell_back["edges"] > 100

    def test_kernels_build_once_per_order(self):
        first = winding._kernel(3, True)
        assert winding._kernel(3, True) is first
        assert winding._kernel(3, False) is not first
        assert winding._kernel(4, True) is not first


class TestWindingOracle:
    def test_fig2(self):
        assert winding_oracle(FIG2) == 0

    def test_single_outside_root(self):
        assert winding_oracle(Poly([-2.0, 1.0])) == -1

    def test_monomial(self):
        assert winding_oracle(Poly([0.0, 0.0, 1.0])) == 0

    def test_root_exactly_on_circle_exhausts_refinement(self):
        with pytest.raises(RuntimeError):
            winding_oracle(Poly([1.0, -1.0, 1.0]))  # roots exactly on |z| = 1

    def test_huge_coefficients_do_not_overflow(self):
        for f in (Poly([1e300, -2.5e300, 1e300]), Poly([1e300, -1e300, 1e300, 1e300])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert f.degree + winding_oracle(f) == count_inside_eig(f).inside

    def test_local_refinement_handles_hugging_roots(self):
        # local arc bisection resolves roots far closer than uniform
        # sampling ever could
        for eps in (1e-5, 1e-8, 1e-12):
            f = Poly(P.polymul([-(1.0 + eps), 1.0], [-0.5, 1.0]))
            assert winding_oracle(f) == -1
            g = Poly(P.polymul([-(1.0 - eps), 1.0], [-0.5, 1.0]))
            assert winding_oracle(g) == 0


class TestJury:
    def test_examples(self):
        assert jury_stable(Poly([1.0, -2.5, 1.0])) == "unstable"
        assert jury_stable(Poly([0.0, 0.0, 1.0])) == "stable"
        assert jury_stable(Poly([-1.0, 3.0, -3.0, 2.0])) == "marginal"

    def test_agrees_with_eig_oracle(self):
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(1500):
            n = int(rng.integers(1, 6))
            f = Poly(rng.uniform(-4, 4, n + 1))
            if f.degree != n:
                continue
            roots = all_roots(f)
            if min(abs(abs(z) - 1.0) for z in roots) < 1e-6:
                continue
            want = "stable" if all(abs(z) < 1.0 for z in roots) else "unstable"
            assert jury_stable(f) == want
            checked += 1
        assert checked > 1300


class TestContourTable:
    def test_row_count_and_symmetry(self):
        rows = contour_table(FIG2, 64)
        assert len(rows) == 64
        # conjugate symmetry: W(2*pi - phi) mirrors W(phi)
        for j in range(1, 32):
            phi1, re1, im1 = rows[j]
            phi2, re2, im2 = rows[64 - j]
            assert abs(re1 - re2) <= 1e-12
            assert abs(im1 + im2) <= 1e-12

    def test_first_row_is_turning_point(self):
        rows = contour_table(FIG2, 8)
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(2.25, abs=1e-12)
        assert rows[0][2] == pytest.approx(0.0, abs=1e-15)

    def test_matches_numpy_sampling(self):
        # The numpy form contour_table had: the same angles, W within a few
        # ulps of max |W| (cos/sin and the Horner sums may round differently).
        rng = np.random.default_rng(47)
        for samples in (1, 2, 7, 64, 513):
            for n in range(1, 6):
                f = char_poly(tuple(rng.uniform(-4, 4, n)), n, float(rng.uniform(0.1, 4)))
                phi = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
                z = np.exp(1j * phi)
                want = np.polyval(f.coeffs[::-1], z) * np.conj(z) ** n
                rows = contour_table(f, samples)
                assert [r[0] for r in rows] == phi.tolist()
                got = np.array([complex(r[1], r[2]) for r in rows])
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
