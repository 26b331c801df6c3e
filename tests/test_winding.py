import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import sdmstab.oracles as oracles
import sdmstab.winding as winding
from sdmstab.oracles import all_roots, count_inside_eig, jury_stable, winding_oracle
from sdmstab.polynomial import BOUNDARY_EXCLUSION, Poly
from sdmstab.transfer import char_poly
from sdmstab.winding import characteristic_points, contour_table, count_inside_e1
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
        cp_neg = characteristic_points(-1.0 * FIG2)
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
            fn = f if f.leading > 0 else -1.0 * f
            for pt in cp.selfx:
                phi = math.acos(pt.x)
                z = complex(math.cos(phi), math.sin(phi))
                w = fn(z) / z**fn.degree
                assert abs(w.imag) <= 1e-8 * max(1.0, fn.scale_max())
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
        assert res.method == "e1"
        assert not res.marginal

    def test_monomial(self):
        for n in range(1, 6):
            f = Poly([0.0] * n + [1.0])
            assert count_inside_e1(f).inside == n

    def test_fallback_count(self):
        # roots 0.5 and 2: W(1) < 0 is the only crossing left of the origin
        res = count_inside_e1(Poly([1.0, -2.5, 1.0]))
        assert res.inside == 1
        assert res.method == "e1"
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

    def test_no_oracle_on_the_production_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle called by count_inside_e1")

        monkeypatch.setattr(oracles, "winding_oracle", refuse)
        monkeypatch.setattr(oracles, "count_inside_eig", refuse)
        monkeypatch.setattr(oracles, "all_roots", refuse)
        for f, truth in _fuzz_corpus():
            res = count_inside_e1(f)
            assert res.method == "e1"
            assert res.inside == truth

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
        assert 0.0 < tiny.scale_max() < 2.0**-1024
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
            unscaled = [1] * len(coeffs)  # rho = 1
            assert winding._count_exact(coeffs[::-1], unscaled) is None
        assert count_inside_e1(Poly([0.25, 0.0, 1.0])).inside == 2  # at +-i/2

    def test_degree_above_five_rejected(self):
        with pytest.raises(ValueError):
            count_inside_e1(Poly([1.0] * 7))

    @pytest.mark.parametrize("edge", [1.0, -1.0])
    @pytest.mark.parametrize("offset", [0.0, 0.5 * BOUNDARY_EXCLUSION])
    def test_sine_root_next_to_turning_point(self, edge, offset):
        # r1 = d1 + 2*x has its root at x = edge -+ offset, too close to the
        # turning point to be isolated; W(edge) = -0.5 sits beside it.
        x_root = edge - math.copysign(offset, edge)
        f = Poly([1.0, -2.0 * x_root, 0.5])
        cp = characteristic_points(f)
        assert cp.selfx == ()
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


class TestOneRadius:
    def test_agrees_with_exact_schur_cohn(self):
        counts = set()
        for f in _one_radius_corpus():
            want = schur_cohn_inside(f.coeffs, eps=Fraction(1, 2**30))
            if want is not None:
                assert count_inside_e1(f).inside == want
                counts.add((want == 0, want == f.degree))
        assert counts == {(True, False), (False, True), (False, False)}

    def test_marginal_roots_are_refused(self):
        for f in MARGINAL:
            assert schur_cohn_inside(f.coeffs, eps=Fraction(1, 2**30)) is None
            res = count_inside_e1(f)
            assert res.marginal and res.inside is None

    def test_one_count_settles_0_n_and_first_radius_refusals(self, monkeypatch):
        count_exact, calls = winding._count_exact, []

        def counting(*args):
            calls.append(count_exact(*args))
            return calls[-1]

        monkeypatch.setattr(winding, "_count_exact", counting)
        one = two = 0
        for f in [*_one_radius_corpus(), *MARGINAL]:
            calls.clear()
            res = count_inside_e1(f)
            if res.inside in (0, f.degree) or calls[0] is None:
                assert len(calls) == 1
                one += 1
            else:
                assert len(calls) == 2
                two += 1
        assert one > 400 and two > 400


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
        for f in (1e300 * Poly([1.0, -2.5, 1.0]), Poly([1e300, -1e300, 1e300, 1e300])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert f.degree + winding_oracle(f) == count_inside_eig(f).inside

    def test_local_refinement_handles_hugging_roots(self):
        # local arc bisection resolves roots far closer than uniform
        # sampling ever could
        for eps in (1e-5, 1e-8, 1e-12):
            f = Poly([-(1.0 + eps), 1.0]) * Poly([-0.5, 1.0])
            assert winding_oracle(f) == -1
            g = Poly([-(1.0 - eps), 1.0]) * Poly([-0.5, 1.0])
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
