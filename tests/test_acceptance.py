"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines inline.
"""

import math
import time

import numpy as np

from sdmstab.boundary import (
    classify_intervals,
    crossing_value,
    i_max_order3,
    i_min,
    t2_order5,
    zero_point_candidates,
)
from sdmstab.oracles import all_roots, bisect_boundary, winding_oracle
from sdmstab.polynomial import Poly, binom_power, cheb_expand, poly_rem
from sdmstab.simulator import DcInput, Window, extract_windows, linearized_impulse, run, sweep
from sdmstab.transfer import DCoeffs, b_from_g, char_poly, g_from_b, ntf_series
from sdmstab.winding import characteristic_points, count_inside_e1

B3 = (3.0, -3.0, 1.0)
REGRESSION_G = (0.1, 0.5, 1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def stable_b_sample(rng, n: int) -> tuple[float, ...]:
    """Random design whose linear model has all poles strictly inside."""
    f = Poly([1.0])
    left = n
    while left > 0:
        if left >= 2 and rng.random() < 0.5:
            r = 0.9 * math.sqrt(rng.random())
            th = rng.uniform(0.0, math.pi)
            f = f * Poly([r * r, -2.0 * r * math.cos(th), 1.0])
            left -= 2
        else:
            f = f * Poly([-rng.uniform(-0.9, 0.9), 1.0])
            left -= 1
    diff = f - binom_power(n)
    asc = list(diff.coeffs) + [0.0] * (n - len(diff.coeffs))
    return tuple(asc[n - k] for k in range(1, n + 1))


def test_criterion_1_fig2_reproduction():
    f = Poly([0.75, 0.5, 1.0])
    characteristic_points(f)  # warm-up (basis tables, caches)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        cp = characteristic_points(f)
        res = count_inside_e1(f)
        best = min(best, time.perf_counter() - t0)
    ok = (
        abs(cp.w_plus - 2.25) <= 1e-12
        and abs(cp.w_minus - 1.25) <= 1e-12
        and len(cp.selfx) == 1
        and abs(cp.selfx[0].x - (-1.0 / 3.0)) <= 1e-9
        and abs(cp.selfx[0].re_w - 0.25) <= 1e-9
        and res.inside == 2
        and not res.marginal
        and best < 1e-3
    )
    report(1, ok, f"contour characteristic points and all-inside count ({best*1e3:.3f} ms)")


def test_criterion_2_worked_boundary():
    t0 = time.perf_counter()
    a_min = i_min(B3, 3)
    cands = zero_point_candidates(B3, 3)
    rep = classify_intervals(B3, 3)
    elapsed = time.perf_counter() - t0

    valid = [c for c in cands if c.valid]
    roots = all_roots(char_poly(B3, 3, 2.0))
    circle_dist = min(abs(abs(z) - 1.0) for z in roots)
    stable = [iv for iv in rep.intervals if iv.stable]
    ok = (
        a_min == 0.875
        and len(valid) == 1
        and abs(valid[0].a - 2.0) <= 1e-9
        and abs(valid[0].x - 0.5) <= 1e-9
        and circle_dist <= 1e-9
        and len(stable) == 1
        and stable[0].lo == 0.875
        and abs(stable[0].hi - 2.0) <= 1e-9
        and stable[0].witness_a == 1.0
        and char_poly(B3, 3, 1.0) == Poly([0, 0, 0, 1.0])
        and len(rep.intervals) == 3
        and not rep.intervals[0].stable
        and not rep.intervals[2].stable
        and elapsed < 0.05
    )
    report(2, ok, f"order-3 worked boundary a_min=0.875, flip at a=2 ({elapsed*1e3:.1f} ms)")


def test_criterion_3_criterion_vs_oracle_fuzz():
    rng = np.random.default_rng(20240601)
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0
    while checked < 10**4:
        n = int(rng.integers(1, 6))
        f = Poly(rng.uniform(-4, 4, n + 1))
        if f.degree != n:
            continue
        roots = all_roots(f)
        if min(abs(abs(z) - 1.0) for z in roots) < 1e-6:
            continue
        truth = sum(1 for z in roots if abs(z) < 1.0)
        res = count_inside_e1(f)
        w = winding_oracle(f)
        if res.marginal or res.inside != truth or n + w != truth:
            mismatches += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(3, ok, f"{checked} random polynomials, {mismatches} mismatches ({elapsed:.1f} s)")


def test_criterion_4_order3_closed_form_vs_bisection():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 100:
        b = tuple(rng.uniform(-4, 4, 3))
        if abs(math.fsum(b)) < 1e-9:
            continue
        a, valid = i_max_order3(b)
        if not valid or not 1e-3 < a < 1e3:
            continue
        lo, hi = a * 0.99, a * 1.01
        try:
            flip = bisect_boundary(b, 3, lo, hi)
        except ValueError:
            continue  # not a stability flip at this candidate
        worst = max(worst, abs(a - flip) / max(1.0, a))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(4, ok, f"{checked} designs, worst |closed form - bisection| = {worst:.2e} ({elapsed:.1f} s)")


def test_criterion_5_order5_remainder_identity():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(1000):
        d = tuple(rng.uniform(-4, 4, 5))
        a = float(rng.uniform(0, 4))
        r0 = cheb_expand(d, a, "cosine")
        r1 = cheb_expand(d, kind="sine")
        _, rem = poly_rem(r0, r1)
        expect = Poly([a]) - t2_order5(DCoeffs(d=d, a=a))
        err = (rem - expect).scale_max() / max(expect.scale_max(), 1e-30)
        worst = max(worst, err)
    ok = worst <= 1e-9
    report(5, ok, f"1000 order-5 profiles, worst remainder mismatch {worst:.2e}")


def test_criterion_6_permanent_point_identities():
    rng = np.random.default_rng(99)
    worst_w = 0.0
    worst_pi = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        b = tuple(rng.uniform(-4, 4, n))
        a = float(rng.uniform(0.01, 4))
        f = char_poly(b, n, a)
        if f.degree != n:
            continue
        cp = characteristic_points(f)
        w1 = math.fsum(b)
        wm1 = 2.0**n * a + math.fsum((-1.0) ** k * b[k - 1] for k in range(1, n + 1))
        worst_w = max(worst_w, abs(cp.w_plus - w1), abs(cp.w_minus - wm1))
        val = crossing_value(b, n, math.pi)
        worst_pi = max(worst_pi, abs(val.real - i_min(b, n)), abs(val.imag))
    ok = worst_w <= 1e-12 and worst_pi <= 1e-10
    report(6, ok, f"turning-point identities {worst_w:.2e}, pi-limit {worst_pi:.2e}")


def test_criterion_7_simulator_transfer_consistency():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        b = stable_b_sample(rng, n)
        g = g_from_b(b)
        b_back = b_from_g(g)
        assert max(abs(x - y) for x, y in zip(b, b_back)) <= 1e-9
        h_sim = linearized_impulse(g, 64)
        h_tf = ntf_series(b_back, n, 64)
        worst = max(worst, max(abs(x - y) for x, y in zip(h_sim, h_tf)))
    ok = worst <= 1e-9
    report(7, ok, f"100 designs, worst impulse mismatch {worst:.2e}")


def test_criterion_8_first_order_dc_tracking():
    worst = 0.0
    for x in (-0.5, -0.25, 0.0, 0.25, 0.5):
        res = run((1.0,), DcInput(x), 10**5)
        assert not res.diverged
        worst = max(worst, abs(res.mean_v - x))
    ok = worst <= 1e-3
    report(8, ok, f"five DC levels, worst tracking error {worst:.2e}")


def test_criterion_9_throughput():
    # warm-up keeps interpreter startup out of the measurement
    run((0.05, 0.35, 1.0), DcInput(0.02), 1000)
    t0 = time.perf_counter()
    res = run((0.05, 0.35, 1.0), DcInput(0.02), 10**6)
    t_run = time.perf_counter() - t0
    assert not res.diverged and res.samples_run == 10**6

    t0 = time.perf_counter()
    rep = sweep(REGRESSION_G, 0.0, 0.0999, 256, 10**5)
    t_sweep = time.perf_counter() - t0
    assert len(rep.grid) == 256
    ok = t_run < 1.0 and t_sweep < 30.0
    report(9, ok, f"1e6-sample run {t_run:.2f} s, 256-point sweep {t_sweep:.1f} s")


def test_criterion_10_window_machinery():
    amps = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    flags = [True, True, False, True, False, False]
    synthetic = extract_windows(list(zip(amps, flags)))
    exact = synthetic == (Window(lo=0.2, hi=0.2), Window(lo=0.4, hi=0.5))

    frozen = (
        Window(lo=0.05708571428571429, hi=0.061842857142857144),
        Window(lo=0.06501428571428572, hi=0.0999),
    )
    rep1 = sweep(REGRESSION_G, 0.0, 0.0999, 64, 20000)
    rep2 = sweep(REGRESSION_G, 0.0, 0.0999, 64, 20000)
    ok = exact and rep1.windows == frozen and rep2.windows == frozen and rep1 == rep2
    report(10, ok, f"synthetic extraction exact, regression windows {[ (w.lo, w.hi) for w in rep1.windows ]} bit-stable")
