import numpy as np
import pytest

from sdmstab.simulator import (
    DcInput,
    GridPoint,
    SineInput,
    Window,
    extract_windows,
    linearized_impulse,
    run,
    sweep,
    trace_run,
)
from sdmstab.transfer import b_from_g, ntf_series

# Regression sweep configuration: a third-order cascade whose unstable
# amplitude set is disconnected (a stable islet splits the unstable range).
REGRESSION_G = (0.1, 0.5, 1.0)
REGRESSION_SWEEP = dict(amp_lo=0.0, amp_hi=0.0999, steps=64, samples=20000)
REGRESSION_WINDOWS = (
    Window(lo=0.05708571428571429, hi=0.061842857142857144),
    Window(lo=0.06501428571428572, hi=0.0999),
)


class TestRun:
    def test_first_order_limit_cycle(self):
        res = run((1.0,), DcInput(0.0), 100, initial_state=(0.5,))
        assert not res.diverged
        assert res.first_divergence_sample is None
        assert res.max_abs_state == 0.5
        assert res.mean_v == 0.0
        assert res.samples_run == 100

    def test_first_order_dc_tracking(self):
        res = run((1.0,), DcInput(0.25), 10**5)
        assert not res.diverged
        assert abs(res.mean_v - 0.25) <= 1e-3

    def test_open_loop_diverges(self):
        res = run((0.0,), DcInput(0.5), 1000, threshold=100.0)
        assert res.diverged
        assert res.mean_v == 1.0  # quantizer pinned at +1
        # s1 = 0.5*(k+1) first exceeds 100 at sample k = 200
        assert res.first_divergence_sample == 200
        assert res.samples_run == 201

    def test_open_loop_higher_order(self):
        res = run((0.0, 0.0, 0.0), DcInput(0.5), 5000, threshold=100.0)
        assert res.diverged

    def test_determinism(self):
        a = run(REGRESSION_G, DcInput(0.05), 20000)
        b = run(REGRESSION_G, DcInput(0.05), 20000)
        assert a == b

    def test_generic_path_matches_fast_path(self):
        # A zero-amplitude sine routes through the generic loop; the DC fast
        # paths must produce bit-identical trajectories.
        cases = [
            (REGRESSION_G, (0.3, 0.0, 0.0)),
            ((0.002, 0.03, 0.2, 0.7, 1.4), (0.1, 0.0, 0.0, 0.0, 0.0)),
            ((0.05, 0.35, 1.0, 1.0), (0.0, 0.2, 0.0, 0.0)),
        ]
        for g, s0 in cases:
            fast = run(g, DcInput(0.0), 5000, initial_state=s0)
            slow = run(g, SineInput(amplitude=0.0, period=16.0), 5000, initial_state=s0)
            assert fast == slow

    def test_sine_input_runs(self):
        res = run((1.0,), SineInput(amplitude=0.5, period=64.0), 20000)
        assert not res.diverged
        assert abs(res.mean_v) <= 0.01

    def test_order5_generic_path(self):
        g = (0.002, 0.03, 0.2, 0.7, 1.4)
        x = 0.3 * g[0]
        res = run(g, DcInput(x), 20000)
        assert not res.diverged
        assert res.samples_run == 20000
        assert res == run(g, DcInput(x), 20000)  # deterministic
        assert abs(res.mean_v - x / g[0]) <= 0.01

    def test_initial_state_above_threshold_flags_on_first_sample(self):
        res = run((1.0,), DcInput(0.0), 100, threshold=10.0, initial_state=(50.0,))
        assert res.diverged
        assert res.first_divergence_sample == 0

    def test_bad_sine_period(self):
        with pytest.raises(ValueError):
            run((1.0,), SineInput(amplitude=0.1, period=0.0), 10)

    def test_non_finite_inputs_rejected(self):
        nan, inf = float("nan"), float("inf")
        bad = [DcInput(nan), DcInput(inf), nan, SineInput(inf, 10.0),
               SineInput(nan, 10.0), SineInput(0.1, inf), SineInput(0.1, nan),
               SineInput(0.1, -4.0)]
        for x in bad:
            with pytest.raises(ValueError):
                run((1.0,), x, 100)
            with pytest.raises(ValueError):
                trace_run((1.0,), x, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            run((), DcInput(0.0), 10)
        with pytest.raises(ValueError):
            run((1.0,) * 6, DcInput(0.0), 10)
        with pytest.raises(ValueError):
            run((1.0,), DcInput(0.0), 0)
        with pytest.raises(ValueError):
            run((1.0,), DcInput(0.0), 10, threshold=0.0)
        with pytest.raises(ValueError):
            run((1.0,), DcInput(0.0), 10, initial_state=(1.0, 2.0))


class TestTrace:
    def test_states_expose_quantizer_relation(self):
        res, states = trace_run((1.0, 3.0, 3.0), DcInput(0.1), 300, threshold=1e6)
        assert len(states) == res.samples_run
        for st in states:
            assert st.v in (1.0, -1.0)
            assert st.v == (1.0 if st.s[-1] >= 0.0 else -1.0)
        assert [st.k for st in states] == list(range(len(states)))

    def test_trace_matches_run_summary(self):
        res_a, _ = trace_run(REGRESSION_G, DcInput(0.07), 5000)
        res_b = run(REGRESSION_G, DcInput(0.07), 5000)
        assert res_a == res_b


class TestLinearizedImpulse:
    def test_first_order(self):
        assert linearized_impulse((1.0,), 5) == [1.0, -1.0, 0.0, 0.0, 0.0]

    def test_second_order(self):
        assert linearized_impulse((1.0, 2.0), 5) == [1.0, -2.0, 1.0, 0.0, 0.0]

    def test_zero_feedback(self):
        assert linearized_impulse((0.0, 0.0), 4) == [1.0, 0.0, 0.0, 0.0]

    def test_matches_ntf_series_random(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            g = tuple(rng.uniform(-0.8, 0.8, n))
            h_sim = linearized_impulse(g, 64)
            h_tf = ntf_series(b_from_g(g), n, 64)
            scale = max(1.0, max(abs(v) for v in h_tf))
            for a, b in zip(h_sim, h_tf):
                assert abs(a - b) <= 1e-9 * scale


class TestExtractWindows:
    def test_all_stable(self):
        grid = [(0.1 * k, True) for k in range(6)]
        assert extract_windows(grid) == ()

    def test_all_unstable(self):
        grid = [(0.1 * k, False) for k in range(6)]
        assert extract_windows(grid) == (Window(lo=0.0, hi=0.5),)

    def test_alternating(self):
        grid = [(0.0, True), (0.1, False), (0.2, True), (0.3, False)]
        assert extract_windows(grid) == (
            Window(lo=0.1, hi=0.1),
            Window(lo=0.3, hi=0.3),
        )

    def test_synthetic_mixed(self):
        amps = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        flags = [True, True, False, True, False, False]
        grid = list(zip(amps, flags))
        assert extract_windows(grid) == (
            Window(lo=0.2, hi=0.2),
            Window(lo=0.4, hi=0.5),
        )

    def test_accepts_grid_points(self):
        grid = [
            GridPoint(amplitude=0.0, stable=False, max_abs_state=1.0, first_divergence_sample=1),
            GridPoint(amplitude=0.1, stable=True, max_abs_state=1.0, first_divergence_sample=None),
        ]
        assert extract_windows(grid) == (Window(lo=0.0, hi=0.0),)


class TestSweep:
    def test_first_order_has_no_windows(self):
        rep = sweep((1.0,), 0.0, 0.9, 10, 10**4)
        assert [p.amplitude for p in rep.grid] == pytest.approx(
            [0.1 * k for k in range(10)]
        )
        assert all(p.stable for p in rep.grid)
        assert rep.windows == ()

    def test_regression_windows(self):
        rep = sweep(REGRESSION_G, **REGRESSION_SWEEP)
        assert rep.windows == REGRESSION_WINDOWS

    def test_grid_point_equals_standalone_run(self):
        rep = sweep(REGRESSION_G, **REGRESSION_SWEEP)
        p = rep.grid[40]
        res = run(REGRESSION_G, DcInput(p.amplitude), REGRESSION_SWEEP["samples"])
        assert p.stable == (not res.diverged)
        assert p.max_abs_state == res.max_abs_state
        assert p.first_divergence_sample == res.first_divergence_sample

    def test_non_finite_range_rejected(self):
        for lo, hi in ((float("nan"), 1.0), (0.0, float("inf")), (-float("inf"), 0.0)):
            with pytest.raises(ValueError):
                sweep((1.0,), lo, hi, 4, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep((1.0,), 0.5, 0.5, 4, 100)
        with pytest.raises(ValueError):
            sweep((1.0,), 0.0, 1.0, 1, 100)
