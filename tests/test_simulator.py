import hashlib
import math
import random

import numpy as np
import pytest

from oracles import linearized_impulse
from sdmstab import simulator
from sdmstab.simulator import (
    DcInput,
    GridPoint,
    SimResult,
    SimState,
    SineInput,
    Window,
    extract_windows,
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
# SHA-256 of that sweep's grid (amplitudes and maxima as float.hex), as the
# hand-unrolled loops computed it before the kernels were generated.
REGRESSION_GRID_SHA256 = "767e91e0472700093637be5fece1ce4f552033f2b5316dd0c861fcaf9549f293"


def reference_loop(g, x, samples, threshold=simulator.DEFAULT_THRESHOLD, initial_state=None):
    """The textbook loop on a list of states, one multiply per stage and a
    float sum of ``v``; shares no code with the generated kernels.  Returns
    the :class:`SimResult` and every :class:`SimState`."""
    n = len(g)
    s = [0.0] * n if initial_state is None else list(initial_state)
    if isinstance(x, SineInput):
        amp, w = x.amplitude, 2.0 * math.pi / x.period
        sample_at = lambda k: amp * math.sin(w * k)
    else:
        level = x.level if isinstance(x, DcInput) else x
        sample_at = lambda k: level
    v = 1.0 if s[-1] >= 0.0 else -1.0
    vsum = 0.0
    runmax = 0.0
    peak = None
    states = []
    for k in range(samples):
        x_k = sample_at(k)
        for j in range(n - 1, 0, -1):
            s[j] = s[j] + (s[j - 1] - g[j] * v)
        s[0] = s[0] + (x_k - g[0] * v)
        v = 1.0 if s[n - 1] >= 0.0 else -1.0
        vsum += v
        states.append(SimState(s=tuple(s), v=v, k=k))
        grew = False
        for val in s:
            if val > runmax or -val > runmax:
                grew = True
        if grew:
            runmax = max(abs(val) for val in s)
            peak = k
            if runmax > threshold:
                return SimResult(True, k, runmax, vsum / (k + 1), k + 1, peak), states
    return SimResult(False, None, runmax, vsum / samples, samples, peak), states


def bits(obj):
    """A result or state with every float as ``float.hex``, so ``==`` is
    bit identity (it tells -0.0 from 0.0)."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        return [bits(v) for v in obj]
    if isinstance(obj, (SimResult, SimState)):
        return (type(obj).__name__, bits([getattr(obj, f) for f in obj._fields]))
    return obj


def reference_corpus(seed, count):
    """Seeded ``(g, x, samples, threshold, initial_state)`` over orders 1-5,
    DC and sine, with and without an initial state; about 60% diverge."""
    rng = random.Random(seed)
    for i in range(count):
        n = i % 5 + 1
        if rng.random() < 0.6:  # mostly loops that can stay bounded
            g = tuple(rng.uniform(0.0, 1.5) * 10 ** rng.uniform(-2, 0.3) for _ in range(n))
        else:
            g = tuple(rng.uniform(-2.0, 2.0) for _ in range(n))
        if i % 2:
            x = SineInput(rng.uniform(0.0, 1.0) * abs(g[0]), rng.uniform(3.0, 200.0))
        else:
            x = DcInput(rng.uniform(-1.0, 1.0) * g[0])
        s0 = None if i % 4 < 2 else tuple(rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0))) for _ in range(n))
        threshold = rng.choice((1e6, 1e6, 10.0, rng.uniform(0.5, 100.0)))
        yield g, x, rng.randint(1, 1500), threshold, s0


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


class TestReferenceLoop:
    """``run`` and ``trace_run`` against :func:`reference_loop`, bit for bit:
    every summary field (``mean_v``, ``first_divergence_sample`` and
    ``peak_sample`` included) and every traced state."""

    EDGES = [
        # The last state is -0.0, which the quantizer reads as +1.
        ((0.1, 0.5, 1.0), DcInput(0.03), 400, 1e6, (0.0, 0.0, -0.0)),
        ((1.0,), SineInput(0.2, 17.0), 400, 1e6, (-0.0,)),
        ((0.05, 0.35, 1.0, 1.0), DcInput(-0.0), 400, 1e6, (0.0, -0.0, 0.0, -0.0)),
        # An initial state above the threshold exits on sample 0.
        ((1.0,), DcInput(0.0), 100, 10.0, (50.0,)),
        ((0.1, 0.5, 1.0), SineInput(0.05, 32.0), 100, 1.0, (0.0, -3.0, 0.5)),
        # Thresholds that exit early, and growth that never exits.
        ((0.0, 0.0, 0.0), DcInput(0.5), 5000, 100.0, None),
        ((0.1, 0.5, 1.0), DcInput(0.09), 5000, 1e6, None),
        ((0.002, 0.03, 0.2, 0.7, 1.4), SineInput(0.0005, 64.0), 3000, 2.0, None),
        # Gains and inputs at the magnitude cap.
        ((1e300, -1e300, 1e300), DcInput(1e300), 50, 1e300, (1e300, -1e300, 1e300)),
        ((-1e300,) * 5, SineInput(1e300, 3.0), 50, 1e300, None),
        # States that stay exactly zero: no sample raises the maximum.
        ((0.0, 0.0), DcInput(0.0), 50, 1e6, None),
    ]

    def check(self, g, x, samples, threshold, s0):
        want, want_states = reference_loop(g, x, samples, threshold, s0)
        assert bits(run(g, x, samples, threshold, s0)) == bits(want), (g, x, s0)
        got, states = trace_run(g, x, samples, threshold, s0)
        assert bits(got) == bits(want), (g, x, s0)
        assert bits(states) == bits(want_states), (g, x, s0)
        return want

    def test_run_matches_reference(self):
        outcomes = [self.check(*case).diverged for case in reference_corpus(61, 200)]
        assert 20 <= sum(outcomes) <= 180  # both kinds of run are covered

    def test_edge_cases_match_reference(self):
        results = [self.check(*case) for case in self.EDGES]
        assert results[3].first_divergence_sample == 0
        assert results[5].diverged and results[6].peak_sample is not None
        assert results[-1].peak_sample is None and results[-1].max_abs_state == 0.0

    def test_kernels_match_reference_through_overflow(self):
        # Capped inputs cannot reach +-inf through the public API (one step
        # adds at most three terms of at most 1e300), so call the kernels
        # with gains near the float maximum.
        for n in range(1, 6):
            for sine in (False, True):
                g = tuple((-1.0) ** j * 1.7e308 for j in range(n))
                x = SineInput(1e308, 5.0) if sine else DcInput(1e308)
                arg = (1e308, 2.0 * math.pi / 5.0) if sine else 1e308
                want, want_states = reference_loop(g, x, 40, math.inf)
                assert math.isinf(want.max_abs_state)
                states = []
                out = simulator._kernel(n, sine, True)(g, arg, 40, math.inf, (0.0,) * n, states.append)
                diverged, first, runmax, pos, ran, peak = out
                assert (diverged, first, runmax.hex(), ran, peak) == (
                    want.diverged, want.first_divergence_sample, want.max_abs_state.hex(),
                    want.samples_run, want.peak_sample)
                assert float(2 * pos - ran) / ran == want.mean_v
                assert bits(states) == bits(want_states)

    def test_peak_sample(self):
        # Open loop: s1 = 0.5*(k+1) grows every sample, so the peak is the
        # last sample run; a bounded loop peaks before the end.
        res = run((0.0,), DcInput(0.5), 1000, threshold=100.0)
        assert res.peak_sample == res.first_divergence_sample == 200
        res = run((0.1, 0.5, 1.0), DcInput(0.03), 20000)
        assert not res.diverged and 0 <= res.peak_sample < 20000
        assert res.peak_sample == reference_loop((0.1, 0.5, 1.0), DcInput(0.03), 20000)[0].peak_sample

    def test_kernels_compile_once_per_key(self):
        first = simulator._kernel(2, True, False)
        assert simulator._kernel(2, True, False) is first
        assert simulator._kernel(2, False, False) is not first


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

    def test_regression_grid_is_bit_identical(self):
        rep = sweep(REGRESSION_G, **REGRESSION_SWEEP)
        rows = [(p.amplitude.hex(), p.stable, p.max_abs_state.hex(), p.first_divergence_sample)
                for p in rep.grid]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == REGRESSION_GRID_SHA256

    def test_grid_point_equals_standalone_run(self):
        rep = sweep(REGRESSION_G, **REGRESSION_SWEEP)
        p = rep.grid[40]
        res = run(REGRESSION_G, DcInput(p.amplitude), REGRESSION_SWEEP["samples"])
        assert p.stable == (not res.diverged)
        assert p.max_abs_state == res.max_abs_state
        assert p.first_divergence_sample == res.first_divergence_sample

    def test_grid_is_numpy_linspace_bit_for_bit(self):
        rng = random.Random(83)
        cases = [(0.0, 1e-323, 5), (-1e-322, 1e-322, 40), (-1e300, 1e300, 7)]
        for _ in range(60):
            lo, hi = sorted(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320, 300) for _ in range(2))
            cases.append((lo, hi, rng.randint(2, 50)))
        assert (1e-323 - 0.0) / 4 == 0.0  # the first case takes numpy's step == 0 branch
        for lo, hi, steps in cases:
            if not lo < hi:
                continue
            grid = [p.amplitude for p in sweep((1.0,), lo, hi, steps, 1).grid]
            want = [float(v) for v in np.linspace(lo, hi, steps)]
            assert [v.hex() for v in grid] == [v.hex() for v in want], (lo, hi, steps)

    def test_non_finite_range_rejected(self):
        for lo, hi in ((float("nan"), 1.0), (0.0, float("inf")), (-float("inf"), 0.0)):
            with pytest.raises(ValueError):
                sweep((1.0,), lo, hi, 4, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep((1.0,), 0.5, 0.5, 4, 100)
        with pytest.raises(ValueError):
            sweep((1.0,), 0.0, 1.0, 1, 100)
