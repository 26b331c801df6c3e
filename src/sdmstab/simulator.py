"""Nonlinear time-domain behavioral model of the cascaded one-bit modulator.

The loop is a chain of delaying integrators with the quantizer output fed
back into every stage: per sample, with pre-update upstream states,

    s[0] += x[k]    - g[0]*v
    s[j] += s[j-1]  - g[j]*v      (j = 1..n-1)
    v     = sign(s[n-1])          (sign(0) is +1)

Integrator scale is unbounded (the idealization under which instability
means actual divergence); a configurable threshold turns runaway growth
into an early exit with the divergence sample recorded.  Linearizing the
quantizer as ``v = I + E`` reproduces the noise transfer function of the
transfer module term by term, which pins this topology to the ``b``
coefficients used by the analytic modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .transfer import MAX_ORDER

__all__ = [
    "DcInput",
    "SineInput",
    "SimState",
    "SimResult",
    "GridPoint",
    "Window",
    "WindowReport",
    "run",
    "trace_run",
    "linearized_impulse",
    "sweep",
    "extract_windows",
]

DEFAULT_THRESHOLD = 1e6


@dataclass(frozen=True)
class DcInput:
    level: float


@dataclass(frozen=True)
class SineInput:
    amplitude: float
    period: float  # samples per cycle


@dataclass(frozen=True)
class SimState:
    """One trace row: integrator states, quantizer output, sample index."""

    s: tuple[float, ...]
    v: float
    k: int


@dataclass(frozen=True)
class SimResult:
    """Trajectory summary.

    ``max_abs_state`` is the largest integrator magnitude over the samples
    actually run (the supplied initial state is not a sample), so
    ``diverged`` holds exactly when it exceeded the threshold.
    """

    diverged: bool
    first_divergence_sample: int | None
    max_abs_state: float
    mean_v: float
    samples_run: int


@dataclass(frozen=True)
class GridPoint:
    amplitude: float
    stable: bool
    max_abs_state: float
    first_divergence_sample: int | None


@dataclass(frozen=True)
class Window:
    lo: float
    hi: float


@dataclass(frozen=True)
class WindowReport:
    grid: tuple[GridPoint, ...]
    windows: tuple[Window, ...]


def _check_g(g: Sequence[float]) -> tuple[float, ...]:
    g = tuple(float(v) for v in g)
    if not 1 <= len(g) <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {len(g)}")
    for v in g:
        if not math.isfinite(v):
            raise ValueError("g must contain finite values")
    return g


def _check_state(s0, n: int) -> tuple[float, ...]:
    if s0 is None:
        return (0.0,) * n
    s0 = tuple(float(v) for v in s0)
    if len(s0) != n:
        raise ValueError(f"initial state must have {n} entries")
    return s0


# --- hot loops ---------------------------------------------------------------
#
# DC input dominates both the sweep workload and the long-run timing budget,
# so every order gets a hand-unrolled loop on local floats.  The generic
# loop (arbitrary waveforms) uses the same expression shapes, so results
# are bit-identical across paths.


def _dc_order1(g, x, samples, threshold, s0):
    (g1,) = g
    (s1,) = s0
    v = 1.0 if s1 >= 0.0 else -1.0
    vsum = 0.0
    runmax = 0.0
    for k in range(samples):
        s1 = s1 + (x - g1 * v)
        v = 1.0 if s1 >= 0.0 else -1.0
        vsum += v
        if s1 > runmax or -s1 > runmax:
            runmax = abs(s1)
            if runmax > threshold:
                return True, k, runmax, vsum, k + 1
    return False, None, runmax, vsum, samples


def _dc_order2(g, x, samples, threshold, s0):
    g1, g2 = g
    s1, s2 = s0
    v = 1.0 if s2 >= 0.0 else -1.0
    vsum = 0.0
    runmax = 0.0
    for k in range(samples):
        s2 = s2 + (s1 - g2 * v)
        s1 = s1 + (x - g1 * v)
        v = 1.0 if s2 >= 0.0 else -1.0
        vsum += v
        if s1 > runmax or -s1 > runmax or s2 > runmax or -s2 > runmax:
            runmax = max(abs(s1), abs(s2))
            if runmax > threshold:
                return True, k, runmax, vsum, k + 1
    return False, None, runmax, vsum, samples


def _dc_order3(g, x, samples, threshold, s0):
    g1, g2, g3 = g
    s1, s2, s3 = s0
    v = 1.0 if s3 >= 0.0 else -1.0
    vsum = 0.0
    runmax = 0.0
    for k in range(samples):
        s3 = s3 + (s2 - g3 * v)
        s2 = s2 + (s1 - g2 * v)
        s1 = s1 + (x - g1 * v)
        v = 1.0 if s3 >= 0.0 else -1.0
        vsum += v
        if (
            s1 > runmax or -s1 > runmax
            or s2 > runmax or -s2 > runmax
            or s3 > runmax or -s3 > runmax
        ):
            runmax = max(abs(s1), abs(s2), abs(s3))
            if runmax > threshold:
                return True, k, runmax, vsum, k + 1
    return False, None, runmax, vsum, samples


def _dc_order4(g, x, samples, threshold, s0):
    g1, g2, g3, g4 = g
    s1, s2, s3, s4 = s0
    v = 1.0 if s4 >= 0.0 else -1.0
    vsum = 0.0
    runmax = 0.0
    for k in range(samples):
        s4 = s4 + (s3 - g4 * v)
        s3 = s3 + (s2 - g3 * v)
        s2 = s2 + (s1 - g2 * v)
        s1 = s1 + (x - g1 * v)
        v = 1.0 if s4 >= 0.0 else -1.0
        vsum += v
        if (
            s1 > runmax or -s1 > runmax
            or s2 > runmax or -s2 > runmax
            or s3 > runmax or -s3 > runmax
            or s4 > runmax or -s4 > runmax
        ):
            runmax = max(abs(s1), abs(s2), abs(s3), abs(s4))
            if runmax > threshold:
                return True, k, runmax, vsum, k + 1
    return False, None, runmax, vsum, samples


def _dc_order5(g, x, samples, threshold, s0):
    g1, g2, g3, g4, g5 = g
    s1, s2, s3, s4, s5 = s0
    v = 1.0 if s5 >= 0.0 else -1.0
    vsum = 0.0
    runmax = 0.0
    for k in range(samples):
        s5 = s5 + (s4 - g5 * v)
        s4 = s4 + (s3 - g4 * v)
        s3 = s3 + (s2 - g3 * v)
        s2 = s2 + (s1 - g2 * v)
        s1 = s1 + (x - g1 * v)
        v = 1.0 if s5 >= 0.0 else -1.0
        vsum += v
        if (
            s1 > runmax or -s1 > runmax
            or s2 > runmax or -s2 > runmax
            or s3 > runmax or -s3 > runmax
            or s4 > runmax or -s4 > runmax
            or s5 > runmax or -s5 > runmax
        ):
            runmax = max(abs(s1), abs(s2), abs(s3), abs(s4), abs(s5))
            if runmax > threshold:
                return True, k, runmax, vsum, k + 1
    return False, None, runmax, vsum, samples


_DC_FAST = {1: _dc_order1, 2: _dc_order2, 3: _dc_order3, 4: _dc_order4, 5: _dc_order5}


def _run_generic(g, sample_at, samples, threshold, s0):
    n = len(g)
    s = list(s0)
    v = 1.0 if s[-1] >= 0.0 else -1.0
    vsum = 0.0
    runmax = 0.0
    for k in range(samples):
        x = sample_at(k)
        for j in range(n - 1, 0, -1):
            s[j] = s[j] + (s[j - 1] - g[j] * v)
        s[0] = s[0] + (x - g[0] * v)
        v = 1.0 if s[n - 1] >= 0.0 else -1.0
        vsum += v
        grew = False
        for val in s:
            if val > runmax or -val > runmax:
                grew = True
        if grew:
            runmax = max(abs(val) for val in s)
            if runmax > threshold:
                return True, k, runmax, vsum, k + 1
    return False, None, runmax, vsum, samples


def _coerce_input(x):
    """A validated :class:`DcInput` or :class:`SineInput`; bare numbers are DC."""
    if not isinstance(x, (DcInput, SineInput)):
        x = DcInput(level=float(x))
    if isinstance(x, DcInput):
        if not math.isfinite(x.level):
            raise ValueError("DC level must be finite")
    elif not math.isfinite(x.amplitude):
        raise ValueError("sine amplitude must be finite")
    elif not 0.0 < x.period < math.inf:
        raise ValueError("sine period must be positive and finite")
    return x


def run(
    g: Sequence[float],
    x,
    samples: int,
    threshold: float = DEFAULT_THRESHOLD,
    initial_state: Sequence[float] | None = None,
) -> SimResult:
    """Run the one-bit loop and summarize the trajectory.

    ``x`` is a :class:`DcInput`, a :class:`SineInput`, or a bare number
    (treated as DC).  The run stops early the first time any integrator
    magnitude exceeds ``threshold``; the quantizer output of that final
    sample is still counted.  Identical inputs produce identical results.
    """
    g = _check_g(g)
    n = len(g)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    s0 = _check_state(initial_state, n)
    x = _coerce_input(x)

    if isinstance(x, DcInput):
        out = _DC_FAST[n](g, x.level, samples, threshold, s0)
    else:
        amp, period = x.amplitude, x.period
        w = 2.0 * math.pi / period
        out = _run_generic(g, lambda k: amp * math.sin(w * k), samples, threshold, s0)

    diverged, first, runmax, vsum, ran = out
    return SimResult(
        diverged=diverged,
        first_divergence_sample=first,
        max_abs_state=runmax,
        mean_v=vsum / ran,
        samples_run=ran,
    )


def trace_run(
    g: Sequence[float],
    x,
    samples: int,
    threshold: float = DEFAULT_THRESHOLD,
    initial_state: Sequence[float] | None = None,
) -> tuple[SimResult, list[SimState]]:
    """Like :func:`run` but records every step; for bounded trace dumps."""
    g = _check_g(g)
    n = len(g)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    s0 = _check_state(initial_state, n)
    x = _coerce_input(x)
    if isinstance(x, DcInput):
        level = x.level
        sample_at = lambda k: level  # noqa: E731
    else:
        amp, period = x.amplitude, x.period
        w = 2.0 * math.pi / period
        sample_at = lambda k: amp * math.sin(w * k)  # noqa: E731

    s = list(s0)
    v = 1.0 if s[-1] >= 0.0 else -1.0
    vsum = 0.0
    runmax = 0.0
    states: list[SimState] = []
    diverged = False
    first = None
    ran = samples
    for k in range(samples):
        xk = sample_at(k)
        for j in range(n - 1, 0, -1):
            s[j] = s[j] + (s[j - 1] - g[j] * v)
        s[0] = s[0] + (xk - g[0] * v)
        v = 1.0 if s[n - 1] >= 0.0 else -1.0
        vsum += v
        states.append(SimState(s=tuple(s), v=v, k=k))
        m = max(abs(val) for val in s)
        if m > runmax:
            runmax = m
        if runmax > threshold:
            diverged = True
            first = k
            ran = k + 1
            break
    result = SimResult(
        diverged=diverged,
        first_divergence_sample=first,
        max_abs_state=runmax,
        mean_v=vsum / ran,
        samples_run=ran,
    )
    return result, states


def linearized_impulse(g: Sequence[float], terms: int) -> list[float]:
    """Impulse response from injected quantizer noise to the output.

    Replaces ``v = sign(I)`` with ``v = I + E`` and drives ``E`` with a unit
    impulse at zero input; the response must match ``ntf_series`` of the
    derived ``b`` coefficients term by term.
    """
    g = _check_g(g)
    n = len(g)
    if terms < 1:
        raise ValueError("terms must be >= 1")
    s = [0.0] * n
    v = 0.0
    out: list[float] = []
    for k in range(terms):
        for j in range(n - 1, 0, -1):
            s[j] = s[j] + (s[j - 1] - g[j] * v)
        s[0] = s[0] + (0.0 - g[0] * v)
        v = s[n - 1] + (1.0 if k == 0 else 0.0)
        out.append(v)
    return out


def extract_windows(grid) -> tuple[Window, ...]:
    """Maximal runs of unstable grid points, as amplitude windows.

    Accepts :class:`GridPoint` records or bare ``(amplitude, stable)`` pairs,
    already sorted by amplitude.
    """
    windows: list[Window] = []
    start = None
    last = None
    for item in grid:
        if hasattr(item, "amplitude"):
            amp, stable = float(item.amplitude), bool(item.stable)
        else:
            amp, stable = float(item[0]), bool(item[1])
        if not stable:
            if start is None:
                start = amp
            last = amp
        elif start is not None:
            windows.append(Window(lo=start, hi=last))
            start = None
    if start is not None:
        windows.append(Window(lo=start, hi=last))
    return tuple(windows)


def sweep(
    g: Sequence[float],
    amp_lo: float,
    amp_hi: float,
    steps: int,
    samples: int,
    threshold: float = DEFAULT_THRESHOLD,
) -> WindowReport:
    """DC amplitude sweep from all-zero initial state, with window extraction.

    Each grid point is an independent :func:`run`; a point is stable when it
    never diverged.  Grid amplitudes are evenly spaced over
    ``[amp_lo, amp_hi]`` inclusive.
    """
    if not (math.isfinite(amp_lo) and math.isfinite(amp_hi)):
        raise ValueError("amp_lo and amp_hi must be finite")
    if not amp_lo < amp_hi:
        raise ValueError("need amp_lo < amp_hi")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    amplitudes = np.linspace(amp_lo, amp_hi, steps)
    grid: list[GridPoint] = []
    for amp in amplitudes:
        res = run(g, DcInput(level=float(amp)), samples, threshold)
        grid.append(
            GridPoint(
                amplitude=float(amp),
                stable=not res.diverged,
                max_abs_state=res.max_abs_state,
                first_divergence_sample=res.first_divergence_sample,
            )
        )
    return WindowReport(grid=tuple(grid), windows=extract_windows(grid))
