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

from .transfer import _check_coeffs, _check_result, _check_scalar

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


# --- hot loops ---------------------------------------------------------------
#
# DC input dominates both the sweep workload and the long-run timing budget,
# so every order gets a hand-unrolled loop on local floats.  The generic
# loop (arbitrary waveforms, step records) uses the same expression shapes,
# so results are bit-identical across paths.  Inputs and threshold are
# finite, so the first non-finite state is +-inf and exits at once: no loop
# needs a NaN check.


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


def _run_generic(g, sample_at, samples, threshold, s0, record=None):
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
        if record is not None:
            record.append(SimState(s=tuple(s), v=v, k=k))
        grew = False
        for val in s:
            if val > runmax or -val > runmax:
                grew = True
        if grew:
            runmax = max(abs(val) for val in s)
            if runmax > threshold:
                return True, k, runmax, vsum, k + 1
    return False, None, runmax, vsum, samples


def _setup(g, x, samples, threshold, initial_state):
    """Checked ``(g, x, threshold, s0)`` for :func:`run` and :func:`trace_run`,
    with ``x`` a :class:`DcInput` or :class:`SineInput`; bare numbers are DC."""
    g = _check_coeffs(g, "g")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    threshold = _check_scalar(threshold, "threshold", positive=True)
    if initial_state is None:
        s0 = (0.0,) * len(g)
    else:
        s0 = _check_coeffs(initial_state, "initial_state", len(g))
    if isinstance(x, SineInput):
        amp = _check_scalar(x.amplitude, "sine amplitude")
        x = SineInput(amp, _check_scalar(x.period, "sine period", positive=True))
    else:
        x = DcInput(_check_scalar(x.level if isinstance(x, DcInput) else x, "DC level"))
    return g, x, threshold, s0


def _sample_at(x):
    if isinstance(x, DcInput):
        level = x.level
        return lambda k: level
    amp, w = x.amplitude, 2.0 * math.pi / x.period
    return lambda k: amp * math.sin(w * k)


def _summary(diverged, first, runmax, vsum, ran) -> SimResult:
    return SimResult(
        diverged=diverged,
        first_divergence_sample=first,
        max_abs_state=runmax,
        mean_v=vsum / ran,
        samples_run=ran,
    )


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
    g, x, threshold, s0 = _setup(g, x, samples, threshold, initial_state)
    if isinstance(x, DcInput):
        out = _DC_FAST[len(g)](g, x.level, samples, threshold, s0)
    else:
        out = _run_generic(g, _sample_at(x), samples, threshold, s0)
    return _summary(*out)


def trace_run(
    g: Sequence[float],
    x,
    samples: int,
    threshold: float = DEFAULT_THRESHOLD,
    initial_state: Sequence[float] | None = None,
) -> tuple[SimResult, list[SimState]]:
    """Like :func:`run` but records every step; for bounded trace dumps."""
    g, x, threshold, s0 = _setup(g, x, samples, threshold, initial_state)
    states: list[SimState] = []
    out = _run_generic(g, _sample_at(x), samples, threshold, s0, states)
    return _summary(*out), states


def linearized_impulse(g: Sequence[float], terms: int) -> list[float]:
    """Impulse response from injected quantizer noise to the output.

    Replaces ``v = sign(I)`` with ``v = I + E`` and drives ``E`` with a unit
    impulse at zero input; the response must match ``ntf_series`` of the
    derived ``b`` coefficients term by term.
    """
    g = _check_coeffs(g, "g")
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
    _check_result(out, "the impulse response")
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
            amp, stable = item.amplitude, bool(item.stable)
        else:
            amp, stable = item[0], bool(item[1])
        amp = _check_scalar(amp, "amplitude")
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


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    """``[float(v) for v in numpy.linspace(lo, hi, steps)]``, bit for bit.

    The same operations in the same order, including numpy's branch for a
    step that underflows to zero; ``steps >= 2``.
    """
    div = steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:
        grid = [(i / div) * delta + lo for i in range(div)]
    else:
        grid = [i * step + lo for i in range(div)]
    grid.append(hi)
    return grid


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
    amp_lo = _check_scalar(amp_lo, "amp_lo")
    amp_hi = _check_scalar(amp_hi, "amp_hi")
    if not amp_lo < amp_hi:
        raise ValueError("need amp_lo < amp_hi")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    grid: list[GridPoint] = []
    for amp in _linspace(amp_lo, amp_hi, steps):
        res = run(g, DcInput(level=amp), samples, threshold)
        grid.append(
            GridPoint(
                amplitude=amp,
                stable=not res.diverged,
                max_abs_state=res.max_abs_state,
                first_divergence_sample=res.first_divergence_sample,
            )
        )
    return WindowReport(grid=tuple(grid), windows=extract_windows(grid))
