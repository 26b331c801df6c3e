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
coefficients used by the analytic modules: acceptance criterion 7 checks
it with ``linearized_impulse`` of ``tests/oracles.py``, that loop with the
quantizer replaced.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

from .polynomial import _compile, record
from .transfer import _check_coeffs, _check_count, _check_scalar

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
    "sweep",
    "extract_windows",
]

DEFAULT_THRESHOLD = 1e6


@record
class DcInput:
    level: float


@record
class SineInput:
    amplitude: float
    period: float  # samples per cycle


@record
class SimState:
    """One trace row: integrator states, quantizer output, sample index."""

    s: tuple[float, ...]
    v: float
    k: int


@record
class SimResult:
    """Trajectory summary.

    ``max_abs_state`` is the largest integrator magnitude over the samples
    actually run (the supplied initial state is not a sample), so
    ``diverged`` holds exactly when it exceeded the threshold.
    ``peak_sample`` is the sample at which it was last raised, ``None`` when
    every state stayed zero.
    """

    diverged: bool
    first_divergence_sample: int | None
    max_abs_state: float
    mean_v: float
    samples_run: int
    peak_sample: int | None = None


@record
class GridPoint:
    amplitude: float
    stable: bool
    max_abs_state: float
    first_divergence_sample: int | None


@record
class Window:
    lo: float
    hi: float


@record
class WindowReport:
    grid: tuple[GridPoint, ...]
    windows: tuple[Window, ...]


# --- the integrator loop -----------------------------------------------------
#
# There is one loop definition, ``_TEMPLATE``.  ``_kernel`` expands it into
# straight-line code for one order, input kind (DC or sine) and trace flag,
# with every state and gain in a local, and compiles it on first use;
# nothing is compiled at import.
#
# The body splits on the quantizer sign.  ``v`` is +-1, so ``g*v`` is exact
# and ``a - g*v`` is ``a - g`` or ``a - (-g)``, which IEEE 754 defines as
# ``a + g``: each branch does the same roundings as the textbook update
# without its n multiplies.  A DC input's first-stage term ``x -+ g1`` is
# the same value every sample, so it is computed once.  ``v`` is the sign
# of the top state at the top of the body, and ``pos`` counts the +1
# outputs (the branch count, shifted by one sample), so the sum of ``v``
# over ``ran`` samples is ``2*pos - ran``, exact below 2**53 like the float
# sum it replaces.  The growth test ``s > runmax or s < lo`` with
# ``lo = -runmax`` is the textbook ``s > runmax or -s > runmax``.  No state
# is NaN: inputs are finite, so the first non-finite state is +-inf and
# exits at once.  Results are bit-identical to the textbook loop, which
# ``tests/test_simulator.py`` keeps as the reference.

_TEMPLATE = """\
def kernel(g, x, samples, threshold, s0, emit):
    {g} = g
    {s} = s0
    {setup}
    pos = -({top} >= 0.0)
    runmax = lo = 0.0
    peak = None
    for k in range(samples):
        {sample}
        if {top} >= 0.0:
            {minus}
            pos += 1
        else:
            {plus}
        {emit}
        if {grew}:
            runmax = {absmax}
            peak = k
            if runmax > threshold:
                return True, k, runmax, pos + ({top} >= 0.0), k + 1, peak
            lo = -runmax
    return False, None, runmax, pos + ({top} >= 0.0), samples, peak
"""


@functools.cache
def _kernel(n: int, sine: bool, trace: bool):
    """The loop for order ``n``: ``kernel(g, x, samples, threshold, s0,
    emit)`` returns ``(diverged, first, runmax, pos, ran, peak)``.  ``x``
    is the DC level, or ``(amplitude, 2*pi/period)`` for a sine; a trace
    kernel passes each :class:`SimState` to ``emit``."""
    s = [f"s{j}" for j in range(1, n + 1)]
    states = ", ".join(s) + ","

    def stages(op, x_term):
        # Stage j reads the pre-update stage j-1, so the top stage goes first.
        lines = [f"s{j} = s{j} + (s{j - 1} {op} g{j})" for j in range(n, 1, -1)]
        return "\n            ".join(lines + [f"s1 = s1 + {x_term}"])

    src = _TEMPLATE.format(
        g=", ".join(f"g{j}" for j in range(1, n + 1)) + ",",
        s=states,
        top=s[-1],
        setup="amp, w = x" if sine else "x_minus, x_plus = x - g1, x + g1",
        sample="x = amp * sin(w * k)" if sine else "",
        minus=stages("-", "(x - g1)" if sine else "x_minus"),
        plus=stages("+", "(x + g1)" if sine else "x_plus"),
        emit=f"emit(SimState(({states}), 1.0 if {s[-1]} >= 0.0 else -1.0, k))" if trace else "",
        grew=" or ".join(f"{sj} > runmax or {sj} < lo" for sj in s),
        absmax=f"max({', '.join(f'abs({sj})' for sj in s)})" if n > 1 else "abs(s1)",
    )
    scope = {"sin": math.sin, "SimState": SimState}
    return _compile(src, f"kernel n={n} sine={sine} trace={trace}", scope)["kernel"]


def _simulate(g, x, samples, threshold, initial_state, emit=None) -> SimResult:
    """Check the inputs of :func:`run` or :func:`trace_run` and run the loop;
    ``x`` is a :class:`DcInput` or :class:`SineInput`, bare numbers are DC;
    a traced run keeps one state per sample, so its ``samples`` are rows."""
    g = _check_coeffs(g, "g")
    samples = _check_count(samples, "samples", rows=emit is not None)
    threshold = _check_scalar(threshold, "threshold", positive=True)
    if initial_state is None:
        s0 = (0.0,) * len(g)
    else:
        s0 = _check_coeffs(initial_state, "initial_state", len(g))
    sine = isinstance(x, SineInput)
    if sine:
        amp = _check_scalar(x.amplitude, "sine amplitude")
        x = (amp, 2.0 * math.pi / _check_scalar(x.period, "sine period", positive=True))
    else:
        x = _check_scalar(x.level if isinstance(x, DcInput) else x, "DC level")
    kernel = _kernel(len(g), sine, emit is not None)
    diverged, first, runmax, pos, ran, peak = kernel(g, x, samples, threshold, s0, emit)
    return SimResult(
        diverged=diverged,
        first_divergence_sample=first,
        max_abs_state=runmax,
        mean_v=float(2 * pos - ran) / ran,
        samples_run=ran,
        peak_sample=peak,
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
    return _simulate(g, x, samples, threshold, initial_state)


def trace_run(
    g: Sequence[float],
    x,
    samples: int,
    threshold: float = DEFAULT_THRESHOLD,
    initial_state: Sequence[float] | None = None,
) -> tuple[SimResult, list[SimState]]:
    """Like :func:`run` but records every step; for bounded trace dumps."""
    states: list[SimState] = []
    return _simulate(g, x, samples, threshold, initial_state, states.append), states


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
    steps = _check_count(steps, "steps", 2, rows=True)
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
