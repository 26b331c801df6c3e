"""The four workloads: what one operation calls, and how its output is scored.

Operations reach the package only through public functions looked up on
their modules at call time (``boundary.classify_intervals``, not a name bound
at import), so the traced pass sees the same calls once it rebinds them.

Every operation gets a verdict from ``score``, computed after the timed
phase from an oracle that does not share code with the path under test:

* ``ok``       the output agrees with the oracle;
* ``refused``  an explicit refusal (``marginal=True``,
               ``DegenerateBoundaryError``, CLI exit 1);
* ``error``    the output disagrees with the oracle, or the call raised;
* ``known``    an ``error`` of the documented kind listed in ``KNOWN_DEFECT``.
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import subprocess
import sys
import time

import numpy as np

import sdmstab.boundary as boundary
import sdmstab.cli as cli
import sdmstab.simulator as simulator
import sdmstab.transfer as transfer
import sdmstab.winding as winding

import corpus

# Roots this close to the unit circle make a probe undecidable; such probes
# are the only ones excluded from scoring.
UNDECIDABLE = 1e-9

# A missed boundary event: the remainder chain in ``zero_point_candidates``
# discards true roots of its terminal equation as degree-collapse artifacts
# (the falsely-stable intervals described in ROADMAP.md; mostly order 4/5,
# rarely order 3 near ``a = b3``), so one reported interval spans a
# stability flip.  An operation counts as this defect only if the interval
# misses an event strictly inside it while each of its finite endpoints
# other than 0 is a true event, its witness verdict is right, and the
# crossing at ``z = -1`` (found without the chain) is an edge of the
# partition whenever it is a true event at some ``a > 0``; any other
# wrong interval, any such miss at order 1 or 2, or a share of such misses
# above ``KNOWN_MAX_SHARE`` makes a run incorrect.  Known failures count in
# error_share, not in the run's ``failed`` count.
KNOWN_DEFECT = (
    "bounds: missed boundary event, an interval between two true events "
    "spans a stability flip that numpy.roots finds inside it"
)
KNOWN_MIN_ORDER = 3
# At the commit that added the benchmark, the defect hit 0.1086-0.1131 of
# designs 200-10199 (what a 10 s run covers) over seeds 1-40, median 0.1106.
# The cap leaves room for the 2000-op traced run, whose share varies by
# about 0.0025 (one standard deviation) from seed to seed.
KNOWN_MAX_SHARE = 0.12

OK, REFUSED, ERROR, KNOWN = "ok", "refused", "error", "known"


def _char_desc(b, n: int, a: float) -> list[float]:
    """Descending coefficients of ``a*(z-1)**n + D(z)``, built independently."""
    return [a] + [a * math.comb(n, k) * (-1.0) ** k + b[k - 1] for k in range(1, n + 1)]


def _true_inside(b, n: int, a: float) -> int | None:
    """Roots strictly inside ``|z| = 1`` by ``numpy.roots``; None if undecidable."""
    mods = np.abs(np.roots(_char_desc(b, n, a)))
    if mods.size < n or np.min(np.abs(mods - 1.0)) < UNDECIDABLE:
        return None
    return int(np.sum(mods < 1.0))


# --- bounds ------------------------------------------------------------------


def bounds_execute(item):
    b, n = item
    return boundary.classify_intervals(b, n)


def bounds_keep(report):
    """What scoring needs of an output, so stored outputs stay small."""
    return report.intervals


def _interior_probes(lo: float, hi: float) -> list[float]:
    if math.isinf(hi):
        return [lo + (1.0 + lo) * s for s in (0.02, 0.25, 1.0, 4.0, 16.0)]
    return [lo + (hi - lo) * t for t in (0.02, 0.25, 0.5, 0.75, 0.98)]


def _is_event(b, n: int, a: float) -> bool:
    """Whether the numpy.roots inside-count changes across ``a``."""
    for rel in (1e-7, 1e-6, 1e-5):
        below, above = _true_inside(b, n, a * (1.0 - rel)), _true_inside(b, n, a * (1.0 + rel))
        if below is not None and above is not None:
            return below != above
    return False


def _minus_one_crossing(b, n: int) -> float:
    """The ``a`` with a root at ``z = -1``: ``a*(-2)**n + D(-1) = 0``."""
    return -sum(b[k - 1] * (-1.0) ** (n - k) for k in range(1, n + 1)) / (-2.0) ** n


def _has_edge(intervals, a: float) -> bool:
    return any(abs(e - a) <= 1e-9 * max(1.0, a) for iv in intervals for e in (iv.lo, iv.hi))


def bounds_score(item, intervals) -> tuple[str, str]:
    b, n = item
    if isinstance(intervals, boundary.DegenerateBoundaryError):
        return REFUSED, "DegenerateBoundaryError"
    if isinstance(intervals, BaseException):
        return ERROR, f"raised {type(intervals).__name__}: {intervals}"
    for iv in intervals:
        for a in _interior_probes(iv.lo, iv.hi):
            inside = _true_inside(b, n, a)
            if inside is None:
                continue
            if (inside == n) != iv.stable:
                verdict = "stable" if iv.stable else "unstable"
                detail = (f"order {n} b={list(b)}: ({iv.lo!r}, {iv.hi!r}) reported {verdict}, "
                          f"a={a!r} has {inside}/{n} inside")
                at_witness = _true_inside(b, n, iv.witness_a)
                minus_one = _minus_one_crossing(b, n)
                missed_event = (
                    n >= KNOWN_MIN_ORDER
                    and at_witness is not None and (at_witness == n) == iv.stable
                    and all(_is_event(b, n, e) for e in (iv.lo, iv.hi) if 0.0 < e < math.inf)
                    and (minus_one <= 0.0 or not _is_event(b, n, minus_one)
                         or _has_edge(intervals, minus_one))
                )
                return (KNOWN if missed_event else ERROR), detail
    return OK, ""


# --- check -------------------------------------------------------------------


def check_execute(item):
    b, n, a = item
    return winding.count_inside_e1(transfer.char_poly(b, n, a))


def check_keep(result):
    return result.marginal, result.inside


def check_score(item, kept) -> tuple[str, str]:
    b, n, a = item
    if isinstance(kept, BaseException):
        return ERROR, f"raised {type(kept).__name__}: {kept}"
    marginal, inside = kept
    truth = _true_inside(b, n, a)
    if truth is None:
        return OK, "undecidable"
    if marginal:
        return REFUSED, "marginal"
    if inside != truth:
        return ERROR, f"order {n} b={list(b)} a={a!r}: {inside} inside, numpy.roots says {truth}"
    return OK, ""


# --- simulate ----------------------------------------------------------------


def simulate_execute(unit: corpus.SimUnit):
    if unit.kind == "sweep":
        return simulator.sweep(unit.g, *unit.args)
    amp, period, samples = unit.args
    return simulator.run(unit.g, simulator.SineInput(amp, period), samples)


def _windows(flags) -> list[tuple[float, float]]:
    """Maximal runs of unstable amplitudes, recomputed independently."""
    out, start, last = [], None, None
    for amp, stable in flags:
        if not stable:
            start = amp if start is None else start
            last = amp
        elif start is not None:
            out.append((start, last))
            start = None
    if start is not None:
        out.append((start, last))
    return out


def _result_consistent(diverged, first, runmax, samples, ran, threshold) -> str:
    if diverged:
        if first is None or not 0 <= first < samples or ran != first + 1 or not runmax > threshold:
            return "diverged run with inconsistent divergence fields"
    elif first is not None or ran != samples or not (math.isfinite(runmax) and runmax <= threshold):
        return "bounded run with inconsistent fields"
    return ""


def simulate_score(unit: corpus.SimUnit, out) -> tuple[str, str]:
    if isinstance(out, BaseException):
        return ERROR, f"raised {type(out).__name__}: {out}"
    threshold = simulator.DEFAULT_THRESHOLD
    if unit.kind == "sine":
        samples = unit.args[2]
        why = _result_consistent(out.diverged, out.first_divergence_sample, out.max_abs_state,
                                 samples, out.samples_run, threshold)
        if not why and not -1.0 <= out.mean_v <= 1.0:
            why = "mean quantizer output outside [-1, 1]"
        return (ERROR, why) if why else (OK, "")
    lo, hi, steps, samples = unit.args
    amps = [float(v) for v in np.linspace(lo, hi, steps)]
    if [p.amplitude for p in out.grid] != amps:
        return ERROR, "sweep grid amplitudes differ from linspace"
    for p in out.grid:
        ran = samples if p.stable else (p.first_divergence_sample or 0) + 1
        why = _result_consistent(not p.stable, p.first_divergence_sample, p.max_abs_state,
                                 samples, ran, threshold)
        if why:
            return ERROR, f"amplitude {p.amplitude!r}: {why}"
    if [(w.lo, w.hi) for w in out.windows] != _windows((p.amplitude, p.stable) for p in out.grid):
        return ERROR, "windows are not the maximal unstable runs of the grid"
    if unit.args == corpus.CRIT9_SWEEP and unit.g == corpus.CRIT9_G:
        unstable = sum(not p.stable for p in out.grid)
        if unstable != corpus.CRIT9_UNSTABLE:
            return ERROR, f"criterion-9 sweep has {unstable} unstable points, expected {corpus.CRIT9_UNSTABLE}"
    return OK, ""


def simulate_cross_checks(units, outputs, seed: int, count: int) -> list[str]:
    """Whole-run checks: a seeded subset of DC grid points and one sine run
    replayed through ``trace_run`` (the generic loop) must match bit for bit,
    and criterion 10's regression windows must come out frozen."""
    rng = random.Random(f"simulate-cross:{seed}")
    sweeps = [(u, o) for u, o in zip(units, outputs) if u.kind == "sweep" and not isinstance(o, BaseException)]
    sines = [(u, o) for u, o in zip(units, outputs) if u.kind == "sine" and not isinstance(o, BaseException)]
    problems = []
    for _ in range(count if sweeps else 0):
        unit, rep = rng.choice(sweeps)
        p = rng.choice(rep.grid)
        ref, _ = simulator.trace_run(unit.g, simulator.DcInput(p.amplitude), unit.args[3])
        if (ref.diverged, ref.first_divergence_sample, ref.max_abs_state) != (
            not p.stable, p.first_divergence_sample, p.max_abs_state
        ):
            problems.append(f"trace_run disagrees at g={list(unit.g)} amplitude={p.amplitude!r}")
    if sines:
        unit, res = rng.choice(sines)
        amp, period, samples = unit.args
        ref, _ = simulator.trace_run(unit.g, simulator.SineInput(amp, period), samples)
        if ref != res:
            problems.append(f"trace_run disagrees on the sine run g={list(unit.g)}")
    rep = simulator.sweep(corpus.CRIT9_G, *corpus.CRIT10_SWEEP)
    if tuple((w.lo, w.hi) for w in rep.windows) != corpus.CRIT10_WINDOWS:
        problems.append(f"criterion-10 windows changed: {rep.windows}")
    return problems


# --- cli ---------------------------------------------------------------------


# A CLI operation that has not exited by then is killed and scored an error.
CLI_TIMEOUT_S = 120.0


class CliRunner:
    """Runs one ``python -m sdmstab.cli`` process per operation.

    Each child is reaped with ``os.wait4``, which gives that child's own
    resource usage, so ``peak_kib`` is the largest resident set of any
    operation's process, and of nothing else the benchmark starts.
    """

    def __init__(self, env: dict, root: str):
        self.env, self.root = env, root
        self.peak_kib = 0

    def __call__(self, argv) -> tuple[int, str]:
        with subprocess.Popen([sys.executable, "-m", "sdmstab.cli", *argv], cwd=self.root,
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            fd, chunks = proc.stdout.fileno(), []
            deadline = time.monotonic() + CLI_TIMEOUT_S
            while chunk := self._read(fd, deadline):
                chunks.append(chunk)
            if chunk is None:
                proc.kill()
                raise TimeoutError(f"{argv[0]} ran longer than {CLI_TIMEOUT_S} s")
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)  # KiB on Linux
        return proc.returncode, b"".join(chunks).decode()

    @staticmethod
    def _read(fd: int, deadline: float) -> bytes | None:
        """The next chunk of output, b"" at its end, None past ``deadline``."""
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        return os.read(fd, 1 << 16)


def cli_in_process(argv) -> tuple[int, str]:
    """What ``sdmstab.cli.main`` would print and return, computed in-process."""
    cfg = cli.parse(list(argv))
    try:
        report, code = cli.execute(cfg)
        return code, cli.render(report, cfg.format)
    except boundary.DegenerateBoundaryError:
        return 1, ""
    except ValueError:
        return 2, ""


def cli_score(argv, out) -> tuple[str, str]:
    if isinstance(out, BaseException):
        return ERROR, f"raised {type(out).__name__}: {out}"
    code, stdout = out
    want_code, want_text = cli_in_process(argv)
    if code != want_code:
        return ERROR, f"{argv[0]}: exit {code}, in-process {want_code}"
    if code == 1:
        return REFUSED, "exit 1"
    if code != 0:
        return ERROR, f"{argv[0]}: exit {code}"
    if argv[argv.index("--format") + 1] == "json":
        try:
            if json.loads(stdout) != json.loads(want_text):
                return ERROR, f"{argv[0]}: json differs from the in-process result"
        except json.JSONDecodeError as exc:
            return ERROR, f"{argv[0]}: json does not parse: {exc}"
    elif stdout != want_text:
        return ERROR, f"{argv[0]}: output differs from the in-process result"
    return OK, ""
