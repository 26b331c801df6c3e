#!/usr/bin/env python3
"""sdmstab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (``BENCHMARK.json`` says why each exists):

* ``bounds``   one op is ``classify_intervals(b, n)``;
* ``check``    one op is ``count_inside_e1(char_poly(b, n, a))``;
* ``simulate`` one op is one ``run`` or one grid point of a ``sweep``;
* ``cli``      one op is a fresh ``python -m sdmstab.cli`` process.

Each is a closed loop with one client in a single process.  ``--trace 0``
times the workload and prints the end-to-end metrics; ``--trace 1`` runs a
fixed stretch of the corpus in chunks, each untraced and then traced, and
prints the per-layer metrics.  Either way every operation is scored against an
independent oracle after the timed phase, the last stdout line is the JSON
result, and a results file with the environment goes to ``perfbench/out/``.
Times are in reference time (see ``speed.py``); the results file also has
the raw ones.  In-process ops are timed in thread CPU time, so the host
descheduling the process does not count; CLI ops in wall time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("bounds", "check", "simulate", "cli")

# One simulate round takes about this long in reference time; the timed
# phase runs whole rounds so every run sees the same mix of ops.
SIM_ROUND_S = 5.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import ``sdmstab`` from this checkout's ``src``; exit 1 if it is not there."""
    init = SRC / "sdmstab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import sdmstab

    if Path(sdmstab.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported sdmstab from {sdmstab.__file__}, not from {SRC}")
    return sdmstab


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except OSError:
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


# --- workload table ------------------------------------------------------------


class Spec:
    """How the runner drives one workload."""

    def __init__(self, name, execute, score, probe_op=None, spawns=False, keep=None, kernel_of=None):
        self.name = name
        self.execute = execute
        self.score = score
        self.keep = keep          # projection of an output that scoring needs
        self.kernel_of = kernel_of  # item -> calibration kernels; default speed.ANALYTIC
        self.probe_op = probe_op  # op the set-up probe runs; None: the op is a process
        self.spawns = spawns      # each op starts a process: calibrate by spawning

    def ops(self, items, i: int) -> int:
        return items[i].ops if self.name == "simulate" else 1


def specs(scale):
    import speed
    import workloads as W

    env, root = child_env(), str(ROOT)
    return {
        "bounds": Spec("bounds", W.bounds_execute, W.bounds_score,
                       lambda items: [list(items[0][0]), items[0][1]], keep=W.bounds_keep),
        "check": Spec("check", W.check_execute, W.check_score,
                      lambda items: [list(items[0][0]), items[0][1], items[0][2]], keep=W.check_keep),
        "simulate": Spec("simulate", W.simulate_execute, W.simulate_score,
                         lambda items: [list(W.corpus.CRIT9_G), scale.crit9[0], scale.crit9[3]],
                         kernel_of=lambda unit: (speed.integrator_kernel,) if unit.kind == "sweep"
                         else (speed.objects_kernel,)),
        "cli": Spec("cli", W.CliRunner(env, root), W.cli_score, spawns=True),
    }


# --- measurement -----------------------------------------------------------------


def call(spec, item):
    try:
        return spec.execute(item)
    except Exception as exc:  # scored as an error, never aborts the run
        return exc


def kept(spec, out):
    """The part of ``out`` that is stored for scoring; whole outputs would
    make peak memory grow with the number of ops a run gets through."""
    if spec.keep is None or isinstance(out, BaseException):
        return out
    return spec.keep(out)


def timed_pass(spec, items, indices, stop=lambda elapsed: False):
    """Run ``items[i]`` for ``i`` in ``indices`` back to back until ``stop``.

    Returns ``(records, sampler)`` with one ``(index, raw_ns, ref_ns,
    output)`` record per call: its raw duration and its duration in
    reference time.  An op that starts a process is timed in wall time; an
    in-process op in thread CPU time (see ``speed.py``).  ``sampler`` holds
    the in-process calibration, or is None when each op was calibrated by
    a reference spawn.  ``stop`` gets the seconds of timed work so far: the
    wall time of the pass, or for spawned ops the ops' own wall time, so
    the reference spawns between them do not halve how many ops a run times.
    """
    import speed

    clock = time.perf_counter_ns
    timed = []
    if spec.spawns:
        env = child_env()
        refs = [(0, speed.spawn_reference(env, ROOT))]  # (ops done before it, ns)
        op_ns = 0
        for i in indices:
            item = items[i]
            t0 = clock()
            out = call(spec, item)
            timed.append((i, clock() - t0, kept(spec, out)))
            op_ns += timed[-1][1]
            refs.append((len(timed), speed.spawn_reference(env, ROOT)))
            if stop(op_ns / 1e9):
                break
        # Each op is scaled by the median of the three reference starts
        # before it and the three after it: one start alone can take a
        # third more or less than the next, so it would scale an op by
        # that jitter, not by the host's speed.
        return [(i, ns, speed.spawn_scale(ns, statistics.median(
                    [r for at, r in refs if k - 2 <= at <= k + 3])), out)
                for k, (i, ns, out) in enumerate(timed)], None

    kernel_of = spec.kernel_of or (lambda item: speed.ANALYTIC)
    with speed.Sampler() as sampler:
        cpu = sampler.clock
        t_start = clock()
        for i in indices:
            item = items[i]
            stolen = sampler.stolen
            t0 = cpu()
            out = call(spec, item)
            t1 = cpu()
            timed.append((i, t0, t1, t1 - t0 - (sampler.stolen - stolen), kept(spec, out),
                          kernel_of(item)))
            if stop((clock() - t_start) / 1e9):
                break
    return [(i, net, sampler.scale(t0, t1, net, kernel), out)
            for i, t0, t1, net, out, kernel in timed], sampler


def spawn_s(cmd, repeats: int, first_line: bool = False) -> tuple[float, float]:
    """Median (reference, raw) seconds from spawning ``cmd`` until it exits,
    or until it prints its first line."""
    import speed

    env = child_env()
    scaled, raw = [], []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            if first_line:
                proc.stdout.readline()
            else:
                proc.wait(timeout=120)
            ns = time.perf_counter_ns() - t0
            _, err = proc.communicate(timeout=120)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{' '.join(cmd[:3])} failed ({proc.returncode}): {err.strip()}")
        scaled.append(speed.spawn_scale(ns, speed.spawn_reference(env, ROOT)) / 1e9)
        raw.append(ns / 1e9)
    return statistics.median(scaled), statistics.median(raw)


def measure_setup(spec, items, repeats: int) -> tuple[float, float]:
    """Time from spawning a fresh interpreter to its first op done."""
    if spec.probe_op is None:
        return spawn_s([sys.executable, "-m", "sdmstab.cli", *items[0]], repeats)
    cmd = [sys.executable, str(HERE / "probe.py"), spec.name, json.dumps(spec.probe_op(items))]
    return spawn_s(cmd, repeats, first_line=True)


def score_records(spec, items, records):
    """Verdict counts over every op, with the reasons for all but ``ok``."""
    import workloads as W

    counts = {W.OK: 0, W.REFUSED: 0, W.ERROR: 0, W.KNOWN: 0}
    details = {W.ERROR: [], W.REFUSED: [], W.KNOWN: []}
    for i, _, _, out in records:
        verdict, why = spec.score(items[i], out)
        if verdict in details:
            details[verdict].append(f"{verdict}: {why}")
        counts[verdict] += spec.ops(items, i)
    return counts, [line for lines in details.values() for line in lines]


def latencies_ms(spec, items, timings) -> list[float]:
    """Per-op latencies from ``(index, raw_ns, ref_ns)`` timings; a sweep's
    grid points share its mean per-point time."""
    out = []
    for i, _, ns, *_ in timings:
        k = spec.ops(items, i)
        out += [ns / k / 1e6] * k
    return out


# The tail is read in consecutive parts of at least this many ops and the
# median over the parts is reported, so its percentile does not move with
# throughput.  The slowest ops' CPU times are noisy: over four passes of the
# same 20000 check ops in one process, the median tail of 2000-op parts
# varied by 15% and that of 500-op parts by 7%.
TAIL_OPS = 500


def tail(values: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it
    in each part of ``TAIL_OPS`` or more ops (the whole run, if shorter), as
    the median over the parts; and that percentile in the first part."""
    n = max(1, len(values) // TAIL_OPS)
    parts = [sorted(values[i * len(values) // n: (i + 1) * len(values) // n]) for i in range(n)]
    at = [max(0, len(p) - 11) for p in parts]
    return statistics.median(p[k] for p, k in zip(parts, at)), 100.0 * (at[0] + 1) / len(parts[0])


def sim_samples(items, records) -> dict:
    """Loop samples actually run per reference second, for DC and sine units."""
    acc = {"dc": [0, 0.0], "sine": [0, 0.0]}
    for i, _, ns, out in records:
        unit = items[i]
        if isinstance(out, BaseException):
            continue
        if unit.kind == "sweep":
            samples = unit.args[3]
            ran = sum(samples if p.stable else p.first_divergence_sample + 1 for p in out.grid)
            kind = "dc"
        else:
            ran, kind = out.samples_run, "sine"
        acc[kind][0] += ran
        acc[kind][1] += ns
    return {f"{k}_msamples_per_s": (s / (ns / 1e9) / 1e6 if ns else 0.0) for k, (s, ns) in acc.items()}


def peak_rss_mb(spec) -> float:
    """Peak resident memory of the process that runs the ops: this one, or
    for cli the largest of the op processes."""
    kib = spec.execute.peak_kib if spec.spawns else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0  # ru_maxrss is in KiB on Linux


def warm_up(spec, items, scale) -> int:
    """Run the untimed warm-up; returns the first index it did not use."""
    import corpus
    import workloads as W

    if spec.name == "simulate":
        W.simulator.sweep(corpus.CRIT9_G, 0.0, 0.0999, 4, 1000)
        return 0
    warm = scale.warmup[spec.name]
    timed_pass(spec, items, range(warm))
    return warm


def total(records, which: int) -> float:
    return sum(rec[which] for rec in records)


# Ops per segment of a time-bounded run: each segment is scored, untimed,
# and its outputs dropped before the next starts, so what the run stores
# (and its peak memory) does not grow with throughput.
SEGMENT_OPS = 500
# Non-ok verdicts whose reasons a run keeps and reports.
EXAMPLES = 20


def run_ops(spec, items, indices, seconds: float):
    """Closed loop over ``indices`` for ``seconds`` of timed work.

    Returns ``(columns, counts, details, kernel_ms)``: ``(index, raw_ns,
    ref_ns)`` as three arrays, verdict counts, the first ``EXAMPLES``
    reasons, and the median calibration kernel time of each segment.  Per
    op it keeps 24 bytes, so what it stores adds little to peak memory
    however many ops a run gets through.
    """
    idx, raw, ref = array("l"), array("d"), array("d")
    counts: dict = {}
    details: list = []
    kernel_ms = []
    indices = iter(indices)
    used = 0.0
    while used < seconds:
        t0 = time.perf_counter()
        seg, sampler = timed_pass(spec, items, itertools.islice(indices, SEGMENT_OPS),
                                  lambda elapsed: used + elapsed >= seconds)
        used += (time.perf_counter() - t0) if sampler is not None else total(seg, 1) / 1e9
        if not seg:
            break
        seg_counts, seg_details = score_records(spec, items, seg)
        for verdict, n in seg_counts.items():
            counts[verdict] = counts.get(verdict, 0) + n
        details += seg_details[: max(0, EXAMPLES - len(details))]
        for i, r, s, _ in seg:
            idx.append(i)
            raw.append(r)
            ref.append(s)
        if sampler is not None:
            kernel_ms.append(sampler.median_ms())
    return (idx, raw, ref), counts, details, kernel_ms


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, scale) -> dict:
    import corpus
    import workloads as W

    spec = specs(scale)[workload]
    if trace:
        return traced_run(spec, corpus.CORPORA[workload](seed, scale), seed, scale)

    rounds = max(1, round(seconds / SIM_ROUND_S))
    if workload == "simulate":
        items = corpus.simulate_corpus(seed, scale, rounds)
    else:
        items = corpus.CORPORA[workload](seed, scale)
    setup_s, setup_raw = measure_setup(spec, items, scale.setup_repeats)
    start = warm_up(spec, items, scale)
    problems = []
    if workload == "simulate":
        records, sampler = timed_pass(spec, items, range(len(items)))
        rss = peak_rss_mb(spec)
        counts, details = score_records(spec, items, records)
        problems = W.simulate_cross_checks(items, [rec[3] for rec in records], seed, scale.trace_check)
        timings = [rec[:3] for rec in records]
        kernel_ms = [sampler.median_ms()]
    else:
        columns, counts, details, kernel_ms = run_ops(spec, items, itertools.count(start), seconds)
        rss = peak_rss_mb(spec)
        timings = list(zip(*columns))

    lat = latencies_ms(spec, items, timings)
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / (total(timings, 2) / 1e9),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": rss,
    }
    raw_lat = latencies_ms(spec, items, [(i, r, r) for i, r, _ in timings])
    result = verdict_summary(counts, details, problems)
    result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    result["report"].update(
        op_tail_percentile=tail_pct,
        ops_timed=len(lat),
        raw={"setup_s": setup_raw, "ops_per_s": len(lat) / (total(timings, 1) / 1e9),
             "op_p50_ms": statistics.median(raw_lat), "op_tail_ms": tail(raw_lat)[0]},
        kernel_ms=statistics.median(kernel_ms) if kernel_ms else None,
    )
    if workload == "simulate":
        crit9 = [(rec[2] / 1e9, rec[1] / 1e9) for rec in records
                 if items[rec[0]].g == corpus.CRIT9_G and items[rec[0]].args == corpus.CRIT9_SWEEP]
        result["report"].update(sim_samples(items, records), rounds=rounds,
                                crit9_sweep_s=[c[0] for c in crit9], raw_crit9_sweep_s=[c[1] for c in crit9])
    return result


def verdict_summary(counts, details, problems) -> dict:
    """The result skeleton: correctness, op counts and the scoring report."""
    import workloads as W

    counts = {v: counts.get(v, 0) for v in (W.OK, W.REFUSED, W.ERROR, W.KNOWN)}
    attempted = sum(counts.values())
    # ``failed`` counts only unexpected errors, which make a run incorrect, so it
    # is 0 on every correct run.  The known defect's wrong intervals are outputs
    # of operations that completed; they are scored, capped and reported in
    # error_share, whose share varies with how far a timed run gets.
    failed = counts[W.ERROR]
    return {
        "correct": (counts[W.ERROR] == 0 and not problems
                    and counts[W.KNOWN] <= W.KNOWN_MAX_SHARE * attempted),
        "attempted": attempted,
        "failed": failed,
        "report": {
            "error_share": (counts[W.ERROR] + counts[W.KNOWN]) / attempted,
            "refusal_share": counts[W.REFUSED] / attempted,
            "verdicts": counts,
            "known_defect": W.KNOWN_DEFECT if counts[W.KNOWN] else None,
            "cross_check_problems": problems,
            "examples": details[:EXAMPLES],
        },
    }


# --- traced run ----------------------------------------------------------------------


# The traced ops run in this many chunks, each untraced and then traced;
# the tracing overhead is the median of the chunks' time ratios, so a slow
# spell of the host during one pass does not set it.
TRACE_CHUNKS = 8


def traced_run(spec, items, seed: int, scale) -> dict:
    import spans
    import workloads as W

    start = warm_up(spec, items, scale)
    if spec.name == "simulate":
        indices = list(range(len(items)))
    else:
        indices = list(range(start, start + scale.trace_ops[spec.name]))
    # The traced pass runs in this process; for cli that means parse,
    # execute and render on the same argv mix instead of a child process,
    # and the ops are scored from a separate pass of real CLI processes.
    inproc = Spec(spec.name, W.cli_in_process, spec.score) if spec.spawns else spec
    tracer = spans.Tracer()
    traced = Spec(spec.name, lambda item: tracer.op_span(f"op.{spec.name}", inproc.execute, item),
                  spec.score, kernel_of=inproc.kernel_of)
    plain, traced_records, ratios = [], [], []
    for k in range(TRACE_CHUNKS):
        chunk = indices[k * len(indices) // TRACE_CHUNKS: (k + 1) * len(indices) // TRACE_CHUNKS]
        if not chunk:
            continue
        untraced, _ = timed_pass(inproc, items, chunk)
        tracer.install()
        try:
            with_spans, sampler = timed_pass(traced, items, chunk)
        finally:
            tracer.remove()
        plain += untraced
        traced_records += with_spans
        ratios.append(total(with_spans, 2) / total(untraced, 2))
    records = timed_pass(spec, items, indices)[0] if spec.spawns else plain

    counts, details = score_records(spec, items, records)
    problems = []
    if spec.name == "simulate":
        problems = W.simulate_cross_checks(items, [rec[3] for rec in records], seed, scale.trace_check)
    result = verdict_summary(counts, details, problems)
    ops = sum(spec.ops(items, i) for i in indices)
    # Span times are raw and include the calibration samples; one factor
    # for the whole traced pass puts them in reference time.
    factor = total(traced_records, 2) / (sum(tracer.total_ns[n] for n in tracer.names if n.startswith("op.")) or 1)
    layer = per_layer(tracer, ops, factor)
    interpreter = spawn_s([sys.executable, "-c", "pass"], scale.setup_repeats)[0]
    imported = spawn_s([sys.executable, "-c", "import sdmstab.cli"], scale.setup_repeats)[0]
    layer["cli.interpreter_ms"] = 1e3 * interpreter
    layer["cli.import_ms"] = 1e3 * (imported - interpreter)
    rep = result["report"]
    layer["error_share"] = rep["error_share"]
    layer["refusal_share"] = rep["refusal_share"]
    samples = sim_samples(items, records) if spec.name == "simulate" else {}
    layer["dc_msamples_per_s"] = samples.get("dc_msamples_per_s", 0.0)
    layer["sine_msamples_per_s"] = samples.get("sine_msamples_per_s", 0.0)
    layer["trace.overhead_share"] = statistics.median(ratios) - 1.0
    result["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}
    rep.update(absent=tracer.absent, traced_ops=ops, spans=len(tracer.start),
               kernel_ms=sampler.median_ms())
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{spec.name}-seed{seed}.csv.gz")
    return result


PER_LAYER = {
    "polynomial.real_roots_open.self_ms": "ms/op",
    "polynomial.all_roots.calls": "calls/op",
    "polynomial.all_roots.self_ms": "ms/op",
    "polynomial.cheb_expand.self_ms": "ms/op",
    "polynomial.poly_allocs": "allocs/op",
    "transfer.char_poly.calls": "calls/op",
    "transfer.char_poly.self_ms": "ms/op",
    "winding.count_inside_e1.self_ms": "ms/op",
    "winding.characteristic_points.self_ms": "ms/op",
    "winding.winding_oracle.self_ms": "ms/op",
    "winding.fallback_share": "ratio",
    "winding.count_inside_eig.calls": "calls/op",
    "boundary.zero_point_candidates.self_ms": "ms/op",
    "boundary.crossing_param.calls": "calls/op",
    "boundary.probes": "probes/call",
    "boundary.valid_candidate_share": "ratio",
    "boundary.classify_intervals.self_ms": "ms/op",
    **{f"simulator.dc_ns_per_sample.n{n}": "ns/sample" for n in range(1, 6)},
    "simulator.sine_ns_per_sample": "ns/sample",
    "simulator.early_exit_share": "ratio",
    "simulator.sweep_overhead_ms": "ms/call",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.parse_ms": "ms/call",
    "cli.execute_ms": "ms/call",
    "cli.render_ms": "ms/call",
    "error_share": "ratio",
    "refusal_share": "ratio",
    "dc_msamples_per_s": "Msamples/s",
    "sine_msamples_per_s": "Msamples/s",
    "trace.overhead_share": "ratio",
}


def per_layer(tracer, ops: int, factor: float) -> dict:
    """Per-layer metrics from the traced pass; ``factor`` turns raw span
    nanoseconds into reference time."""
    def ratio(num, den):
        return num / den if den else 0.0

    calls = tracer.calls
    out = {}
    for key in PER_LAYER:
        fn, _, what = key.rpartition(".")
        if what == "self_ms":
            out[key] = factor * tracer.self_ns.get(fn, 0) / 1e6 / ops
        elif what == "calls":
            out[key] = calls.get(fn, 0) / ops
    out["polynomial.poly_allocs"] = tracer.poly_allocs / ops
    out["winding.fallback_share"] = ratio(calls.get("winding.winding_oracle", 0),
                                          calls.get("winding.count_inside_e1", 0))
    out["boundary.probes"] = ratio(
        tracer.calls_under("winding.count_inside_e1", "boundary.classify_intervals"),
        calls.get("boundary.classify_intervals", 0),
    )
    out["boundary.valid_candidate_share"] = ratio(*tracer.candidates)
    for n in range(1, 6):
        dc = [(s, ns) for order, kind, s, _, ns in tracer.runs if order == n and kind == "dc"]
        out[f"simulator.dc_ns_per_sample.n{n}"] = factor * ratio(sum(ns for _, ns in dc), sum(s for s, _ in dc))
    sine = [(s, ns) for _, kind, s, _, ns in tracer.runs if kind == "sine"]
    out["simulator.sine_ns_per_sample"] = factor * ratio(sum(ns for _, ns in sine), sum(s for s, _ in sine))
    out["simulator.early_exit_share"] = ratio(sum(r[3] for r in tracer.runs), len(tracer.runs))
    out["simulator.sweep_overhead_ms"] = factor * ratio(tracer.self_ns.get("simulator.sweep", 0) / 1e6,
                                                        calls.get("simulator.sweep", 0))
    for stage in ("parse", "execute", "render"):
        out[f"cli.{stage}_ms"] = factor * ratio(tracer.total_ns.get(f"cli.{stage}", 0) / 1e6,
                                                calls.get(f"cli.{stage}", 0))
    return out


# --- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_package()
    import corpus

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), corpus.FULL)
    report = result.pop("report")
    report.update(environment(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "report": report}, indent=2) + "\n", encoding="utf-8")

    print(f"sdmstab benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={report['commit']} python={report['python']} numpy={report['numpy']} "
          f"cpu={report['cpu']!r} nproc={report['nproc']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    for key in ("error_share", "refusal_share", "dc_msamples_per_s", "sine_msamples_per_s",
                "op_tail_percentile", "ops_timed"):
        if key in report and key not in result["metrics"]:
            print(f"  {key:40s} {report[key]:14.6g}")
    print(f"  verdicts {report['verdicts']}; results in {path.relative_to(ROOT)}")
    if report["known_defect"]:
        print(f"  known defect counted in error_share, not in failed: {report['known_defect']}")
    for line in report["cross_check_problems"] + report["examples"][:5]:
        print(f"  {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
