#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads bounds,check,simulate,cli \\
        --seeds 1-10 --seconds 10 [--trace] [--baseline perfbench/baseline.json]

For every workload and metric it prints the median over the seeds and the
quartile spread ``(q3 - q1) / median`` (quartiles as
``statistics.quantiles(values, n=4)`` gives them), the figure the
benchmark's bounds are checked against.  Without ``--trace`` the runs are
untraced and give the end-to-end metrics; with it, traced runs give the
per-layer ones.  ``--baseline`` merges the summary, with the environment of the
runs, into that JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report["report"]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


REPORTED = ("error_share", "refusal_share", "op_tail_percentile", "ops_timed",
            "dc_msamples_per_s", "sine_msamples_per_s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="bounds,check,simulate,cli")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    kind = "per_layer" if args.trace else "end_to_end"
    summary = {}
    env = None
    for workload in args.workloads.split(","):
        results, reports = [], []
        for seed in args.seeds:
            result, report = run_once(workload, seed, args.seconds, int(args.trace))
            results.append(result)
            reports.append(report)
        env = {k: reports[0][k] for k in ("commit", "python", "numpy", "cpu", "nproc")}
        out = {}
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            out[name] = {**summarize(vals), "unit": results[0]["metrics"][name]["unit"], "values": vals}
        for key in REPORTED:
            if key in reports[0] and key not in out:
                out[key] = {**summarize([r[key] for r in reports]), "values": [r[key] for r in reports]}
        if not args.trace:
            raw = {k: [r["raw"][k] for r in reports] for k in reports[0]["raw"]}
            out["raw"] = {k: {**summarize(v), "values": v} for k, v in raw.items()}
        out["correct"] = all(r["correct"] for r in results)
        out["failed"] = [r["failed"] for r in results]
        out["attempted"] = [r["attempted"] for r in results]
        summary[workload] = out
        print(f"{workload}: correct={out['correct']} failed={out['failed']} attempted={out['attempted']}")
        for name, s in out.items():
            if isinstance(s, dict) and "median" in s:
                flag = ""
                if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                    flag = f"  <-- above a third of bound {bounds[name]}"
                print(f"  {name:40s} median {s['median']:12.6g} {s.get('unit', ''):12s} "
                      f"spread {s['spread']:.4f}{flag}")
    if args.baseline:
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        doc.setdefault(kind, {}).update(summary)
        doc[f"{kind}_runs"] = {"seeds": args.seeds, "seconds": args.seconds, **env}
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
