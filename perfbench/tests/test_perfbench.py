"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_package()

import corpus  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def items(workload, seed, k=300):
    """The first ``k`` items of a corpus (simulate: its first two rounds)."""
    if workload == "simulate":
        return corpus.simulate_corpus(seed, corpus.FULL, rounds=2)
    return corpus.CORPORA[workload](seed, corpus.FULL).prefix(k)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_regenerates_identical_corpus(workload):
    assert items(workload, 7) == items(workload, 7)
    assert items(workload, 7) != items(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_items_do_not_repeat(workload):
    made = [repr(item) for item in items(workload, 7)]
    assert len(set(made)) == len(made)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_metric(workload, traced):
    result = run.run_benchmark(workload, 999, 0.2, traced, corpus.TINY)
    wanted = SPEC["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert not result["report"]["cross_check_problems"]


def test_bounds_scoring_tells_the_known_defect_from_other_errors():
    import sdmstab.boundary as boundary
    import workloads as W

    designs = corpus.bounds_corpus(3, corpus.FULL).prefix(200)
    real = [W.bounds_score(d, boundary.classify_intervals(*d).intervals)[0] for d in designs]
    assert W.ERROR not in real and W.KNOWN in real
    # One interval over all of a > 0, classified at a = 1, misses every
    # event: that is an error, not the known defect.
    fake = []
    for b, n in designs:
        stable, count = boundary._probe(b, n, 1.0)
        whole = boundary.StabilityInterval(lo=0.0, hi=math.inf, stable=stable, witness_a=1.0,
                                           witness_count=count)
        fake.append(W.bounds_score((b, n), (whole,))[0])
    assert fake.count(W.ERROR) > fake.count(W.KNOWN)


def test_tracer_restores_wrapped_functions_and_reports_absent_ones(monkeypatch):
    import sdmstab.boundary as boundary
    import sdmstab.polynomial as polynomial

    probe, init = boundary.count_inside_e1, polynomial.Poly.__init__
    monkeypatch.delattr(boundary, "crossing_param")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert boundary.count_inside_e1 is not probe
    finally:
        tracer.remove()
    assert "boundary.crossing_param" in tracer.absent
    assert boundary.count_inside_e1 is probe and polynomial.Poly.__init__ is init


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
