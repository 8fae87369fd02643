"""Smoke test of the benchmark at a tiny size (one-second runs).

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps it out of the repository's default test collection, so
the tier-1 suite does not pay for it. Each workload runs once untraced and
once traced; every metric must appear under its name with its unit, every
output must check out, and a copy holding only the benchmark must exit
non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_fraction": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"ot1d.wasserstein_pp_batch.{s}": "count" for s in ("calls", "rows", "weighted_rows")},
    "ot1d.wasserstein_pp_batch.self_s": "s",
    "ot1d.wasserstein_1d.calls": "count",
    "ot1d.wasserstein_1d.self_s": "s",
    **{f"ot_exact.wasserstein_exact.{s}": "count"
       for s in ("calls", "simplex_calls", "assignment_calls", "cells")},
    "ot_exact.wasserstein_exact.self_s": "s",
    "maxsliced.warm_start.self_s": "s",
    "maxsliced.warm_start.evaluations": "count",
    "maxsliced.warm_start.evaluation_share": "fraction",
    "maxsliced.warm_start.time_share": "fraction",
    **{f"maxsliced.{f}.{s}": "count"
       for f in ("max_sliced_certified", "max_sliced") for s in ("calls", "evaluations")},
    "maxsliced.max_sliced_certified.self_s": "s",
    "maxsliced.max_sliced.self_s": "s",
    **{f"{f}.calls": "count" for f in ("maxsliced.projected_distance",
                                       "sliced.sliced_wasserstein", "sphere.quadrature_grid")},
    **{f"{f}.self_s": "s" for f in (
        "maxsliced.projected_distance", "sliced.sliced_wasserstein", "sphere.quadrature_grid",
        "measures.load_measure", "measures.generate", "cli.main",
        "experiments.inequality_audit", "experiments.rate_experiment")},
    "audit.criterion4_violations": "count",
    "trace.untraced_items_per_s": "1/s",
    "trace.traced_items_per_s": "1/s",
    "trace.overhead_fraction": "fraction",
}

WORKLOADS = ("audit", "rates", "dist_weighted")


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines), name
    if not trace:
        assert any("failed_fraction 0 " in line for line in lines)
    if trace:
        assert any("work counts repeat exactly: True" in line for line in lines)
    if trace and workload == "rates":
        assert any("first traced n=1024 cell" in line for line in lines)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "audit", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
