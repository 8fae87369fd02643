#!/usr/bin/env python3
"""otslice benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload {audit,rates,dist_weighted} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; otslice is imported from ``src/``.
With ``--trace 0`` the workload runs for S seconds (the item in flight at the
deadline completes) and the end-to-end metrics are printed; ``setup_s`` is
the median over three fresh ``--setup-only`` processes, each timed from start
to the point where its first item would be timed. End-to-end times are in
calibrated seconds: wall seconds scaled by the run's machine speed, measured
by kernels timed between items (``calibrate.py``); the wall figures are
printed beside them. With
``--trace 1`` a fixed list of items, sized from S, runs once untraced and
twice traced; the per-layer metrics come from the first traced pass, the
work counts of the two traced passes must agree exactly, and the tracing
overhead is the traced against the untraced throughput. Either way every
output is checked, a recorded reference set is re-run and compared
(``reference.json``), and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Spans and a run record
(environment included) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import count
from pathlib import Path
from typing import NamedTuple

# One BLAS thread, set before numpy loads: the workloads run one worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
# Latency tail percentile per workload: the highest that leaves at least ten
# samples beyond it at the baseline run length (40 to 60 audit calls and 20 to
# 23 dist requests in 28 s). A rates run holds 8 to 10 calls, too few for a
# tail, so its p75 is printed and marked as not resolved.
TAIL_PERCENTILE = {"audit": 75.0, "rates": 75.0, "dist_weighted": 45.0}
# Traced items per second of --seconds, so a traced run (three passes over
# the item list) lasts about as long as an untraced one.
TRACE_ITEMS_PER_S = {"audit": 0.4, "rates": 0.1, "dist_weighted": 0.25}
REFERENCE_SEED = 20191217

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_fraction": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# <module>.<function>.<stat>; counts repeat exactly between traced passes.
PER_LAYER_UNITS = {
    "ot1d.wasserstein_pp_batch.calls": "count",
    "ot1d.wasserstein_pp_batch.rows": "count",
    "ot1d.wasserstein_pp_batch.weighted_rows": "count",
    "ot1d.wasserstein_pp_batch.self_s": "s",
    "ot1d.wasserstein_1d.calls": "count",
    "ot1d.wasserstein_1d.self_s": "s",
    "ot_exact.wasserstein_exact.calls": "count",
    "ot_exact.wasserstein_exact.simplex_calls": "count",
    "ot_exact.wasserstein_exact.assignment_calls": "count",
    "ot_exact.wasserstein_exact.cells": "count",
    "ot_exact.wasserstein_exact.self_s": "s",
    "maxsliced.warm_start.self_s": "s",
    "maxsliced.warm_start.evaluations": "count",
    "maxsliced.warm_start.evaluation_share": "fraction",
    "maxsliced.warm_start.time_share": "fraction",
    "maxsliced.max_sliced_certified.calls": "count",
    "maxsliced.max_sliced_certified.evaluations": "count",
    "maxsliced.max_sliced_certified.self_s": "s",
    "maxsliced.max_sliced.calls": "count",
    "maxsliced.max_sliced.evaluations": "count",
    "maxsliced.max_sliced.self_s": "s",
    "maxsliced.projected_distance.calls": "count",
    "maxsliced.projected_distance.self_s": "s",
    "sliced.sliced_wasserstein.calls": "count",
    "sliced.sliced_wasserstein.self_s": "s",
    "sphere.quadrature_grid.calls": "count",
    "sphere.quadrature_grid.self_s": "s",
    "measures.load_measure.self_s": "s",
    "measures.generate.self_s": "s",
    "cli.main.self_s": "s",
    "experiments.inequality_audit.self_s": "s",
    "experiments.rate_experiment.self_s": "s",
    "audit.criterion4_violations": "count",
    "trace.untraced_items_per_s": "1/s",
    "trace.traced_items_per_s": "1/s",
    "trace.overhead_fraction": "fraction",
}

# ROADMAP baseline for the uniform n = 1024, d = 3 rate cell, in ms.
ROADMAP_N1024_MS = {"ot_exact.wasserstein_exact": 93, "sliced.sliced_wasserstein": 461,
                    "maxsliced.max_sliced": 809}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up (import, inputs, warm-up) and exit; used to time set-up")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_otslice():
    """Import otslice from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "otslice" / "__init__.py").is_file():
        print(f"perfbench: no otslice sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import otslice

    if Path(otslice.__file__).resolve().parent != SRC / "otslice":
        print(f"perfbench: imported otslice from {otslice.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return otslice


def set_up(workload_cls, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(seed, str(workdir))
    workload.prepare()
    workload.warm_up()
    return workload


def time_set_ups(args):
    """Wall time of fresh processes from start to the first timed item."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--setup-only"],
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=40,
        )
        times.append(time.perf_counter() - t0)
    return times


class Sample(NamedTuple):
    id: str
    latency: float | None  # wall seconds; None when the item raised
    cells: list
    problems: list


def run_pass(workload, items, seconds=None, tracer=None, probe=None):
    """Closed loop over ``items``; stops after the first item ending past ``seconds``.

    Returns (samples, elapsed). An item that raises is a failed sample and the
    loop goes on. With a ``probe``, the calibration kernels are timed after each
    item, outside the item's own timing, for a fixed share of the item's time.
    """
    samples = []
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item["id"]
        try:
            latency, cells = workload.run(item)
        except Exception as exc:  # counted as a failed item; the run goes on
            print(f"item {item['id']} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            sample = Sample(item["id"], None, [], [repr(exc)])
        else:
            problems = [p for cell in cells for p in workload.check(cell)]
            sample = Sample(item["id"], latency, cells, problems)
        samples.append(sample)
        if probe:
            probe.after_item(sample.latency or 0.0)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return samples, time.perf_counter() - start


def failures(samples):
    return [(s.id, s.problems) for s in samples if s.problems]


def good_cells(samples):
    return [cell for s in samples if not s.problems for cell in s.cells]


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def check_reference(workload, recorded):
    """Re-run the recorded reference items; returns (problems, checked cells)."""
    samples, _ = run_pass(workload, workload.reference_items(recorded["seed"]))
    problems = [f"{cid}: {p}" for cid, ps in failures(samples) for p in ps]
    cells = good_cells(samples)
    expected = recorded["workloads"][workload.name]
    if problems or len(cells) != len(expected):
        return problems + [f"{len(cells)} reference cells, {len(expected)} recorded"], cells
    for k, (cell, ref) in enumerate(zip(cells, expected)):
        problems += [f"reference cell {k}: {p}" for p in workload.reference_check(cell, ref)]
    return problems, cells


def _stat(totals, name, stat):
    return totals[name][stat] if name in totals else 0


def layer_metrics(totals, cells, overhead):
    from tracing import WARM_START
    from workloads import criterion4

    cert = "maxsliced.max_sliced_certified"
    values = {}
    for metric in PER_LAYER_UNITS:
        name, _, stat = metric.rpartition(".")
        if name == WARM_START and stat.endswith("_share"):
            # shares of the certified search's evaluations and span time
            key = "evaluations" if stat == "evaluation_share" else "total_s"
            base = _stat(totals, cert, key)
            values[metric] = _stat(totals, WARM_START, key) / base if base else 0.0
        elif metric == "audit.criterion4_violations":
            values[metric] = criterion4(cells) if cells and "violations" in cells[0] else 0
        elif name == "trace":
            values[metric] = overhead[stat]
        else:
            values[metric] = _stat(totals, name, stat)
    return {k: {"value": (int(v) if PER_LAYER_UNITS[k] == "count" else float(v)),
                "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def n1024_breakdown(spans):
    """Estimator times (ms) in the first traced rate call's n = 1024 cell.

    That cell is the call's last, so the last direct child of each name wins.
    """
    first = next(k for k, span in enumerate(spans) if span[0] == "experiments.rate_experiment")
    return {name: 1e3 * (end - start)
            for name, start, end, parent, _, _ in spans if parent == first}


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "load": "closed loop, 1 client, threads=1",
    }


def main(argv=None):
    args = parse_args(argv)
    import_otslice()
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(workload_cls, args.seed, workdir)
            return 0
        return measure(args, workload_cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload_cls, workdir):
    from workloads import criterion4

    env = environment()
    lines = [f"otslice benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "env: " + " ".join(f"{k}={v}" for k, v in env.items())]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}

    if args.trace:
        workload = set_up(workload_cls, args.seed, workdir)
        metrics, samples = traced(args, workload, lines, record)
    else:
        from calibrate import SpeedProbe

        probe = SpeedProbe()
        setup_times = time_set_ups(args)
        workload = set_up(workload_cls, args.seed, workdir)
        samples, elapsed = run_pass(workload, (workload.item(k) for k in count()), args.seconds,
                                    probe=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(args, samples, elapsed, setup_times, probe.scale(), peak_rss_mb,
                             lines)
        record["setup_times_s"] = setup_times
        record["latencies_s"] = {s.id: s.latency for s in samples}
        record["kernel_slowness"] = probe.samples

    bad = failures(samples)
    lines.extend(f"FAILED item {cid}: {'; '.join(problems)}" for cid, problems in bad[:10])
    if args.workload == "audit" and not args.trace:  # traced runs report it as a metric
        cells = good_cells(samples)
        lines.append(f"audit.criterion4_violations: {criterion4(cells)} of {len(cells)} instances "
                     "(W_2 > sqrt(d) maxSW_2; false by design, never a failure)")

    with open(HERE / "reference.json") as fh:
        recorded = json.load(fh)
    ref_problems, ref_cells = check_reference(workload, recorded)
    lines.extend(f"REFERENCE MISMATCH {p}" for p in ref_problems)
    note = f"reference check: {len(ref_cells)} cells, {len(ref_problems)} mismatches"
    if args.workload == "audit":
        note += (f"; criterion-4 count {criterion4(ref_cells)}, recorded "
                 f"{criterion4(recorded['workloads']['audit'])}")
    lines.append(note)

    correct = not bad and not ref_problems and record.get("counts_repeat", True)
    result = {"correct": bool(correct), "attempted": len(samples), "failed": len(bad),
              "metrics": metrics}
    record["result"] = result
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def end_to_end(args, samples, elapsed, setup_times, scale, peak_rss_mb, lines):
    """Times are wall seconds times ``scale``, the run's calibration (calibrate.py);
    wall figures are printed beside them."""
    walls = [s.latency for s in samples if not s.problems]
    ok = [lat * scale for lat in walls]
    busy_wall = sum(s.latency for s in samples if s.latency is not None)
    busy = busy_wall * scale
    q = TAIL_PERCENTILE[args.workload]
    values = {
        "items_per_s": len(ok) / busy if busy else 0.0,
        "latency_p50_s": statistics.median(ok) if ok else float("nan"),
        "latency_tail_s": percentile(ok, q) if ok else float("nan"),
        "ok_fraction": len(ok) / len(samples),
        "setup_s": statistics.median(setup_times) * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(lat > values["latency_tail_s"] for lat in ok)
    wall_rate = len(ok) / busy_wall if busy_wall else 0.0
    notes = {
        "items_per_s": f"{len(ok)} ok items in {busy:.2f} calibrated s of item time; wall "
                       f"{wall_rate:.4g}/s over {busy_wall:.2f} s, loop {elapsed:.2f} s; "
                       f"scale {scale:.4f}",
        "latency_p50_s": f"wall {statistics.median(walls):.4g} s" if walls else "",
        "latency_tail_s": f"p{q:g}, {beyond} of {len(ok)} samples beyond"
                          + ("" if beyond >= 10 else " (fewer than 10: tail not resolved)"),
        "ok_fraction": f"failed_fraction {(len(samples) - len(ok)) / len(samples):g} "
                       f"= {len(samples) - len(ok)}/{len(samples)}",
        "setup_s": "median of " + ", ".join(f"{t:.3f}" for t in setup_times)
                   + " wall s, times the scale (fresh process to first timed item)",
    }
    for name, value in values.items():
        lines.append(f"{name:16s} {value:.6g} {END_TO_END_UNITS[name]}"
                     + (f"  ({notes[name]})" if name in notes else ""))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced(args, workload, lines, record):
    from tracing import Tracer, aggregate, counts_of, write_spans

    n_items = max(1, int(args.seconds * TRACE_ITEMS_PER_S[args.workload]))
    items = [workload.item(k) for k in range(n_items)]
    untraced_samples, untraced_s = run_pass(workload, items)
    tracer = Tracer()
    tracer.install()
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            samples, elapsed = run_pass(workload, items, tracer=tracer)
            passes.append((samples, elapsed, tracer.spans))
    finally:
        tracer.uninstall()

    (samples_a, elapsed_a, spans_a), (samples_b, _, spans_b) = passes
    totals = aggregate(spans_a)
    counts_a, counts_b = counts_of(totals), counts_of(aggregate(spans_b))
    record["counts_repeat"] = counts_a == counts_b
    write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                {"workload": args.workload, "seed": args.seed, "items": n_items}, spans_a)

    overhead = {"untraced_items_per_s": n_items / untraced_s,
                "traced_items_per_s": n_items / elapsed_a,
                "overhead_fraction": elapsed_a / untraced_s - 1.0}
    metrics = layer_metrics(totals, good_cells(samples_a), overhead)

    lines.append(f"traced {n_items} items once untraced, twice traced; "
                 f"work counts repeat exactly: {record['counts_repeat']}")
    lines.extend(f"{name:46s} {m['value']:.6g} {m['unit']}" if isinstance(m["value"], float)
                 else f"{name:46s} {m['value']} {m['unit']}" for name, m in metrics.items())
    lines.append("warm-start shares are of "
                 f"{metrics['maxsliced.max_sliced_certified.evaluations']['value']} "
                 f"certified-search evaluations and "
                 f"{_stat(totals, 'maxsliced.max_sliced_certified', 'total_s'):.3f} s of its spans")
    if args.workload == "rates":
        got = n1024_breakdown(spans_a)
        lines.append("first traced n=1024 cell, ms [ROADMAP baseline]: " + ", ".join(
            f"{name} {got.get(name, float('nan')):.0f} [{ms}]"
            for name, ms in ROADMAP_N1024_MS.items()))
    if not record["counts_repeat"]:
        lines.append(f"COUNT MISMATCH between traced passes: {counts_a} vs {counts_b}")
    return metrics, untraced_samples + samples_a + samples_b


if __name__ == "__main__":
    sys.exit(main())
