"""The three benchmark workloads: inputs from a seed, one timed call per item,
and the output checks that feed the failure count.

Each workload exposes ``item(k)`` (the k-th input, a pure function of the
workload seed), ``run(item)`` (returns the item's latency and its output
cells, one dict per distance instance) and ``check(cell)`` (a list of
problems, empty when the output is right). An item is one call into the
program; it fails when the call raises or any of its cells fails a check.
Why each workload exists is recorded in ``predictions.json`` beside this file.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import numpy as np

from otslice import cli, experiments

# Relative tolerance against values recorded by record_reference.py. Values
# are bit-reproducible for a fixed commit; the slack admits a solver or
# summation-order change that keeps every value to eight digits.
REFERENCE_RTOL = 1e-8
# Slack for maxSW lower <= W, which holds exactly in real arithmetic.
ORDER_ATOL = 1e-9
# Warm-up inputs do not depend on the workload seed, so set-up time does not either.
WARM_UP_SEED = 0


def child_seed(seed: int, *key: int) -> int:
    """Independent 63-bit seed for item ``key`` under the workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0] >> 1)


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def _check_bracket(cell, tol):
    problems = []
    if cell["upper"] - cell["lower"] > tol:
        problems.append(f"bracket width {cell['upper'] - cell['lower']:.3e} > {tol}")
    if not cell["lower"] <= cell["w"] + ORDER_ATOL:
        problems.append(f"maxSW lower {cell['lower']!r} > W {cell['w']!r}")
    return problems


def _check_weighted_reference(cell, ref):
    """W and SW match the recorded values; the two certified brackets intersect."""
    problems = [f"{key} {cell[key]!r} != recorded {ref[key]!r}"
                for key in ("w", "sw") if not _rel_close(cell[key], ref[key])]
    if max(cell["lower"], ref["lower"]) > min(cell["upper"], ref["upper"]) + ORDER_ATOL:
        problems.append("certified bracket disjoint from the recorded one")
    return problems


class Audit:
    """One item = one ``inequality_audit`` call: one instance in each (d, p) cell.

    Instances are random weighted pairs with 2 to 25 atoms per side. A call
    rather than a single instance is the unit because single instances
    cluster by cell, so their median would sit between clusters.
    """

    name = "audit"
    D_LIST = (2, 3)
    P_LIST = (1.0, 2.0)
    TOL = 1e-4
    REFERENCE_ITEMS = 4

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def prepare(self):
        pass

    def item(self, k: int, seed=None):
        return {"id": str(k), "seed": child_seed(self.seed if seed is None else seed, 0xA0D1, k)}

    def warm_up(self):
        self.run({"id": "warm", "seed": WARM_UP_SEED})

    def run(self, item):
        t0 = time.perf_counter()
        report = experiments.inequality_audit(
            d_list=list(self.D_LIST), p_list=list(self.P_LIST), instances_per_cell=1,
            seed=item["seed"], certified_tol=self.TOL, threads=1,
        )
        latency = time.perf_counter() - t0
        return latency, [{
            "d": c.d, "p": c.p, "w": c.w, "sw": c.sw_normalized,
            "lower": c.maxsw_lower, "upper": c.maxsw_upper, "violations": list(c.violations),
        } for c in report.cells]

    def check(self, cell):
        # w_le_sqrtd_maxsw is criterion 4, false by design: counted, never a failure
        problems = [v for v in cell["violations"] if v != "w_le_sqrtd_maxsw"]
        return problems + _check_bracket(cell, self.TOL)

    def reference_items(self, seed):
        return [self.item(k, seed) for k in range(self.REFERENCE_ITEMS)]

    @staticmethod
    def reference_record(cell):
        return {k: cell[k] for k in ("w", "sw", "lower", "upper", "violations")}

    reference_check = staticmethod(_check_weighted_reference)


def criterion4(cells):
    """Count of audit cells with W_2 > sqrt(d) maxSW_2 (acceptance criterion 4)."""
    return sum("w_le_sqrtd_maxsw" in cell["violations"] for cell in cells)


class Rates:
    """One item = one ``rate_experiment`` call: one replication of each size.

    d = 3, p = 1, equal-size uniform-cube clouds. The call is the unit
    because ``rate_experiment`` needs four sizes to fit its slopes, and its
    cells cluster by n.
    """

    name = "rates"
    N_LIST = (128, 256, 512, 1024)
    REFERENCE_N_LIST = (32, 64, 128, 256)

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def prepare(self):
        pass

    def item(self, k: int, seed=None, n_list=N_LIST):
        return {"id": str(k), "n_list": n_list,
                "seed": child_seed(self.seed if seed is None else seed, 0x4A7E, k)}

    def warm_up(self):
        self.run({"id": "warm", "n_list": (8, 16, 32, 64), "seed": WARM_UP_SEED})

    def run(self, item):
        t0 = time.perf_counter()
        records, _ = experiments.rate_experiment(
            d=3, n_list=list(item["n_list"]), reps=1, seed=item["seed"], p=1.0, threads=1,
        )
        latency = time.perf_counter() - t0
        cells = {}
        for rec in records:
            cells.setdefault(rec.n, {"n": rec.n})[rec.estimator] = rec.value
        return latency, [cells[n] for n in sorted(cells)]

    def check(self, cell):
        if not cell["maxSW"] <= cell["W_exact"] + ORDER_ATOL:
            return [f"maxSW lower {cell['maxSW']!r} > W {cell['W_exact']!r}"]
        return []

    def reference_items(self, seed):
        return [self.item(0, seed, self.REFERENCE_N_LIST)]

    @staticmethod
    def reference_record(cell):
        return {k: cell[k] for k in ("W_exact", "SW")}

    @staticmethod
    def reference_check(cell, ref):
        return [f"{k} {cell[k]!r} != recorded {ref[k]!r}"
                for k in ("W_exact", "SW") if not _rel_close(cell[k], ref[k])]


def write_weighted_csv(path, points: np.ndarray, weights: np.ndarray) -> None:
    """``x,y,z,weight`` CSV that ``load_measure`` reads back exactly.

    ``save_measure`` always writes JSON, and ``load_measure`` picks its
    parser by suffix, so it cannot produce a ``.csv`` input.
    """
    with open(path, "w") as fh:
        fh.write("x,y,z,weight\n")
        for row, w in zip(points.tolist(), weights.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{w!r}\n")


class DistWeighted:
    """One item = one in-process ``otslice dist --metric all --certified`` call."""

    name = "dist_weighted"
    # Unequal sizes, cycled so every run sees the same mix. Every pair has
    # about 13k atom pairs (n * m), so request costs differ by geometry and
    # not by size class, and a run's median does not jump between classes;
    # the sizes sit low in the 100-200 range so a run holds 20-odd requests.
    SIZES = ((100, 130), (130, 100), (110, 120), (120, 110), (105, 125), (125, 105))
    POOL = 48  # request pairs written during set-up; the loop cycles through them
    REFERENCE_SIZES = ((40, 60), (70, 50))
    TOL = 1e-4

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def _write_pair(self, tag, seed, k, sizes):
        rng = np.random.default_rng([seed, 0xD157, k])
        n, m = sizes
        a = os.path.join(self.workdir, f"{tag}{k}_a.csv")
        b = os.path.join(self.workdir, f"{tag}{k}_b.csv")
        write_weighted_csv(a, rng.standard_normal((n, 3)), rng.dirichlet(np.ones(n)))
        write_weighted_csv(b, 0.5 + 1.2 * rng.standard_normal((m, 3)), rng.dirichlet(np.ones(m)))
        return {"id": f"{tag}{k}", "a": a, "b": b,
                "out": os.path.join(self.workdir, f"{tag}{k}_out.json")}

    def prepare(self):
        self.pool = [self._write_pair("req", self.seed, k, self.SIZES[k % len(self.SIZES)])
                     for k in range(self.POOL)]

    def item(self, k: int):
        return {**self.pool[k % self.POOL], "id": str(k)}

    def warm_up(self):
        self.run(self._write_pair("warm", WARM_UP_SEED, 0, (12, 15)))

    def run(self, item):
        argv = ["dist", item["a"], item["b"], "--metric", "all", "--p", "2", "--certified",
                "--tol", repr(self.TOL), "--threads", "1", "--out", item["out"]]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = cli.main(argv)
            latency = time.perf_counter() - t0
        cell = {"code": code}
        if code == 0:
            with open(item["out"]) as fh:
                metrics = json.load(fh)["metrics"]
            cell.update(w=metrics["w"]["value"], sw=metrics["sw"]["value_normalized"],
                        lower=metrics["maxsw"]["lower"], upper=metrics["maxsw"]["upper"])
        return latency, [cell]

    def check(self, cell):
        if cell["code"] != 0:
            return [f"exit code {cell['code']}"]
        return _check_bracket(cell, self.TOL)

    def reference_items(self, seed):
        return [self._write_pair("ref", seed, k, sizes)
                for k, sizes in enumerate(self.REFERENCE_SIZES)]

    @staticmethod
    def reference_record(cell):
        return {k: cell[k] for k in ("w", "sw", "lower", "upper")}

    reference_check = staticmethod(_check_weighted_reference)


WORKLOADS = {cls.name: cls for cls in (Audit, Rates, DistWeighted)}
