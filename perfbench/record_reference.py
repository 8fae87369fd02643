#!/usr/bin/env python3
"""Record reference.json: W, SW and certified brackets for the reference items.

    python3 perfbench/record_reference.py

Every recorded value is first checked against an independent computation:
W against scipy's HiGHS LP, quadrature SW against a per-direction loop over
the same grid, and each certified bracket against the densest projected
distance of that grid (a lower bound on maxSW). Run it on the commit whose
values the benchmark should pin; ``run.py`` compares every run against it.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from run import HERE, OUT, REFERENCE_SEED, import_otslice

otslice = import_otslice()

from scipy.optimize import linprog  # noqa: E402
from scipy.sparse import coo_matrix  # noqa: E402
from scipy.spatial.distance import cdist  # noqa: E402

from otslice import experiments  # noqa: E402
from workloads import WORKLOADS, Audit, Rates  # noqa: E402

ORACLE_RTOL = {"w": 1e-7, "sw": 1e-9}


def lp_w(mu, nu, p):
    n, m = mu.n, nu.n
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    cols = np.concatenate([np.arange(n * m), np.arange(n * m)])
    a_eq = coo_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m)).tocsr()
    res = linprog(cdist(mu.points, nu.points).ravel() ** p, A_eq=a_eq,
                  b_eq=np.concatenate([mu.weights, nu.weights]), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun ** (1.0 / p)


def w_pp_1d(x, wx, y, wy, p):
    ox, oy = np.argsort(x), np.argsort(y)
    cx, cy = np.cumsum(wx[ox]), np.cumsum(wy[oy])
    cx[-1] = cy[-1] = 1.0
    edges = np.unique(np.concatenate([cx, cy]))
    left = np.concatenate([[0.0], edges[:-1]])
    i = np.minimum(np.searchsorted(cx, left, side="right"), x.size - 1)
    j = np.minimum(np.searchsorted(cy, left, side="right"), y.size - 1)
    return float(np.sum((edges - left) * np.abs(x[ox][i] - y[oy][j]) ** p))


def grid_sw_and_max(mu, nu, p):
    """Normalized quadrature SW and the largest projected distance on the grid."""
    d = mu.dim
    grid = otslice.quadrature_grid(d, otslice.default_scheme(d).resolution)
    pp = np.array([w_pp_1d(mu.points @ v, mu.weights, nu.points @ v, nu.weights, p)
                   for v in grid.directions])
    sw = (float(np.sum(grid.weights * pp)) / otslice.surface_area(d)) ** (1.0 / p)
    return sw, float(np.max(pp)) ** (1.0 / p)


def oracle_check(label, mu, nu, p, w, sw, lower=None, upper=None):
    w_ref = lp_w(mu, nu, p)
    sw_ref, grid_max = grid_sw_and_max(mu, nu, p)
    problems = []
    if abs(w - w_ref) > ORACLE_RTOL["w"] * w_ref:
        problems.append(f"W {w!r} vs HiGHS {w_ref!r}")
    if abs(sw - sw_ref) > ORACLE_RTOL["sw"] * sw_ref:
        problems.append(f"SW {sw!r} vs per-direction {sw_ref!r}")
    if upper is not None and not (grid_max <= upper + 1e-9 and lower <= w_ref + 1e-9):
        problems.append(f"bracket [{lower!r}, {upper!r}] misses grid max {grid_max!r} or W")
    if problems:
        sys.exit(f"{label}: " + "; ".join(problems))


def instances(name, item):
    """(mu, nu, p) per output cell of a reference item, rebuilt outside the program."""
    if name == "audit":
        return [(*experiments.random_pair(d, otslice.rng_stream(item["seed"], 0xAD, di, pi, 0)), p)
                for di, d in enumerate(Audit.D_LIST) for pi, p in enumerate(Audit.P_LIST)]
    if name == "rates":
        cube = otslice.GeneratorSpec.uniform_cube(3)
        return [(*(otslice.generate(otslice.GeneratorSpec.empirical_of(cube, n),
                                    experiments._child_seed(item["seed"], k, 0, side))
                   for side in (0, 1)), 1.0)
                for k, n in enumerate(item["n_list"])]
    return [(otslice.load_measure(item["a"]), otslice.load_measure(item["b"]), 2.0)]


def main():
    workdir = OUT / "record-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    recorded = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(REFERENCE_SEED, str(workdir))
            rows = []
            for item in workload.reference_items(REFERENCE_SEED):
                _, cells = workload.run(item)
                for k, (cell, (mu, nu, p)) in enumerate(zip(cells, instances(name, item))):
                    label = f"{name} item {item['id']} cell {k}"
                    if workload.check(cell):
                        sys.exit(f"{label}: {workload.check(cell)}")
                    if cls is Rates:
                        oracle_check(label, mu, nu, p, cell["W_exact"], cell["SW"])
                    else:
                        oracle_check(label, mu, nu, p, cell["w"], cell["sw"],
                                     cell["lower"], cell["upper"])
                    rows.append(cls.reference_record(cell))
            recorded[name] = rows
            print(f"{name}: {len(rows)} reference cells recorded and cross-checked")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = {
        "seed": REFERENCE_SEED,
        "note": "output cells of the reference items, in order; run.py compares W and SW "
                "with relative tolerance workloads.REFERENCE_RTOL and brackets by overlap",
        "workloads": recorded,
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
