"""Reproducible studies on top of the distance engines.

Contents: empirical convergence-rate experiments for two-sample uniform-cube
instances, audits of the sandwich inequalities between the three distances,
empirical lower bounds for the strong-equivalence constant, the closed-form
law of a projected uniform square with its uniformizing map, and convergence
suites that track all three distances along a schedule.

Every experiment derives its randomness from (seed, spawn key) Philox
streams, so identical configurations reproduce identical records; wall
times are recorded for reporting but excluded from the equality contract.

The rate experiment uses a two-sample design (two independent empirical
measures per draw) so that every distance stays exactly computable by the
assignment fast path; the decay exponent matches the one-sample design.
Heuristic max-sliced values are lower bounds with a bounded downward bias
that does not affect slope conclusions.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInstance, DimensionMismatch
from .measures import DiscreteMeasure, GeneratorSpec, generate, make_discrete, rng_stream
from .maxsliced import _check_tol, max_sliced, max_sliced_certified
from .ot_exact import wasserstein_exact
from .sliced import default_scheme, sliced_wasserstein
from .sphere import as_unit


def _parallel_map(fn: Callable, items: Sequence, threads: int):
    """Order-preserving map; results are independent of the thread count."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Records and fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRecord:
    """One replicated measurement row.

    ``wall_time`` is informational only and excluded from equality, so a
    rerun with the same (config, seed) compares equal record-by-record.
    """

    d: int
    p: float
    n: int
    replication: int
    estimator: str  # W_exact | SW | maxSW
    value: float
    stderr: float
    seed: int
    wall_time: float = field(compare=False, default=0.0)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log mean value against log n."""

    estimator: str
    slope: float
    intercept: float
    residual: float
    n_range: tuple

    def to_dict(self) -> dict:
        out = asdict(self)
        out["n_range"] = list(self.n_range)
        return out


def write_records_jsonl(records: Sequence[ExperimentRecord], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")


def write_records_csv(records: Sequence[ExperimentRecord], path) -> None:
    fields = ["d", "p", "n", "replication", "estimator", "value", "stderr", "seed", "wall_time"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.to_dict())


# ---------------------------------------------------------------------------
# Random audit instances
# ---------------------------------------------------------------------------


def random_pair(d: int, rng: np.random.Generator):
    """A generic weighted instance pair: Gaussian clouds of 2 to 25 atoms with Dirichlet weights."""
    n = int(rng.integers(2, 26))
    m = int(rng.integers(2, 26))
    mu = make_discrete(rng.standard_normal((n, d)), rng.dirichlet(np.ones(n)))
    nu = make_discrete(rng.standard_normal((m, d)), rng.dirichlet(np.ones(m)))
    return mu, nu


# ---------------------------------------------------------------------------
# Rate experiment
# ---------------------------------------------------------------------------


def rate_experiment(
    d: int,
    n_list: Sequence[int],
    reps: int,
    seed: int,
    p: float = 1.0,
    threads: int = 1,
):
    """Two-sample empirical rates on the unit cube: W_exact, SW, maxSW vs n.

    Returns (records, fits) with one record per (n, replication, estimator)
    and one log-log slope fit per estimator. ``n_list`` must hold at least 4
    strictly ascending sizes, checked before any solve.
    """
    if d < 2:
        raise DimensionMismatch(f"rate experiments need d >= 2, got {d}")
    n_list = [int(n) for n in n_list]
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly ascending")
    if len(n_list) < 4:
        raise ValueError("rate fits need at least 4 distinct n values")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    scheme = default_scheme(d)
    cube = GeneratorSpec.uniform_cube(d)

    def run_cell(task):
        n_idx, rep = task
        n = n_list[n_idx]
        out = []
        mu = generate(GeneratorSpec.empirical_of(cube, n), _child_seed(seed, n_idx, rep, 0))
        nu = generate(GeneratorSpec.empirical_of(cube, n), _child_seed(seed, n_idx, rep, 1))

        t0 = time.perf_counter()
        w = wasserstein_exact(mu, nu, p).primal_value
        t1 = time.perf_counter()
        out.append(ExperimentRecord(d, p, n, rep, "W_exact", w, 0.0, seed, t1 - t0))

        t0 = time.perf_counter()
        sw = sliced_wasserstein(mu, nu, p, scheme, normalized=True)
        t1 = time.perf_counter()
        out.append(ExperimentRecord(d, p, n, rep, "SW", sw.value, sw.stderr, seed, t1 - t0))

        t0 = time.perf_counter()
        msw = max_sliced(mu, nu, p, starts=8, seed=_child_seed(seed, n_idx, rep, 2))
        t1 = time.perf_counter()
        out.append(ExperimentRecord(d, p, n, rep, "maxSW", msw.lower, 0.0, seed, t1 - t0))
        return out

    tasks = [(n_idx, rep) for n_idx in range(len(n_list)) for rep in range(reps)]
    nested = _parallel_map(run_cell, tasks, threads)
    records = [rec for cell in nested for rec in cell]
    records.sort(key=lambda r: (r.n, r.replication, r.estimator))
    fits = fit_rates(records)
    return records, fits


def _child_seed(seed: int, *key: int) -> int:
    """Deterministic 63-bit child seed for nested generator calls."""
    return int(rng_stream(seed, *key).integers(0, 2**63))


def fit_rates(records: Sequence[ExperimentRecord]) -> list:
    """One log-log least-squares fit per estimator over mean values per n."""
    fits = []
    for estimator in ("W_exact", "SW", "maxSW"):
        rows = [r for r in records if r.estimator == estimator]
        if not rows:
            continue
        ns = sorted({r.n for r in rows})
        if len(ns) < 4:
            raise ValueError("rate fits need at least 4 distinct n values")
        means = [float(np.mean([r.value for r in rows if r.n == n])) for n in ns]
        x = np.log(np.asarray(ns, dtype=float))
        y = np.log(np.asarray(means))
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        fits.append(RateFit(estimator=estimator, slope=float(slope), intercept=float(intercept),
                            residual=resid, n_range=(ns[0], ns[-1])))
    return fits


def mean_ratio_by_n(records: Sequence[ExperimentRecord], num: str = "W_exact", den: str = "SW"):
    """Per-n ratio of mean values of two estimators (sorted by n)."""
    ns = sorted({r.n for r in records})
    ratios = []
    for n in ns:
        top = np.mean([r.value for r in records if r.n == n and r.estimator == num])
        bot = np.mean([r.value for r in records if r.n == n and r.estimator == den])
        ratios.append(float(top / bot))
    return ns, ratios


# ---------------------------------------------------------------------------
# Inequality audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditCell:
    d: int
    p: float
    instance: int
    w: float
    sw_normalized: float
    maxsw_lower: float
    maxsw_upper: float
    violations: list

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AuditReport:
    cells: list
    violation_count: int
    violations_by_kind: dict
    margin_min: float
    margin_mean: float

    def to_dict(self) -> dict:
        return {
            "violations": self.violation_count,
            "violations_by_kind": self.violations_by_kind,
            "margin_min": self.margin_min,
            "margin_mean": self.margin_mean,
            "cells": [c.to_dict() for c in self.cells],
        }


def inequality_audit(
    d_list: Sequence[int],
    p_list: Sequence[float],
    instances_per_cell: int,
    seed: int,
    certified_tol: float = 1e-4,
    threads: int = 1,
) -> AuditReport:
    """Verify, per random instance, the sandwich between the three distances.

    Checks normalized SW <= certified maxSW upper, maxSW lower <= W, and for
    p = 2 additionally W <= sqrt(d) * maxSW upper, each with slack 1e-6.
    The SW check needs no quadrature error term: the default schemes weight
    every direction equally, so the computed normalized SW^p is a mean of
    exact W_p^p(v_k), at most their maximum, hence at most maxSW^p. Either
    sandwich violation means an implementation bug, not noise; the sqrt(d)
    check can fire on correct code (acceptance criterion 4). ``margin_min``
    and ``margin_mean`` cover the two sandwich inequalities only; sqrt(d)
    violations are counted in ``violations_by_kind``.
    Raises :class:`DegenerateInstance` when there is no instance to audit and
    :class:`InvalidOrder` when ``certified_tol`` is not positive, before any
    solve.
    """
    if instances_per_cell < 1 or not d_list or not p_list:
        raise DegenerateInstance("an audit needs at least one instance per cell, d and p")
    _check_tol(certified_tol)
    slack = 1e-6

    def run(task):
        di, pi, k = task
        d, p = d_list[di], p_list[pi]
        rng = rng_stream(seed, 0xAD, di, pi, k)
        mu, nu = random_pair(d, rng)
        sw = sliced_wasserstein(mu, nu, p, default_scheme(d), normalized=True).value
        plan = wasserstein_exact(mu, nu, p)
        w = plan.primal_value
        cert = max_sliced_certified(mu, nu, p, certified_tol, plan=plan)

        violations = []
        if sw > cert.upper + slack:
            violations.append("sw_le_maxsw")
        if cert.lower > w + slack:
            violations.append("maxsw_le_w")
        if p == 2 and w > math.sqrt(d) * cert.upper + slack:
            violations.append("w_le_sqrtd_maxsw")
        return AuditCell(d=d, p=p, instance=k, w=w, sw_normalized=sw, maxsw_lower=cert.lower,
                         maxsw_upper=cert.upper, violations=violations)

    tasks = list(itertools.product(range(len(d_list)), range(len(p_list)),
                                   range(instances_per_cell)))
    cells = _parallel_map(run, tasks, threads)
    margins = [m for c in cells
               for m in (c.maxsw_upper + slack - c.sw_normalized, c.w + slack - c.maxsw_lower)]
    by_kind = {"sw_le_maxsw": 0, "maxsw_le_w": 0, "w_le_sqrtd_maxsw": 0}
    for c in cells:
        for kind in c.violations:
            by_kind[kind] += 1
    return AuditReport(
        cells=cells,
        violation_count=sum(by_kind.values()),
        violations_by_kind=by_kind,
        margin_min=float(np.min(margins)),
        margin_mean=float(np.mean(margins)),
    )


# ---------------------------------------------------------------------------
# Strong-equivalence constant: empirical lower bound scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CdScanReport:
    d: int
    p: float
    lower_bound: float
    best_instance: int
    best_w: float
    best_maxsw_upper: float
    skipped: int

    def to_dict(self) -> dict:
        return asdict(self)


def cd_lower_bound_scan(
    d: int,
    instances: int,
    seed: int,
    p: float = 1.0,
    threads: int = 1,
) -> CdScanReport:
    """max over instances of W / maxSW_upper: a lower bound for any constant
    C with W <= C * maxSW over all measure pairs.

    The denominator is a certified upper bound at every d (brackets 1e-3
    wide), so the ratio is a valid bound. The certified search's work grows
    steeply with d; where it spends its evaluation budget (about d >= 7) its
    bracket is wider, and the ratio a weaker bound, but still a valid one.
    """
    if instances < 1:
        raise DegenerateInstance("need at least one instance")

    def run(k):
        rng = rng_stream(seed, 0xCD, k)
        mu, nu = random_pair(d, rng)
        plan = wasserstein_exact(mu, nu, p)
        res = max_sliced_certified(mu, nu, p, 1e-3, plan=plan)
        return plan.primal_value, res.upper

    results = _parallel_map(run, range(instances), threads)
    best, best_k, skipped = -math.inf, -1, 0
    best_w = best_upper = float("nan")
    for k, (w, upper) in enumerate(results):
        if upper < 1e-12:
            skipped += 1
            continue
        ratio = w / upper
        if ratio > best:
            best, best_k, best_w, best_upper = ratio, k, w, upper
    if best_k < 0:
        raise DegenerateInstance("all scanned instances were degenerate")
    return CdScanReport(
        d=d,
        p=p,
        lower_bound=best,
        best_instance=best_k,
        best_w=best_w,
        best_maxsw_upper=best_upper,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Projected uniform square: closed-form law and uniformizing map
# ---------------------------------------------------------------------------


def projected_square_cdf(v, x):
    """CDF of v1*U1 + v2*U2 (U_i independent uniform on [0, 1]) at x.

    The law is the trapezoidal distribution with breakpoints set by |v1| and
    |v2| (piecewise quadratic CDF); axis-aligned v degenerates to a uniform
    law. Accepts scalar or array x.
    """
    v = as_unit(v)
    if v.shape[0] != 2:
        raise DimensionMismatch(f"need a direction in the plane, got dim {v.shape[0]}")
    a, b = sorted((abs(float(v[0])), abs(float(v[1]))), reverse=True)
    shift = min(0.0, float(v[0])) + min(0.0, float(v[1]))
    s = np.asarray(x, dtype=float) - shift
    if b == 0.0:
        out = np.clip(s / a, 0.0, 1.0)
    else:
        out = np.empty_like(s)
        rising = (s >= 0.0) & (s < b)
        middle = (s >= b) & (s < a)
        falling = (s >= a) & (s < a + b)
        out[s < 0.0] = 0.0
        out[rising] = s[rising] ** 2 / (2.0 * a * b)
        out[middle] = (s[middle] - 0.5 * b) / a
        out[falling] = 1.0 - (a + b - s[falling]) ** 2 / (2.0 * a * b)
        out[s >= a + b] = 1.0
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


@dataclass(frozen=True)
class UniformizingMap:
    """Lipschitz map g_v carrying the projected-square law to uniform [0, 1].

    g_v is the CDF of the projection (probability integral transform); its
    Lipschitz constant is the law's peak density 1 / max(|v1|, |v2|) <= sqrt(2).
    """

    v: np.ndarray
    lipschitz_constant: float

    def __call__(self, x):
        return projected_square_cdf(self.v, x)


def uniformizing_map(v) -> UniformizingMap:
    v = as_unit(v)
    if v.shape[0] != 2:
        raise DimensionMismatch(f"need a direction in the plane, got dim {v.shape[0]}")
    peak = max(abs(float(v[0])), abs(float(v[1])))
    return UniformizingMap(v=v, lipschitz_constant=1.0 / peak)


# ---------------------------------------------------------------------------
# Convergence suite
# ---------------------------------------------------------------------------


def translation_schedule(mu: DiscreteMeasure, direction, scales) -> list:
    """Copies of mu shifted by scale * direction (unit), one per scale."""
    u = as_unit(direction)
    if u.shape[0] != mu.dim:
        raise DimensionMismatch("direction dimension must match the measure")
    return [make_discrete(mu.points + s * u, mu.weights) for s in scales]


def empirical_schedule(base: GeneratorSpec, n_list: Sequence[int], seed: int) -> list:
    """Growing empirical samples of a base law."""
    return [
        generate(GeneratorSpec.empirical_of(base, int(n)), _child_seed(seed, 0xE5, idx))
        for idx, n in enumerate(n_list)
    ]


@dataclass(frozen=True)
class ConvergenceReport:
    w: np.ndarray
    sw: np.ndarray
    maxsw_lower: np.ndarray
    maxsw_upper: np.ndarray
    spearman_w_sw: float
    spearman_w_maxsw: float
    ordering_violations: int

    def cofinal_below(self, estimator: str, eps: float) -> bool:
        """True if the sequence eventually stays below eps."""
        series = {"W_exact": self.w, "SW": self.sw, "maxSW": self.maxsw_lower}[estimator]
        running = np.maximum.accumulate(series[::-1])[::-1]  # suffix maxima
        return bool(np.any(running < eps))


def convergence_suite(
    target: DiscreteMeasure,
    schedule: Sequence[DiscreteMeasure],
    p: float = 1.0,
    threads: int = 1,
) -> ConvergenceReport:
    """Track W, normalized SW, and maxSW from each schedule entry to target.

    The max-sliced values are certified brackets 1e-3 wide at every d, so
    the sandwich normalized SW <= maxSW upper and maxSW lower <= W is checked
    per step with slack 1e-9: SW^p is a mean of exact W_p^p(v_k), never above
    maxSW^p.
    """

    def run(mu_n):
        plan = wasserstein_exact(mu_n, target, p)
        sw = sliced_wasserstein(mu_n, target, p, normalized=True).value
        res = max_sliced_certified(mu_n, target, p, 1e-3, plan=plan)
        return plan.primal_value, sw, res.lower, res.upper

    rows = _parallel_map(run, list(schedule), threads)
    w = np.array([r[0] for r in rows])
    sw = np.array([r[1] for r in rows])
    lo = np.array([r[2] for r in rows])
    up = np.array([r[3] for r in rows])

    violations = int(np.sum(sw > up + 1e-9) + np.sum(lo > w + 1e-9))

    def corr(x, y):
        # constant series are trivially co-monotone
        if np.all(x == x[0]) or np.all(y == y[0]):
            return 1.0
        # imported here: scipy.stats is slow to load and only this needs it
        from scipy import stats
        return float(stats.spearmanr(x, y).statistic)

    corr_sw = corr(w, sw)
    corr_msw = corr(w, lo)
    return ConvergenceReport(
        w=w,
        sw=sw,
        maxsw_lower=lo,
        maxsw_upper=up,
        spearman_w_sw=corr_sw,
        spearman_w_maxsw=corr_msw,
        ordering_violations=violations,
    )
