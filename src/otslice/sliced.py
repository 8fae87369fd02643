"""Sliced Wasserstein distance: deterministic quadrature (d <= 3) or Monte Carlo.

The estimator integrates v -> W_p(mu_v, nu_v)^p over the sphere and takes
the p-th root. Inner 1D distances are exact (quantile method), so all
estimation error comes from direction discretization. Unnormalized values
integrate against the raw surface measure (total mass A_d); the normalized
flag divides the integral by A_d before the root.

Quadrature grids and Monte Carlo samples weight every direction equally,
so the normalized W_p^p is the mean of exact values W_p^p(v_k): never above
their maximum, hence never above max-sliced W_p^p, whatever the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidSpec
from .measures import DiscreteMeasure, _check_pair
from .ot1d import _equal_uniform, _no_overflow, to_measure1d, wasserstein_1d, wasserstein_pp_batch
from .sphere import _check_grid, quadrature_grid, sample_uniform, surface_area


@dataclass(frozen=True)
class Scheme:
    """Direction-integration scheme: quadrature(resolution) or monte_carlo(count, seed)."""

    kind: str
    resolution: int = 0
    count: int = 0
    seed: int = 0

    @staticmethod
    def quadrature(resolution: int) -> "Scheme":
        return Scheme(kind="quadrature", resolution=int(resolution))

    @staticmethod
    def monte_carlo(count: int, seed: int = 0) -> "Scheme":
        return Scheme(kind="monte_carlo", count=int(count), seed=int(seed))

    def describe(self) -> str:
        if self.kind == "quadrature":
            return f"quadrature({self.resolution})"
        if self.kind == "monte_carlo":
            return f"monte_carlo({self.count}, seed={self.seed})"
        return self.kind


def default_scheme(d: int) -> Scheme:
    """Quadrature for d <= 3, Monte Carlo beyond (no deterministic grids there)."""
    if d <= 2:
        return Scheme.quadrature(1024)
    if d == 3:
        return Scheme.quadrature(4096)
    return Scheme.monte_carlo(4096, seed=0)


@dataclass(frozen=True)
class SlicedEstimate:
    """Estimated sliced distance with its scheme and a standard error.

    ``stderr`` is 0 for quadrature; for Monte Carlo it is the sample standard
    error of the mean of W_p^p propagated through the p-th root (delta
    method).
    """

    value: float
    scheme: Scheme
    stderr: float
    normalized: bool


# Element cap on each per-chunk array of a batch of directions, the only memory
# cap of every such batch (``_chunks`` reads it). 2^14 float64
# are 128 KiB, glibc's initial mmap threshold, so chunk temporaries come from
# the heap instead of fresh mmap pages that fault in on first touch and are
# unmapped on free. A 4,096-direction SW call at d = 3 took a median 20,264
# minor faults (n = m = 1024 uniform) and 7,050 (100 x 130 weighted) with
# 2^20, and 0 and 273 with 2^14; 2^15 and up fault again on weighted rows,
# and 2^13 spends more per call on chunk overhead.
CHUNK_ELEMENTS = 1 << 14


def _projections(measure: DiscreteMeasure, directions: np.ndarray) -> np.ndarray:
    """(R, n) projections, row-major so that row sorts read contiguous memory.

    One row alone would take another BLAS kernel, which rounds about a
    quarter of the entries otherwise, so it goes through twice. A row can
    still round otherwise in batches of other row counts: with OpenBLAS at
    n = 300, rows of R >= 16 differ in the last bit from the same rows one
    at a time (not at n = 128 or 1024).
    """
    if directions.shape[0] == 1:
        return (np.vstack([directions, directions]) @ measure.points.T)[:1]
    return directions @ measure.points.T


def _chunks(count: int, width: int) -> list:
    """Slices of ``count`` rows, each (rows, width) array within ``CHUNK_ELEMENTS``.

    Every slice holds at least one row, and zero rows still give one (empty) slice.
    """
    rows = max(1, CHUNK_ELEMENTS // width)
    return [slice(s, s + rows) for s in range(0, max(1, count), rows)]


def _projected_powers(mu, nu, p, directions) -> np.ndarray:
    """Exact W_p^p between the projections of mu and nu along each row of ``directions``.

    Rows go through in chunks as wide as the kernel's widest array, projected
    row-major, so each array of a chunk holds at most ``CHUNK_ELEMENTS``
    elements (128 KiB): width n for equal-size uniform pairs, whose kernel
    holds only (rows, n) projections and sorted copies, and n + m, the merge,
    for other pairs.
    """
    width = mu.n if _equal_uniform(mu.weights, nu.weights) else mu.n + nu.n
    return np.concatenate([
        wasserstein_pp_batch(_projections(mu, directions[c]), _projections(nu, directions[c]),
                             mu.weights, nu.weights, p)
        for c in _chunks(directions.shape[0], width)
    ])


def _check_scheme(scheme: Scheme, d: int) -> None:
    """Raise what :func:`sliced_wasserstein` raises for ``scheme`` at dimension d.

    A Monte Carlo count below 2 fails at every d; d = 1 ignores all else (no grid).
    """
    if scheme.kind == "monte_carlo" and scheme.count < 2:
        # one sample states no error and zero have no mean
        raise InvalidSpec(f"Monte Carlo needs at least 2 directions, got {scheme.count}")
    if d > 1 and scheme.kind == "quadrature":
        _check_grid(d, scheme.resolution)
    elif d > 1 and scheme.kind != "monte_carlo":
        raise InvalidSpec(f"unknown scheme kind {scheme.kind!r}")


def sliced_wasserstein(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    scheme: Optional[Scheme] = None,
    normalized: bool = False,
) -> SlicedEstimate:
    """(surface integral of W_p(mu_v, nu_v)^p dv)^(1/p), optionally / A_d^(1/p).

    A Monte Carlo scheme needs at least 2 directions (:class:`InvalidSpec`).
    Costs that overflow float64 raise :class:`ProblemTooLarge`.
    """
    _check_pair(mu, nu, p)
    d = mu.dim
    if scheme is None:
        scheme = default_scheme(d)
    _check_scheme(scheme, d)

    with _no_overflow():
        if d == 1:
            # S^0 = {+1, -1}: both directions give the same distance, integrate exactly
            w = wasserstein_1d(to_measure1d(mu), to_measure1d(nu), p)
            value = w if normalized else (2.0 * w**p) ** (1.0 / p)
            return SlicedEstimate(value=value, scheme=scheme, stderr=0.0, normalized=normalized)

        if scheme.kind == "quadrature":
            dirs = quadrature_grid(d, scheme.resolution).directions
        else:
            dirs = sample_uniform(d, scheme.count, scheme.seed)
        # every direction carries weight A_d / len(dirs), so the integral is a mean
        powers = _projected_powers(mu, nu, p, dirs)
        factor = 1.0 if normalized else surface_area(d)
        integral = factor * float(np.mean(powers))
        value = integral ** (1.0 / p)
        stderr = 0.0
        if scheme.kind == "monte_carlo" and integral > 0.0:
            sem = float(np.std(powers, ddof=1) / math.sqrt(scheme.count))
            stderr = factor * sem * value ** (1.0 - p) / p
        return SlicedEstimate(value=value, scheme=scheme, stderr=stderr, normalized=normalized)
