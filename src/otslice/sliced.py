"""Sliced Wasserstein distance: deterministic quadrature (d <= 3) or Monte Carlo.

The estimator integrates v -> W_p(mu_v, nu_v)^p over the sphere and takes
the p-th root. Inner 1D distances are exact (quantile method), so all
estimation error comes from direction discretization. Unnormalized values
integrate against the raw surface measure (total mass A_d); the normalized
flag divides the integral by A_d before the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidSpec
from .measures import DiscreteMeasure, _check_pair
from .ot1d import to_measure1d, wasserstein_1d, wasserstein_pp_batch
from .sphere import QuadratureGrid, quadrature_grid, sample_uniform, surface_area


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


def _projected_powers(mu, nu, p, directions) -> np.ndarray:
    PA = mu.points @ directions.T
    PB = nu.points @ directions.T
    return wasserstein_pp_batch(PA.T, PB.T, mu.weights, nu.weights, p)


def sliced_wasserstein(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    scheme: Optional[Scheme] = None,
    normalized: bool = False,
) -> SlicedEstimate:
    """(surface integral of W_p(mu_v, nu_v)^p dv)^(1/p), optionally / A_d^(1/p).

    A Monte Carlo scheme needs at least 2 directions (:class:`InvalidSpec`).
    """
    _check_pair(mu, nu, p)
    d = mu.dim
    if scheme is None:
        scheme = default_scheme(d)
    if scheme.kind == "monte_carlo" and scheme.count < 2:
        # one sample states no error and zero have no mean
        raise InvalidSpec(f"Monte Carlo needs at least 2 directions, got {scheme.count}")

    if d == 1:
        # S^0 = {+1, -1}: both directions give the same distance, integrate exactly
        w = wasserstein_1d(to_measure1d(mu), to_measure1d(nu), p)
        value = w if normalized else (2.0 * w**p) ** (1.0 / p)
        return SlicedEstimate(value=value, scheme=scheme, stderr=0.0, normalized=normalized)

    area = surface_area(d)
    if scheme.kind == "quadrature":
        grid: QuadratureGrid = quadrature_grid(d, scheme.resolution)
        integral = grid.integrate(_projected_powers(mu, nu, p, grid.directions))
        if normalized:
            integral /= area
        return SlicedEstimate(
            value=max(0.0, integral) ** (1.0 / p),
            scheme=scheme,
            stderr=0.0,
            normalized=normalized,
        )

    if scheme.kind == "monte_carlo":
        dirs = sample_uniform(d, scheme.count, scheme.seed)
        powers = _projected_powers(mu, nu, p, dirs)
        mean = float(np.mean(powers))
        sem = float(np.std(powers, ddof=1) / math.sqrt(scheme.count))
        factor = 1.0 if normalized else area
        integral = factor * mean
        value = max(0.0, integral) ** (1.0 / p)
        if integral > 0.0:
            stderr = factor * sem * value ** (1.0 - p) / p
        else:
            stderr = 0.0
        return SlicedEstimate(value=value, scheme=scheme, stderr=stderr, normalized=normalized)

    raise InvalidSpec(f"unknown scheme kind {scheme.kind!r}")

