"""Unit-sphere utilities: sampling, quadrature grids and projections.

Surface integrals are kept unnormalized (grid weights sum to the total
surface measure A_d = 2 pi^{d/2} / Gamma(d/2)); callers divide by A_d when
they want the normalized convention. d = 2 uses equally spaced angles
(trapezoid rule on the circle), d = 3 an equal-weight Fibonacci spiral.
Both grids give every direction the weight A_d / resolution, as uniform
sampling does, so a normalized integral is a plain mean over directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, UnsupportedDimension
from .measures import DiscreteMeasure, rng_stream
from .ot1d import Measure1D, measure1d_from_samples


def surface_area(d: int) -> float:
    """Total surface measure of S^{d-1}: 2 pi^{d/2} / Gamma(d/2).

    Defined for d >= 1 (S^0 carries counting measure 2).
    """
    if int(d) != d or d < 1:
        raise InvalidDimension(f"ambient dimension must be an integer >= 1, got {d}")
    d = int(d)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def as_unit(v) -> np.ndarray:
    """Validate and normalize a direction vector."""
    v = np.asarray(v, dtype=float).ravel()
    norm = float(np.linalg.norm(v))
    if not np.isfinite(norm) or norm == 0.0:
        raise DimensionMismatch("direction must be a finite nonzero vector")
    out = v / norm
    out.setflags(write=False)
    return out


def sample_uniform(d: int, count: int, seed: int) -> np.ndarray:
    """i.i.d. uniform directions on S^{d-1}, one per row (Gaussian method)."""
    if d < 1:
        raise InvalidDimension(f"need d >= 1, got {d}")
    rng = rng_stream(seed, 0xD1)
    out = rng.standard_normal((count, d))
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    # a zero draw has probability 0 but would poison the batch
    bad = norms[:, 0] == 0.0
    while np.any(bad):
        out[bad] = rng.standard_normal((int(bad.sum()), d))
        norms[bad] = np.linalg.norm(out[bad], axis=1, keepdims=True)
        bad = norms[:, 0] == 0.0
    return out / norms


@dataclass(frozen=True)
class QuadratureGrid:
    """Directions with positive weights summing to the surface area A_d."""

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.directions.setflags(write=False)
        self.weights.setflags(write=False)


def _check_grid(d: int, resolution: int) -> None:
    """Reject what :func:`quadrature_grid` cannot build: resolution < 1, or d outside {2, 3}."""
    if resolution < 1:
        raise InvalidDimension(f"resolution must be >= 1, got {resolution}")
    if d not in (2, 3):
        raise UnsupportedDimension(
            f"deterministic grids exist for d in {{2, 3}}; use sample_uniform for d={d}"
        )


def quadrature_grid(d: int, resolution: int) -> QuadratureGrid:
    """Deterministic surface-integration grid for d in {2, 3}.

    d = 2: angles 2 pi k / resolution with equal weights 2 pi / resolution.
    d = 3: Fibonacci spiral with equal weights 4 pi / resolution.
    For d >= 4 use Monte Carlo directions from :func:`sample_uniform`.
    """
    _check_grid(d, resolution)
    if d == 2:
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(resolution, 2.0 * math.pi / resolution)
        return QuadratureGrid(directions=dirs, weights=weights)
    k = np.arange(resolution, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / resolution  # midpoint rule in z
    golden = math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    dirs = np.column_stack([r * np.cos(golden * k), r * np.sin(golden * k), z])
    weights = np.full(resolution, 4.0 * math.pi / resolution)
    return QuadratureGrid(directions=dirs, weights=weights)


def project(mu: DiscreteMeasure, v) -> Measure1D:
    """Pushforward of mu under x -> v . x (a 1D measure, sorted and merged)."""
    v = as_unit(v)
    if v.shape[0] != mu.dim:
        raise DimensionMismatch(f"direction has dim {v.shape[0]}, measure has dim {mu.dim}")
    return measure1d_from_samples(mu.points @ v, mu.weights)
