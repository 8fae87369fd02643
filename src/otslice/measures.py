"""Discrete probability measures on R^d: validation, moments, generators, file I/O.

A :class:`DiscreteMeasure` is an immutable weighted point cloud. Weights are
validated and renormalized to sum to exactly 1; duplicate points are kept as
distinct atoms (merging is never implicit, so plan indices stay stable).

Randomness policy
-----------------
Every stochastic routine in the library takes an explicit 64-bit seed and
derives its stream from the counter-based, splittable Philox (4x64-10) bit
generator via ``numpy.random.SeedSequence(seed, spawn_key=...)``. Distinct
spawn keys give statistically independent, platform-stable streams, so any
experiment is reproducible from its ``(config, seed)`` pair alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySupport,
    InvalidOrder,
    InvalidSpec,
    NegativeWeight,
    NonFiniteCoordinates,
    WeightSumOutOfRange,
)

# Weight sums within this distance of 1 are accepted (make_discrete scales them
# to sum exactly 1); anything further out is treated as a caller bug.
WEIGHT_SUM_TOL = 1e-9


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic Philox generator for the stream ``(seed, key)``.

    Distinct ``key`` tuples under the same seed yield independent streams;
    the mapping is part of the reproducibility contract.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure sum_i w_i * delta_{x_i} on R^d.

    Attributes
    ----------
    points : ndarray, shape (n, d)
        Support points, one per row.
    weights : ndarray, shape (n,)
        Nonnegative weights summing to 1.
    dim : int
        Ambient dimension d.
    """

    points: np.ndarray
    weights: np.ndarray
    dim: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __repr__(self):
        return f"DiscreteMeasure(n={self.n}, dim={self.dim})"


def _as_floats(values, what: str) -> np.ndarray:
    """``values`` as floats: ragged nesting is a DimensionMismatch, a non-number an InvalidSpec."""
    try:
        raw = np.asarray(values)
    except ValueError as exc:
        raise DimensionMismatch(f"ragged {what} list: {exc}") from None
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"{what} must be numbers: {exc}") from None


def _checked(points, weights):
    """The input checks of :func:`make_discrete`, without its renormalization.

    Returns ``(pts, w, total)``: finite (n, d) points, which may share memory
    with ``points``, their weights, and the weights' exact sum (1.0 for the
    uniform default), which lies within ``WEIGHT_SUM_TOL`` of 1.
    """
    pts = _as_floats(points, "point")
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptySupport("a measure needs at least one support point")
    if pts.shape[1] == 0:
        raise DimensionMismatch("points must have at least one coordinate")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteCoordinates("support points must be finite")

    n = pts.shape[0]
    if weights is None:
        return pts, np.full(n, 1.0 / n), 1.0
    w = _as_floats(weights, "weight")
    if w.shape != (n,):
        raise DimensionMismatch(
            f"got {w.shape[0] if w.ndim == 1 else w.shape} weights for {n} points"
        )
    if np.any(np.isnan(w)):
        raise WeightSumOutOfRange("weights contain NaN")
    if np.any(w < 0):
        raise NegativeWeight("weights must be nonnegative")
    s = math.fsum(w.tolist())
    if not math.isfinite(s) or abs(s - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumOutOfRange(f"weights sum to {s!r}, expected 1 within {WEIGHT_SUM_TOL}")
    return pts, w, s


def make_discrete(points, weights=None) -> DiscreteMeasure:
    """Validate and build a :class:`DiscreteMeasure`.

    Parameters
    ----------
    points : array-like, shape (n, d)
        Support points. All rows must share one length d >= 1.
    weights : array-like, shape (n,), optional
        Nonnegative weights. ``None`` means uniform 1/n. Sums within
        ``1e-9`` of 1 are renormalized to exactly 1; anything else raises.
        Non-numeric points or weights raise :class:`InvalidSpec`.
    """
    pts, w, total = _checked(points, weights)
    return DiscreteMeasure(points=pts.copy(), weights=w / total, dim=pts.shape[1])


def _check_order(p: float) -> None:
    """Raise :class:`InvalidOrder` unless p is finite and p >= 1 (NaN and inf fail)."""
    if not (math.isfinite(p) and p >= 1):
        raise InvalidOrder(f"order must be finite and satisfy p >= 1, got {p}")


def _check_pair(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> None:
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dim {mu.dim} vs {nu.dim}")
    _check_order(p)


def moment_p(mu: DiscreteMeasure, p: float) -> float:
    """p-th moment (sum_i w_i |x_i|^p)^(1/p) with the Euclidean norm."""
    _check_order(p)
    norms = np.linalg.norm(mu.points, axis=1)
    total = float(np.sum(mu.weights * norms**p))
    return total ** (1.0 / p)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_CONTINUOUS_KINDS = ("uniform_cube", "standard_gaussian")
_KINDS = _CONTINUOUS_KINDS + ("two_point", "empirical_of")


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of a measure to generate.

    Kinds: ``uniform_cube`` and ``standard_gaussian`` are continuous laws and
    can only be sampled through ``empirical_of``; ``two_point`` is the exact
    measure (delta_x + delta_y)/2; ``empirical_of`` draws n i.i.d. samples
    from a base spec with uniform weights 1/n.
    """

    kind: str
    dim: int
    side: float = 1.0
    x: Optional[tuple] = None
    y: Optional[tuple] = None
    base: Optional["GeneratorSpec"] = None
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSpec(f"unknown generator kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidSpec("dim must be >= 1")
        if self.kind == "uniform_cube" and not (self.side > 0):
            raise InvalidSpec("cube side must be positive")
        if self.kind == "two_point":
            if self.x is None or self.y is None:
                raise InvalidSpec("two_point needs both x and y")
            if len(self.x) != self.dim or len(self.y) != self.dim:
                raise InvalidSpec("two_point locations must have length dim")
        if self.kind == "empirical_of":
            if self.base is None or self.n is None or self.n < 1:
                raise InvalidSpec("empirical_of needs a base spec and n >= 1")
            if self.base.kind == "empirical_of":
                raise InvalidSpec("empirical_of cannot be nested")
            if self.base.dim != self.dim:
                raise InvalidSpec("base spec dimension must match")

    @staticmethod
    def uniform_cube(dim: int, side: float = 1.0) -> "GeneratorSpec":
        return GeneratorSpec(kind="uniform_cube", dim=dim, side=side)

    @staticmethod
    def standard_gaussian(dim: int) -> "GeneratorSpec":
        return GeneratorSpec(kind="standard_gaussian", dim=dim)

    @staticmethod
    def two_point(x: Sequence[float], y: Sequence[float]) -> "GeneratorSpec":
        x = tuple(float(c) for c in x)
        y = tuple(float(c) for c in y)
        return GeneratorSpec(kind="two_point", dim=len(x), x=x, y=y)

    @staticmethod
    def empirical_of(base: "GeneratorSpec", n: int) -> "GeneratorSpec":
        return GeneratorSpec(kind="empirical_of", dim=base.dim, base=base, n=n)


def _sample(base: GeneratorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if base.kind == "uniform_cube":
        return rng.random((n, base.dim)) * base.side
    if base.kind == "standard_gaussian":
        return rng.standard_normal((n, base.dim))
    if base.kind == "two_point":
        locs = np.array([base.x, base.y], dtype=float)
        return locs[rng.integers(0, 2, size=n)]
    raise InvalidSpec(f"cannot sample from kind {base.kind!r}")


def generate(spec: GeneratorSpec, seed: int) -> DiscreteMeasure:
    """Materialize ``spec`` deterministically for the given seed.

    Continuous kinds must be wrapped in ``empirical_of`` (continuous laws are
    not representable as discrete measures); ``two_point`` ignores the seed.
    """
    if spec.kind in _CONTINUOUS_KINDS:
        raise InvalidSpec(
            f"{spec.kind} is a continuous law; wrap it in empirical_of to sample it"
        )
    if spec.kind == "two_point":
        return make_discrete(np.array([spec.x, spec.y], dtype=float), np.array([0.5, 0.5]))
    # empirical_of
    rng = rng_stream(seed)
    pts = _sample(spec.base, spec.n, rng)
    return make_discrete(pts, np.full(spec.n, 1.0 / spec.n))


# ---------------------------------------------------------------------------
# File formats: CSV (one point per row, optional trailing `weight` column,
# optional header) and JSON {"dim": d, "points": [[...]], "weights": [...]}.
# Missing weights mean uniform.
# ---------------------------------------------------------------------------


def _parse_csv(path: Path) -> DiscreteMeasure:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise EmptySupport(f"{path}: no data rows")

    def floats_or_none(row):
        try:
            return [float(c) for c in row]
        except ValueError:
            return None

    header = None
    if floats_or_none(rows[0]) is None:
        header = [c.strip().lower() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise EmptySupport(f"{path}: header but no data rows")
    data = []
    for k, row in enumerate(rows):
        vals = floats_or_none(row)
        if vals is None:
            raise InvalidSpec(f"{path}: non-numeric value in data row {k + 1}")
        data.append(vals)
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise DimensionMismatch(f"{path}: rows have inconsistent column counts {sorted(widths)}")
    arr = np.asarray(data, dtype=float)
    # Without a header every column is a coordinate; a trailing weight column
    # must be announced by a header cell named `weight`.
    if header is not None and header[-1] == "weight":
        return make_discrete(arr[:, :-1], arr[:, -1])
    return make_discrete(arr)


def _parse_json(path: Path) -> DiscreteMeasure:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "points" not in payload:
        raise InvalidSpec(f"{path}: expected an object with a 'points' field")
    mu = make_discrete(payload["points"], payload.get("weights"))
    dim = payload.get("dim", mu.dim)
    if type(dim) is not int:  # a JSON true or 3.0 is no dimension either
        raise InvalidSpec(f"{path}: 'dim' must be an integer, got {dim!r}")
    if dim != mu.dim:
        raise DimensionMismatch(f"{path}: declared dim {dim} but points have dim {mu.dim}")
    return mu


def load_measure(path) -> DiscreteMeasure:
    """Read a point-cloud file (CSV or JSON, chosen by extension)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _parse_json(path)
    return _parse_csv(path)


def save_measure(path, mu: DiscreteMeasure) -> None:
    """Write a measure in the format :func:`load_measure` reads for ``path``.

    A ``.json`` suffix writes JSON; any other suffix writes CSV with a
    header row ending in ``weight``. Floats go through repr, so both formats
    round-trip bit for bit.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = {
            "dim": mu.dim,
            "points": mu.points.tolist(),
            "weights": mu.weights.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return
    with open(path, "w") as fh:
        fh.write(",".join([f"x{k}" for k in range(mu.dim)] + ["weight"]) + "\n")
        for row, w in zip(mu.points.tolist(), mu.weights.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{w!r}\n")
