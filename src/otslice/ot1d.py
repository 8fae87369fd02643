"""Exact one-dimensional W_p via quantile functions and the monotone coupling.

The order-p distance between measures on the line is the L^p distance of
their quantile functions on (0, 1). For finitely supported measures both
quantile functions are piecewise constant, so the integral is a finite sum
over the merged set of cumulative-weight breakpoints; no sampling is
involved. The same breakpoint sweep yields the monotone (north-west-corner)
coupling, so plan cost and distance agree to rounding.

Two paths compute the sweep. The single-measure path (:func:`wasserstein_1d`,
:func:`monotone_coupling`) merges Kahan-summed cumulative weights with a
binary search per breakpoint. The batched path (:func:`wasserstein_pp_batch`)
sweeps R rows at once from plain ``cumsum`` weights, so it agrees with the
single-measure path to rounding, not bit for bit.

Quantile convention: the strict-exceedance inverse
``F^{-1}(t) = inf{x : mu((-inf, x]) > t}``. The distance is insensitive to
the convention (the two inverses differ on a null set), but fixing it makes
every operation deterministic, including the boundary case where t equals a
cumulative weight exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange, DimensionMismatch, InvalidOrder
from .measures import DiscreteMeasure

# Cumulative weights must land within this distance of 1 before the final
# prefix sum is snapped to exactly 1.
_CUM_TOL = 1e-9


def _compensated_cumsum(w: np.ndarray) -> np.ndarray:
    """Kahan prefix sums; keeps breakpoint merges exact on large supports."""
    out = np.empty_like(w)
    total = 0.0
    comp = 0.0
    for k, x in enumerate(w.tolist()):
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[k] = total
    return out


@dataclass(frozen=True)
class Measure1D:
    """Sorted-atom measure on R with precomputed cumulative weights.

    Atoms are strictly increasing (exact duplicates merged, zero weights
    dropped); ``cum`` ends at exactly 1.
    """

    atoms: np.ndarray
    weights: np.ndarray
    cum: np.ndarray

    def __post_init__(self):
        self.atoms.setflags(write=False)
        self.weights.setflags(write=False)
        self.cum.setflags(write=False)

    @property
    def n(self) -> int:
        return self.atoms.shape[0]


def measure1d_from_samples(values, weights=None) -> Measure1D:
    """Build a :class:`Measure1D` from raw atoms, sorting and merging.

    Only exactly equal atoms merge; zero-weight atoms are dropped.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if weights is None:
        w = np.full(vals.shape[0], 1.0 / vals.shape[0])
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if w.shape != vals.shape:
            raise DimensionMismatch("atoms and weights must have equal length")
    atoms, inverse = np.unique(vals, return_inverse=True)
    merged = np.zeros(atoms.shape[0])
    np.add.at(merged, inverse, w)
    keep = merged > 0.0
    atoms, merged = atoms[keep], merged[keep]
    cum = _compensated_cumsum(merged)
    if abs(cum[-1] - 1.0) > _CUM_TOL:
        raise ArgumentOutOfRange(f"weights sum to {cum[-1]!r}, expected 1")
    # a sum just above 1 must not leave an earlier prefix above the snapped end
    np.minimum(cum, 1.0, out=cum)
    cum[-1] = 1.0
    return Measure1D(atoms=atoms, weights=merged, cum=cum)


def to_measure1d(mu: DiscreteMeasure) -> Measure1D:
    """Specialize a 1-dimensional :class:`DiscreteMeasure`."""
    if mu.dim != 1:
        raise DimensionMismatch(f"need dim 1, got dim {mu.dim}")
    return measure1d_from_samples(mu.points[:, 0], mu.weights)


def quantile(m: Measure1D, t):
    """Strict-exceedance quantile: smallest atom with cumulative weight > t.

    Accepts a scalar or an array of t values in [0, 1).
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0.0) or np.any(ts >= 1.0):
        raise ArgumentOutOfRange("quantile argument must lie in [0, 1)")
    idx = np.searchsorted(m.cum, ts, side="right")
    out = m.atoms[idx]
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def _segments(cx: np.ndarray, cy: np.ndarray):
    """Merged breakpoint segments of two cumulative-weight vectors.

    ``cx`` and ``cy`` are the cumulative weights of two sorted supports, each
    ending at exactly 1. Returns ``(mass, i, j)``: on a segment of length
    ``mass`` the quantiles are the sorted atoms ``i`` and ``j``. Each
    breakpoint costs one binary search.
    """
    edges = np.union1d(cx, cy)
    left = np.concatenate(([0.0], edges[:-1]))
    mass = edges - left
    i = np.searchsorted(cx, left, side="right")
    j = np.searchsorted(cy, left, side="right")
    return mass, i, j


def wasserstein_1d(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """Exact order-p distance (integral of |quantile gap|^p, then 1/p root)."""
    if p < 1:
        raise InvalidOrder(f"order must satisfy p >= 1, got {p}")
    mass, i, j = _segments(mu.cum, nu.cum)
    gaps = np.abs(mu.atoms[i] - nu.atoms[j])
    return float(np.sum(mass * gaps**p)) ** (1.0 / p)


@dataclass(frozen=True)
class MonotoneCoupling:
    """Order-preserving coupling as sparse triples (i, j, mass).

    Index pairs are lexicographically nondecreasing in both coordinates;
    masses are positive and sum to 1.
    """

    i: np.ndarray
    j: np.ndarray
    mass: np.ndarray

    def cost(self, mu: Measure1D, nu: Measure1D, p: float) -> float:
        """Plan cost sum mass * |a_i - b_j|^p (no root)."""
        gaps = np.abs(mu.atoms[self.i] - nu.atoms[self.j])
        return float(np.sum(self.mass * gaps**p))


def monotone_coupling(mu: Measure1D, nu: Measure1D) -> MonotoneCoupling:
    """North-west-corner coupling over sorted atoms.

    Built from the same breakpoint segments as :func:`wasserstein_1d`;
    consecutive segments that pair the same atoms are merged, so the plan
    cost at order p reproduces the distance's p-th power to rounding.
    """
    mass, i, j = _segments(mu.cum, nu.cum)
    keep = mass > 0.0
    mass, i, j = mass[keep], i[keep], j[keep]
    # merge consecutive segments that pair the same atoms
    if mass.size:
        new = np.empty(mass.shape[0], dtype=bool)
        new[0] = True
        new[1:] = (np.diff(i) != 0) | (np.diff(j) != 0)
        group = np.cumsum(new) - 1
        gm = np.zeros(group[-1] + 1)
        np.add.at(gm, group, mass)
        i, j, mass = i[new], j[new], gm
    return MonotoneCoupling(i=i, j=j, mass=mass)


# ---------------------------------------------------------------------------
# Batched sweeps (used by the direction-sweep estimators)
# ---------------------------------------------------------------------------


def _monotone_rows(xs: np.ndarray, ys: np.ndarray, wx: np.ndarray, wy: np.ndarray):
    """Monotone merge of each row of ``xs`` (R, n) with the same row of ``ys`` (R, m).

    Returns ``(mass, i, j)``, each of shape (R, n + m): on segment k of row r
    the quantiles are ``xs[r, i[r, k]]`` and ``ys[r, j[r, k]]`` (original
    atom indices). Each row's cumulative weights come from one stable
    argsort and a plain ``cumsum``, snapped to end at 1. One stable argsort
    of the concatenated ``[cx, cy]`` then lists the breakpoints in order.
    The count of x breakpoints before position k is the sorted x atom in
    force on segment k, and the y breakpoints give j likewise; on every
    segment of positive mass these counts equal the number of breakpoints at
    or below the segment's left edge, which is what a right-bisect finds.
    Per row this costs O((n + m) log(n + m)) time and O(n + m) memory.
    """
    n = xs.shape[1]
    m = ys.shape[1]
    ox = np.argsort(xs, axis=1, kind="stable")
    oy = np.argsort(ys, axis=1, kind="stable")
    cx = np.cumsum(wx[ox], axis=1)
    cy = np.cumsum(wy[oy], axis=1)
    cx[:, -1] = 1.0
    cy[:, -1] = 1.0
    c = np.concatenate([cx, cy], axis=1)
    order = np.argsort(c, axis=1, kind="stable")
    mass = np.diff(np.take_along_axis(c, order, axis=1), axis=1, prepend=0.0)
    from_x = order < n
    si = np.cumsum(from_x, axis=1)
    si -= from_x
    sj = np.arange(n + m) - si
    np.minimum(si, n - 1, out=si)
    np.minimum(sj, m - 1, out=sj)
    return mass, np.take_along_axis(ox, si, axis=1), np.take_along_axis(oy, sj, axis=1)


def wasserstein_pp_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    wx: np.ndarray,
    wy: np.ndarray,
    p: float,
) -> np.ndarray:
    """W_p^p between rows of ``xs`` and ``ys`` (shared weight vectors).

    ``xs`` has shape (R, n) and ``ys`` (R, m): row r holds the atoms of two
    1D measures with weights ``wx`` and ``wy``. Same quantile convention as
    :func:`wasserstein_1d`; duplicate atoms need no merging because merging
    does not change the quantile function. Equal-size uniform rows pair
    their sorted atoms directly, O(n log n) per row; other rows go through
    :func:`_monotone_rows`, O((n + m) log(n + m)) per row.
    """
    if p < 1:
        raise InvalidOrder(f"order must satisfy p >= 1, got {p}")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = xs.shape[1]
    m = ys.shape[1]

    uniform = (
        n == m
        and np.all(wx == wx[0])
        and np.all(wy == wy[0])
    )
    if uniform:
        # equal-size uniform measures: quantiles pair sorted samples directly
        dx = np.sort(xs, axis=1) - np.sort(ys, axis=1)
        return np.mean(np.abs(dx) ** p, axis=1)

    mass, i, j = _monotone_rows(xs, ys, wx, wy)
    gaps = np.abs(np.take_along_axis(xs, i, axis=1) - np.take_along_axis(ys, j, axis=1))
    return np.sum(mass * gaps**p, axis=1)
