"""Exact one-dimensional W_p via quantile functions and the monotone coupling.

The order-p distance between measures on the line is the L^p distance of
their quantile functions on (0, 1). For finitely supported measures both
quantile functions are piecewise constant, so the integral is a finite sum
over the merged set of cumulative-weight breakpoints; no sampling is
involved. The same breakpoint sweep yields the monotone (north-west-corner)
coupling, so plan cost and distance agree exactly.

One merge, :func:`_merge_cum`, computes the sweep for R rows at once: one
stable argsort of both rows' cumulative weights lists every breakpoint in
order. The single-measure functions (:func:`wasserstein_1d`,
:func:`monotone_coupling`) run it as one row on ``Measure1D.cum``, the
simplex start of :mod:`otslice.ot_exact` on two weight vectors. The
direction scans pair R rows of projected atoms through one kernel,
:func:`_pairings`, which returns each row's W_p^p with its pairing;
:func:`wasserstein_pp_batch` keeps only the value, and sorts equal-size
uniform rows by value alone. The direction sweeps (``sliced._projected_powers``)
call it on chunks of rows whose arrays hold at most 2^14 elements (128 KiB,
glibc's initial mmap threshold): (rows, n) for equal-size uniform rows,
(rows, n + m) for the merge of other rows. So its temporaries come from the
heap rather than from fresh pages that fault in on every call.

Quantile convention: the strict-exceedance inverse
``F^{-1}(t) = inf{x : mu((-inf, x]) > t}``. The distance is insensitive to
the convention (the two inverses differ on a null set), but fixing it makes
every operation deterministic, including the boundary case where t equals a
cumulative weight exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange, DimensionMismatch
from .measures import DiscreteMeasure, _check_order, _checked


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

    ``values`` is flattened. Atoms and weights pass the checks of
    :func:`~otslice.make_discrete` and raise its errors (a bad sum or a NaN
    weight ``WeightSumOutOfRange``), but are not renormalized: only the last
    cumulative weight is snapped to 1. Only exactly equal atoms merge;
    zero-weight atoms are dropped.
    """
    vals, w, _ = _checked(np.ravel(values), weights)
    atoms, inverse = np.unique(vals[:, 0], return_inverse=True)
    merged = np.zeros(atoms.shape[0])
    np.add.at(merged, inverse, w)
    keep = merged > 0.0
    atoms, merged = atoms[keep], merged[keep]
    cum = np.cumsum(merged)
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

    The positive-mass segments of one :func:`_merge_cum` row on ``mu.cum`` and
    ``nu.cum``. Consecutive segments are split by a cumulative weight below 1
    of one measure, so they never pair the same atoms.
    """
    mass, i, j = (a[0] for a in _merge_cum(mu.cum[None], nu.cum[None]))
    keep = mass > 0.0
    return MonotoneCoupling(i=i[keep], j=j[keep], mass=mass[keep])


def wasserstein_1d(mu: Measure1D, nu: Measure1D, p: float) -> float:
    """Exact order-p distance (integral of |quantile gap|^p, then 1/p root)."""
    _check_order(p)
    return monotone_coupling(mu, nu).cost(mu, nu, p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Batched sweeps (direction-sweep estimators and the exact solver's start basis)
# ---------------------------------------------------------------------------


def _equal_uniform(wx: np.ndarray, wy: np.ndarray) -> bool:
    """Equal-size uniform weights: the monotone coupling pairs sorted atoms one to one."""
    return wx.shape[0] == wy.shape[0] and bool((wx == wx[0]).all()) and bool((wy == wy[0]).all())


def _take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(a, idx, axis=1)`` as one flat take, about twice as fast.

    The row offsets are added into ``idx`` in place and taken out again, so
    no index temporary is made: ``idx`` must be an integer array the caller
    owns and no one reads meanwhile.
    """
    offsets = np.arange(0, a.size, a.shape[1])[:, None]
    idx += offsets
    out = np.take(a, idx)
    idx -= offsets
    return out


def _sorted_rows(a: np.ndarray):
    """Stable row argsort of ``a`` and its sorted rows."""
    order = np.argsort(a, axis=1)
    s = _take_rows(a, order)
    new = s[:, 1:] != s[:, :-1]
    tied = np.flatnonzero(~np.all(new, axis=1))
    if tied.size:
        # the default sort may permute equal values; sorting run * n + index restores their order
        run = np.zeros((tied.size, a.shape[1]), dtype=order.dtype)
        np.cumsum(new[tied], axis=1, out=run[:, 1:])
        run *= a.shape[1]
        order[tied] = np.sort(order[tied] + run, axis=1) - run
    return order, s


def _merge_cum(cx: np.ndarray, cy: np.ndarray):
    """Monotone merge of cumulative-weight rows ``cx`` (R, n) and ``cy`` (R, m).

    Each row holds the cumulative weights of a sorted support; its last
    entry is taken as exactly 1, and rounding may leave an earlier entry
    just above 1, which the index clips absorb. A caller that passes ``cx``
    and ``cy`` unnamed lets them be freed once concatenated. Returns
    ``(mass, si, sj)``, each (R, n + m): on segment k of row r the quantiles
    are sorted atom ``si[r, k]`` of x and ``sj[r, k]`` of y. One stable
    argsort of ``[cx, cy]`` lists the breakpoints of both rows in order.
    The count of x breakpoints before position k is the sorted x atom in
    force on segment k, and the y breakpoints give j likewise; on every
    segment of positive mass these counts equal the number of breakpoints
    at or below its left edge, which is what a right-bisect finds. Ties
    leave segments of zero mass.
    """
    n = cx.shape[1]
    m = cy.shape[1]
    c = np.concatenate([cx, cy], axis=1)
    # each array is dropped once used, so fewer (R, n + m) arrays are alive at once
    del cx, cy
    c[:, [n - 1, -1]] = 1.0
    # timsort merges the two presorted runs: about twice as fast as _sorted_rows here
    order = np.argsort(c, axis=1, kind="stable")
    # the breakpoint gaps, without the (R, n + m + 1) array that a prepended 0 would make
    mass = _take_rows(c, order)
    del c
    mass[:, 1:] = np.diff(mass, axis=1)
    from_x = order < n
    del order
    si = np.cumsum(from_x, axis=1)
    si -= from_x
    sj = np.arange(n + m) - si
    np.minimum(si, n - 1, out=si)
    np.minimum(sj, m - 1, out=sj)
    return mass, si, sj


def _pairings(xs: np.ndarray, ys: np.ndarray, wx: np.ndarray, wy: np.ndarray, p: float,
              uniform: bool):
    """W_p^p between rows of ``xs`` and ``ys`` and the monotone pairing that gives it.

    Returns ``(value, t, mass, i, j)``: row r pairs atom ``i[r, k]`` of x with
    atom ``j[r, k]`` of y with mass ``mass[r, k]`` across the gap ``t[r, k]``.
    ``uniform`` is the caller's ``_equal_uniform(wx, wy)``, decided once per
    sweep. Equal-size uniform rows pair their stably sorted atoms one to one
    with mass 1/n and ``value`` is the mean of |t|^p. Other rows merge the
    cumulative weights of their stably sorted atoms in :func:`_merge_cum`:
    each (R, n + m), with segments of zero mass on ties, O((n + m) log(n + m))
    time and O(n + m) memory per row, and ``value`` is sum mass |t|^p.
    """
    if uniform:
        # _sorted_rows: 240 us for the 11 x 1024 gradient batch of an ascent, 870 us stable
        # (2-vCPU Xeon); on one row of 128 a stable argsort is faster, 6 against 22 us
        i, sx = _sorted_rows(xs)
        j, sy = _sorted_rows(ys)
        t = sx - sy
        mass = np.full(xs.shape, 1.0 / xs.shape[1])
    else:
        ox = _sorted_rows(xs)[0]
        oy = _sorted_rows(ys)[0]
        # unnamed, the cumulative weights are freed once merged; each array is dropped once used
        mass, si, sj = _merge_cum(np.cumsum(wx[ox], axis=1), np.cumsum(wy[oy], axis=1))
        i = _take_rows(ox, si)
        del ox, si
        j = _take_rows(oy, sj)
        del oy, sj
        t = _take_rows(xs, i)
        t -= _take_rows(ys, j)
    cost = np.abs(t)
    cost **= p
    value = np.add.reduce(cost, axis=1) / t.shape[1] if uniform else np.sum(mass * cost, axis=1)
    return value, t, mass, i, j


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
    their sorted atoms directly, O(n log n) per row, and reduce the gaps in
    the sorted copy of ``xs``: two temporaries, and the inputs stay
    unchanged. Other rows take the value of :func:`_pairings`,
    O((n + m) log(n + m)) per row.
    """
    _check_order(p)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if _equal_uniform(wx, wy):
        # value-only np.sort: several times faster than the index sorts a pairing needs
        dx = np.sort(xs, axis=1)
        dx -= np.sort(ys, axis=1)
        np.abs(dx, out=dx)
        if p != 1:
            dx **= p
        # what np.mean computes, without its Python wrapper
        return np.add.reduce(dx, axis=1) / dx.shape[1]
    return _pairings(xs, ys, wx, wy, p, False)[0]
