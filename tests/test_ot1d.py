import math

import numpy as np
import pytest

from otslice import (
    ArgumentOutOfRange,
    DimensionMismatch,
    EmptySupport,
    InvalidOrder,
    InvalidSpec,
    NegativeWeight,
    NonFiniteCoordinates,
    WeightSumOutOfRange,
    make_discrete,
    measure1d_from_samples,
    monotone_coupling,
    quantile,
    to_measure1d,
    wasserstein_1d,
    wasserstein_exact,
    wasserstein_pp_batch,
)
from otslice.ot1d import _merge_cum, _pairings, _sorted_rows
from conftest import random_measure


def line(atoms, weights=None):
    return measure1d_from_samples(atoms, weights)


class TestToMeasure1D:
    def test_sorts(self):
        m = to_measure1d(make_discrete([[1.0], [0.0]], [0.5, 0.5]))
        assert np.array_equal(m.atoms, [0.0, 1.0])

    def test_merges_equal_atoms(self):
        m = to_measure1d(make_discrete([[0.0], [0.0], [1.0]], [0.25, 0.25, 0.5]))
        assert np.array_equal(m.atoms, [0.0, 1.0])
        assert np.array_equal(m.weights, [0.5, 0.5])

    def test_single_atom(self):
        m = to_measure1d(make_discrete([[3.0]], [1.0]))
        assert m.n == 1 and m.weights[0] == 1.0

    def test_dim_guard(self):
        with pytest.raises(DimensionMismatch):
            to_measure1d(make_discrete([[0.0, 1.0]], [1.0]))

    def test_column_atoms_equal_flat_atoms(self, rng):
        vals, w = np.round(rng.standard_normal(40), 1), rng.dirichlet(np.ones(40))
        flat, column = line(vals, w), line(vals[:, None], w)
        for field in ("atoms", "weights", "cum"):
            assert np.array_equal(getattr(flat, field), getattr(column, field))

    def test_cum_ends_at_one(self, rng):
        vals = rng.standard_normal(500)
        m = line(vals, rng.dirichlet(np.ones(500)))
        assert m.cum[-1] == 1.0
        assert np.all(np.diff(m.atoms) > 0)


@pytest.mark.parametrize("values, weights, error", [
    ([0.0, 1.0], [1.0], DimensionMismatch),
    ([0.0, 1.0], [0.5, 0.5, 0.0], DimensionMismatch),
    ([0.0, 1.0], [0.5, 0.6], ArgumentOutOfRange),
    ([0.0, 1.0], [0.25, 0.25], ArgumentOutOfRange),
    # make_discrete's checks: a negative weight must not be dropped silently, nor [] divide by 0
    ([0.0, 1.0, 2.0], [0.5, 0.5, -0.3], NegativeWeight),
    ([0.0, 1.0], [np.nan, 1.0], WeightSumOutOfRange),
    ([0.0, np.nan], [0.5, 0.5], NonFiniteCoordinates),
    ([0.0, np.inf], None, NonFiniteCoordinates),
    ([], None, EmptySupport),
    (["a", "b"], None, InvalidSpec),
    ([0.0, 1.0], ["x", 1.0], InvalidSpec),
    # atoms of shape other than (n,) or (n, 1) are not flattened into a bigger support
    ([[0, 5], [1, 6], [2, 7]], None, DimensionMismatch),
    ([[0.0, 5.0], [1.0]], None, DimensionMismatch),
])
def test_samples_with_bad_weights_raise(values, weights, error):
    with pytest.raises(error):
        measure1d_from_samples(values, weights)


class TestQuantile:
    def test_strict_exceedance_boundary(self):
        m = line([0.0, 1.0], [0.5, 0.5])
        # mu((-inf, 0]) = 0.5 is NOT > 0.5, so the quantile jumps to the next atom
        assert quantile(m, 0.25) == 0.0
        assert quantile(m, 0.5) == 1.0

    def test_point_mass(self):
        m = line([2.5], [1.0])
        for t in (0.0, 0.3, 0.999999):
            assert quantile(m, t) == 2.5

    def test_vectorized(self):
        m = line([0.0, 1.0], [0.5, 0.5])
        out = quantile(m, np.array([0.0, 0.49, 0.5, 0.99]))
        assert np.array_equal(out, [0.0, 0.0, 1.0, 1.0])

    def test_out_of_range(self):
        m = line([0.0], [1.0])
        with pytest.raises(ArgumentOutOfRange):
            quantile(m, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            quantile(m, -0.01)


class TestWasserstein1D:
    def test_identity(self, rng):
        m = line(rng.standard_normal(20))
        for p in (1.0, 1.5, 2.0, 3.0):
            assert wasserstein_1d(m, m, p) == 0.0

    def test_point_masses(self):
        for p in (1.0, 1.7, 2.0, 3.0):
            assert wasserstein_1d(line([-2.0]), line([3.0]), p) == pytest.approx(5.0)

    def test_hand_integral(self):
        # quantile gap is 0.5 on both halves of [0, 1)
        mu = line([0.0, 1.0], [0.5, 0.5])
        nu = line([0.5], [1.0])
        assert wasserstein_1d(mu, nu, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_order_below_one(self):
        with pytest.raises(InvalidOrder):
            wasserstein_1d(line([0.0]), line([1.0]), 0.9)

    def test_symmetry_exact(self, rng):
        for _ in range(20):
            a = line(rng.standard_normal(7), rng.dirichlet(np.ones(7)))
            b = line(rng.standard_normal(5), rng.dirichlet(np.ones(5)))
            for p in (1.0, 2.0):
                assert wasserstein_1d(a, b, p) == wasserstein_1d(b, a, p)

    def test_triangle_inequality(self, rng):
        for _ in range(30):
            ms = [line(rng.standard_normal(6), rng.dirichlet(np.ones(6))) for _ in range(3)]
            for p in (1.0, 1.5, 2.0, 3.0):
                d01 = wasserstein_1d(ms[0], ms[1], p)
                d12 = wasserstein_1d(ms[1], ms[2], p)
                d02 = wasserstein_1d(ms[0], ms[2], p)
                assert d02 <= d01 + d12 + 1e-10

    def test_translation_equivariance(self, rng):
        for _ in range(10):
            a = rng.standard_normal(8)
            b = rng.standard_normal(5)
            wa, wb = rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(5))
            c = float(rng.uniform(-5, 5))
            for p in (1.0, 2.0):
                base = wasserstein_1d(line(a, wa), line(b, wb), p)
                shifted = wasserstein_1d(line(a + c, wa), line(b + c, wb), p)
                assert shifted == pytest.approx(base, abs=1e-12)

    def test_non_finite_order(self):
        a, b = line([0.0, 1.0]), line([2.0])
        for p in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidOrder):
                wasserstein_1d(a, b, p)
            with pytest.raises(InvalidOrder):
                wasserstein_pp_batch(np.zeros((2, 3)), np.ones((2, 2)), np.full(3, 1 / 3),
                                     np.full(2, 0.5), p)

    def test_lp_oracle_equivalence(self, rng):
        # quantile formula against the independent transportation solve
        for _ in range(40):
            mu = random_measure(rng, 1, max_atoms=30)
            nu = random_measure(rng, 1, max_atoms=30)
            m1, n1 = to_measure1d(mu), to_measure1d(nu)
            for p in (1.0, 1.5, 2.0, 3.0):
                w_q = wasserstein_1d(m1, n1, p)
                w_lp = wasserstein_exact(mu, nu, p).primal_value
                assert w_q == pytest.approx(w_lp, rel=1e-9, abs=1e-12)


class TestMonotoneCoupling:
    def test_point_mass_pair(self):
        c = monotone_coupling(line([0.0]), line([5.0]))
        assert np.array_equal(c.i, [0]) and np.array_equal(c.j, [0])
        assert np.array_equal(c.mass, [1.0])

    def test_identity_plan(self):
        m = line([0.0, 1.0], [0.5, 0.5])
        c = monotone_coupling(m, m)
        assert np.array_equal(c.i, [0, 1])
        assert np.array_equal(c.j, [0, 1])
        assert np.array_equal(c.mass, [0.5, 0.5])

    def test_split_to_point_mass(self):
        mu = line([0.0, 1.0], [0.5, 0.5])
        nu = line([0.5], [1.0])
        c = monotone_coupling(mu, nu)
        assert list(zip(c.i, c.j, c.mass)) == [(0, 0, 0.5), (1, 0, 0.5)]
        assert c.cost(mu, nu, 1.0) == pytest.approx(0.5)

    def test_cost_matches_distance(self, rng):
        for _ in range(25):
            a = line(rng.standard_normal(9), rng.dirichlet(np.ones(9)))
            b = line(rng.standard_normal(6), rng.dirichlet(np.ones(6)))
            c = monotone_coupling(a, b)
            for p in (1.0, 1.5, 2.0, 3.0):
                w = wasserstein_1d(a, b, p)
                assert c.cost(a, b, p) == pytest.approx(w**p, rel=1e-12, abs=1e-300)

    def test_marginals_and_monotonicity(self, rng):
        a = line(rng.standard_normal(12), rng.dirichlet(np.ones(12)))
        b = line(rng.standard_normal(7), rng.dirichlet(np.ones(7)))
        c = monotone_coupling(a, b)
        assert np.all(c.mass > 0)
        assert c.mass.sum() == pytest.approx(1.0, abs=1e-12)
        src = np.zeros(a.n)
        np.add.at(src, c.i, c.mass)
        tgt = np.zeros(b.n)
        np.add.at(tgt, c.j, c.mass)
        assert np.allclose(src, a.weights, atol=1e-12)
        assert np.allclose(tgt, b.weights, atol=1e-12)
        assert np.all(np.diff(c.i) >= 0) and np.all(np.diff(c.j) >= 0)


class TestWeightSumAboveOne:
    # the weights sum to 1 + 1e-10 + 1e-12, inside the accepted tolerance,
    # and the last one is too small to carry the prefix sums back down to 1
    def pair(self):
        return line([0, 1, 2], [0.5 + 1e-10, 0.5, 1e-12]), line([0.0], [1.0])

    def test_cum_nondecreasing(self):
        mu, _ = self.pair()
        assert np.all(np.diff(mu.cum) >= 0.0)
        assert mu.cum[-1] == 1.0

    def test_distance(self):
        mu, nu = self.pair()
        assert wasserstein_1d(mu, nu, 1.0) == pytest.approx(0.5)

    def test_coupling_in_range(self):
        mu, nu = self.pair()
        c = monotone_coupling(mu, nu)
        assert np.all((c.i >= 0) & (c.i < mu.n))
        assert np.all((c.j >= 0) & (c.j < nu.n))
        assert c.mass.sum() == pytest.approx(1.0, abs=1e-12)


class TestBatchSweep:
    def test_matches_scalar_mixed_weights(self, rng):
        n, m, R = 9, 13, 40
        wx = rng.dirichlet(np.ones(n))
        wy = rng.dirichlet(np.ones(m))
        xs = rng.standard_normal((R, n))
        ys = rng.standard_normal((R, m))
        for p in (1.0, 2.0, 3.0):
            batch = wasserstein_pp_batch(xs, ys, wx, wy, p)
            for r in range(R):
                scalar = wasserstein_1d(line(xs[r], wx), line(ys[r], wy), p)
                assert batch[r] == pytest.approx(scalar**p, rel=1e-9, abs=1e-12)

    def test_matches_scalar_uniform(self, rng):
        n, R = 17, 25
        xs = rng.standard_normal((R, n))
        ys = rng.standard_normal((R, n))
        w = np.full(n, 1.0 / n)
        for p in (1.0, 2.0):
            batch = wasserstein_pp_batch(xs, ys, w, w, p)
            for r in range(R):
                scalar = wasserstein_1d(line(xs[r]), line(ys[r]), p)
                assert batch[r] == pytest.approx(scalar**p, rel=1e-9, abs=1e-12)


    @pytest.mark.parametrize("weighted", [False, True])
    def test_inputs_unchanged(self, rng, weighted):
        n, R = 11, 30
        w = rng.dirichlet(np.ones(n)) if weighted else np.full(n, 1.0 / n)
        xs = rng.standard_normal((R, n))
        ys = rng.standard_normal((R, n))
        xs0, ys0, w0 = xs.copy(), ys.copy(), w.copy()
        for p in (1.0, 1.5, 2.0, 3.0):
            wasserstein_pp_batch(xs, ys, w, w, p)
            assert np.array_equal(xs, xs0) and np.array_equal(ys, ys0)
            assert np.array_equal(w, w0)

    def test_uniform_reduction_in_place(self, rng):
        # the in-place subtract, abs and power give the bits of the out-of-place formula
        n, R = 13, 40
        w = np.full(n, 1.0 / n)
        for scale in (1e-9, 1.0, 1e8):
            for lattice in (False, True):
                if lattice:
                    xs, ys = (rng.integers(-4, 5, (R, n)) / 2 * scale for _ in range(2))
                else:
                    xs, ys = (rng.standard_normal((R, n)) * scale for _ in range(2))
                for p in (1, 1.0, 1.5, 2, 2.0, 3.0):
                    dx = np.sort(xs, axis=1) - np.sort(ys, axis=1)
                    expected = np.mean(np.abs(dx) ** p, axis=1)
                    assert np.array_equal(wasserstein_pp_batch(xs, ys, w, w, p), expected)


def searchsorted_pp(x, y, wx, wy, p):
    """W_p^p of one row pair by a right-bisect of every merged breakpoint.

    The cumulative weights are sorted before the bisect: rounding can leave
    a value past 1 ahead of the snapped last entry, and the merge counts
    breakpoints, which a bisect of the sorted vector reproduces.
    """
    ox = np.argsort(x, kind="stable")
    oy = np.argsort(y, kind="stable")
    cx = np.cumsum(wx[ox])
    cy = np.cumsum(wy[oy])
    cx[-1] = 1.0
    cy[-1] = 1.0
    edges = np.sort(np.concatenate([cx, cy]))
    left = np.concatenate(([0.0], edges[:-1]))
    i = np.minimum(np.searchsorted(np.sort(cx), left, side="right"), x.size - 1)
    j = np.minimum(np.searchsorted(np.sort(cy), left, side="right"), y.size - 1)
    return np.sum((edges - left) * np.abs(x[ox][i] - y[oy][j]) ** p)


def weighted_rows(rng, R, n, m, decimals=1):
    """Rounded (tied) atoms, a duplicated atom and zero weights where n, m allow."""
    xs = np.round(rng.standard_normal((R, n)), decimals)
    ys = np.round(rng.standard_normal((R, m)), decimals)
    wx = rng.dirichlet(np.ones(n))
    wy = rng.dirichlet(np.ones(m))
    if n > 2:
        xs[:, 1] = xs[:, 0]
        wx[2] = 0.0
        wx /= wx.sum()
    if m > 3:
        wy[[0, 3]] = 0.0
        wy /= wy.sum()
    return xs, ys, wx, wy


class TestMonotoneMerge:
    SIZES = ((1, 7), (7, 1), (6, 9), (13, 5), (12, 12), (40, 55))

    def test_batch_equals_searchsorted_reference(self, rng):
        for n, m in self.SIZES:
            for decimals in (0, 1, 3):
                xs, ys, wx, wy = weighted_rows(rng, 30, n, m, decimals)
                for p in (1.0, 1.5, 2.0):
                    batch = wasserstein_pp_batch(xs, ys, wx, wy, p)
                    ref = [searchsorted_pp(xs[r], ys[r], wx, wy, p) for r in range(30)]
                    assert np.array_equal(batch, ref), (n, m, decimals, p)

    def test_rows_are_couplings(self, rng):
        for n, m in self.SIZES:
            xs, ys, wx, wy = weighted_rows(rng, 10, n, m)
            mass, i, j = _pairings(xs, ys, wx, wy, 1.0, uniform=False)[2:]
            assert mass.shape == i.shape == j.shape == (10, n + m)
            assert np.all(mass >= 0.0)
            for r in range(10):
                src = np.zeros(n)
                np.add.at(src, i[r], mass[r])
                tgt = np.zeros(m)
                np.add.at(tgt, j[r], mass[r])
                assert np.allclose(src, wx, atol=1e-12)
                assert np.allclose(tgt, wy, atol=1e-12)
                # monotone: the paired atoms never decrease along the row
                live = mass[r] > 0.0
                assert np.all(np.diff(xs[r][i[r][live]]) >= 0.0)
                assert np.all(np.diff(ys[r][j[r][live]]) >= 0.0)


class TestRowSort:
    def mixed_rows(self, rng, R, n):
        """Rows alternate between untied values and ties: rounded, repeated, +0.0 and -0.0."""
        xs = rng.standard_normal((R, n))
        xs[::2] = np.round(xs[::2], 1)
        xs[::4, 3] = xs[::4, 7]
        xs[2::4, 0], xs[2::4, 5] = 0.0, -0.0
        return xs

    def test_orders_equal_stable_argsort(self, rng):
        xs = self.mixed_rows(rng, 64, 40)
        order, s = _sorted_rows(xs)
        assert np.array_equal(order, np.argsort(xs, axis=1, kind="stable"))
        assert np.array_equal(s, np.take_along_axis(xs, order, axis=1))

    def test_merge_uses_stable_orders(self, rng):
        for n, m in ((1, 9), (9, 1), (30, 20), (20, 30)):
            xs = self.mixed_rows(rng, 32, max(n, 8))[:, :n]
            ys = self.mixed_rows(rng, 32, max(m, 8))[:, :m]
            wx, wy = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            # reference: stable argsorts, snapped cumulative weights, _merge_cum
            ox = np.argsort(xs, axis=1, kind="stable")
            oy = np.argsort(ys, axis=1, kind="stable")
            cx, cy = np.cumsum(wx[ox], axis=1), np.cumsum(wy[oy], axis=1)
            cx[:, -1] = cy[:, -1] = 1.0
            ref_mass, si, sj = _merge_cum(cx, cy)
            mass, i, j = _pairings(xs, ys, wx, wy, 1.0, uniform=False)[2:]
            assert np.array_equal(mass, ref_mass)
            assert np.array_equal(i, np.take_along_axis(ox, si, axis=1))
            assert np.array_equal(j, np.take_along_axis(oy, sj, axis=1))
