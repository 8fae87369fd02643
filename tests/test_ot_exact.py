import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from otslice import (
    DimensionMismatch,
    InvalidOrder,
    ProblemTooLarge,
    dual_potentials_w1,
    duality_gap,
    make_discrete,
    project,
    to_measure1d,
    wasserstein_1d,
    wasserstein_exact,
)
from otslice import ot_exact
from otslice.ot1d import monotone_coupling
from otslice.ot_exact import _cost_matrix, _meets_marginals, _solve_simplex
from otslice.ot1d import CHUNK_ELEMENTS
from conftest import random_measure, random_pair


def lp_cost(mu, nu, p):
    """Independent dense-LP solve of the transport problem (HiGHS): the optimal cost."""
    C = cdist(mu.points, nu.points) ** p
    n, m = mu.n, nu.n
    rows = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        rows.append(row.ravel())
    for j in range(m):
        row = np.zeros((n, m))
        row[:, j] = 1.0
        rows.append(row.ravel())
    res = linprog(
        C.ravel(),
        A_eq=np.array(rows),
        b_eq=np.concatenate([mu.weights, nu.weights]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def lp_oracle(mu, nu, p):
    return lp_cost(mu, nu, p) ** (1.0 / p)


class TestWassersteinExact:
    def test_identical_measures(self, rng):
        mu = random_measure(rng, 2)
        plan = wasserstein_exact(mu, mu, 2.0)
        assert plan.primal_value == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_pair(self):
        a = make_discrete([[0.0, 0.0]], [1.0])
        b = make_discrete([[3.0, 4.0]], [1.0])
        assert wasserstein_exact(a, b, 1.0).primal_value == pytest.approx(5.0)

    def test_matches_1d_quantile_formula(self, rng):
        for _ in range(20):
            mu = random_measure(rng, 1, max_atoms=20)
            nu = random_measure(rng, 1, max_atoms=20)
            for p in (1.0, 1.5, 2.0, 3.0):
                lhs = wasserstein_exact(mu, nu, p).primal_value
                rhs = wasserstein_1d(to_measure1d(mu), to_measure1d(nu), p)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_matches_scipy_lp(self, rng):
        for _ in range(15):
            d = int(rng.integers(1, 4))
            mu = random_measure(rng, d, max_atoms=12)
            nu = random_measure(rng, d, max_atoms=12)
            for p in (1.0, 2.0, 3.0):
                mine = wasserstein_exact(mu, nu, p).primal_value
                assert mine == pytest.approx(lp_oracle(mu, nu, p), rel=1e-9, abs=1e-12)

    def test_plan_is_feasible_and_consistent(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 3, max_atoms=15)
            p = float(rng.choice([1.0, 2.0]))
            plan = wasserstein_exact(mu, nu, p)
            assert np.all(plan.mass >= 0)
            assert plan.mass.shape[0] <= mu.n + nu.n - 1
            assert np.allclose(plan.source_marginal(), mu.weights, atol=1e-9)
            assert np.allclose(plan.target_marginal(), nu.weights, atol=1e-9)
            assert plan.cost(mu, nu) == pytest.approx(plan.primal_value**p, rel=1e-10)

    def test_fast_path_matches_simplex(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 15))
            a = make_discrete(rng.standard_normal((n, 2)))
            b = make_discrete(rng.standard_normal((n, 2)))
            fast = wasserstein_exact(a, b, 2.0).primal_value
            # the same measure with atom 0 split into two half-weight copies
            # has n + 1 atoms, so it bypasses the assignment path
            w = np.append(a.weights, a.weights[0] / 2)
            w[0] /= 2
            split = make_discrete(np.vstack([a.points, a.points[:1]]), w)
            forced = wasserstein_exact(split, b, 2.0).primal_value
            assert forced == pytest.approx(fast, rel=1e-9)
            assert fast == pytest.approx(lp_oracle(a, b, 2.0), rel=1e-9)

    def test_scale_equivariance(self, rng):
        # W_p(s mu, s nu) = s W_p(mu, nu): the solver's tolerances follow the
        # largest cost, so tiny and huge units are solved to the same plan
        gen = np.random.default_rng(1)
        x = gen.standard_normal((6, 2))
        y = gen.standard_normal((5, 2)) + 0.3
        pairs = [(make_discrete(x, gen.dirichlet(np.ones(6))),
                  make_discrete(y, gen.dirichlet(np.ones(5))))]
        pairs += [random_pair(rng, d, max_atoms=12) for d in (2, 3) for _ in range(3)]
        for mu, nu in pairs:
            for p in (1.0, 2.0, 3.0):
                base = wasserstein_exact(mu, nu, p).primal_value
                for s in (1e-9, 1e-6, 1e8):
                    scaled = wasserstein_exact(
                        make_discrete(s * mu.points, mu.weights),
                        make_discrete(s * nu.points, nu.weights),
                        p,
                    ).primal_value
                    assert scaled == pytest.approx(s * base, rel=1e-9)

    def test_zero_weight_last_atom(self):
        # the lex-last atom of mu has zero weight and the running sum of the
        # others rounds past 1 before the end is snapped to 1
        mu = make_discrete(
            [[1, -1], [0, 2], [1, -2], [-1, 0], [-1, 0]],
            [0.0, 0.1120463891036656, 0.2143909459407163, 0.04458938837519729,
             0.6289732765804209],
        )
        nu = make_discrete(
            [[1, 1], [1, -0.0], [-0.0, -1], [2, 1], [1, 2]],
            [0.07009139014971129, 0.20494951741009718, 0.27153963998234465,
             0.004726131327437902, 0.4486933211304089],
        )
        plan = wasserstein_exact(mu, nu, 2.0)
        assert plan.primal_value == pytest.approx(2.136777353620547, rel=1e-12)
        assert np.all(plan.i != 0)

    def test_deterministic(self, rng):
        mu, nu = random_pair(rng, 2)
        p1 = wasserstein_exact(mu, nu, 1.0)
        p2 = wasserstein_exact(mu, nu, 1.0)
        assert p1.primal_value == p2.primal_value
        assert np.array_equal(p1.i, p2.i) and np.array_equal(p1.j, p2.j)
        assert np.array_equal(p1.mass, p2.mass)

    def test_non_finite_order(self, rng):
        mu, nu = random_pair(rng, 2)
        for p in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidOrder):
                wasserstein_exact(mu, nu, p)

    def test_guards(self, rng):
        mu = random_measure(rng, 2)
        nu = random_measure(rng, 3)
        with pytest.raises(DimensionMismatch):
            wasserstein_exact(mu, nu, 1.0)
        with pytest.raises(InvalidOrder):
            wasserstein_exact(mu, mu, 0.5)
        big = make_discrete(np.zeros((10_000, 1)))
        with pytest.raises(ProblemTooLarge):
            wasserstein_exact(big, big, 1.0)


def _peak_bytes(fn):
    """Peak bytes that numpy and Python allocate while ``fn()`` runs, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestCostMatrix:
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 37), (23, 1), (300, 70), (1, 20000), (40, 413)])
    def test_equals_cdist_bit_for_bit(self, n, m):
        # 300 x 70 and 1 x 20000 end in a partial row block of the chunk rule
        rng = np.random.default_rng(n * 100_003 + m)
        scales = (1e-9, 1e-3, 1.0, 1e4, 1e8)
        for d in range(1, 33):
            scale = scales[d % len(scales)]
            x = rng.standard_normal((n, d)) * scale
            y = rng.standard_normal((m, d)) * scale
            y[: m // 2] = x[rng.integers(0, n, m // 2)]  # duplicate atoms across the pair
            ties = np.round(2 * rng.standard_normal((n, d))) * scale / 2  # lattice ties
            for a, b in ((x, y), (ties, ties[rng.integers(0, n, m)]), (x, x[::-1])):
                ref = cdist(a, b)
                assert np.array_equal(_cost_matrix(a, b, 1.0), ref)
                for p in (1.5, 2.0, 3.0):
                    assert np.array_equal(_cost_matrix(a, b, p), ref**p)

    def test_guard_raises_before_allocating(self, monkeypatch):
        x = np.zeros((2000, 2))
        monkeypatch.setattr(ot_exact, "MAX_DENSE_CELLS", 2000 * 2000 - 1)
        peak, _ = _peak_bytes(lambda: pytest.raises(ProblemTooLarge, _cost_matrix, x, x, 1.0))
        assert peak < 8 * 2000 * 2000 // 100

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_peak_is_the_output_and_one_block(self, rng, p):
        # an unblocked kernel would hold a second 512 x 512 array (2 MiB); the
        # allowance is numpy's own iterator buffers (getbufsize() elements for
        # each of the two broadcast operands) and a few KiB of Python objects
        x, y = rng.standard_normal((512, 3)), rng.standard_normal((512, 3))
        _cost_matrix(x, y, p)
        peak, D = _peak_bytes(lambda: _cost_matrix(x, y, p))
        assert peak <= D.nbytes + 8 * CHUNK_ELEMENTS + 2 * 8 * np.getbufsize() + 8192


class TestOverflow:
    # costs past float64 used to reach the solvers: a KeyError inside the
    # simplex, "cost matrix is infeasible" from the assignment solve, or an
    # infinite W from the assignment's sum. No RuntimeWarning may escape
    # (the suite turns them into errors).
    @pytest.mark.parametrize("weighted", [False, True])  # assignment path, simplex path
    def test_overflowing_costs_raise(self, weighted):
        gen = np.random.default_rng(9)
        mu = make_discrete(gen.standard_normal((5, 2)) * 1e160,
                           gen.dirichlet(np.ones(5)) if weighted else None)
        nu = make_discrete(gen.standard_normal((5, 2)) * 1e160)
        with pytest.raises(ProblemTooLarge, match="overflow float64"):
            wasserstein_exact(mu, nu, 2.0)

    def test_costs_without_headroom_raise(self):
        # each cost (1.69e308) is finite, but the assignment summed four of them
        # to inf; the weighted pair, whose W is the same 1.3e154, raises alike
        b = make_discrete(np.arange(4.0)[:, None] * 1e4 + 1.3e154)
        for w in (None, [0.1, 0.2, 0.3, 0.4]):
            with pytest.raises(ProblemTooLarge, match="overflow float64"):
                wasserstein_exact(make_discrete(np.zeros((4, 1)), w), b, 2.0)
        # costs with headroom still solve, on both paths
        far = make_discrete(np.arange(4.0)[:, None] * 1e140 + 1e150)
        for w in (None, [0.1, 0.2, 0.3, 0.4]):
            plan = wasserstein_exact(make_discrete(np.zeros((4, 1)), w), far, 2.0)
            assert math.isfinite(plan.primal_value) and plan.primal_value >= 1e150


@pytest.fixture
def fresh_solver():
    """Clear the cached assignment solver before and after the test."""
    ot_exact._assignment_solver.cache_clear()
    yield
    ot_exact._assignment_solver.cache_clear()


class TestAssignmentSolver:
    def _matrices(self):
        gen = np.random.default_rng(12)
        lattice = np.round(2 * gen.standard_normal((60, 3))) / 2  # ties and duplicate atoms
        return [gen.random((50, 50)), cdist(lattice, lattice[::-1]) ** 2,
                cdist(lattice[:40], lattice[20:]), gen.random((9, 14)), gen.random((14, 9)),
                gen.random((1, 1))]

    def test_loaded_kernel_matches_scipy(self, monkeypatch, fresh_solver):
        # with the extension not yet registered, the solver loads it from its
        # file and leaves sys.modules as it found it
        monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
        solve = ot_exact._assignment_solver()
        assert "scipy.optimize._lsap" not in sys.modules
        for C in self._matrices():
            rows, cols = solve(C)
            ref_rows, ref_cols = linear_sum_assignment(C)
            assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)

    def test_fallback_gives_equal_values(self, monkeypatch, fresh_solver):
        gen = np.random.default_rng(13)
        pairs = [(make_discrete(gen.standard_normal((n, 3))), make_discrete(gen.standard_normal((n, 3))))
                 for n in (1, 7, 64)]

        def values():
            return [wasserstein_exact(a, b, p).primal_value for a, b in pairs for p in (1.0, 1.5, 2.0)]

        monkeypatch.delitem(sys.modules, "scipy.optimize._lsap")
        loaded = values()
        ot_exact._assignment_solver.cache_clear()
        monkeypatch.setattr(ot_exact, "PathFinder", SimpleNamespace(find_spec=lambda name, path: None))
        assert ot_exact._assignment_solver() is linear_sum_assignment
        assert values() == loaded


class TestDuality:
    def test_identical_measures(self, rng):
        mu = random_measure(rng, 2)
        cert = dual_potentials_w1(mu, mu)
        assert cert.dual_value == pytest.approx(0.0, abs=1e-9)

    def test_point_masses_saturate(self):
        a = make_discrete([[0.0, 0.0]], [1.0])
        b = make_discrete([[3.0, 4.0]], [1.0])
        cert = dual_potentials_w1(a, b)
        assert cert.dual_value == pytest.approx(5.0, abs=1e-12)

    def test_anchored_at_first_atom(self, rng):
        mu, nu = random_pair(rng, 2)
        cert = dual_potentials_w1(mu, nu)
        assert cert.f[0] == 0.0

    def test_random_20x20_strong_duality(self, rng):
        for _ in range(5):
            mu = make_discrete(rng.standard_normal((20, 2)), rng.dirichlet(np.ones(20)))
            nu = make_discrete(rng.standard_normal((20, 2)), rng.dirichlet(np.ones(20)))
            primal = wasserstein_exact(mu, nu, 1.0).primal_value
            cert = dual_potentials_w1(mu, nu)
            assert cert.dual_value == pytest.approx(primal, rel=1e-7)
            C = cdist(mu.points, nu.points)
            assert cert.feasibility_margin(C) <= 1e-9

    def test_duality_gap_small(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 3, max_atoms=18)
            gap = duality_gap(mu, nu)
            primal = wasserstein_exact(mu, nu, 1.0).primal_value
            assert gap <= 1e-7 * max(1.0, primal)

    def test_gap_zero_for_identical(self, rng):
        mu = random_measure(rng, 2)
        assert duality_gap(mu, mu) == pytest.approx(0.0, abs=1e-12)


class TestProjectionContraction:
    def test_projected_distance_below_full(self, rng):
        # the pushforward of an optimal coupling is feasible for projections
        for d in (2, 3, 5):
            for _ in range(50):
                mu, nu = random_pair(rng, d, max_atoms=12)
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                p = float(rng.choice([1.0, 2.0]))
                w_full = wasserstein_exact(mu, nu, p).primal_value
                w_proj = wasserstein_1d(project(mu, v), project(nu, v), p)
                assert w_proj <= w_full + 1e-9

    def test_pushforward_of_plan_dominates_1d_optimum(self, rng):
        for _ in range(20):
            mu, nu = random_pair(rng, 3, max_atoms=12)
            p = float(rng.choice([1.0, 2.0]))
            plan = wasserstein_exact(mu, nu, p)
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            gaps = np.abs((mu.points[plan.i] - nu.points[plan.j]) @ v)
            pushed_cost = float(np.sum(plan.mass * gaps**p))
            w1d = wasserstein_1d(project(mu, v), project(nu, v), p)
            assert pushed_cost >= w1d**p - 1e-12


class TestMetricStructure:
    def test_symmetry_and_triangle(self, rng):
        for _ in range(15):
            a = random_measure(rng, 2, max_atoms=10)
            b = random_measure(rng, 2, max_atoms=10)
            c = random_measure(rng, 2, max_atoms=10)
            for p in (1.0, 2.0):
                dab = wasserstein_exact(a, b, p).primal_value
                dba = wasserstein_exact(b, a, p).primal_value
                assert dab == pytest.approx(dba, rel=1e-9, abs=1e-12)
                dbc = wasserstein_exact(b, c, p).primal_value
                dac = wasserstein_exact(a, c, p).primal_value
                assert dac <= dab + dbc + 1e-9

    def test_monotone_in_p_on_unit_ball(self, rng):
        # costs <= 1 make W_p nondecreasing in p
        for _ in range(10):
            mu, nu = random_pair(rng, 2, max_atoms=10)
            scale = max(
                np.linalg.norm(mu.points, axis=1).max(),
                np.linalg.norm(nu.points, axis=1).max(),
            )
            mu = make_discrete(mu.points / (2 * scale), mu.weights)
            nu = make_discrete(nu.points / (2 * scale), nu.weights)
            values = [wasserstein_exact(mu, nu, p).primal_value for p in (1.0, 1.5, 2.0, 3.0)]
            assert all(values[k + 1] >= values[k] - 1e-9 for k in range(3))


class TestPlanOnLine:
    def test_plan_matches_monotone_coupling_cost(self, rng):
        mu = random_measure(rng, 1, max_atoms=12)
        nu = random_measure(rng, 1, max_atoms=12)
        m1, n1 = to_measure1d(mu), to_measure1d(nu)
        c = monotone_coupling(m1, n1)
        plan = wasserstein_exact(mu, nu, 2.0)
        assert plan.primal_value**2 == pytest.approx(c.cost(m1, n1, 2.0), rel=1e-10)


class TestMarginalRule:
    def test_four_eps_per_atom(self):
        # the simplex's audit and max_sliced_certified(plan=...) share this rule
        a, b = np.full(3, 1 / 3), np.full(2, 0.5)
        tol = 4 * np.finfo(float).eps * 5
        assert _meets_marginals(a + 0.9 * tol, b - 0.9 * tol, a, b)
        assert not _meets_marginals(a, b + 1.1 * tol, a, b)
        assert not _meets_marginals(a * math.nan, b, a, b)


class TestLowestIndexRule:
    def test_lowest_index_pivots_reach_the_same_optimum(self, rng, monkeypatch):
        # a Dantzig budget of 0 makes every pivot take the lowest-index rule
        pairs = []
        for d in (2, 3):
            pairs += [random_pair(rng, d, max_atoms=15) for _ in range(3)]
            a, b = np.round(rng.standard_normal((12, d))), np.round(rng.standard_normal((9, d)))
            a[1] = a[0]  # lattice atoms tie along the axes, and one repeats
            wa = rng.dirichlet(np.ones(12))
            wa[3] = 0.0
            pairs.append((make_discrete(a, wa / wa.sum()),
                          make_discrete(b, rng.dirichlet(np.ones(9)))))
        pivots = []

        def record(*args):
            pivots.append(1)
            return cycle_path(*args)

        cycle_path = ot_exact._cycle_path
        for mu, nu in pairs:
            for p in (1.0, 2.0):
                w = _solve_simplex(mu, nu, p)[-1] ** (1.0 / p)
                with monkeypatch.context() as m:
                    m.setattr(ot_exact, "_DANTZIG_PIVOTS", (0, 0))
                    m.setattr(ot_exact, "_cycle_path", record)
                    i, j, mass, u, v, cost = _solve_simplex(mu, nu, p)
                assert cost ** (1.0 / p) == pytest.approx(w, rel=1e-12, abs=0.0)
                # the certificate: marginals, tight basic cells, dual feasibility
                C = cdist(mu.points, nu.points) ** p
                cmax = float(C.max())
                assert np.all(mass >= 0.0)
                assert np.allclose(np.bincount(i, mass, mu.n), mu.weights, rtol=0, atol=1e-12)
                assert np.allclose(np.bincount(j, mass, nu.n), nu.weights, rtol=0, atol=1e-12)
                assert np.all(np.abs(u[i] + v[j] - C[i, j]) <= 1e-12 * cmax)
                assert np.all(u[:, None] + v[None, :] - C <= 1e-9 * cmax)
                assert float(mu.weights @ u + nu.weights @ v) == pytest.approx(cost, rel=1e-9)
        assert len(pivots) > 100
