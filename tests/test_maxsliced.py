import itertools
import math
import warnings

import numpy as np
import pytest

from otslice import (
    DimensionMismatch,
    InvalidOrder,
    InvalidSpec,
    ProblemTooLarge,
    Scheme,
    direction_ascent,
    make_discrete,
    max_sliced,
    max_sliced_certified,
    moment_p,
    project,
    projected_cost_gradient,
    projected_distance,
    quadrature_grid,
    sample_uniform,
    sliced_wasserstein,
    to_measure1d,
    wasserstein_1d,
    wasserstein_exact,
)
from otslice import experiments, maxsliced, ot1d
from otslice.measures import rng_stream
from otslice.maxsliced import _ascent, _box_geometry, _halve, _patch_bounds
from otslice.ot_exact import TransportPlan, _cost_matrix
from otslice.ot1d import _paired_chunks, _projected_powers
from conftest import random_measure, random_pair


def point_mass(x):
    return make_discrete([list(x)], [1.0])


def grid_max(mu, nu, p, count=100_000):
    theta = np.linspace(0.0, math.pi, count, endpoint=False)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return float((_projected_powers(mu, nu, p, dirs) ** (1 / p)).max())


class TestAscent:
    def test_two_point_masses_converge(self):
        a, b = point_mass((0.0, 0.0)), point_mass((0.6, 0.8))
        v0 = np.array([1.0, 0.2])  # not orthogonal to the gap direction
        v, val = direction_ascent(a, b, 1.0, v0, max_iters=200)
        assert val == pytest.approx(1.0, abs=1e-8)
        assert abs(abs(v @ np.array([0.6, 0.8])) - 1.0) <= 1e-6

    def test_identical_measures(self, rng):
        mu = random_measure(rng, 2)
        _, val = direction_ascent(mu, mu, 2.0, np.array([1.0, 0.0]))
        assert val == 0.0

    def test_objective_nondecreasing_vs_start(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 3, max_atoms=10)
            v0 = rng.standard_normal(3)
            start = projected_distance(mu, nu, 2.0, v0)
            _, val = direction_ascent(mu, nu, 2.0, v0)
            assert val >= start - 1e-12


def serial_ascent(mu, nu, p, v0, max_iters=100):
    """First-improvement reference: try each ladder candidate in turn, stop at the first gain.

    Returns the accepted directions, their ladder indices, the final W_p^p and the
    count of candidates the staged batches evaluate, plus the start: candidates
    0-1 of each ladder, and all of it when neither of those improves.
    """
    L = moment_p(mu, p) + moment_p(nu, p)
    eta0 = 0.5 / max(L, 1e-300)
    v = v0 / np.linalg.norm(v0)
    val, grad = projected_cost_gradient(mu, nu, p, v)
    accepted, hits, ladder_total = [], [], 1
    for _ in range(max_iters):
        tangent = grad - float(grad @ v) * v
        candidates = []
        if np.linalg.norm(grad) > 0.0:
            candidates.append(grad / np.linalg.norm(grad))
        if np.linalg.norm(tangent) > 0.0:
            eta = eta0
            for _ in range(25):
                w = v + eta * tangent
                candidates.append(w / np.linalg.norm(w))
                eta *= 0.5
        hit = None
        for k, cand in enumerate(candidates):
            cval, cgrad = projected_cost_gradient(mu, nu, p, cand)
            if cval > val + 1e-14 * (1.0 + abs(val)):
                hit = k
                break
        ladder_total += len(candidates) if hit is None or hit >= 2 else min(2, len(candidates))
        if hit is None:
            break
        v, val, grad = candidates[hit], cval, cgrad
        accepted.append(v)
        hits.append(hit)
    return accepted, hits, val, ladder_total


class TestAscentLadder:
    def pairs(self, rng):
        for k in range(12):
            d = 2 + k % 2
            if k % 3 == 2:
                # integer lattices: projections tie along the axes
                n, m = rng.integers(2, 15, 2)
                yield (make_discrete(rng.integers(-3, 4, (n, d)).astype(float),
                                     rng.dirichlet(np.ones(n))),
                       make_discrete(rng.integers(-3, 4, (m, d)).astype(float),
                                     rng.dirichlet(np.ones(m))))
            else:
                yield random_pair(rng, d, max_atoms=20, weighted=k % 3 == 0)

    def test_batch_picks_the_serial_step(self, rng, monkeypatch):
        gradients_at = []
        original = maxsliced._gradients

        def recording(mu, nu, p, dirs):
            gradients_at.extend(np.array(dirs))
            return original(mu, nu, p, dirs)

        monkeypatch.setattr(maxsliced, "_gradients", recording)
        runs, all_hits = 0, []
        for mu, nu in self.pairs(rng):
            d = mu.dim
            for p in (1.0, 1.5, 2.0):
                for v0 in (np.eye(d)[0], rng.standard_normal(d)):
                    accepted, hits, ref_val, ladder_total = serial_ascent(mu, nu, p, v0)
                    all_hits.extend(hits)
                    gradients_at.clear()
                    _, (val,), (evals,) = _ascent(mu, nu, p, v0[None], max_iters=100)
                    # the batch takes one gradient at the start and one per accepted step
                    steps = gradients_at[1:]
                    assert len(steps) == len(accepted)
                    for got, want in zip(steps, accepted):
                        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
                    assert val == pytest.approx(ref_val, rel=1e-12, abs=1e-300)
                    assert evals == ladder_total
                    runs += 1
        assert runs == 12 * 3 * 2
        # steps were accepted from both batches: candidates 0-1 and candidates 2-25
        assert min(all_hits) < 2 <= max(all_hits)

    def test_one_candidate_ladder(self):
        # v0 along the gap of two point masses: the tangent is exactly 0, the
        # ladder holds only the normalized gradient, which equals v0
        a, b = point_mass((1.0, -2.0)), point_mass((1.0, 2.5))
        for p in (1.0, 2.0):
            for v0 in (np.array([0.0, 1.0]), np.array([0.0, -1.0])):
                (v,), (val,), (evals,) = _ascent(a, b, p, v0[None], max_iters=100)
                assert evals == 2
                assert np.array_equal(v, v0)
                assert val == 4.5**p
                assert direction_ascent(a, b, p, v0, max_iters=100)[1] == 4.5

    def test_negated_axis_start_mirrors_the_run(self, rng):
        # W_p(mu_v, nu_v) is even in v, so in exact arithmetic the ascent from
        # -e_k is the one from e_k negated; max_sliced starts from e_k alone.
        # Rounding differs (the sums run in reverse order), so the runs agree
        # closely, not bitwise; ascents that creep for hundreds of steps along
        # a ridge drift further apart (values up to 3e-10 apart on 20-atom pairs)
        for k in range(12):
            d = 2 + k % 2
            if k % 3 == 1:
                n = int(rng.integers(2, 11))
                mu, nu = (make_discrete(rng.standard_normal((n, d))) for _ in range(2))
            else:
                mu, nu = random_pair(rng, d, max_atoms=10, weighted=k % 3 == 0)
            for p in (1.0, 1.5, 2.0):
                for e in np.eye(d):
                    (v, w), (val, wval), _ = _ascent(mu, nu, p, np.stack([e, -e]), max_iters=100)
                    assert np.allclose(w, -v, rtol=0.0, atol=1e-10)
                    assert wval == pytest.approx(val, rel=1e-12, abs=0.0)


class TestLockstep:
    def pairs(self, rng, d):
        lattice = rng.integers(-3, 4, (9, d)).astype(float)
        yield (make_discrete(lattice[:5], rng.dirichlet(np.ones(5))),
               make_discrete(lattice[5:], rng.dirichlet(np.ones(4))))
        yield random_pair(rng, d, max_atoms=12)
        yield point_mass(rng.standard_normal(d)), random_measure(rng, d, max_atoms=6)
        yield point_mass(rng.standard_normal(d)), point_mass(rng.standard_normal(d))

    def test_equals_independent_runs(self, rng):
        # each start of the lockstep batch takes the steps and the stop of its own serial run
        spread = 0
        for d in (2, 3):
            for mu, nu in self.pairs(rng, d):
                for p, starts, seed in ((1.0, 3, 0), (1.5, 2, 7), (2.0, 4, 11)):
                    res = max_sliced(mu, nu, p, starts=starts, seed=seed)
                    raw = rng_stream(seed, 0xA5).standard_normal((starts, d))
                    inits = np.vstack([np.eye(d), raw / np.linalg.norm(raw, axis=1, keepdims=True)])
                    runs = [serial_ascent(mu, nu, p, v0) for v0 in inits]
                    best = max(val for _, _, val, _ in runs)
                    assert res.lower**p == pytest.approx(best, rel=1e-12, abs=1e-300)
                    assert res.evaluations == sum(total for _, _, _, total in runs)
                    spread += len({len(accepted) for accepted, _, _, _ in runs}) > 1
        # starts stopped at different iterations in most of the cases
        assert spread >= 12

    def test_split_batches_change_nothing(self, rng, monkeypatch):
        # a cap of 234 elements, which splits the ascent's ladder batches and its
        # gradients into chunks of a few rows each
        for p in (1.0, 2.0):
            for weighted in (False, True):
                mu, nu = random_pair(rng, 3, max_atoms=15, weighted=weighted)
                whole = max_sliced(mu, nu, p, starts=20, seed=5)
                with monkeypatch.context() as m:
                    m.setattr(ot1d, "CHUNK_ELEMENTS", 3 * 26 * 3)
                    split = max_sliced(mu, nu, p, starts=20, seed=5)
                assert (split.lower, split.evaluations) == (whole.lower, whole.evaluations)
                assert np.array_equal(split.v_star, whole.v_star)

    def test_gradient_chunks_stay_within_budget(self, rng, monkeypatch):
        # the ascent's gradients pair (rows, n + m) chunks; each chunk's
        # pairing arrays and the (rows, n) and (rows, m) atom sums of _push fit the cap
        pairings, bincount = ot1d._pairings, np.bincount
        for m in (200, 150):
            mu = make_discrete(rng.standard_normal((200, 3)))
            nu = make_discrete(rng.standard_normal((m, 3)),
                               None if m == 200 else rng.dirichlet(np.ones(m)))
            seen, sizes = [], []

            def record(pa, pb, wa, wb, p, uniform):
                seen.append(pa.shape[0])
                out = pairings(pa, pb, wa, wb, p, uniform)
                sizes.extend(a.size for a in (pa, pb) + out[1:])
                return out

            def record_bincount(*args, **kwargs):
                out = bincount(*args, **kwargs)
                sizes.append(out.size)
                return out

            with monkeypatch.context() as patch:
                patch.setattr(ot1d, "_pairings", record)
                patch.setattr(np, "bincount", record_bincount)
                max_sliced(mu, nu, 1.0, starts=60, seed=3)
            rows = ot1d.CHUNK_ELEMENTS // (mu.n + nu.n)
            # the 63 first gradients outgrow one chunk, and no chunk is wider than the cap allows
            assert max(seen) == rows and rows * (mu.n + nu.n) <= ot1d.CHUNK_ELEMENTS
            assert rows * mu.n in sizes and rows * nu.n in sizes
            assert max(sizes) <= ot1d.CHUNK_ELEMENTS

    def test_start_blocks_change_nothing(self, rng, monkeypatch):
        # 303 starts at d = 3 under the default cap and under one wide enough that
        # no batch of directions splits; the first gradient batch holds every start
        mu, nu = random_pair(rng, 3, max_atoms=12)
        seen = []

        def record(mu, nu, p, dirs):
            seen.append(dirs.shape[0])
            return gradients(mu, nu, p, dirs)

        gradients = maxsliced._gradients
        monkeypatch.setattr(maxsliced, "_gradients", record)
        split = max_sliced(mu, nu, 1.5, starts=300, seed=9)
        assert seen[0] == 303
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(ot1d, "CHUNK_ELEMENTS", 303 * 26 * 3)
            whole = max_sliced(mu, nu, 1.5, starts=300, seed=9)
        assert seen[0] == 303
        assert (split.lower, split.evaluations) == (whole.lower, whole.evaluations)
        assert np.array_equal(split.v_star, whole.v_star)

    @pytest.mark.parametrize("d", [2, 3])
    def test_wrong_length_start_is_a_dimension_error(self, rng, d):
        mu, nu = random_pair(rng, d, max_atoms=6)
        for v in (np.ones(d - 1), np.ones(d + 1), np.ones((2, d))):
            with pytest.raises(DimensionMismatch):
                direction_ascent(mu, nu, 1.0, v)
            with pytest.raises(DimensionMismatch):
                projected_cost_gradient(mu, nu, 1.0, v)
            with pytest.raises(DimensionMismatch):
                projected_distance(mu, nu, 1.0, v)

    def test_zero_start_is_a_dimension_error(self, rng):
        mu, nu = random_pair(rng, 2, max_atoms=6)
        with pytest.raises(DimensionMismatch, match="nonzero"):
            direction_ascent(mu, nu, 1.0, [0.0, 0.0])


class TestGradient:
    def test_checks_the_pair_and_the_order(self, rng):
        # these used to return values for p < 1 and NaN, or fail inside numpy
        mu, nu = random_pair(rng, 2, max_atoms=6)
        for p in (0.5, math.nan, 0.0, math.inf):
            with pytest.raises(InvalidOrder):
                projected_cost_gradient(mu, nu, p, [1.0, 0.0])
        nu3 = make_discrete(rng.standard_normal((4, 3)))
        with pytest.raises(DimensionMismatch):
            projected_cost_gradient(mu, nu3, 1.0, [1.0, 0.0])

    def test_matches_central_differences(self, rng):
        # nondegenerate directions: ties in the projected order are avoided
        # by nudging v away from any that appear
        checked = 0
        h = 1e-5
        while checked < 20:
            mu, nu = random_pair(rng, 3, max_atoms=8)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            proj = np.concatenate([mu.points @ v, nu.points @ v])
            if np.min(np.abs(np.diff(np.sort(proj)))) < 50 * h:
                continue
            value, grad = projected_cost_gradient(mu, nu, p, v)
            num = np.empty(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fp, _ = projected_cost_gradient(mu, nu, p, v + e)
                fm, _ = projected_cost_gradient(mu, nu, p, v - e)
                num[k] = (fp - fm) / (2 * h)
            scale = max(1.0, float(np.linalg.norm(num)))
            assert np.linalg.norm(grad - num) / scale <= 1e-4
            checked += 1


class TestHeuristic:
    def test_two_point_masses(self):
        a, b = point_mass((1.0, -2.0)), point_mass((3.0, 1.0))
        res = max_sliced(a, b, 1.0, starts=4, seed=0)
        assert res.lower == pytest.approx(math.hypot(2.0, 3.0), abs=1e-8)
        assert res.upper == math.inf  # an ascent bounds nothing from above

    def test_dominates_axis_projections(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 3, max_atoms=10)
            res = max_sliced(mu, nu, 1.0, starts=4, seed=1)
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1.0
                axis = wasserstein_1d(project(mu, e), project(nu, e), 1.0)
                assert res.lower >= axis - 1e-9

    def test_below_full_distance(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 2, max_atoms=10)
            p = float(rng.choice([1.0, 2.0]))
            res = max_sliced(mu, nu, p, starts=4, seed=2)
            assert res.lower <= wasserstein_exact(mu, nu, p).primal_value + 1e-9

    def test_d1_trivial_sphere(self, rng):
        mu = random_measure(rng, 1)
        nu = random_measure(rng, 1)
        res = max_sliced(mu, nu, 2.0, starts=1, seed=0)
        assert res.lower == wasserstein_1d(to_measure1d(mu), to_measure1d(nu), 2.0)

    def test_v_star_achieves_lower(self, rng):
        mu, nu = random_pair(rng, 3, max_atoms=10)
        res = max_sliced(mu, nu, 2.0, starts=4, seed=3)
        assert projected_distance(mu, nu, 2.0, res.v_star) == pytest.approx(
            res.lower, abs=1e-10
        )


class TestCertified:
    def test_two_point_bracket(self):
        a, b = point_mass((0.2, -0.4)), point_mass((0.8, 0.5))
        res = max_sliced_certified(a, b, 1.0, tol=1e-6)
        gap = math.hypot(0.6, 0.9)
        assert res.lower - 1e-9 <= gap <= res.upper + 1e-9
        assert res.upper - res.lower <= 1e-6

    def test_identical_measures_bracket(self, rng):
        mu = random_measure(rng, 2)
        res = max_sliced_certified(mu, mu, 2.0, tol=1e-6)
        assert res.lower == 0.0
        assert res.upper <= 1e-6

    def test_brackets_contain_grid_oracle(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 2, max_atoms=12)
            p = float(rng.choice([1.0, 2.0]))
            res = max_sliced_certified(mu, nu, p, tol=1e-6)
            bf = grid_max(mu, nu, p)
            L = moment_p(mu, p) + moment_p(nu, p)
            # the grid can miss the peak by up to L * (half grid step)
            assert res.lower - L * (math.pi / 100_000) <= bf <= res.upper + 1e-9

    def test_d3_brackets_contain_fibonacci_oracle(self, rng):
        dirs = quadrature_grid(3, 100_000).directions  # Fibonacci spiral
        for p in (1.0, 2.0):
            for _ in range(4):
                mu, nu = random_pair(rng, 3, max_atoms=10)
                res = max_sliced_certified(mu, nu, p, tol=1e-5)
                bf = float((_projected_powers(mu, nu, p, dirs) ** (1 / p)).max())
                L = moment_p(mu, p) + moment_p(nu, p)
                # the grid misses v_star (or -v_star) by at most this chord
                v = res.v_star
                mesh = min(
                    np.linalg.norm(dirs - v, axis=1).min(),
                    np.linalg.norm(dirs + v, axis=1).min(),
                )
                assert res.lower - L * mesh <= bf <= res.upper + 1e-9
                assert res.upper - res.lower <= 1e-5

    def test_lower_below_full_distance(self, rng):
        for d in (2, 3):
            for _ in range(5):
                mu, nu = random_pair(rng, d, max_atoms=10)
                res = max_sliced_certified(mu, nu, 1.0, tol=1e-4)
                w = wasserstein_exact(mu, nu, 1.0).primal_value
                assert res.lower <= w + 1e-9
                assert res.upper >= res.lower

    def test_certified_dominates_heuristic(self, rng):
        for _ in range(5):
            mu, nu = random_pair(rng, 2, max_atoms=10)
            cert = max_sliced_certified(mu, nu, 2.0, tol=1e-5)
            heur = max_sliced(mu, nu, 2.0, starts=8, seed=4)
            assert cert.upper >= heur.lower - 1e-9

    def test_d1_exact(self, rng):
        mu = random_measure(rng, 1)
        nu = random_measure(rng, 1)
        res = max_sliced_certified(mu, nu, 1.0, tol=1e-9)
        assert res.lower == res.upper
        assert res.lower == wasserstein_1d(to_measure1d(mu), to_measure1d(nu), 1.0)

    def test_non_finite_order_and_tol(self, rng):
        # inf and NaN used to pass the p < 1 and tol <= 0 checks; a NaN tol
        # gave a "certified" bracket of any width
        mu, nu = random_pair(rng, 2, max_atoms=6)
        for p in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidOrder):
                max_sliced_certified(mu, nu, p, tol=1e-3)
            with pytest.raises(InvalidOrder):
                max_sliced(mu, nu, p)
            with pytest.raises(InvalidOrder):
                projected_distance(mu, nu, p, np.array([1.0, 0.0]))
        with pytest.raises(InvalidOrder):
            max_sliced_certified(mu, nu, 1.0, tol=math.nan)

    def test_d4_brackets_contain_sampled_maximum(self, rng):
        dirs = sample_uniform(4, 200_000, seed=4)
        for p in (1.0, 2.0):
            for _ in range(2):
                mu, nu = random_pair(rng, 4, max_atoms=10)
                res = max_sliced_certified(mu, nu, p, tol=1e-4)
                bf = float((_projected_powers(mu, nu, p, dirs) ** (1 / p)).max())
                assert bf <= res.upper + 1e-12 * res.upper
                assert res.upper - res.lower <= 1e-4
                assert res.lower == projected_distance(mu, nu, p, res.v_star)

    def test_level_chunks_change_nothing(self, rng, monkeypatch):
        # a cap of three boxes splits every level after the first into chunks
        for p in (1.0, 2.0, 1.5):
            mu, nu = random_pair(rng, 3, max_atoms=10)
            whole = max_sliced_certified(mu, nu, p, tol=1e-4)
            with monkeypatch.context() as m:
                m.setattr(ot1d, "CHUNK_ELEMENTS", 3 * (mu.n + nu.n))
                split = max_sliced_certified(mu, nu, p, tol=1e-4)
            assert whole.evaluations > 12
            assert (split.lower, split.upper, split.evaluations) == (
                whole.lower, whole.upper, whole.evaluations
            )
            assert np.array_equal(split.v_star, whole.v_star)

    def test_level_chunks_stay_within_budget(self, rng, monkeypatch):
        # each chunk's (boxes, n + m) pairing arrays and (boxes, n) and
        # (boxes, m) atom sums hold at most CHUNK_ELEMENTS
        mu = random_measure(rng, 3, max_atoms=200)
        nu = random_measure(rng, 3, max_atoms=200)
        seen, sizes = [], []

        def record(mu, nu, p, pairing, centers, steps, dist):
            seen.append(centers.shape[0])
            return bounds(mu, nu, p, pairing, centers, steps, dist)

        def record_pairings(pa, pb, wa, wb, p, uniform):
            out = pairings(pa, pb, wa, wb, p, uniform)
            sizes.extend(a.size for a in (pa, pb) + out[1:])
            return out

        def record_bincount(*args, **kwargs):
            out = bincount(*args, **kwargs)
            sizes.append(out.size)
            return out

        bounds, pairings, bincount = maxsliced._patch_bounds, ot1d._pairings, np.bincount
        monkeypatch.setattr(maxsliced, "_patch_bounds", record)
        monkeypatch.setattr(ot1d, "_pairings", record_pairings)
        monkeypatch.setattr(np, "bincount", record_bincount)
        res = max_sliced_certified(mu, nu, 2.0, tol=1e-4)
        monkeypatch.undo()
        assert sum(seen) == res.evaluations
        rows = ot1d.CHUNK_ELEMENTS // (mu.n + nu.n)
        # the levels outgrow one chunk, and no chunk is wider than the cap allows
        assert max(seen) == rows and rows * (mu.n + nu.n) <= ot1d.CHUNK_ELEMENTS
        assert rows * mu.n in sizes and rows * nu.n in sizes
        assert max(sizes) <= ot1d.CHUNK_ELEMENTS

    def test_budget_exceeded_at_d5(self, rng):
        mu, nu = random_pair(rng, 5, max_atoms=10)
        partial = max_sliced_certified(mu, nu, 1.0, tol=1e-6, eval_budget=500)
        assert partial.v_star.shape == (5,)
        assert 5 <= partial.evaluations <= 500
        assert partial.lower <= partial.upper

    def test_budget_exceeded_carries_partial(self, rng):
        mu, nu = random_pair(rng, 3, max_atoms=10)
        partial = max_sliced_certified(mu, nu, 1.0, tol=1e-10, eval_budget=200)
        assert partial.lower <= partial.upper
        assert partial.upper - partial.lower > 1e-10  # the budget, not tol, stopped it

    def test_budget_below_first_level(self, rng):
        for d in (2, 3):
            mu, nu = random_pair(rng, d, max_atoms=10)
            partial = max_sliced_certified(mu, nu, 2.0, tol=1e-4, eval_budget=2)
            assert partial.v_star.shape == (d,)
            assert np.all(np.isfinite(partial.v_star))
            assert partial.lower == projected_distance(mu, nu, 2.0, partial.v_star)
            assert partial.lower <= partial.upper
            assert partial.evaluations == d

    def test_plan_reuse_matches_own_solve(self, rng):
        for d in (2, 3):
            for p in (1.0, 1.5, 2.0):
                mu, nu = random_pair(rng, d, max_atoms=10)
                a = max_sliced_certified(mu, nu, p, tol=1e-4, plan=wasserstein_exact(mu, nu, p))
                b = max_sliced_certified(mu, nu, p, tol=1e-4)
                assert np.array_equal(a.v_star, b.v_star)
                assert (a.lower, a.upper, a.evaluations) == (b.lower, b.upper, b.evaluations)

    def test_mismatched_plan_rejected(self, rng):
        mu = random_measure(rng, 2, max_atoms=6)
        nu = make_discrete(rng.standard_normal((mu.n + 2, 2)), rng.dirichlet(np.ones(mu.n + 2)))
        with pytest.raises(InvalidSpec):
            max_sliced_certified(mu, nu, 2.0, tol=1e-4, plan=wasserstein_exact(mu, nu, 1.0))
        with pytest.raises(DimensionMismatch):
            max_sliced_certified(mu, nu, 2.0, tol=1e-4, plan=wasserstein_exact(nu, mu, 2.0))
        # same sizes, other weights: only the marginals tell the pair apart
        other = make_discrete(mu.points, rng.dirichlet(np.ones(mu.n)))
        with pytest.raises(InvalidSpec):
            max_sliced_certified(mu, other, 2.0, tol=1e-4, plan=wasserstein_exact(other, mu, 2.0))

    def test_plan_with_marginals_off_by_more_than_rounding_rejected(self):
        # diag(1/2, 1/2) misses nu's weights by 4e-10, within the weight-sum tolerance; used
        # as a coupling it bounded maxSW_1 = W_1 = delta sqrt(5) by [8.0e-10, 8.0e-10]
        delta = 4e-10
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        mu = make_discrete(pts, [0.5, 0.5])
        nu = make_discrete(pts, [0.5 + delta, 0.5 - delta])
        plan = TransportPlan(i=np.array([0, 1]), j=np.array([0, 1]), mass=np.array([0.5, 0.5]),
                             primal_value=0.0, order=1.0, source_size=2, target_size=2)
        with pytest.raises(InvalidSpec, match="marginals"):
            max_sliced_certified(mu, nu, 1.0, tol=1e-12, plan=plan)
        own = max_sliced_certified(mu, nu, 1.0, tol=1e-12, plan=wasserstein_exact(mu, nu, 1.0))
        assert own.lower <= delta * math.sqrt(5.0) <= own.upper

    def test_distinct_measures_positive(self, rng):
        for _ in range(5):
            mu, nu = random_pair(rng, 2, max_atoms=8)
            res = max_sliced_certified(mu, nu, 1.0, tol=1e-5)
            assert res.lower > 0.0  # distinct random clouds always separate

    def test_tiny_upper_implies_equal_axis_projections(self, rng):
        # same measure under two representations: an atom split in half
        mu = random_measure(rng, 2, max_atoms=6)
        pts = np.vstack([mu.points, mu.points[:1]])
        w = np.concatenate([mu.weights, [0.0]])
        w[0] /= 2.0
        w[-1] = w[0]
        nu = make_discrete(pts, w)
        res = max_sliced_certified(mu, nu, 1.0, tol=1e-8)
        assert res.upper < 1e-8
        for e in np.eye(2):
            gap = wasserstein_1d(project(mu, e), project(nu, e), 1.0)
            assert gap <= 1e-9

    def test_golden_audit_instances(self):
        # frozen counts and brackets: a change to the cap bounds that alters
        # the search at p in {1, 2} shows here first
        for d, p, k, evals, lower, upper in _GOLDEN:
            di, pi = d - 2, int(p) - 1
            mu, nu = experiments.random_pair(d, rng_stream(303, 0xAD, di, pi, k))
            res = max_sliced_certified(mu, nu, p, tol=1e-4)
            assert res.evaluations == evals
            assert res.lower == pytest.approx(lower, rel=1e-12, abs=0.0)
            assert res.upper == pytest.approx(upper, rel=1e-12, abs=0.0)


# (d, p, instance, evaluations, lower, upper) of inequality_audit's seed-303
# instances, tol 1e-4
_GOLDEN = [
    (2, 1.0, 0, 54, 1.0570562361004492, 1.0571441709481293),
    (2, 1.0, 1, 38, 1.1500078953972679, 1.1500162154085205),
    (2, 2.0, 0, 54, 0.7295124093117417, 0.7295450696717495),
    (2, 2.0, 1, 46, 0.9337972437817867, 0.9338164509200719),
    (3, 1.0, 0, 303, 1.987013847931256, 1.987064014422614),
    (3, 1.0, 1, 595, 0.7231761171220563, 0.7232536402401915),
    (3, 2.0, 0, 475, 1.2061476919958207, 1.2062375699294152),
    (3, 2.0, 1, 839, 1.0355545205323022, 1.03565112252217),
]


class TestPatchBounds:
    def test_weighted_centers_equal_distance_batch(self, rng):
        for d in (2, 3):
            for n, m in ((1, 6), (9, 14), (17, 11)):
                pts_a = np.round(rng.standard_normal((n, d)), 1)
                pts_b = np.round(rng.standard_normal((m, d)), 1)
                wa = rng.dirichlet(np.ones(n))
                wb = rng.dirichlet(np.ones(m))
                if n > 2:
                    pts_a[1] = pts_a[0]
                    wa[2] = 0.0
                    wa /= wa.sum()
                mu, nu = make_discrete(pts_a, wa), make_discrete(pts_b, wb)
                centers = rng.standard_normal((50, d))
                centers[:d] = np.eye(d)  # axis directions tie the rounded atoms
                centers /= np.linalg.norm(centers, axis=1, keepdims=True)
                steps = rng.uniform(0.0, 0.2, 50)
                dist = _cost_matrix(mu.points, nu.points, 1.0)
                for p in (1.0, 1.5, 2.0):
                    [(_, pairing)] = _paired_chunks(mu, nu, p, centers)
                    f, ub = _patch_bounds(mu, nu, p, pairing, centers, steps, dist)
                    assert np.array_equal(f, _projected_powers(mu, nu, p, centers) ** (1 / p))
                    assert np.all(ub >= f)


def random_face_boxes(rng, d, count):
    """Boxes [lo, hi] inside the faces {v_k = 1} of the cube, k cycling over 0..d-1."""
    face = np.arange(count) % d
    ends = np.sort(rng.uniform(-1.0, 1.0, (count, d, 2)), axis=2)
    lo, hi = ends[..., 0], ends[..., 1]
    lo[np.arange(count), face] = 1.0
    hi[np.arange(count), face] = 1.0
    return face, lo, hi


class TestBoxGeometry:
    def test_chord_covers_box_directions(self, rng):
        for d in (2, 3):
            _, lo, hi = random_face_boxes(rng, d, 60)
            # whole faces and boxes off the axis, where the least norm exceeds 1
            lo[:d], hi[:d] = 2.0 * np.eye(d) - 1.0, np.ones((d, d))
            centers, steps = _box_geometry(lo, hi)
            assert np.allclose(np.linalg.norm(centers, axis=1), 1.0)
            corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
            for c, s, a, b in zip(centers, steps, lo, hi):
                pts = np.vstack([a + corners * (b - a), a + rng.uniform(size=(200, d)) * (b - a)])
                dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
                assert np.max(np.linalg.norm(dirs - c, axis=1)) <= s + 1e-12

    def test_two_halvings_tile_parent(self, rng):
        for d in (2, 3):
            face, lo, hi = random_face_boxes(rng, d, 40)
            clo, chi = _halve(*_halve(lo, hi))
            assert clo.shape == (4 * 40, d)
            plo, phi = np.tile(lo, (4, 1)), np.tile(hi, (4, 1))
            assert np.all(clo >= plo) and np.all(chi <= phi) and np.all(clo <= chi)
            assert np.all(chi - clo <= phi - plo)
            rows = np.tile(np.arange(40), 4)
            assert np.all(clo[rows, np.tile(face, 4)] == 1.0)

            def volume(a, b, f):
                widths = b - a
                widths[np.arange(len(f)), f] = 1.0
                return np.prod(widths, axis=1)

            child = volume(clo, chi, np.tile(face, 4)).reshape(4, 40).sum(axis=0)
            assert np.allclose(child, volume(lo, hi, face), rtol=1e-12, atol=0.0)

    def test_square_face_splits_into_quadrants(self):
        lo, hi = _halve(*_halve(np.array([[-1.0, -1.0, 1.0]]), np.ones((1, 3))))
        quads = {(tuple(a[:2]), tuple(b[:2])) for a, b in zip(lo, hi)}
        assert quads == {
            ((-1.0, -1.0), (0.0, 0.0)), ((0.0, -1.0), (1.0, 0.0)),
            ((-1.0, 0.0), (0.0, 1.0)), ((0.0, 0.0), (1.0, 1.0)),
        }

    def test_first_level_covers_sphere_up_to_sign(self, rng):
        for d in (2, 3):
            lo, hi = 2.0 * np.eye(d) - 1.0, np.ones((d, d))
            v = rng.standard_normal((5000, d))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            k = np.argmax(np.abs(v), axis=1)
            x = v / v[np.arange(len(v)), k][:, None]  # the signed v on face k
            assert np.all((lo[k] <= x) & (x <= hi[k]))
            assert np.allclose(x / np.linalg.norm(x, axis=1, keepdims=True),
                               v * np.sign(v[np.arange(len(v)), k])[:, None])


class TestSandwich:
    def test_chain_with_sliced_and_full(self, rng):
        for d in (2, 3):
            for _ in range(8):
                mu, nu = random_pair(rng, d, max_atoms=10)
                p = float(rng.choice([1.0, 2.0]))
                cert = max_sliced_certified(mu, nu, p, tol=1e-4)
                res = 2048 if d == 2 else 8192
                sw = sliced_wasserstein(mu, nu, p, Scheme.quadrature(res), normalized=True)
                w = wasserstein_exact(mu, nu, p).primal_value
                assert sw.value <= cert.upper + 1e-3  # quadrature slack
                assert cert.lower <= w + 1e-9

    def test_sqrt_d_ratio_can_exceed_for_max_sliced(self):
        # W_2 <= sqrt(d) * maxSW_2 holds for the subspace-robust (inf-sup)
        # quantity but NOT for the max-sliced (sup-inf) metric: this frozen
        # instance has a rigorous ratio W_2 / maxSW_2_upper > sqrt(3).
        # Verified independently: full W_2 and the projected 1D value both
        # reproduce under a dense-LP solver; a 2e6-direction grid and 500
        # ascent restarts agree with the certified bracket.
        mu = make_discrete(_CE_MU_POINTS, _CE_MU_WEIGHTS)
        nu = make_discrete(_CE_NU_POINTS, _CE_NU_WEIGHTS)
        cert = max_sliced_certified(mu, nu, 2.0, tol=1e-5)
        w = wasserstein_exact(mu, nu, 2.0).primal_value
        assert w == pytest.approx(1.2821600349377138, rel=1e-9)
        assert cert.upper == pytest.approx(0.72576, abs=5e-4)
        assert w / cert.upper > math.sqrt(3) * (1.0 + 1e-3)


_CE_MU_POINTS = [
    [-1.3258723666881693, 0.4267405017311268, 0.3581254480412572],
    [-0.6598440421299452, -0.5586169936597816, -1.093405474806862],
    [-0.9894196144989964, -0.3479788820664245, -0.06012042750126488],
    [0.8732174075665686, 0.5613303996435267, -0.5457805445492988],
    [0.8097528238742074, -1.9486359745985573, -0.3929869104035927],
    [0.4826859939822945, 1.4741208618445958, -1.6445230276621392],
    [-1.2079064814818765, -0.4991405569808023, -1.5713257032487187],
    [-0.04745187076638793, 0.25963026908314096, -0.2690300925532661],
    [-0.8837856311005597, 1.8751841695015485, 1.5750578559633508],
    [0.3046682601289299, 1.4664767952041904, -0.7931273699000598],
]
_CE_MU_WEIGHTS = [
    0.057356968880708355, 0.045640683570217104, 0.10596158301444386, 0.17564162524896654,
    0.09171591938073849, 0.04623722496240696, 0.0543954029870597, 0.2692222531652308,
    0.09388575851797899, 0.059942580272249225,
]
_CE_NU_POINTS = [
    [0.42109296809531144, 0.0675027264041967, -0.6297565751870867],
    [-2.8555211668904388, 0.3188637707333827, 0.0029582766718437635],
    [-0.1161525671821342, -0.39725480618262765, 1.8845818284840155],
    [-0.08672774762331203, -0.08163858117365687, -0.0034375463199796223],
    [-1.0720781510380688, -0.5364197001623904, -0.34425995847746044],
    [0.3167639100769005, 0.5982864231822282, -0.7553040280098665],
    [1.0568181132060246, -2.3900877811963137, 1.5139097918565758],
    [0.6582662605589961, 0.8262739773412575, 0.13927932541063118],
]
_CE_NU_WEIGHTS = [
    0.19263713684186484, 0.06439817905595324, 0.039205478018974754, 0.2736142611758478,
    0.10943583048646238, 0.009340297334624784, 0.05951275550975101, 0.2518560615765212,
]


class TestOverflow:
    # sliced W used to report 0.0 (max(0, NaN)) and max-sliced W a NaN lower
    # bound, each after overflow and invalid-value RuntimeWarnings
    @pytest.mark.parametrize("weighted", [False, True])
    def test_overflowing_costs_raise(self, weighted):
        gen = np.random.default_rng(0)
        m = 5 if weighted else 4
        mu = make_discrete(gen.standard_normal((4, 2)) * 1e160,
                           gen.dirichlet(np.ones(4)) if weighted else None)
        nu = make_discrete(gen.standard_normal((m, 2)) * 1e160,
                           gen.dirichlet(np.ones(m)) if weighted else None)
        entries = [
            lambda: sliced_wasserstein(mu, nu, 2.0, normalized=True),
            lambda: max_sliced(mu, nu, 2.0),
            lambda: direction_ascent(mu, nu, 2.0, [1.0, 0.3]),
            lambda: projected_cost_gradient(mu, nu, 2.0, [1.0, 0.3]),
            lambda: projected_distance(mu, nu, 2.0, [1.0, 0.3]),
        ]
        for entry in entries:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ProblemTooLarge, match="overflow float64"):
                    entry()

    def test_overflowing_moment_only_sizes_the_steps(self):
        # at p = 100 the moments of a cloud near 1e4 overflow, but no projected
        # cost does: the ascent still answers, its tangent steps of size 0
        gen = np.random.default_rng(3)
        mu = make_discrete(gen.standard_normal((6, 2)) + 1e4, gen.dirichlet(np.ones(6)))
        nu = make_discrete(gen.standard_normal((7, 2)) + 1e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = max_sliced(mu, nu, 100.0)
            w = wasserstein_exact(mu, nu, 100.0).primal_value
            axis = max(projected_distance(mu, nu, 100.0, e) for e in np.eye(2))
        assert axis <= res.lower <= w + 1e-9

    @pytest.mark.parametrize("spread", [1e80, 1e150])
    def test_certified_slope_does_not_overflow(self, spread):
        # the p = 2 slope norm squared the tangent components: overflow warnings
        gen = np.random.default_rng(0)
        mu = make_discrete(gen.standard_normal((6, 2)) * spread)
        nu = make_discrete(gen.standard_normal((6, 2)) * spread)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = wasserstein_exact(mu, nu, 2.0).primal_value
            res = max_sliced_certified(mu, nu, 2.0, 1e-3 * spread)
        assert res.lower <= w
        assert res.lower <= res.upper <= res.lower + 1e-3 * spread

    @pytest.mark.parametrize("spread", [1e80, 1e150])
    def test_ascent_and_monte_carlo_do_not_overflow(self, spread):
        # the ascent's gradient norms and the Monte Carlo stderr square values whose
        # squares overflow although no projected cost does: ProblemTooLarge
        gen = np.random.default_rng(0)
        mu = make_discrete(gen.standard_normal((6, 2)) * spread)
        nu = make_discrete(gen.standard_normal((6, 2)) * spread)
        mu4 = make_discrete(gen.standard_normal((6, 4)) * spread)
        nu4 = make_discrete(gen.standard_normal((6, 4)) * spread)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = wasserstein_exact(mu, nu, 2.0).primal_value
            axis = [projected_distance(mu, nu, 2.0, e) for e in np.eye(2)]
            heuristic = max_sliced(mu, nu, 2.0).lower
            _, ascent = direction_ascent(mu, nu, 2.0, [1.0, 0.0])
            est = sliced_wasserstein(mu4, nu4, 2.0, Scheme.monte_carlo(64))
        assert max(axis) * (1.0 - 1e-12) <= heuristic <= w
        assert axis[0] * (1.0 - 1e-12) <= ascent <= w
        assert math.isfinite(est.value) and 0.0 < est.stderr < est.value
