"""Property tests of the certified search's cap bounds and of the heuristic ascent's
place in the chain (need the optional ``hypothesis`` test extra)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otslice import (make_discrete, max_sliced, max_sliced_certified, moment_p,
                     projected_distance, wasserstein_exact)
from otslice.maxsliced import _patch_bounds
from otslice.ot_exact import _cost_matrix
from otslice.ot1d import _paired_chunks, _projected_powers

CAPS = 48  # sampled directions per cap, half of them on its rim


@st.composite
def lattice_pairs(draw):
    """Two clouds on a half-integer lattice in d = 2, 3 or 4.

    Lattice atoms tie along the axes and repeat; integer weights that may be 0
    give zero-weight atoms; n = 1 is allowed. Some pairs are equal-size and
    uniform, which takes the argsort pairing instead of the weighted merge.
    Some pairs in d = 3 are collinear: every atom of both clouds is an integer
    multiple of one lattice vector plus a shift they share.
    """
    d = draw(st.sampled_from([2, 3, 4]))
    uniform = draw(st.booleans())
    n = draw(st.integers(1, 7))
    m = n if uniform else draw(st.integers(1, 7))
    vector = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    line = (draw(vector.filter(any)), draw(vector)) if d == 3 and draw(st.booleans()) else None

    def cloud(size):
        if line:
            k = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
            pts = np.outer(k, line[0]) + line[1]
        else:
            pts = draw(st.lists(vector, min_size=size, max_size=size))
        if uniform:
            return make_discrete(np.array(pts, dtype=float) / 2, None)
        w = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any))
        return make_discrete(np.array(pts, dtype=float) / 2, np.array(w, dtype=float) / sum(w))

    return cloud(n), cloud(m)


def centers_and_caps(d, step, rng):
    """Patch centers (the axes and their diagonals, where lattice atoms tie, plus
    random ones) and, per center, directions at chord at most ``step`` from it."""
    fixed = np.vstack([np.eye(d), np.ones((1, d)), np.eye(d)[0] - np.eye(d)[1:]])
    centers = np.vstack([fixed, rng.standard_normal((4, d))])
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    tangent = rng.standard_normal((centers.shape[0], CAPS, d))
    tangent -= np.einsum("ckd,cd->ck", tangent, centers)[..., None] * centers[:, None]
    tangent /= np.linalg.norm(tangent, axis=2, keepdims=True)
    chord = step * np.concatenate([np.ones(CAPS // 2), rng.uniform(size=CAPS - CAPS // 2)])
    theta = 2.0 * np.arcsin(np.minimum(1.0, chord / 2.0))
    dirs = np.cos(theta)[None, :, None] * centers[:, None] + np.sin(theta)[None, :, None] * tangent
    return centers, dirs


def scaled(measure, scale):
    return make_discrete(scale * measure.points, measure.weights)


def shifted(measure, c):
    return make_discrete(measure.points - c, measure.weights)


class TestCapBounds:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=lattice_pairs(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           scale=st.sampled_from([1.0, 1e-9, 1e8]),
           step=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 2.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_caps_hold_and_beat_the_moment_cap(self, pair, p, scale, step, seed):
        mu, nu = scaled(pair[0], scale), scaled(pair[1], scale)
        d = mu.dim
        centers, dirs = centers_and_caps(d, step, np.random.default_rng(seed))
        steps = np.full(centers.shape[0], step)
        [(_, pairing)] = _paired_chunks(mu, nu, p, centers)
        f, ub = _patch_bounds(mu, nu, p, pairing, centers, steps,
                              _cost_matrix(mu.points, nu.points, 1.0))

        # every direction in a cap stays below its bound; the span term covers
        # projection rounding (one atom projected in two differently shaped
        # batches can differ by an ulp of its norm) where the bound is 0
        powers = _projected_powers(mu, nu, p, dirs.reshape(-1, d))
        values = (powers ** (1 / p)).reshape(dirs.shape[:2])
        span = np.max(np.linalg.norm(mu.points[:, None] - nu.points[None], axis=2))
        assert np.all(values <= ub[:, None] + 1e-12 * (ub[:, None] + span))

        # and the bound is never above f + step (M_p(mu - c) + M_p(nu - c)),
        # at the origin and at the pooled mean
        pooled = 0.5 * (mu.weights @ mu.points + nu.weights @ nu.points)
        for c in (np.zeros(d), pooled):
            moments = moment_p(shifted(mu, c), p) + moment_p(shifted(nu, c), p)
            assert np.all(ub <= (f + steps * moments) * (1.0 + 1e-12))


class TestProjectionPaths:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=lattice_pairs(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           scale=st.sampled_from([1.0, 1e-9, 1e8]), seed=st.integers(0, 2**32 - 1))
    def test_center_values_equal_distance_batch(self, pair, p, scale, seed):
        # the pairing path and the distance path project alike and sum the
        # same gaps alike (the mean for equal-size uniform pairs, sum mass
        # |t|^p otherwise), so a center's value is bit-equal whichever computes it
        mu, nu = scaled(pair[0], scale), scaled(pair[1], scale)
        centers, _ = centers_and_caps(mu.dim, 0.1, np.random.default_rng(seed))
        [(_, pairing)] = _paired_chunks(mu, nu, p, centers)
        f, _ = _patch_bounds(mu, nu, p, pairing, centers, np.full(centers.shape[0], 0.1),
                             _cost_matrix(mu.points, nu.points, 1.0))
        assert np.array_equal(f, _projected_powers(mu, nu, p, centers) ** (1 / p))


class TestHeuristicChain:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=lattice_pairs(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           starts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_lower_between_axis_values_and_upper_bounds(self, pair, p, starts, seed):
        # the ascent never ends below a start, and no lower bound passes the
        # certified upper bound or W itself
        mu, nu = pair
        lower = max_sliced(mu, nu, p, starts=starts, seed=seed).lower
        for e in np.eye(mu.dim):
            assert lower >= projected_distance(mu, nu, p, e) * (1.0 - 1e-12)
        upper = max_sliced_certified(mu, nu, p, tol=1e-3, eval_budget=20_000).upper
        assert lower <= upper + 1e-9
        assert lower <= wasserstein_exact(mu, nu, p).primal_value + 1e-9


class TestRigidMotion:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=lattice_pairs(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_w_and_certified_brackets_survive_a_rigid_motion(self, pair, p, seed):
        # W is invariant under x -> Qx + c and the certified brackets of both
        # placements contain the one maxSW; a certified lower never passes W
        mu, nu = pair
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((mu.dim, mu.dim)))
        shift = rng.uniform(-3.0, 3.0, mu.dim)
        moved = [make_discrete(m.points @ q.T + shift, m.weights) for m in (mu, nu)]
        w = wasserstein_exact(mu, nu, p).primal_value
        w_moved = wasserstein_exact(*moved, p).primal_value
        assert abs(w_moved - w) <= 1e-12 * w
        a = max_sliced_certified(mu, nu, p, tol=1e-3, eval_budget=20_000)
        b = max_sliced_certified(*moved, p, tol=1e-3, eval_budget=20_000)
        assert max(a.lower, b.lower) <= min(a.upper, b.upper)
        assert a.lower <= w + 1e-9 * max(1.0, w)
