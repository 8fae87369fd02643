"""Property tests of the exact simplex and of the assignment path (need the
optional ``hypothesis`` test extra)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from otslice import make_discrete
from otslice.ot_exact import _exact, _solve_simplex
from test_ot_exact import lp_cost


def _lattice(draw, d, n):
    """n atoms on the half-integer lattice of [-1.5, 1.5]^d: they tie along every axis and repeat."""
    pts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                        min_size=n, max_size=n))
    return np.array(pts, dtype=float) / 2


@st.composite
def lattice_pairs(draw):
    """Two weighted lattice clouds in d = 1..3.

    Integer weights that may be 0 give zero-weight atoms; n = 1 is allowed
    on either side.
    """
    d = draw(st.integers(1, 3))

    def cloud():
        n = draw(st.integers(1, 8))
        pts = _lattice(draw, d, n)
        w = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
        return make_discrete(pts, np.array(w, dtype=float) / sum(w))

    return cloud(), cloud()


@st.composite
def uniform_lattice_pairs(draw):
    """Two uniform lattice clouds of one size n = 1..8 in d = 1..3: the assignment path."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    return make_discrete(_lattice(draw, d, n)), make_discrete(_lattice(draw, d, n))


class TestSimplexProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=lattice_pairs(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           scale=st.sampled_from([1.0, 1e-6, 1e8]))
    def test_value_marginals_and_slackness(self, pair, p, scale):
        mu, nu = pair
        smu = make_discrete(scale * mu.points, mu.weights)
        snu = make_discrete(scale * nu.points, nu.weights)
        i, j, mass, u, v, cost = _solve_simplex(smu, snu, p)
        C = cdist(smu.points, snu.points) ** p
        cmax = float(C.max()) or 1.0
        # the oracle solves the unit-scale problem; the cost scales by scale^p
        ref = scale**p * lp_cost(mu, nu, p)
        assert cost == pytest.approx(ref, rel=1e-9, abs=1e-12 * cmax)
        assert np.allclose(np.bincount(i, mass, mu.n), mu.weights, rtol=0, atol=1e-12)
        assert np.allclose(np.bincount(j, mass, nu.n), nu.weights, rtol=0, atol=1e-12)
        assert np.all(mass >= 0.0)
        # every basic cell, zero mass included, is tight; every cell is dual feasible
        assert np.all(np.abs(u[i] + v[j] - C[i, j]) <= 1e-12 * cmax)
        assert np.all(u[:, None] + v[None, :] - C <= 1e-9 * cmax)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(pair=uniform_lattice_pairs(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           scale=st.sampled_from([1.0, 1e-6, 1e8]))
    def test_assignment_path_matches_simplex_and_lp(self, pair, p, scale):
        mu, nu = pair
        smu = make_discrete(scale * mu.points)
        snu = make_discrete(scale * nu.points)
        plan, duals = _exact(smu, snu, p)
        assert duals is None  # the assignment path, not the simplex
        assert np.array_equal(np.sort(plan.j), np.arange(nu.n)) and np.all(plan.mass == 1 / mu.n)
        cmax = float((cdist(smu.points, snu.points) ** p).max()) or 1.0
        cost = plan.primal_value**p
        assert cost == pytest.approx(_solve_simplex(smu, snu, p)[-1], rel=1e-9, abs=1e-12 * cmax)
        assert cost == pytest.approx(scale**p * lp_cost(mu, nu, p), rel=1e-9, abs=1e-12 * cmax)
