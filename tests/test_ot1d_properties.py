"""Property tests of the 1D layer (need the optional ``hypothesis`` test extra)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otslice import (
    make_discrete,
    measure1d_from_samples,
    monotone_coupling,
    projected_cost_gradient,
    projected_distance,
    wasserstein_1d,
)
from test_ot1d import searchsorted_pp

ORDERS = st.sampled_from([1.0, 1.5, 2.0, 3.0])
SCALES = st.sampled_from([1.0, 1e-9, 1e8])
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def weighted_cloud(draw, d=1):
    """Atoms on a half-integer lattice in d dimensions and integer weights.

    Lattice atoms tie and repeat; weights may be 0 (at least one is not);
    n = 1 is allowed.
    """
    n = draw(st.integers(1, 9))
    pts = draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                        min_size=n, max_size=n))
    w = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
    return np.array(pts, dtype=float) / 2, np.array(w, dtype=float) / sum(w)


def span_pp(x, y, p):
    """Largest |x_i - y_j|^p: the scale of one rounding-sized segment's cost."""
    return float(np.max(np.abs(x[:, None] - y[None, :]))) ** p


class TestDistanceProperties:
    @PROPERTY_SETTINGS
    @given(a=weighted_cloud(), b=weighted_cloud(), p=ORDERS, scale=SCALES)
    def test_equals_searchsorted_reference(self, a, b, p, scale):
        x, y = scale * a[0][:, 0], scale * b[0][:, 0]
        w = wasserstein_1d(measure1d_from_samples(x, a[1]), measure1d_from_samples(y, b[1]), p)
        ref = searchsorted_pp(x, y, a[1], b[1], p)
        # merging duplicate atoms rounds the prefix sums differently, which can
        # open a segment of about one ulp of mass between different atoms
        assert w**p == pytest.approx(ref, rel=1e-12, abs=1e-14 * span_pp(x, y, p))

    @PROPERTY_SETTINGS
    @given(a=weighted_cloud(), b=weighted_cloud(), p=ORDERS, scale=SCALES)
    def test_symmetric(self, a, b, p, scale):
        mu = measure1d_from_samples(scale * a[0][:, 0], a[1])
        nu = measure1d_from_samples(scale * b[0][:, 0], b[1])
        assert wasserstein_1d(mu, nu, p) == wasserstein_1d(nu, mu, p)

    @PROPERTY_SETTINGS
    @given(a=weighted_cloud(), b=weighted_cloud(), p=ORDERS, scale=SCALES,
           shift=st.integers(-7, 7))
    def test_translation_invariant(self, a, b, p, scale, shift):
        x, y, c = scale * a[0][:, 0], scale * b[0][:, 0], scale * shift / 2
        w = wasserstein_1d(measure1d_from_samples(x, a[1]), measure1d_from_samples(y, b[1]), p)
        shifted = wasserstein_1d(
            measure1d_from_samples(x + c, a[1]), measure1d_from_samples(y + c, b[1]), p
        )
        # lattice atoms stay distinct after the shift, so only the gaps round
        reach = float(max(np.max(np.abs(x)), np.max(np.abs(y)))) + abs(c)
        assert shifted == pytest.approx(w, rel=1e-12, abs=1e-14 * reach)


class TestCouplingProperties:
    @PROPERTY_SETTINGS
    @given(a=weighted_cloud(), b=weighted_cloud(), scale=SCALES)
    def test_marginals_and_monotone(self, a, b, scale):
        mu = measure1d_from_samples(scale * a[0][:, 0], a[1])
        nu = measure1d_from_samples(scale * b[0][:, 0], b[1])
        c = monotone_coupling(mu, nu)
        assert np.all(c.mass > 0.0)
        assert np.allclose(np.bincount(c.i, c.mass, mu.n), mu.weights, rtol=0, atol=1e-12)
        assert np.allclose(np.bincount(c.j, c.mass, nu.n), nu.weights, rtol=0, atol=1e-12)
        assert np.all(np.diff(c.i) >= 0) and np.all(np.diff(c.j) >= 0)
        # consecutive segments never pair the same two atoms
        assert np.all((np.diff(c.i) > 0) | (np.diff(c.j) > 0))


class TestProjectedCostProperties:
    @PROPERTY_SETTINGS
    @given(data=st.data(), d=st.integers(1, 3), p=ORDERS, scale=SCALES)
    def test_value_is_projected_distance_power(self, data, d, p, scale):
        (a, wa), (b, wb) = data.draw(weighted_cloud(d)), data.draw(weighted_cloud(d))
        mu, nu = make_discrete(scale * a, wa), make_discrete(scale * b, wb)
        v = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)
                               .filter(any)), dtype=float)
        v /= np.linalg.norm(v)
        value, _ = projected_cost_gradient(mu, nu, p, v)
        dist = projected_distance(mu, nu, p, v)
        tol = 1e-14 * span_pp(mu.points @ v, nu.points @ v, p)
        assert value == pytest.approx(dist**p, rel=1e-12, abs=tol)
