"""Property tests of sliced W as an equal-weight mean (need the ``hypothesis`` test extra).

``inequality_audit`` checks SW <= maxSW with no quadrature error term. That
is sound because every scheme weights its directions equally: the computed
normalized SW^p is a mean of exact W_p^p(v_k), at most their maximum. A
rule whose normalized weights are not a convex combination (a negative
weight, a total other than A_d, an extrapolation between two grids) fails
these tests; the audit slack must be revisited before adding one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from otslice import (
    Scheme,
    make_discrete,
    max_sliced_certified,
    quadrature_grid,
    sample_uniform,
    sliced_wasserstein,
    wasserstein_pp_batch,
)
from test_ot1d_properties import SCALES, weighted_cloud

ORDERS = st.sampled_from([1.0, 1.5, 2.0])
SCHEMES = st.one_of(
    st.builds(Scheme.quadrature, st.sampled_from([1, 3, 64, 257])),
    st.builds(Scheme.monte_carlo, st.sampled_from([2, 3, 50]), st.integers(0, 2**32)),
)
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def scheme_directions(d, scheme):
    if scheme.kind == "quadrature":
        return quadrature_grid(d, scheme.resolution).directions
    return sample_uniform(d, scheme.count, scheme.seed)


@st.composite
def weighted_pair(draw):
    """Two lattice clouds (ties, duplicate atoms, zero weights, n = 1) in d in {2, 3}."""
    d = draw(st.sampled_from([2, 3]))
    scale = draw(SCALES)
    (x, a), (y, b) = draw(weighted_cloud(d)), draw(weighted_cloud(d))
    return make_discrete(scale * x, a), make_discrete(scale * y, b), scale


class TestEqualWeightMean:
    @PROPERTY_SETTINGS
    @given(pair=weighted_pair(), p=ORDERS, scheme=SCHEMES)
    def test_at_most_largest_direction(self, pair, p, scheme):
        mu, nu, _ = pair
        dirs = scheme_directions(mu.dim, scheme)
        powers = wasserstein_pp_batch(
            dirs @ mu.points.T, dirs @ nu.points.T, mu.weights, nu.weights, p
        )
        sw = sliced_wasserstein(mu, nu, p, scheme, normalized=True)
        # rel 1e-12 covers rounding in the mean and the p-th root
        assert sw.value**p <= float(np.max(powers)) * (1.0 + 1e-12)

    @PROPERTY_SETTINGS
    @given(pair=weighted_pair(), p=ORDERS, scheme=SCHEMES)
    def test_at_most_certified_upper(self, pair, p, scheme):
        mu, nu, scale = pair
        sw = sliced_wasserstein(mu, nu, p, scheme, normalized=True)
        cert = max_sliced_certified(mu, nu, p, tol=1e-2 * scale)
        assert sw.value <= cert.upper * (1.0 + 1e-12)
