import math

import numpy as np
import pytest

from otslice import (
    DimensionMismatch,
    InvalidOrder,
    InvalidSpec,
    Scheme,
    make_discrete,
    sliced_wasserstein,
    surface_area,
    to_measure1d,
    wasserstein_1d,
)
from conftest import random_measure, random_pair


def point_mass(x):
    return make_discrete([list(x)], [1.0])


class TestSlicedBasics:
    def test_identical_measures_zero(self, rng):
        mu = random_measure(rng, 2)
        for scheme in (Scheme.quadrature(128), Scheme.monte_carlo(500, seed=3)):
            est = sliced_wasserstein(mu, mu, 2.0, scheme)
            assert est.value == 0.0
            assert est.stderr == 0.0

    def test_point_masses_d2_unnormalized(self):
        # surface integral of |v . u| over the circle is 4 for unit u
        a, b = point_mass((0.0, 0.0)), point_mass((0.6, 0.8))
        est = sliced_wasserstein(a, b, 1.0, Scheme.quadrature(4096), normalized=False)
        assert est.value == pytest.approx(4.0, abs=1e-5)

    def test_point_masses_d2_normalized(self):
        a, b = point_mass((0.0, 0.0)), point_mass((0.6, 0.8))
        est = sliced_wasserstein(a, b, 1.0, Scheme.quadrature(4096), normalized=True)
        assert est.value == pytest.approx(2.0 / math.pi, abs=1e-6)

    def test_point_masses_d3_normalized(self):
        a, b = point_mass((0.0, 0.0, 0.0)), point_mass((0.0, 0.6, 0.8))
        est = sliced_wasserstein(a, b, 1.0, Scheme.quadrature(16384), normalized=True)
        assert est.value == pytest.approx(0.5, abs=1e-3)

    def test_normalization_is_area_root(self, rng):
        mu, nu = random_pair(rng, 2, max_atoms=8)
        for p in (1.0, 2.0):
            un = sliced_wasserstein(mu, nu, p, Scheme.quadrature(256), normalized=False)
            no = sliced_wasserstein(mu, nu, p, Scheme.quadrature(256), normalized=True)
            assert un.value == pytest.approx(
                no.value * surface_area(2) ** (1.0 / p), rel=1e-12
            )

    def test_d1_exact(self, rng):
        mu = random_measure(rng, 1)
        nu = random_measure(rng, 1)
        w = wasserstein_1d(to_measure1d(mu), to_measure1d(nu), 2.0)
        est = sliced_wasserstein(mu, nu, 2.0, normalized=True)
        assert est.value == pytest.approx(w, rel=1e-12)
        un = sliced_wasserstein(mu, nu, 2.0, normalized=False)
        assert un.value == pytest.approx(w * 2.0 ** (1.0 / 2.0), rel=1e-12)

    def test_guards(self, rng):
        mu = random_measure(rng, 2)
        nu = random_measure(rng, 3)
        with pytest.raises(DimensionMismatch):
            sliced_wasserstein(mu, nu, 1.0)
        with pytest.raises(InvalidOrder):
            sliced_wasserstein(mu, mu, 0.5)

    def test_non_finite_order(self, rng):
        mu, nu = random_pair(rng, 2)
        for p in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidOrder):
                sliced_wasserstein(mu, nu, p)

    def test_unknown_scheme_kind(self, rng):
        mu = random_measure(rng, 2)
        with pytest.raises(InvalidSpec):
            sliced_wasserstein(mu, mu, 1.0, Scheme(kind="grid"))


class TestMonteCarlo:
    def test_consistent_with_quadrature(self, rng):
        mu, nu = random_pair(rng, 2, max_atoms=10)
        ref = sliced_wasserstein(mu, nu, 1.0, Scheme.quadrature(4096), normalized=True)
        hits = 0
        seeds = range(10)
        for seed in seeds:
            est = sliced_wasserstein(
                mu, nu, 1.0, Scheme.monte_carlo(100_000, seed=seed), normalized=True
            )
            if abs(est.value - ref.value) <= 3.0 * est.stderr:
                hits += 1
        assert hits >= 9

    def test_stderr_positive_for_distinct(self, rng):
        mu, nu = random_pair(rng, 3, max_atoms=8)
        est = sliced_wasserstein(mu, nu, 2.0, Scheme.monte_carlo(2000, seed=0))
        assert est.stderr > 0.0

    def test_needs_two_directions(self, rng):
        # 0 directions gave SW = 0 with stderr 0, 1 gave stderr 0, -3 a bare ValueError
        for d in (1, 2, 4):
            mu, nu = random_pair(rng, d, max_atoms=6)
            for count in (1, 0, -3):
                with pytest.raises(InvalidSpec, match="at least 2"):
                    sliced_wasserstein(mu, nu, 1.0, Scheme.monte_carlo(count, seed=1))
        est = sliced_wasserstein(mu, nu, 1.0, Scheme.monte_carlo(2, seed=1))
        assert est.stderr > 0.0

    def test_seeded_reproducibility(self, rng):
        mu, nu = random_pair(rng, 4, max_atoms=8)
        a = sliced_wasserstein(mu, nu, 1.0, Scheme.monte_carlo(3000, seed=5))
        b = sliced_wasserstein(mu, nu, 1.0, Scheme.monte_carlo(3000, seed=5))
        assert a.value == b.value and a.stderr == b.stderr


class TestMetricStructure:
    def test_symmetry_exact(self, rng):
        mu, nu = random_pair(rng, 2, max_atoms=9)
        s = Scheme.quadrature(512)
        for p in (1.0, 2.0):
            assert (
                sliced_wasserstein(mu, nu, p, s).value
                == sliced_wasserstein(nu, mu, p, s).value
            )

    def test_triangle_on_shared_grid(self, rng):
        # with one fixed grid the estimator is a weighted l^p norm of exact
        # 1D distances, so the triangle inequality holds to rounding
        s = Scheme.quadrature(256)
        for _ in range(10):
            a = random_measure(rng, 2, max_atoms=7)
            b = random_measure(rng, 2, max_atoms=7)
            c = random_measure(rng, 2, max_atoms=7)
            for p in (1.0, 2.0):
                dab = sliced_wasserstein(a, b, p, s).value
                dbc = sliced_wasserstein(b, c, p, s).value
                dac = sliced_wasserstein(a, c, p, s).value
                assert dac <= dab + dbc + 1e-10

    def test_rotation_invariance(self, rng):
        theta = 0.7
        R = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        for _ in range(5):
            mu, nu = random_pair(rng, 2, max_atoms=10)
            mur = make_discrete(mu.points @ R.T, mu.weights)
            nur = make_discrete(nu.points @ R.T, nu.weights)
            s = Scheme.quadrature(2048)
            base = sliced_wasserstein(mu, nu, 1.0, s, normalized=True).value
            rot = sliced_wasserstein(mur, nur, 1.0, s, normalized=True).value
            assert rot == pytest.approx(base, rel=1e-4, abs=1e-6)
