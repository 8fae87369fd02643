import math

import numpy as np
import pytest

from otslice import (
    DimensionMismatch,
    InvalidDimension,
    UnsupportedDimension,
    as_unit,
    make_discrete,
    moment_p,
    project,
    quadrature_grid,
    sample_uniform,
    surface_area,
    wasserstein_1d,
)
from conftest import random_measure


class TestSurfaceArea:
    def test_circle(self):
        assert surface_area(2) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_sphere(self):
        assert surface_area(3) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_d4(self):
        # 2 * pi^2 / Gamma(2) = 2 pi^2
        assert surface_area(4) == pytest.approx(2 * math.pi**2, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(InvalidDimension):
            surface_area(0)
        with pytest.raises(InvalidDimension):
            surface_area(2.5)


class TestSampleUniform:
    def test_unit_norms(self):
        dirs = sample_uniform(4, 1000, seed=1)
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 1e-12

    def test_mean_near_zero(self):
        dirs = sample_uniform(2, 100_000, seed=2)
        assert np.all(np.abs(dirs.mean(axis=0)) <= 0.02)

    def test_reproducible(self):
        a = sample_uniform(3, 50, seed=9)
        b = sample_uniform(3, 50, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [0, -1])
    def test_invalid_dimension(self, d):
        # count 0: with d = 0 and a positive count, every draw has norm 0 and is redrawn forever
        with pytest.raises(InvalidDimension):
            sample_uniform(d, 0, seed=1)


class TestAsUnit:
    def test_zero_vector_rejected(self):
        with pytest.raises(DimensionMismatch, match="nonzero"):
            as_unit([0.0, 0.0])


class TestQuadratureGrid:
    def test_d2_resolution_4_axes(self):
        grid = quadrature_grid(2, 4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(grid.directions, expected, atol=1e-15)
        assert np.all(grid.weights == math.pi / 2)

    def test_weight_sums(self):
        for d, res in ((2, 37), (3, 501)):
            grid = quadrature_grid(d, res)
            assert grid.weights.sum() == pytest.approx(surface_area(d), rel=1e-10)
            # sliced_wasserstein takes a plain mean over the grid directions
            assert np.all(grid.weights == grid.weights[0])

    def test_trapezoid_abs_cosine(self):
        # piecewise-smooth integrand: O(1/R^2) with constant 4 pi^2 / 3,
        # so 64 points land at 3.3e-3 and 4096 points below 1e-6
        for res, tol in ((64, 4e-3), (4096, 1e-6)):
            grid = quadrature_grid(2, res)
            # equal weights: the surface integral is A_d times the mean, as in sliced_wasserstein
            values = np.abs(grid.directions @ np.array([1.0, 0.0]))
            val = surface_area(2) * float(np.mean(values))
            assert val == pytest.approx(4.0, abs=tol)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            quadrature_grid(4, 64)


class TestProject:
    def test_axis_projection(self, rng):
        mu = random_measure(rng, 3)
        m = project(mu, [1.0, 0.0, 0.0])
        expected = np.sort(np.unique(mu.points[:, 0]))
        assert np.array_equal(m.atoms, expected)

    def test_point_mass(self):
        mu = make_discrete([[1.0, 2.0]], [1.0])
        v = np.array([0.6, 0.8])
        m = project(mu, v)
        assert m.n == 1
        assert m.atoms[0] == pytest.approx(1.0 * 0.6 + 2.0 * 0.8)

    def test_moment_contraction(self, rng):
        for _ in range(10):
            mu = random_measure(rng, 3)
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            proj = project(mu, v)
            as_measure = make_discrete(proj.atoms.reshape(-1, 1), proj.weights)
            for p in (1.0, 2.0):
                assert moment_p(as_measure, p) <= moment_p(mu, p) + 1e-12

    def test_mixture_linearity(self, rng):
        a = random_measure(rng, 2, max_atoms=6)
        b = random_measure(rng, 2, max_atoms=6)
        lam = 0.3
        mix = make_discrete(
            np.vstack([a.points, b.points]),
            np.concatenate([lam * a.weights, (1 - lam) * b.weights]),
        )
        v = np.array([0.8, -0.6])
        pm = project(mix, v)
        pa, pb = project(a, v), project(b, v)
        atoms = np.unique(np.concatenate([pa.atoms, pb.atoms]))
        w = np.zeros_like(atoms)
        w[np.searchsorted(atoms, pa.atoms)] += lam * pa.weights
        w[np.searchsorted(atoms, pb.atoms)] += (1 - lam) * pb.weights
        assert np.array_equal(pm.atoms, atoms)
        assert np.allclose(pm.weights, w, atol=1e-15)

    def test_dim_guard(self, rng):
        mu = random_measure(rng, 2)
        with pytest.raises(DimensionMismatch):
            project(mu, [1.0, 0.0, 0.0])


class TestProjectionLipschitz:
    def test_direction_lipschitz_bound(self, rng):
        for _ in range(30):
            mu = random_measure(rng, 3, max_atoms=10)
            nu = random_measure(rng, 3, max_atoms=10)
            u, v = sample_uniform(3, 2, seed=int(rng.integers(1 << 31)))
            for p in (1.0, 2.0):
                wu = wasserstein_1d(project(mu, u), project(nu, u), p)
                wv = wasserstein_1d(project(mu, v), project(nu, v), p)
                L = moment_p(mu, p) + moment_p(nu, p)
                assert abs(wu - wv) <= np.linalg.norm(u - v) * L + 1e-9
