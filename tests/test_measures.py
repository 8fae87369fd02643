import json
import math

import numpy as np
import pytest

from otslice import (
    DimensionMismatch,
    EmptySupport,
    GeneratorSpec,
    InvalidOrder,
    InvalidSpec,
    NegativeWeight,
    NonFiniteCoordinates,
    WeightSumOutOfRange,
    generate,
    load_measure,
    make_discrete,
    moment_p,
    save_measure,
)


class TestMakeDiscrete:
    def test_two_atom_measure(self):
        mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
        assert mu.dim == 1
        assert mu.n == 2
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_at_origin(self):
        mu = make_discrete([[0.0, 0.0]], [1.0])
        assert mu.n == 1 and mu.dim == 2

    def test_weight_sum_out_of_range(self):
        with pytest.raises(WeightSumOutOfRange):
            make_discrete([[0.0], [1.0]], [0.5, 0.4])

    def test_renormalizes_small_drift(self):
        w = np.array([0.5, 0.5 + 3e-10])
        mu = make_discrete([[0.0], [1.0]], w)
        assert abs(mu.weights.sum() - 1.0) <= 1e-12

    def test_uniform_default(self):
        mu = make_discrete([[0.0], [1.0], [2.0]])
        assert np.all(mu.weights == 1.0 / 3.0)

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            make_discrete([], [])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_discrete([[0.0], [1.0]], [1.5, -0.5])

    def test_ragged_points(self):
        with pytest.raises(DimensionMismatch):
            make_discrete([[0.0, 1.0], [2.0]], [0.5, 0.5])

    def test_nonfinite_points(self):
        with pytest.raises(NonFiniteCoordinates):
            make_discrete([[np.inf], [0.0]], [0.5, 0.5])

    def test_immutable(self):
        mu = make_discrete([[0.0], [1.0]], [0.5, 0.5])
        with pytest.raises(ValueError):
            mu.points[0, 0] = 3.0

    def test_duplicates_not_merged(self):
        mu = make_discrete([[1.0], [1.0]], [0.25, 0.75])
        assert mu.n == 2


class TestMomentP:
    def test_point_mass_at_origin_is_zero(self):
        mu = make_discrete([[0.0, 0.0, 0.0]], [1.0])
        for p in (1.0, 2.0, 3.5):
            assert moment_p(mu, p) == 0.0

    def test_euclidean_norm(self):
        mu = make_discrete([[3.0, 4.0]], [1.0])
        assert moment_p(mu, 1.0) == pytest.approx(5.0, abs=1e-15)

    def test_two_atom_second_moment(self):
        # (0.5 * 0 + 0.5 * 4) ** 0.5 = sqrt(2)
        mu = make_discrete([[0.0], [2.0]], [0.5, 0.5])
        assert moment_p(mu, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_order_below_one(self):
        mu = make_discrete([[1.0]], [1.0])
        with pytest.raises(InvalidOrder):
            moment_p(mu, 0.5)

    def test_non_finite_order(self):
        mu = make_discrete([[1.0]], [1.0])
        for p in (math.inf, math.nan):
            with pytest.raises(InvalidOrder):
                moment_p(mu, p)

    def test_scaling_homogeneity(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 20))
            mu = make_discrete(rng.standard_normal((n, 3)), rng.dirichlet(np.ones(n)))
            s = float(rng.uniform(-3.0, 3.0))
            scaled = make_discrete(s * mu.points, mu.weights)
            for p in (1.0, 2.0, 2.7):
                assert moment_p(scaled, p) == pytest.approx(
                    abs(s) * moment_p(mu, p), abs=1e-10
                )


class TestGenerate:
    def test_two_point_echo(self):
        spec = GeneratorSpec.two_point((0.0, 0.0), (1.0, 0.0))
        mu = generate(spec, seed=0)
        assert np.array_equal(mu.points, [[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(mu.weights, [0.5, 0.5])

    def test_empirical_uniform_cube(self):
        spec = GeneratorSpec.empirical_of(GeneratorSpec.uniform_cube(2), 100)
        mu = generate(spec, seed=7)
        assert mu.n == 100
        assert np.all(mu.weights == 0.01)
        assert np.all((mu.points >= 0.0) & (mu.points <= 1.0))

    def test_determinism(self):
        spec = GeneratorSpec.empirical_of(GeneratorSpec.standard_gaussian(3), 50)
        a = generate(spec, seed=123)
        b = generate(spec, seed=123)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seeds_differ(self):
        spec = GeneratorSpec.empirical_of(GeneratorSpec.uniform_cube(1), 20)
        assert not np.array_equal(generate(spec, 1).points, generate(spec, 2).points)

    def test_cube_sample_mean(self):
        n = 4000
        spec = GeneratorSpec.empirical_of(GeneratorSpec.uniform_cube(2), n)
        mu = generate(spec, seed=5)
        mean = mu.points.mean(axis=0)
        assert np.all(np.abs(mean - 0.5) <= 4.0 / math.sqrt(n))

    def test_continuous_kind_not_sampleable(self):
        with pytest.raises(InvalidSpec):
            generate(GeneratorSpec.uniform_cube(2), seed=0)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec.two_point((0.0, 0.0), (1.0,))
        with pytest.raises(InvalidSpec):
            GeneratorSpec(kind="uniform_cube", dim=2, side=-1.0)
        with pytest.raises(InvalidSpec):
            GeneratorSpec.empirical_of(
                GeneratorSpec.empirical_of(GeneratorSpec.uniform_cube(1), 3), 3
            )

    def test_empirical_of_two_point(self):
        spec = GeneratorSpec.empirical_of(GeneratorSpec.two_point((0.0,), (1.0,)), 40)
        mu = generate(spec, seed=3)
        assert set(np.unique(mu.points)) <= {0.0, 1.0}


class TestFileFormats:
    def test_csv_plain(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("0.0,0.0\n1.0,2.0\n")
        mu = load_measure(path)
        assert mu.dim == 2 and mu.n == 2
        assert np.all(mu.weights == 0.5)

    def test_csv_header_with_weight(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y,weight\n0,0,0.25\n1,0,0.75\n")
        mu = load_measure(path)
        assert mu.dim == 2
        assert np.allclose(mu.weights, [0.25, 0.75])

    def test_csv_header_without_weight(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x,y\n0,0\n1,0\n")
        mu = load_measure(path)
        assert mu.dim == 2

    def test_csv_ragged(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1\n")
        with pytest.raises(DimensionMismatch):
            load_measure(path)

    def test_json_roundtrip(self, tmp_path, rng):
        mu = make_discrete(rng.standard_normal((5, 3)), rng.dirichlet(np.ones(5)))
        path = tmp_path / "m.json"
        save_measure(path, mu)
        back = load_measure(path)
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)

    def test_csv_roundtrip(self, tmp_path, rng):
        mu = make_discrete(rng.standard_normal((5, 3)), rng.dirichlet(np.ones(5)))
        path = tmp_path / "m.csv"
        save_measure(path, mu)
        back = load_measure(path)
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)

    def test_json_missing_weights_uniform(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 1, "points": [[0.0], [1.0]]}))
        mu = load_measure(path)
        assert np.all(mu.weights == 0.5)

    def test_json_dim_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 3, "points": [[0.0, 1.0]]}))
        with pytest.raises(DimensionMismatch):
            load_measure(path)


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _cube(dim=1):
    return GeneratorSpec.uniform_cube(dim)


INPUT_CHECKS = {
    "points_without_coordinates": (lambda t: make_discrete(np.zeros((3, 0))), DimensionMismatch),
    "weights_of_wrong_shape": (lambda t: make_discrete([[0.0], [1.0]], [[0.5, 0.5]]),
                               DimensionMismatch),
    "too_few_weights": (lambda t: make_discrete([[0.0], [1.0]], [1.0]), DimensionMismatch),
    "nan_weights": (lambda t: make_discrete([[0.0], [1.0]], [np.nan, 1.0]), WeightSumOutOfRange),
    "unknown_kind": (lambda t: GeneratorSpec(kind="sphere", dim=2), InvalidSpec),
    "dim_below_one": (lambda t: GeneratorSpec(kind="standard_gaussian", dim=0), InvalidSpec),
    "cube_side_not_positive": (lambda t: GeneratorSpec(kind="uniform_cube", dim=1, side=0.0),
                               InvalidSpec),
    "two_point_without_y": (lambda t: GeneratorSpec(kind="two_point", dim=1, x=(0.0,)),
                            InvalidSpec),
    "two_point_wrong_length": (lambda t: GeneratorSpec.two_point((0.0, 0.0), (1.0,)),
                               InvalidSpec),
    "empirical_without_base": (lambda t: GeneratorSpec(kind="empirical_of", dim=1, n=3),
                               InvalidSpec),
    "empirical_without_n": (lambda t: GeneratorSpec(kind="empirical_of", dim=1, base=_cube()),
                            InvalidSpec),
    "empirical_n_zero": (lambda t: GeneratorSpec.empirical_of(_cube(), 0), InvalidSpec),
    "empirical_nested": (lambda t: GeneratorSpec.empirical_of(
        GeneratorSpec.empirical_of(_cube(), 3), 3), InvalidSpec),
    "empirical_base_dim": (lambda t: GeneratorSpec(kind="empirical_of", dim=2, base=_cube(), n=3),
                           InvalidSpec),
    "empty_csv": (lambda t: load_measure(_file(t, "m.csv", "")), EmptySupport),
    "header_only_csv": (lambda t: load_measure(_file(t, "m.csv", "x,y,weight\n")), EmptySupport),
    "json_without_points": (lambda t: load_measure(_file(t, "m.json", json.dumps({"dim": 1}))),
                            InvalidSpec),
    "json_list": (lambda t: load_measure(_file(t, "m.json", "[[0.0]]")), InvalidSpec),
    "json_dim_list": (lambda t: load_measure(_file(t, "m.json", json.dumps(
        {"dim": [3], "points": [[1, 2, 3]]}))), InvalidSpec),
    "json_dim_null": (lambda t: load_measure(_file(t, "m.json", json.dumps(
        {"dim": None, "points": [[1, 2, 3]]}))), InvalidSpec),
    "json_points_object": (lambda t: load_measure(_file(t, "m.json", json.dumps(
        {"points": {"a": 1}}))), InvalidSpec),
    "json_weights_object": (lambda t: load_measure(_file(t, "m.json", json.dumps(
        {"points": [[1.0], [2.0]], "weights": {"a": 1}}))), InvalidSpec),
    # a non-number is a spec error, not a ragged list (DimensionMismatch) or a bare ValueError
    "json_points_strings": (lambda t: load_measure(_file(t, "m.json", json.dumps(
        {"points": [["a", "b"]]}))), InvalidSpec),
    "json_weights_strings": (lambda t: load_measure(_file(t, "m.json", json.dumps(
        {"points": [[1.0]], "weights": ["x"]}))), InvalidSpec),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_raise_their_error_types(case, tmp_path):
    build, error = INPUT_CHECKS[case]
    with pytest.raises(error):
        build(tmp_path)
