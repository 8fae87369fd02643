import itertools
import json
import math

import numpy as np
import pytest
from scipy import stats

from otslice import (
    DegenerateInstance,
    DimensionMismatch,
    DirectionResult,
    GeneratorSpec,
    InvalidOrder,
    generate,
    make_discrete,
)
from otslice import experiments as ex


class TestProjectedSquareCdf:
    def test_axis_aligned_is_uniform(self):
        xs = np.array([-0.5, 0.0, 0.25, 1.0, 2.0])
        out = ex.projected_square_cdf([1.0, 0.0], xs)
        assert np.allclose(out, np.clip(xs, 0.0, 1.0))

    def test_diagonal_midpoint(self):
        s = 1.0 / math.sqrt(2.0)
        assert ex.projected_square_cdf([s, s], s) == pytest.approx(0.5, abs=1e-14)

    def test_limits_and_monotonicity(self, rng):
        for _ in range(10):
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            xs = np.linspace(-3, 3, 501)
            out = ex.projected_square_cdf(v, xs)
            assert out[0] == 0.0 and out[-1] == 1.0
            assert np.all(np.diff(out) >= 0.0)

    def test_matches_empirical_cdf(self, rng):
        for _ in range(5):
            v = rng.standard_normal(2)
            v /= np.linalg.norm(v)
            u = rng.random((200_000, 2))
            samples = u @ v
            for x in rng.uniform(-1.2, 1.6, 5):
                emp = float(np.mean(samples <= x))
                assert ex.projected_square_cdf(v, x) == pytest.approx(emp, abs=0.01)

    def test_negative_components_reflect(self):
        # v = (-1, 0): law of -U1 supported on [-1, 0]
        assert ex.projected_square_cdf([-1.0, 0.0], -1.0) == 0.0
        assert ex.projected_square_cdf([-1.0, 0.0], -0.25) == pytest.approx(0.75)
        assert ex.projected_square_cdf([-1.0, 0.0], 0.0) == 1.0

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            ex.projected_square_cdf([1.0, 0.0, 0.0], 0.5)

    @pytest.mark.parametrize("v", [[1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [-0.8, 0.6]])
    def test_nan_stays_nan(self, v):
        # NaN matches no piece of the CDF, so it must not read uninitialised memory;
        # freed blocks of 7.0 make such a read show (numpy reuses small blocks)
        assert math.isnan(ex.projected_square_cdf(v, math.nan))
        x = np.array([math.nan, 0.5, math.nan])
        junk = [np.full(3, 7.0) for _ in range(8)]
        del junk
        out = ex.projected_square_cdf(v, x)
        assert np.isnan(out[[0, 2]]).all() and 0.0 <= out[1] <= 1.0
        assert np.isnan(ex.uniformizing_map(v)(np.full(4, math.nan))).all()


class TestUniformizingMap:
    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch, match="plane"):
            ex.uniformizing_map([1.0, 0.0, 0.0])

    def test_axis_constant(self):
        g = ex.uniformizing_map([0.0, 1.0])
        assert g.lipschitz_constant == pytest.approx(1.0)

    def test_diagonal_constant(self):
        s = 1.0 / math.sqrt(2.0)
        g = ex.uniformizing_map([s, s])
        assert g.lipschitz_constant == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_constant_bounded_by_sqrt2(self, rng):
        for _ in range(25):
            v = rng.standard_normal(2)
            g = ex.uniformizing_map(v)
            assert g.lipschitz_constant <= math.sqrt(2.0) + 1e-12

    def test_lipschitz_empirically(self, rng):
        v = rng.standard_normal(2)
        g = ex.uniformizing_map(v)
        xs = np.sort(rng.uniform(-2, 2, 400))
        out = g(xs)
        ratios = np.abs(np.diff(out)) / np.diff(xs)
        assert np.max(ratios) <= g.lipschitz_constant + 1e-9

    def test_probability_integral_transform(self):
        for seed in range(3):
            gen = np.random.default_rng(seed)
            w = gen.standard_normal(2)
            w /= np.linalg.norm(w)
            g = ex.uniformizing_map(w)
            u = gen.random((100_000, 2))
            pushed = g(u @ w)
            ks = stats.kstest(pushed, "uniform").statistic
            assert ks <= 0.01


class TestRateExperiment:
    def test_smoke_and_determinism(self):
        records, fits = ex.rate_experiment(
            d=2, n_list=[8, 16, 32, 64], reps=3, seed=11
        )
        records2, fits2 = ex.rate_experiment(
            d=2, n_list=[8, 16, 32, 64], reps=3, seed=11
        )
        assert records == records2  # wall_time excluded from equality
        assert {f.estimator for f in fits} == {"W_exact", "SW", "maxSW"}
        assert len(records) == 4 * 3 * 3

    def test_threads_do_not_change_results(self):
        a, _ = ex.rate_experiment(d=2, n_list=[8, 16, 32, 64], reps=2, seed=3, threads=1)
        b, _ = ex.rate_experiment(d=2, n_list=[8, 16, 32, 64], reps=2, seed=3, threads=4)
        assert a == b

    def test_w_means_decrease(self):
        records, _ = ex.rate_experiment(d=2, n_list=[8, 32, 128, 512], reps=4, seed=5)
        ns = [8, 32, 128, 512]
        means = [
            np.mean([r.value for r in records if r.n == n and r.estimator == "W_exact"])
            for n in ns
        ]
        assert all(means[k + 1] < means[k] for k in range(3))

    def test_needs_a_replication(self):
        # reps=0 gave no records, and the CLI then crashed on an empty fit list
        for reps in (0, -1):
            with pytest.raises(ValueError, match="reps"):
                ex.rate_experiment(d=3, n_list=[8, 16, 24, 32], reps=reps, seed=1)

    def test_short_n_list_rejected_before_solving(self, monkeypatch):
        # fit_rates used to reject it only after every cell had been solved
        def no_solve(*args, **kwargs):
            pytest.fail("solved a cell before checking n_list")

        monkeypatch.setattr(ex, "wasserstein_exact", no_solve)
        for n_list in ([8, 16, 32], [64]):
            with pytest.raises(ValueError, match="at least 4"):
                ex.rate_experiment(d=3, n_list=n_list, reps=2, seed=1)

    def test_needs_two_dimensions(self):
        with pytest.raises(DimensionMismatch, match="d >= 2"):
            ex.rate_experiment(d=1, n_list=[4, 8, 16, 32], reps=1, seed=1)

    @pytest.mark.parametrize("n_list", [[8, 4, 16, 32], [4, 4, 8, 16, 32]])
    def test_n_list_must_ascend_strictly(self, n_list):
        with pytest.raises(ValueError, match="strictly ascending"):
            ex.rate_experiment(d=2, n_list=n_list, reps=1, seed=1)

    def test_fit_needs_four_sizes(self):
        records = [ex.ExperimentRecord(2, 1.0, n, 0, "SW", 1.0 / n, 0.0, 0) for n in (8, 16, 32)]
        with pytest.raises(ValueError, match="at least 4 distinct n"):
            ex.fit_rates(records)

    def test_fit_omits_a_missing_estimator(self):
        records = [ex.ExperimentRecord(2, 1.0, n, 0, est, n ** -0.5, 0.0, 0)
                   for n in (8, 16, 32, 64) for est in ("W_exact", "maxSW")]
        fits = ex.fit_rates(records)
        assert [f.estimator for f in fits] == ["W_exact", "maxSW"]
        assert all(f.slope == pytest.approx(-0.5) and f.n_range == (8, 64) for f in fits)

    def test_persistence_roundtrip(self, tmp_path):
        records, _ = ex.rate_experiment(d=2, n_list=[8, 16, 24, 32], reps=2, seed=7)
        path = tmp_path / "records.jsonl"
        ex.write_records_jsonl(records, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(records)
        assert lines[0]["estimator"] in {"W_exact", "SW", "maxSW"}
        csv_path = tmp_path / "records.csv"
        ex.write_records_csv(records, csv_path)
        assert csv_path.read_text().count("\n") == len(records) + 1
        assert csv_path.read_text().splitlines()[0] == ",".join(records[0].to_dict())


class TestInequalityAudit:
    def test_small_grid_no_true_violations(self):
        report = ex.inequality_audit(
            d_list=[2], p_list=[1.0], instances_per_cell=8, seed=21, certified_tol=1e-4
        )
        assert report.violation_count == 0
        assert report.margin_min > 0

    def test_margins_reported(self):
        report = ex.inequality_audit(
            d_list=[2, 3], p_list=[1.0], instances_per_cell=3, seed=2, certified_tol=1e-3
        )
        assert len(report.cells) == 6
        assert math.isfinite(report.margin_mean)

    def test_margins_cover_the_sandwich_only(self):
        # the sqrt(d) check (criterion 4) fires on correct code; its negative
        # margin used to drag margin_min below 0
        report = ex.inequality_audit(
            d_list=[2, 3], p_list=[1.0, 2.0], instances_per_cell=10, seed=303
        )
        assert report.violations_by_kind["w_le_sqrtd_maxsw"] > 0
        assert report.violations_by_kind["sw_le_maxsw"] == 0
        assert report.violations_by_kind["maxsw_le_w"] == 0
        assert report.margin_min > 0
        sandwich = [m for c in report.cells
                    for m in (c.maxsw_upper + 1e-6 - c.sw_normalized, c.w + 1e-6 - c.maxsw_lower)]
        assert report.margin_min == min(sandwich)

    def test_one_sliced_solve_per_instance(self, monkeypatch):
        calls = []
        real = ex.sliced_wasserstein

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(ex, "sliced_wasserstein", counting)
        report = ex.inequality_audit(
            d_list=[2, 3], p_list=[1.0, 2.0], instances_per_cell=2, seed=4, certified_tol=1e-3
        )
        assert len(calls) == len(report.cells) == 8
        assert {c.resolution for c in calls} == {1024, 4096}

    def test_threads_do_not_change_results(self):
        a, b = (ex.inequality_audit(d_list=[2, 3], p_list=[1.0, 2.0], instances_per_cell=2, seed=5,
                                    certified_tol=1e-3, threads=t).to_dict() for t in (1, 2))
        assert a == b

    def test_needs_an_instance(self):
        # instances_per_cell=0 failed inside numpy on an empty margin list
        for d_list, p_list, k in (([2], [1.0], 0), ([], [1.0], 1), ([2], [], 1)):
            with pytest.raises(DegenerateInstance):
                ex.inequality_audit(d_list=d_list, p_list=p_list, instances_per_cell=k, seed=0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("tol", [0.0, math.nan])
    def test_non_positive_tol_rejected_before_solving(self, monkeypatch, tol, threads):
        # the pool would run every queued instance's SW and W before the search saw the tol
        def no_solve(*args, **kwargs):
            pytest.fail("solved before checking certified_tol")

        monkeypatch.setattr(ex, "wasserstein_exact", no_solve)
        monkeypatch.setattr(ex, "sliced_wasserstein", no_solve)
        with pytest.raises(InvalidOrder, match="tol must be positive"):
            ex.inequality_audit(d_list=[2, 3], p_list=[1.0, 2.0], instances_per_cell=2,
                                seed=0, certified_tol=tol, threads=threads)

    def test_sandwich_violations_counted_by_kind(self, monkeypatch):
        # brackets from a faulty search: the first instance's upper sits below
        # SW, every other instance's lower sits above W
        calls = itertools.count()

        def faulty(mu, nu, p, tol, plan=None):
            if next(calls) == 0:
                return DirectionResult(v_star=np.eye(mu.dim)[0], lower=0.0, upper=-1.0,
                                       evaluations=1)
            return DirectionResult(v_star=np.eye(mu.dim)[0], lower=plan.primal_value + 1.0,
                                   upper=math.inf, evaluations=1)

        monkeypatch.setattr(ex, "max_sliced_certified", faulty)
        report = ex.inequality_audit(d_list=[2], p_list=[1.0], instances_per_cell=3, seed=1)
        assert [c.violations for c in report.cells] == [["sw_le_maxsw"], ["maxsw_le_w"],
                                                        ["maxsw_le_w"]]
        assert report.violations_by_kind == {"sw_le_maxsw": 1, "maxsw_le_w": 2,
                                             "w_le_sqrtd_maxsw": 0}
        assert report.violation_count == 3
        assert list(report.to_dict()["violations_by_kind"]) == ["sw_le_maxsw", "maxsw_le_w",
                                                                "w_le_sqrtd_maxsw"]

    def test_d4_audit_has_no_sandwich_violations(self):
        # SW at d = 4 takes the Monte Carlo default; maxSW is certified there too
        report = ex.inequality_audit(d_list=[4], p_list=[1.0, 2.0], instances_per_cell=3, seed=0)
        assert len(report.cells) == 6
        assert report.violations_by_kind["sw_le_maxsw"] == 0
        assert report.violations_by_kind["maxsw_le_w"] == 0


class TestCdScan:
    def test_d1_exactly_one(self):
        report = ex.cd_lower_bound_scan(d=1, instances=20, seed=4)
        assert report.lower_bound == pytest.approx(1.0, abs=1e-9)

    def test_d2_at_least_one(self):
        report = ex.cd_lower_bound_scan(d=2, instances=25, seed=4)
        assert report.lower_bound >= 1.0 - 1e-9
        assert math.isfinite(report.lower_bound)

    def test_d4_certified_at_least_one(self):
        report = ex.cd_lower_bound_scan(d=4, instances=4, seed=4)
        assert report.lower_bound >= 1.0 - 1e-9
        assert math.isfinite(report.lower_bound)
        assert report.skipped == 0

    def test_needs_instances(self):
        with pytest.raises(DegenerateInstance):
            ex.cd_lower_bound_scan(d=2, instances=0, seed=0)

    def test_threads_do_not_change_results(self):
        a, b = (ex.cd_lower_bound_scan(d=3, instances=4, seed=2, p=2.0, threads=t) for t in (1, 2))
        assert a == b

    def test_degenerate_instances_skipped(self, monkeypatch):
        # instances 0 and 2 pair a measure with itself: maxSW is 0 and W / maxSW undefined
        calls, pair = itertools.count(), ex.random_pair

        def some_equal(d, rng):
            mu, nu = pair(d, rng)
            return (mu, mu) if next(calls) % 2 == 0 else (mu, nu)

        monkeypatch.setattr(ex, "random_pair", some_equal)
        report = ex.cd_lower_bound_scan(d=2, instances=4, seed=6)
        assert report.skipped == 2 and report.best_instance in (1, 3)
        assert report.lower_bound >= 1.0 - 1e-9

    def test_ties_pick_the_first_instance(self, monkeypatch):
        # one pair for every instance, so every ratio ties: the lowest index wins
        pair = ex.random_pair(2, np.random.default_rng(3))
        monkeypatch.setattr(ex, "random_pair", lambda d, rng: pair)
        report = ex.cd_lower_bound_scan(d=2, instances=3, seed=0)
        assert report.best_instance == 0 and report.skipped == 0

    def test_only_degenerate_instances_raise(self, monkeypatch):
        monkeypatch.setattr(ex, "random_pair", lambda d, rng: (make_discrete(np.ones((2, d))),) * 2)
        with pytest.raises(DegenerateInstance, match="all scanned instances"):
            ex.cd_lower_bound_scan(d=2, instances=3, seed=6)

    def test_budget_stopped_brackets_still_bound(self, monkeypatch):
        # a spent budget widens each bracket, so every ratio W / upper stays at
        # most W over the converged bracket's lower bound: the bound weakens only
        stopped, certified = [], ex.max_sliced_certified

        def small_budget(mu, nu, p, tol, plan=None):
            res = certified(mu, nu, p, tol, eval_budget=20, plan=plan)
            stopped.append((mu, nu, res))
            return res

        monkeypatch.setattr(ex, "max_sliced_certified", small_budget)
        report = ex.cd_lower_bound_scan(d=3, instances=3, seed=5)
        ratios = []
        for mu, nu, res in stopped:
            assert res.upper - res.lower > 1e-3
            w = ex.wasserstein_exact(mu, nu, 1.0).primal_value
            ratios.append(w / res.upper)
            assert ratios[-1] <= w / certified(mu, nu, 1.0, 1e-3).lower
        assert len(ratios) == 3 and report.lower_bound == max(ratios)


class TestConvergenceSuite:
    def test_translation_schedule_point_mass(self):
        target = make_discrete([[0.0, 0.0]], [1.0])
        shifts = [1.0 / n for n in (1, 2, 4, 8, 16)]
        schedule = ex.translation_schedule(target, [1.0, 0.0], shifts)
        report = ex.convergence_suite(target, schedule, p=1.0)
        assert np.allclose(report.w, shifts, atol=1e-12)
        assert np.allclose(report.maxsw_lower, shifts, atol=1e-6)
        assert report.ordering_violations == 0
        assert report.spearman_w_sw >= 0.9
        assert report.spearman_w_maxsw >= 0.9

    def test_translation_schedule_point_mass_d4(self):
        target = make_discrete([[0.0, 0.0, 0.0, 0.0]], [1.0])
        shifts = [1.0 / n for n in (1, 2, 4, 8)]
        schedule = ex.translation_schedule(target, [1.0, -2.0, 0.5, 1.0], shifts)
        report = ex.convergence_suite(target, schedule, p=1.0)
        assert np.allclose(report.w, shifts, atol=1e-12)
        assert np.all(report.maxsw_lower <= report.maxsw_upper)
        assert np.allclose(report.maxsw_upper, shifts, atol=1e-3)
        assert report.ordering_violations == 0

    @pytest.mark.parametrize("direction", [[1.0], [1.0, 0.0, 0.0]])
    def test_translation_schedule_dimension_guard(self, direction):
        mu = make_discrete([[0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(DimensionMismatch, match="direction dimension"):
            ex.translation_schedule(mu, direction, [0.5, 1.0])

    def test_sw_above_upper_counted_within_tol(self, monkeypatch):
        # SW is a mean of exact projected values, so it can never exceed a
        # certified upper: 1e-4 above one is a violation, though below the 1e-3 width
        def low_upper(mu, nu, p, tol, plan=None):
            sw = ex.sliced_wasserstein(mu, nu, p, normalized=True).value
            return DirectionResult(v_star=np.array([1.0, 0.0]), lower=0.0, upper=sw - 1e-4,
                                   evaluations=1)

        monkeypatch.setattr(ex, "max_sliced_certified", low_upper)
        target = make_discrete([[0.0, 0.0]], [1.0])
        schedule = ex.translation_schedule(target, [1.0, 0.0], [1.0, 0.5, 0.25])
        report = ex.convergence_suite(target, schedule, p=1.0)
        assert report.ordering_violations == 3

    def test_threads_do_not_change_results(self):
        base = GeneratorSpec.uniform_cube(2)
        target = generate(GeneratorSpec.empirical_of(base, 40), seed=3)
        schedule = ex.empirical_schedule(base, [5, 10, 20], seed=8)
        a, b = (ex.convergence_suite(target, schedule, p=2.0, threads=t) for t in (1, 2))
        for field in ("w", "sw", "maxsw_lower", "maxsw_upper"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert (a.spearman_w_sw, a.spearman_w_maxsw, a.ordering_violations) == (
            b.spearman_w_sw, b.spearman_w_maxsw, b.ordering_violations)

    def test_constant_schedule_all_zero(self, rng):
        target = make_discrete(rng.standard_normal((6, 2)))
        report = ex.convergence_suite(target, [target, target, target], p=1.0)
        assert np.all(report.w == 0.0)
        assert np.all(report.sw == 0.0)
        assert np.all(report.maxsw_lower == 0.0)

    def test_empirical_schedule_decreases(self):
        base = GeneratorSpec.uniform_cube(2)
        target = generate(GeneratorSpec.empirical_of(base, 600), seed=100)
        schedule = ex.empirical_schedule(base, [10, 40, 160, 600], seed=7)
        report = ex.convergence_suite(target, schedule, p=1.0)
        assert report.w[-1] < report.w[0]
        assert report.ordering_violations == 0
        assert report.cofinal_below("W_exact", report.w[0])


class TestRandomPairHelper:
    def test_shapes_and_validity(self, rng):
        mu, nu = ex.random_pair(3, rng)
        assert mu.dim == nu.dim == 3
        assert abs(mu.weights.sum() - 1.0) < 1e-9
