import functools
import json
import math

import numpy as np
import pytest

from otslice import (Scheme, cli, dual_potentials_w1, load_measure, make_discrete,
                     max_sliced_certified, ot_exact, save_measure, wasserstein_exact)
from otslice.cli import main
from conftest import random_pair


def write_point(path, coords):
    path.write_text(",".join(str(c) for c in coords) + "\n")


@pytest.fixture
def pair_files(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_point(a, (0.0, 0.0))
    write_point(b, (0.6, 0.8))
    return a, b


class TestDist:
    def test_point_mass_metrics(self, pair_files, tmp_path, capsys):
        a, b = pair_files
        out = tmp_path / "report.json"
        code = main(["dist", str(a), str(b), "--metric", "all", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["metrics"]["w"]["value"] == pytest.approx(1.0, abs=1e-12)
        assert report["metrics"]["maxsw"]["lower"] == pytest.approx(1.0, abs=1e-8)
        assert report["metrics"]["sw"]["value_normalized"] == pytest.approx(
            2.0 / math.pi, abs=1e-4
        )

    def test_identical_files_zero(self, tmp_path):
        a = tmp_path / "a.csv"
        write_point(a, (1.0, 2.0))
        out = tmp_path / "r.json"
        code = main(["dist", str(a), str(a), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["metrics"]["w"]["value"] == 0.0
        assert report["metrics"]["sw"]["value_normalized"] == 0.0
        assert report["metrics"]["maxsw"]["lower"] == 0.0

    def test_dimension_mismatch_exit_3(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_point(a, (0.0, 0.0))
        write_point(b, (1.0, 2.0, 3.0))
        assert main(["dist", str(a), str(b)]) == 3
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("0,0\nnot,numbers\n")
        b = tmp_path / "b.csv"
        write_point(b, (1.0, 1.0))
        assert main(["dist", str(a), str(b)]) == 2

    def test_unknown_scheme_kind_exit_2(self, pair_files, monkeypatch, capsys):
        a, b = pair_files
        monkeypatch.setattr(cli, "default_scheme", lambda d: Scheme(kind="grid"))
        assert main(["dist", str(a), str(b), "--metric", "sw"]) == 2
        assert "InvalidSpec" in capsys.readouterr().err

    def test_monte_carlo_below_two_directions_exit_2(self, pair_files, capsys):
        # mc:0 printed SW = 0.0 with stderr 0.0 and exited 0
        a, b = pair_files
        for scheme in ("mc:0", "mc:1", "mc:-3"):
            assert main(["dist", str(a), str(b), "--metric", "sw", "--scheme", scheme]) == 2
            assert "InvalidSpec" in capsys.readouterr().err

    def test_bad_scheme_rejected_before_solving(self, tmp_path, monkeypatch, capsys):
        # quad:64 on d = 4 files failed only inside sliced_wasserstein, after the W solve
        def no_solve(*args, **kwargs):
            pytest.fail("solved before checking --scheme")

        monkeypatch.setattr(cli, "wasserstein_exact", no_solve)
        monkeypatch.setattr(cli, "_exact", no_solve)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_point(a, (0.0, 0.0, 0.0, 0.0))
        write_point(b, (1.0, 0.0, 0.0, 0.0))
        for scheme, error in (("quad:64", "UnsupportedDimension"), ("quad:0", "InvalidDimension"),
                              ("mc:1", "InvalidSpec")):
            for metric in ("all", "sw"):
                assert main(["dist", str(a), str(b), "--metric", metric, "--scheme", scheme]) == 2
                assert error in capsys.readouterr().err
        # d = 1 integrates exactly and ignores the grid
        write_point(a, (0.0,))
        write_point(b, (2.0,))
        monkeypatch.undo()
        assert main(["dist", str(a), str(b), "--scheme", "quad:0"]) == 0
        assert main(["dist", str(a), str(b), "--scheme", "mc:1"]) == 2

    def test_format_only_on_rates(self, pair_files, capsys):
        a, b = pair_files
        for argv in (["dist", str(a), str(b)], ["audit"], ["cdscan"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--format", "csv"])
            assert exc.value.code == 2
            assert "--format" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        b = tmp_path / "b.csv"
        write_point(b, (1.0, 1.0))
        assert main(["dist", str(tmp_path / "nope.csv"), str(b)]) == 2

    def test_certified_maxsw(self, pair_files, tmp_path):
        a, b = pair_files
        out = tmp_path / "r.json"
        code = main(
            ["dist", str(a), str(b), "--metric", "maxsw", "--certified", "--tol", "1e-6",
             "--out", str(out)]
        )
        assert code == 0
        entry = json.loads(out.read_text())["metrics"]["maxsw"]
        assert entry["upper"] - entry["lower"] <= 1e-6
        # with W in --metric the search reuses its plan; the bracket is the same
        code = main(
            ["dist", str(a), str(b), "--metric", "all", "--certified", "--tol", "1e-6",
             "--out", str(out)]
        )
        assert code == 0
        reused = json.loads(out.read_text())["metrics"]["maxsw"]
        del entry["time_s"], reused["time_s"]
        assert reused == entry

    def test_budget_stopped_certified_maxsw_exit_0(self, tmp_path, monkeypatch, rng):
        # a spent evaluation budget reports the wider bracket the search holds
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, m in zip((a, b), random_pair(rng, 3, max_atoms=10)):
            save_measure(path, m)
        monkeypatch.setattr(cli, "max_sliced_certified",
                            functools.partial(max_sliced_certified, eval_budget=20))
        out = tmp_path / "r.json"
        code = main(["dist", str(a), str(b), "--metric", "all", "--certified", "--tol", "1e-6",
                     "--out", str(out)])
        assert code == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["maxsw"]["upper"] - metrics["maxsw"]["lower"] > 1e-6
        assert metrics["maxsw"]["lower"] <= metrics["w"]["value"]

    def test_budget_stopped_certified_maxsw_says_so_on_stderr(self, tmp_path, monkeypatch,
                                                               rng, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, m in zip((a, b), random_pair(rng, 3, max_atoms=10)):
            save_measure(path, m)
        argv = ["dist", str(a), str(b), "--metric", "maxsw", "--certified", "--tol", "1e-6"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""  # a converged search writes nothing there
        monkeypatch.setattr(cli, "max_sliced_certified",
                            functools.partial(max_sliced_certified, eval_budget=20))
        assert main(argv) == 0
        out, err = capsys.readouterr()
        maxsw = json.loads(out)["metrics"]["maxsw"]
        assert err.count("\n") == 1
        assert f"bracket width {maxsw['upper'] - maxsw['lower']:.6g} > --tol 1e-06" in err
        assert f"after {maxsw['evaluations']} evaluations" in err

    @pytest.mark.parametrize("weighted", [False, True])
    def test_overflowing_costs_exit_4(self, tmp_path, capsys, weighted):
        # the weighted pair used to end in a KeyError traceback inside the simplex,
        # the uniform pair in "input error: cost matrix is infeasible" (exit 2)
        gen = np.random.default_rng(4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(a, make_discrete(gen.standard_normal((4, 2)) * 1e160,
                                      gen.dirichlet(np.ones(4)) if weighted else None))
        save_measure(b, make_discrete(gen.standard_normal((4, 2)) * 1e160))
        assert main(["dist", str(a), str(b), "--metric", "w", "--p", "2"]) == 4
        err = capsys.readouterr().err
        assert "ProblemTooLarge" in err and "overflow float64" in err

    @pytest.mark.parametrize("metric", ["sw", "maxsw"])
    def test_overflowing_projected_costs_exit_4(self, tmp_path, capsys, metric):
        # sw used to report value_normalized 0.0 and maxsw a NaN lower bound, exit 0
        gen = np.random.default_rng(0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure(a, make_discrete(gen.standard_normal((4, 2)) * 1e160, gen.dirichlet(np.ones(4))))
        save_measure(b, make_discrete(gen.standard_normal((5, 2)) * 1e160, gen.dirichlet(np.ones(5))))
        assert main(["dist", str(a), str(b), "--metric", metric, "--p", "2"]) == 4
        err = capsys.readouterr().err
        assert "ProblemTooLarge" in err and "overflow float64" in err

    def test_json_field_of_wrong_type_exit_2(self, tmp_path, capsys):
        # used to end in a TypeError traceback and exit 1, the suite-failure code
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"dim": [3], "points": [[1, 2, 3]]}))
        assert main(["dist", str(f), str(f), "--metric", "w"]) == 2
        assert "InvalidSpec" in capsys.readouterr().err

    def test_non_numeric_points_exit_2(self, tmp_path, capsys):
        # a non-number is a spec error (exit 2), not a ragged list (DimensionMismatch, exit 3)
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"points": [["a", "b"]]}))
        assert main(["dist", str(f), str(f), "--metric", "w"]) == 2
        assert "InvalidSpec" in capsys.readouterr().err

    def test_dual_report(self, pair_files, tmp_path):
        a, b = pair_files
        out = tmp_path / "r.json"
        code = main(["dist", str(a), str(b), "--metric", "w", "--dual", "--out", str(out)])
        assert code == 0
        entry = json.loads(out.read_text())["metrics"]["w"]
        assert entry["duality_gap"] <= 1e-7

    def test_dual_report_one_simplex_solve(self, tmp_path, monkeypatch):
        # a weighted pair: the plan and the duals come from one simplex solve,
        # and the report equals the two separate library calls
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("x,y,weight\n0,0,0.2\n1,0,0.3\n0,2,0.5\n")
        b.write_text("x,y,weight\n0.5,0.5,0.6\n2,1,0.4\n")
        mu, nu = load_measure(a), load_measure(b)
        plan, cert = wasserstein_exact(mu, nu, 1.0), dual_potentials_w1(mu, nu)
        calls = []
        solve = ot_exact._transportation_simplex
        monkeypatch.setattr(ot_exact, "_transportation_simplex",
                            lambda *args: calls.append(1) or solve(*args))
        out = tmp_path / "r.json"
        code = main(["dist", str(a), str(b), "--metric", "w", "--p", "1", "--dual",
                     "--out", str(out)])
        assert code == 0
        assert len(calls) == 1
        entry = json.loads(out.read_text())["metrics"]["w"]
        assert entry["value"] == plan.primal_value
        assert entry["dual_value"] == cert.dual_value
        assert entry["duality_gap"] == abs(plan.primal_value - cert.dual_value)

    def test_non_finite_order_and_tol_exit_2(self, pair_files, capsys):
        # inf and NaN passed the p < 1 check: --metric sw exited 0, --metric w
        # exited 4 with "basis does not span"
        a, b = pair_files
        for metric in ("w", "sw", "maxsw", "all"):
            for p in ("inf", "nan"):
                assert main(["dist", str(a), str(b), "--metric", metric, "--p", p]) == 2
                assert "InvalidOrder" in capsys.readouterr().err
        assert main(["dist", str(a), str(b), "--metric", "maxsw", "--certified",
                     "--tol", "nan"]) == 2
        assert "InvalidOrder" in capsys.readouterr().err

    def test_zero_starts_rejected_before_solving(self, pair_files, monkeypatch, capsys):
        # max_sliced raised InvalidOrder only after W and SW had been solved
        def no_solve(*args, **kwargs):
            pytest.fail("solved before checking --starts")

        monkeypatch.setattr(cli, "wasserstein_exact", no_solve)
        monkeypatch.setattr(cli, "sliced_wasserstein", no_solve)
        a, b = pair_files
        for metric in ("all", "maxsw"):
            assert main(["dist", str(a), str(b), "--metric", metric, "--starts", "0"]) == 2
            assert "InvalidOrder: starts must be >= 1" in capsys.readouterr().err

    def test_unread_starts_and_scheme_rejected_before_solving(self, pair_files, monkeypatch,
                                                              capsys):
        # metrics that read neither flag exited 0 with either value bad
        def no_solve(*args, **kwargs):
            pytest.fail("solved before checking --starts and --scheme")

        for name in ("wasserstein_exact", "_exact", "max_sliced_certified"):
            monkeypatch.setattr(cli, name, no_solve)
        a, b = pair_files
        for flags, error in ((["--metric", "w", "--starts", "0"], "InvalidOrder"),
                             (["--metric", "w", "--scheme", "quad:0"], "InvalidDimension"),
                             (["--metric", "maxsw", "--certified", "--starts", "0"],
                              "InvalidOrder")):
            assert main(["dist", str(a), str(b), *flags]) == 2
            assert error in capsys.readouterr().err

    def test_heuristic_upper_is_null(self, pair_files, tmp_path):
        a, b = pair_files
        out = tmp_path / "r.json"
        assert main(["dist", str(a), str(b), "--metric", "maxsw", "--out", str(out)]) == 0
        entry = json.loads(out.read_text())["metrics"]["maxsw"]
        assert entry["upper"] is None
        assert entry["lower"] == pytest.approx(1.0, rel=1e-12)

    def test_non_positive_tol_rejected_before_loading(self, pair_files, monkeypatch, capsys):
        # --certified --tol 0 used to load both files and solve W and SW first
        def no_call(*args, **kwargs):
            pytest.fail("loaded or solved before checking --tol")

        for name in ("load_measure", "wasserstein_exact", "sliced_wasserstein"):
            monkeypatch.setattr(cli, name, no_call)
        a, b = pair_files
        for tol in ("0", "-1e-3", "nan"):
            for metric in ("all", "maxsw"):
                assert main(["dist", str(a), str(b), "--metric", metric, "--certified",
                             f"--tol={tol}"]) == 2
                assert "InvalidOrder: tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--p", "2", "--dual"],
        ["--metric", "sw", "--dual"],
        ["--metric", "maxsw", "--dual"],
        ["--metric", "sw", "--plan-out", "plan.csv"],
        ["--metric", "maxsw", "--plan-out", "plan.csv"],
    ])
    def test_ignored_flags_rejected_before_loading(self, pair_files, monkeypatch, capsys,
                                                    tmp_path, flags):
        # no solve would read these flags, so they exit 2 before a file is loaded
        monkeypatch.setattr(cli, "load_measure", lambda *a: pytest.fail("loaded a file"))
        monkeypatch.chdir(tmp_path)
        a, b = pair_files
        assert main(["dist", str(a), str(b), *flags]) == 2
        assert "needs" in capsys.readouterr().err
        assert not (tmp_path / "plan.csv").exists()

    def test_plan_dump(self, pair_files, tmp_path):
        a, b = pair_files
        plan_path = tmp_path / "plan.csv"
        code = main(
            ["dist", str(a), str(b), "--metric", "w", "--plan-out", str(plan_path),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        lines = plan_path.read_text().splitlines()
        header = json.loads(lines[0][2:])
        assert header["schema"] == 1
        assert lines[1] == "i,j,mass"
        assert lines[2].startswith("0,0,")

    def test_seeded_mc_reproducible(self, tmp_path, rng):
        pts = rng.standard_normal((6, 3))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("\n".join(",".join(map(str, row)) for row in pts))
        b.write_text("\n".join(",".join(map(str, row)) for row in pts * 0.5 + 0.1))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["dist", str(a), str(b), "--metric", "sw", "--scheme", "mc:2000",
                "--seed", "42"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0

        def strip_timings(payload):
            for entry in payload["metrics"].values():
                entry.pop("time_s", None)
            return payload

        r1 = strip_timings(json.loads(out1.read_text()))
        r2 = strip_timings(json.loads(out2.read_text()))
        assert r1 == r2

    def test_config_file_with_flag_precedence(self, pair_files, tmp_path):
        a, b = pair_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2.0, "metric": "w"}))
        out = tmp_path / "r.json"
        code = main(["dist", str(a), str(b), "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["p"] == 2.0
        code = main(
            ["dist", str(a), str(b), "--config", str(cfg), "--p", "1.0", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["p"] == 1.0

    def test_config_file_turns_on_certified_and_dual(self, pair_files, tmp_path):
        a, b = pair_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"certified": True, "dual": True}))
        out = tmp_path / "r.json"
        code = main(["dist", str(a), str(b), "--metric", "all", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["maxsw"]["upper"] is not None  # the ascent's would be null
        assert metrics["w"]["dual_value"] == pytest.approx(1.0, abs=1e-12)

    def test_config_file_bad_scheme_exit_2(self, pair_files, tmp_path, capsys):
        a, b = pair_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scheme": "grid:5"}))
        code = main(["dist", str(a), str(b), "--metric", "sw", "--config", str(cfg)])
        assert code == 2
        assert "input error:" in capsys.readouterr().err

    def test_config_strings_go_through_flag_types(self, pair_files, tmp_path):
        # a string "2" used to reach the solvers and end in a TypeError traceback
        a, b = pair_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "2", "starts": "3", "scheme": "quad:64"}))
        out = tmp_path / "r.json"
        assert main(["dist", str(a), str(b), "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["p"] == 2.0
        assert report["metrics"]["sw"]["scheme"] == "quadrature(64)"

    def test_problem_too_large_exit_4(self, pair_files, monkeypatch, capsys):
        a, b = pair_files
        monkeypatch.setattr(ot_exact, "MAX_DENSE_CELLS", 0)
        assert main(["dist", str(a), str(b), "--metric", "w"]) == 4
        assert "ProblemTooLarge" in capsys.readouterr().err

    def test_config_file_holding_a_list_exit_2(self, pair_files, tmp_path, capsys):
        a, b = pair_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"p": 2.0}]))
        assert main(["dist", str(a), str(b), "--config", str(cfg)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [
        {"p": [1]}, {"p": True}, {"p": None}, {"starts": 2.5}, {"tol": "small"},
        {"certified": "yes"}, {"metric": "bogus"}, {"metric": 3}, {"scheme": 5},
    ])
    def test_config_value_of_wrong_kind_exit_2(self, pair_files, tmp_path, capsys, cfg):
        a, b = pair_files
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["dist", str(a), str(b), "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "input error:" in err and repr(next(iter(cfg))) in err


class TestSuites:
    def test_cdscan_d1_exact(self, tmp_path, capsys):
        code = main(["cdscan", "--d", "1", "--instances", "10", "--seed", "3",
                     "--out", str(tmp_path / "cd")])
        assert code == 0
        summary = json.loads((tmp_path / "cd.summary.json").read_text())
        assert summary["lower_bound"] == pytest.approx(1.0, abs=1e-9)
        assert "pass" in capsys.readouterr().out

    def test_audit_small(self, tmp_path, capsys):
        code = main(
            ["audit", "--d-list", "2", "--p-list", "1", "--instances", "4",
             "--tol", "1e-3", "--seed", "8", "--out", str(tmp_path / "audit")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out
        summary = json.loads((tmp_path / "audit.summary.json").read_text())
        assert summary["violations"] == 0

    def test_audit_without_instances_exit_2(self, capsys):
        assert main(["audit", "--instances", "0"]) == 2
        assert "DegenerateInstance" in capsys.readouterr().err

    def test_audit_non_positive_tol_exit_2(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            pytest.fail("solved before checking --tol")

        monkeypatch.setattr(cli.experiments, "wasserstein_exact", no_solve)
        monkeypatch.setattr(cli.experiments, "sliced_wasserstein", no_solve)
        for tol in ("0", "nan"):
            for threads in ("1", "2"):
                assert main(["audit", f"--tol={tol}", "--threads", threads]) == 2
                assert "InvalidOrder: tol must be positive" in capsys.readouterr().err

    def test_audit_d4_p1_exit_0(self, capsys):
        # p = 1 only: the p = 2 sqrt(d) check (criterion 4) may fire on correct code
        assert main(["audit", "--d-list", "4", "--p-list", "1", "--instances", "2",
                     "--threads", "1"]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_rates_without_reps_exit_2(self, capsys):
        # reps=0 crashed with an uncaught StopIteration and exit 1
        assert main(["rates", "--reps", "0", "--n-list", "8,16,24,32"]) == 2
        assert "reps must be >= 1" in capsys.readouterr().err

    def test_rates_writes_records(self, tmp_path):
        code = main(
            ["rates", "--d", "2", "--n-list", "8,16,24,32", "--reps", "2", "--seed", "5",
             "--out", str(tmp_path / "rates"), "--format", "csv", "--threads", "2"]
        )
        assert code == 0  # d=2 is trend-only: no slope verdicts to fail
        records = (tmp_path / "rates.jsonl").read_text().splitlines()
        assert len(records) == 4 * 2 * 3
        summary = json.loads((tmp_path / "rates.summary.json").read_text())
        assert summary["schema"] == 1
        assert len(summary["fits"]) == 3
        assert (tmp_path / "rates.csv").exists()

    def test_rates_d3_verdicts_set_the_exit_code(self, tmp_path, capsys):
        code = main(["rates", "--d", "3", "--n-list", "8,16,24,32", "--reps", "2", "--seed", "5",
                     "--threads", "1", "--out", str(tmp_path / "rates")])
        verdicts = json.loads((tmp_path / "rates.summary.json").read_text())["verdicts"]
        assert set(verdicts) == {"W_exact_slope_in_window", "SW_slope_in_window",
                                 "ratio_nondecreasing"}
        assert code == (0 if all(verdicts.values()) else 1)
        out = capsys.readouterr().out
        for key, ok in verdicts.items():
            assert f"{key}: {'pass' if ok else 'FAIL'}" in out

    def test_rates_config_strings_and_lists(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": "2", "n_list": [8, 16, 24, 32], "reps": "2"}))
        out = tmp_path / "rates"
        assert main(["rates", "--config", str(cfg), "--threads", "1", "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "rates.summary.json").read_text())
        assert (summary["d"], summary["n_list"], summary["reps"]) == (2, [8, 16, 24, 32], 2)

    def test_audit_config_lists(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_list": [2], "p_list": "1,1.5", "instances": 1, "tol": 1e-3}))
        out = tmp_path / "audit"
        assert main(["audit", "--config", str(cfg), "--threads", "1", "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "audit.summary.json").read_text())
        assert (summary["d_list"], summary["p_list"]) == ([2], [1.0, 1.5])

    def test_unknown_config_key_rejected(self, pair_files, tmp_path, capsys):
        a, b = pair_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        with pytest.raises(SystemExit):
            main(["dist", str(a), str(b), "--config", str(cfg)])
