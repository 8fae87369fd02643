"""Command-line front end: distance computation and experiment drivers.

Exit codes: 0 success (and, for suite commands, all assertions passed);
1 suite assertion failed; 2 input parse/validation error; 3 dimension
mismatch; 4 solver failure or problem too large. A certified search that
spends its evaluation budget is no failure: it reports the wider bracket it
holds, and one stderr line says so. All reports carry ``"schema": 1`` and
floats serialize through repr, so outputs round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import experiments
from .errors import DimensionMismatch, OTSliceError, ProblemTooLarge, SolverFailure
from .experiments import _timed
from .measures import load_measure
from .maxsliced import _check_starts, _check_tol, max_sliced, max_sliced_certified
from .ot_exact import _certificate, _exact, dual_potentials_w1, wasserstein_exact
from .sliced import Scheme, _check_scheme, default_scheme, sliced_wasserstein
from .sphere import surface_area

SCHEMA = 1


def _parse_scheme(text: str) -> Scheme:
    kind, _, arg = text.partition(":")
    if kind == "quad":
        return Scheme.quadrature(int(arg))
    if kind == "mc":
        return Scheme.monte_carlo(int(arg))
    raise argparse.ArgumentTypeError(f"scheme must look like quad:RES or mc:N, got {text!r}")


def _list_of(kind):
    """A flag type: comma-separated ``kind`` values, optionally in brackets (a JSON list's text)."""
    def parse(text: str):
        return [kind(tok) for tok in text.strip("[]").split(",") if tok.strip()]
    parse.__name__ = f"{kind.__name__} list"  # argparse names the type in its errors
    return parse


def _write_json(report: dict, path) -> str:
    """``report`` as indented JSON text, also written with a final newline to ``path`` if given."""
    text = json.dumps(report, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _apply_config(args) -> dict:
    """Flag values from a JSON config file, converted, keyed by destination.

    ``main`` makes them the subcommand's defaults, so flags given on the
    command line win. Each value goes through its flag's own ``type`` as the
    command line would: a string as it stands, a JSON number or list as its
    JSON text. A switch takes a JSON boolean, an untyped flag a string among
    its ``choices``. A value of the wrong kind raises ValueError (exit 2).
    """
    values = {}
    if not args.config:
        return values
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    sub = args.parser
    flags = {a.dest: a for a in sub._actions if a.option_strings and hasattr(args, a.dest)}
    for key, value in cfg.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            sub.error(f"unknown config key {key!r}")
        if action.type is not None:
            try:
                value = action.type(value if isinstance(value, str) else json.dumps(value))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        kind = bool if action.nargs == 0 else str if action.type is None else object
        if not isinstance(value, kind) or (action.choices and value not in action.choices):
            raise ValueError(f"config key {key!r}: invalid value {value!r}")
        values[action.dest] = value
    return values


def _dump_plan(path, plan, header: dict) -> None:
    """CSV triples (i, j, mass) preceded by a one-line JSON header comment."""
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write("i,j,mass\n")
        for i, j, mass in zip(plan.i.tolist(), plan.j.tolist(), plan.mass.tolist()):
            fh.write(f"{i},{j},{mass!r}\n")


def cmd_dist(args) -> int:
    wanted = ("w", "sw", "maxsw") if args.metric == "all" else (args.metric,)
    # flags that nothing would read are errors, checked before any file is loaded
    if args.dual and (args.p != 1 or "w" not in wanted):
        raise ValueError("--dual needs --p 1 and a metric that computes W (w or all)")
    if args.plan_out and "w" not in wanted:
        raise ValueError("--plan-out needs a metric that computes W (w or all)")
    if "maxsw" in wanted and args.certified:
        _check_tol(args.tol)  # before any file is loaded or solve runs
    _check_starts(args.starts)  # a bad value is an error whether or not it is read
    mu = load_measure(args.file_a)
    nu = load_measure(args.file_b)
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"{args.file_a} has dim {mu.dim}, {args.file_b} has dim {nu.dim}")
    if args.scheme is not None:
        _check_scheme(args.scheme, mu.dim)  # before the W solve
    p = args.p
    metrics = {}
    plan = None

    if "w" in wanted:
        # one simplex solve serves the plan and the duals
        solve = _exact if args.dual else lambda *a: (wasserstein_exact(*a), None)
        (plan, duals), secs = _timed(solve, mu, nu, p)
        entry = {"value": plan.primal_value, "plan_support": int(plan.mass.shape[0]), "time_s": secs}
        if args.dual:
            cert = dual_potentials_w1(mu, nu) if duals is None else _certificate(mu, nu, *duals)
            entry["dual_value"] = cert.dual_value
            entry["duality_gap"] = abs(plan.primal_value - cert.dual_value)
        if args.plan_out:
            _dump_plan(
                args.plan_out,
                plan,
                {"schema": SCHEMA, "p": p, "primal_value": plan.primal_value},
            )
        metrics["w"] = entry

    if "sw" in wanted:
        scheme = args.scheme if args.scheme is not None else default_scheme(mu.dim)
        if scheme.kind == "monte_carlo":
            scheme = Scheme.monte_carlo(scheme.count, seed=args.seed)
        est_norm, secs = _timed(sliced_wasserstein, mu, nu, p, scheme, normalized=True)
        # both conventions are reported to prevent cross-convention confusion
        factor = surface_area(mu.dim) ** (1.0 / p)
        metrics["sw"] = {
            "value_normalized": est_norm.value,
            "value_unnormalized": est_norm.value * factor,
            "stderr": est_norm.stderr,
            "scheme": est_norm.scheme.describe(),
            "time_s": secs,
        }

    if "maxsw" in wanted:
        if args.certified:
            res, secs = _timed(max_sliced_certified, mu, nu, p, args.tol, plan=plan)
            if res.upper - res.lower > args.tol:  # the budget stopped it: say so beside the JSON
                print(f"maxsw: budget spent after {res.evaluations} evaluations; bracket width "
                      f"{res.upper - res.lower:.6g} > --tol {args.tol:g}", file=sys.stderr)
        else:
            res, secs = _timed(max_sliced, mu, nu, p, starts=args.starts, seed=args.seed)
        metrics["maxsw"] = {
            "lower": res.lower,
            "upper": res.upper if math.isfinite(res.upper) else None,  # ascent: no bound
            "direction": res.v_star.tolist(),
            "evaluations": res.evaluations,
            "time_s": secs,
        }

    report = {
        "schema": SCHEMA,
        "command": "dist",
        "p": p,
        "dim": mu.dim,
        "seed": args.seed,
        "metrics": metrics,
    }
    print(_write_json(report, args.out))
    return 0


def cmd_rates(args) -> int:
    records, fits = experiments.rate_experiment(
        d=args.d,
        n_list=args.n_list,
        reps=args.reps,
        seed=args.seed,
        p=args.p,
        threads=args.threads,
    )
    ns, ratios = experiments.mean_ratio_by_n(records)
    windows = {"W_exact": (-1.0 / args.d, 0.07), "SW": (-0.5, 0.07)}
    verdicts = {}
    if args.d >= 3:
        for name, (target, width) in windows.items():
            slope = next(f.slope for f in fits if f.estimator == name)
            verdicts[f"{name}_slope_in_window"] = bool(abs(slope - target) <= width)
        verdicts["ratio_nondecreasing"] = bool(
            all(ratios[k + 1] >= ratios[k] for k in range(len(ratios) - 1))
        )
    summary = {
        "schema": SCHEMA,
        "command": "rates",
        "d": args.d,
        "p": args.p,
        "reps": args.reps,
        "seed": args.seed,
        "n_list": args.n_list,
        "fits": [f.to_dict() for f in fits],
        "w_over_sw_mean_ratio": {"n": ns, "ratio": ratios},
        "slope_targets": {k: v[0] for k, v in windows.items()},
        "verdicts": verdicts,
        "note": (
            "two-sample design; exponents match the one-sample law. "
            "d=2 is trend-only (log-factor gap), so no slope verdicts there."
        ),
    }
    if args.out:
        experiments.write_records_jsonl(records, args.out + ".jsonl")
        if args.format == "csv":
            experiments.write_records_csv(records, args.out + ".csv")
        _write_json(summary, args.out + ".summary.json")
    for fit in fits:
        print(f"{fit.estimator:8s} slope {fit.slope:+.4f}  residual {fit.residual:.4f}")
    for key, ok in verdicts.items():
        print(f"{key}: {'pass' if ok else 'FAIL'}")
    print(json.dumps(summary) if not args.out else f"written: {args.out}.summary.json")
    return 0 if all(verdicts.values()) else 1


def cmd_audit(args) -> int:
    report = experiments.inequality_audit(
        d_list=args.d_list,
        p_list=args.p_list,
        instances_per_cell=args.instances,
        seed=args.seed,
        certified_tol=args.tol,
        threads=args.threads,
    )
    summary = {
        "schema": SCHEMA,
        "command": "audit",
        "d_list": args.d_list,
        "p_list": args.p_list,
        "instances_per_cell": args.instances,
        "seed": args.seed,
        "certified_tol": args.tol,
        **report.to_dict(),
    }
    if args.out:
        _write_json(summary, args.out + ".summary.json")
    print(f"violations: {report.violation_count}")
    for kind, count in report.violations_by_kind.items():
        print(f"  {kind}: {count}")
    print(f"margin_min: {report.margin_min!r}  margin_mean: {report.margin_mean!r}")
    return 0 if report.violation_count == 0 else 1


def cmd_cdscan(args) -> int:
    report = experiments.cd_lower_bound_scan(
        d=args.d,
        instances=args.instances,
        seed=args.seed,
        p=args.p,
        threads=args.threads,
    )
    summary = {"schema": SCHEMA, "command": "cdscan", **report.to_dict()}
    if args.out:
        _write_json(summary, args.out + ".summary.json")
    print(
        f"C_{args.d} lower bound: {report.lower_bound!r} "
        f"(best instance {report.best_instance}, skipped {report.skipped})"
    )
    ok = report.lower_bound >= 1.0 - 1e-9
    print(f"lower_bound >= 1: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otslice",
        description="Wasserstein, sliced and max-sliced distances between point-cloud measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
        sp.add_argument("--out", default=None, help="output path / prefix")
        sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker cap (default: cores)")
        sp.add_argument("--config", default=None, help="JSON config file, overridden by flags")
        sp.set_defaults(parser=sp)

    sp = sub.add_parser("dist", help="distances between two point-cloud files")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--p", type=float, default=1.0, help="order (default 1)")
    sp.add_argument("--metric", choices=("w", "sw", "maxsw", "all"), default="all")
    sp.add_argument("--scheme", type=_parse_scheme, default=None, help="quad:RES or mc:N")
    sp.add_argument("--starts", type=int, default=8, help="ascent restarts (default 8)")
    sp.add_argument("--tol", type=float, default=1e-6, help="certified bracket width (default 1e-6)")
    sp.add_argument("--certified", action="store_true", help="certified max-sliced bracket")
    sp.add_argument("--dual", action="store_true", help="report p=1 dual value and gap")
    sp.add_argument("--plan-out", default=None, help="dump the optimal plan as CSV")
    common(sp)
    sp.set_defaults(fn=cmd_dist)

    sp = sub.add_parser("rates", help="two-sample empirical convergence rates")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--n-list", type=_list_of(int), default=[64, 128, 256, 512, 1024])
    sp.add_argument("--reps", type=int, default=20)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="csv also writes the records as OUT.csv")
    common(sp)
    sp.set_defaults(fn=cmd_rates)

    sp = sub.add_parser("audit", help="sandwich-inequality audit over random instances")
    sp.add_argument("--d-list", type=_list_of(int), default=[2, 3])
    sp.add_argument("--p-list", type=_list_of(float), default=[1.0, 2.0])
    sp.add_argument("--instances", type=int, default=25, help="instances per (d, p) cell")
    sp.add_argument("--tol", type=float, default=1e-4, help="certified bracket width")
    common(sp)
    sp.set_defaults(fn=cmd_audit)

    sp = sub.add_parser("cdscan", help="empirical lower bound for the W <= C * maxSW constant")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--instances", type=int, default=100)
    common(sp)
    sp.set_defaults(fn=cmd_cdscan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = _apply_config(args)
        if values:
            args.parser.set_defaults(**values)
            args = parser.parse_args(argv)
        return args.fn(args)
    except OTSliceError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, DimensionMismatch):
            return 3
        if isinstance(exc, (SolverFailure, ProblemTooLarge)):
            return 4
        return 2
    except (OSError, json.JSONDecodeError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
