"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 4 (the p = 2 dimension bound) is expected to fail: the audited
inequality W_2 <= sqrt(d) * maxSW_2 is false for the max-sliced metric --
it holds for the subspace-robust variant, where the coupling is shared
across directions, but the sup-inf order of max-sliced breaks the argument.
See tests/test_maxsliced.py for an independently verified counterexample.
The criterion is implemented exactly as stated rather than weakened.
"""

import math
import time

import numpy as np
from scipy import stats
from scipy.spatial.distance import cdist

from otslice import (
    Scheme,
    dual_potentials_w1,
    make_discrete,
    max_sliced_certified,
    moment_p,
    projected_cost_gradient,
    sliced_wasserstein,
    to_measure1d,
    wasserstein_1d,
    wasserstein_exact,
)
from otslice import experiments as ex
from otslice.sliced import _projected_powers
from conftest import random_measure, random_pair


def report(number, name, passed, elapsed, budget, detail=""):
    status = "PASS" if passed else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s){extra}")
    assert passed, f"criterion {number} ({name}) failed{extra}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


def test_criterion_01_one_dimensional_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n, m = int(rng.integers(2, 51)), int(rng.integers(2, 51))
        mu = make_discrete(rng.standard_normal((n, 1)), rng.dirichlet(np.ones(n)))
        nu = make_discrete(rng.standard_normal((m, 1)), rng.dirichlet(np.ones(m)))
        m1, n1 = to_measure1d(mu), to_measure1d(nu)
        for p in (1.0, 1.5, 2.0, 3.0):
            quantile = wasserstein_1d(m1, n1, p)
            lp = wasserstein_exact(mu, nu, p).primal_value
            worst = max(worst, abs(quantile - lp) / max(1e-12, lp))
    elapsed = time.time() - t0
    report(1, "1D quantile vs LP", worst <= 1e-9, elapsed, 10, f"worst rel {worst:.2e}")


def test_criterion_02_duality():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst_gap, worst_feas = 0.0, -math.inf
    for k in range(100):
        d = 2 + k % 2
        n, m = int(rng.integers(2, 41)), int(rng.integers(2, 41))
        mu = make_discrete(rng.standard_normal((n, d)), rng.dirichlet(np.ones(n)))
        nu = make_discrete(rng.standard_normal((m, d)), rng.dirichlet(np.ones(m)))
        primal = wasserstein_exact(mu, nu, 1.0).primal_value
        cert = dual_potentials_w1(mu, nu)
        worst_gap = max(worst_gap, abs(primal - cert.dual_value) / max(1e-12, primal))
        worst_feas = max(worst_feas, cert.feasibility_margin(cdist(mu.points, nu.points)))
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-7 and worst_feas <= 1e-9
    report(2, "Kantorovich duality", ok, elapsed, 30,
           f"worst gap {worst_gap:.2e}, worst feasibility {worst_feas:.2e}")


def test_criterion_03_inequality_chain():
    t0 = time.time()
    audit = ex.inequality_audit(
        d_list=[2, 3],
        p_list=[1.0, 2.0],
        instances_per_cell=75,
        seed=303,
        certified_tol=1e-4,
        tol=1e-6,
        threads=4,
    )
    elapsed = time.time() - t0
    chain = audit.violations_by_kind["sw_le_maxsw"] + audit.violations_by_kind["maxsw_le_w"]
    report(3, "sandwich inequality chain", chain == 0, elapsed, 300,
           f"300 instances, chain violations {chain}")


def test_criterion_04_p2_dimension_bound():
    # implemented exactly as stated; fails because the inequality is false
    # for the max-sliced metric (sup-inf): see the frozen counterexample in
    # test_maxsliced.py, cross-checked against an independent LP solver
    t0 = time.time()
    rng = np.random.default_rng(404)
    violations = 0
    worst = 0.0
    for k in range(100):
        d = 2 + k % 2
        mu, nu = ex.random_pair(d, rng)
        cert = max_sliced_certified(mu, nu, 2.0, tol=1e-4)
        w = wasserstein_exact(mu, nu, 2.0).primal_value
        worst = max(worst, w / (math.sqrt(d) * cert.upper))
        if w > math.sqrt(d) * cert.upper + 1e-6:
            violations += 1
    elapsed = time.time() - t0
    report(4, "p=2 sqrt(d) bound", violations == 0, elapsed, 300,
           f"violations {violations}/100, worst W2/(sqrt(d)*maxSW2) {worst:.4f}")


def test_criterion_05_certified_optimizer():
    t0 = time.time()
    rng = np.random.default_rng(505)
    theta = np.linspace(0.0, math.pi, 100_000, endpoint=False)
    grid = np.column_stack([np.cos(theta), np.sin(theta)])
    ok = True
    detail = ""
    for k in range(50):
        mu, nu = random_pair(rng, 2, max_atoms=20)
        p = 1.0 if k % 2 == 0 else 2.0
        res = max_sliced_certified(mu, nu, p, tol=1e-6)
        if res.upper - res.lower > 1e-6:
            ok, detail = False, f"width {res.upper - res.lower:.2e} at instance {k}"
            break
        bf = float((_projected_powers(mu, nu, p, grid) ** (1 / p)).max())
        L = moment_p(mu, p) + moment_p(nu, p)
        # the oracle grid can undershoot the peak by L * (half grid step)
        if not (res.lower - L * (math.pi / 100_000) <= bf <= res.upper + 1e-9):
            ok, detail = False, f"grid max {bf} outside bracket at instance {k}"
            break
    if ok:
        for k in range(10):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            a = make_discrete([x.tolist()], [1.0])
            b = make_discrete([y.tolist()], [1.0])
            res = max_sliced_certified(a, b, 1.0, tol=1e-6)
            gap = float(np.linalg.norm(x - y))
            if not (res.lower - 1e-9 <= gap <= res.upper + 1e-9):
                ok, detail = False, f"two-point gap outside bracket at instance {k}"
                break
            if res.upper - res.lower > 1e-6:
                ok, detail = False, f"two-point width {res.upper - res.lower:.2e}"
                break
    elapsed = time.time() - t0
    report(5, "certified bracket vs dense grid", ok, elapsed, 120, detail)


def test_criterion_06_analytic_sliced_values():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst2 = worst3 = 0.0
    for _ in range(3):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        a, b = make_discrete([x.tolist()]), make_discrete([y.tolist()])
        est = sliced_wasserstein(a, b, 1.0, Scheme.quadrature(4096), normalized=True)
        target = (2.0 / math.pi) * float(np.linalg.norm(x - y))
        worst2 = max(worst2, abs(est.value - target))
    for _ in range(3):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        a, b = make_discrete([x.tolist()]), make_discrete([y.tolist()])
        est = sliced_wasserstein(a, b, 1.0, Scheme.quadrature(16384), normalized=True)
        target = 0.5 * float(np.linalg.norm(x - y))
        worst3 = max(worst3, abs(est.value - target))
    elapsed = time.time() - t0
    ok = worst2 <= 1e-6 and worst3 <= 1e-3
    report(6, "analytic point-mass sliced values", ok, elapsed, 60,
           f"d2 err {worst2:.2e} (tol 1e-6), d3 err {worst3:.2e} (tol 1e-3)")


def test_criterion_07_rate_separation():
    t0 = time.time()
    records, fits = ex.rate_experiment(
        d=3, n_list=[64, 128, 256, 512, 1024], reps=20, seed=707, threads=4
    )
    slopes = {f.estimator: f.slope for f in fits}
    ns, ratios = ex.mean_ratio_by_n(records)
    w_ok = abs(slopes["W_exact"] - (-1.0 / 3.0)) <= 0.07
    sw_ok = abs(slopes["SW"] - (-0.5)) <= 0.07
    ratio_ok = all(ratios[k + 1] >= ratios[k] for k in range(len(ratios) - 1))
    elapsed = time.time() - t0
    ok = w_ok and sw_ok and ratio_ok
    report(7, "rate separation d=3", ok, elapsed, 1200,
           f"W slope {slopes['W_exact']:.3f} (target -0.333), "
           f"SW slope {slopes['SW']:.3f} (target -0.5), "
           f"ratios {['%.2f' % r for r in ratios]}")


def test_criterion_08_cd_scan_sanity():
    t0 = time.time()
    bounds = {}
    for d, count in ((1, 50), (2, 100), (3, 50)):
        rep = ex.cd_lower_bound_scan(d=d, instances=count, seed=808, threads=4)
        bounds[d] = rep.lower_bound
    elapsed = time.time() - t0
    ok = (
        all(b >= 1.0 - 1e-9 and math.isfinite(b) for b in bounds.values())
        and abs(bounds[1] - 1.0) <= 1e-9
    )
    report(8, "C_d lower-bound scan", ok, elapsed, 120,
           ", ".join(f"d={d}: {b:.4f}" for d, b in bounds.items()))


def test_criterion_09_probability_integral_transform():
    t0 = time.time()
    rng = np.random.default_rng(909)
    worst_ks, worst_l = 0.0, 0.0
    for _ in range(20):
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        g = ex.uniformizing_map(v)
        samples = rng.random((100_000, 2)) @ v
        ks = stats.kstest(g(samples), "uniform").statistic
        worst_ks = max(worst_ks, ks)
        worst_l = max(worst_l, g.lipschitz_constant)
    elapsed = time.time() - t0
    ok = worst_ks <= 0.01 and worst_l <= math.sqrt(2.0) + 1e-12
    report(9, "uniformizing-map PIT", ok, elapsed, 60,
           f"worst KS {worst_ks:.4f}, worst Lipschitz {worst_l:.6f}")


def test_criterion_10_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    h = 1e-5
    checked, worst = 0, 0.0
    while checked < 20:
        mu, nu = random_pair(rng, 3, max_atoms=10)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        proj = np.concatenate([mu.points @ v, nu.points @ v])
        if np.min(np.abs(np.diff(np.sort(proj)))) < 50 * h:
            continue  # coupling-degenerate direction: objective kinks nearby
        _, grad = projected_cost_gradient(mu, nu, p, v)
        num = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fp, _ = projected_cost_gradient(mu, nu, p, v + e)
            fm, _ = projected_cost_gradient(mu, nu, p, v - e)
            num[k] = (fp - fm) / (2 * h)
        rel = np.linalg.norm(grad - num) / max(1.0, float(np.linalg.norm(num)))
        worst = max(worst, rel)
        checked += 1
    elapsed = time.time() - t0
    report(10, "subgradient vs central differences", worst <= 1e-4, elapsed, 60,
           f"worst rel {worst:.2e}")


def test_criterion_11_metric_axioms():
    t0 = time.time()
    rng = np.random.default_rng(1111)
    scheme = Scheme.quadrature(512)
    ok, detail = True, ""
    for k in range(100):
        a = random_measure(rng, 2, max_atoms=8)
        b = random_measure(rng, 2, max_atoms=8)
        c = random_measure(rng, 2, max_atoms=8)
        p = 1.0 if k % 2 == 0 else 2.0

        w = {}
        for key, (s, tmeas) in {"ab": (a, b), "ba": (b, a), "bc": (b, c), "ac": (a, c)}.items():
            w[key] = wasserstein_exact(s, tmeas, p).primal_value
        if abs(w["ab"] - w["ba"]) > 1e-9 * max(1.0, w["ab"]):
            ok, detail = False, f"W symmetry at {k}"
            break
        if w["ac"] > w["ab"] + w["bc"] + 1e-9:
            ok, detail = False, f"W triangle at {k}"
            break
        if wasserstein_exact(a, a, p).primal_value > 1e-12:
            ok, detail = False, f"W identity at {k}"
            break

        s = {}
        for key, (sm, tm) in {"ab": (a, b), "ba": (b, a), "bc": (b, c), "ac": (a, c)}.items():
            s[key] = sliced_wasserstein(sm, tm, p, scheme, normalized=True).value
        if s["ab"] != s["ba"]:
            ok, detail = False, f"SW symmetry at {k}"
            break
        if s["ac"] > s["ab"] + s["bc"] + 1e-10:
            ok, detail = False, f"SW triangle at {k}"
            break
        if sliced_wasserstein(a, a, p, scheme).value != 0.0:
            ok, detail = False, f"SW identity at {k}"
            break

        m = {}
        for key, (sm, tm) in {"ab": (a, b), "ba": (b, a), "bc": (b, c), "ac": (a, c)}.items():
            m[key] = max_sliced_certified(sm, tm, p, tol=1e-5)
        # brackets of both orders must intersect (the value is symmetric)
        if m["ab"].lower > m["ba"].upper + 1e-9 or m["ba"].lower > m["ab"].upper + 1e-9:
            ok, detail = False, f"maxSW symmetry at {k}"
            break
        # rigorous triangle check through the enclosures
        if m["ac"].lower > m["ab"].upper + m["bc"].upper + 1e-9:
            ok, detail = False, f"maxSW triangle at {k}"
            break
        ident = max_sliced_certified(a, a, p, tol=1e-5)
        if ident.lower != 0.0 or ident.upper > 1e-5:
            ok, detail = False, f"maxSW identity at {k}"
            break
    elapsed = time.time() - t0
    report(11, "metric axioms for W / SW / maxSW", ok, elapsed, 300, detail or "100 triples")
