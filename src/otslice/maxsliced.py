"""Max-sliced Wasserstein: heuristic ascent lower bounds and certified brackets.

The objective v -> W_p(mu_v, nu_v) is Lipschitz on the sphere with constant
L = M_p(mu) + M_p(nu) and attains its maximum. Two engines:

* ``max_sliced``: multi-start projected subgradient ascent on W_p^p (the
  monotone coupling supplies an exact subgradient wherever the projected
  sort order is locally stable). Every reported value is an exact 1D
  evaluation, hence a valid lower bound.
* ``max_sliced_certified``: branch-and-bound over boxes on the cube faces
  {v_k = 1}, pushed radially onto the sphere; the objective is even in v,
  so these d faces cover every direction. Each patch upper bound combines
  the Lipschitz estimate f(center) + L * step with a second valid bound
  obtained by pushing one fixed optimal coupling of the full d-dimensional
  problem through the projection: that bound collapses to 0 for equal
  measures, which is what lets brackets on near-identical inputs close
  instead of tiling the whole sphere at mesh tol / L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidOrder,
    InvalidSpec,
    SolverFailure,
    UnsupportedDimension,
)
from .measures import DiscreteMeasure, _check_pair, moment_p, rng_stream
from .ot1d import _equal_uniform, _monotone_rows, to_measure1d, wasserstein_1d, wasserstein_pp_batch
from .ot_exact import TransportPlan, wasserstein_exact
from .sphere import as_unit, project


@dataclass(frozen=True)
class DirectionResult:
    """A direction with its projected distance and an enclosure bracket.

    ``lower`` is the exact projected distance at ``v_star`` (a valid lower
    bound on the max-sliced distance); ``upper`` equals ``lower`` in
    heuristic mode and is a certified global upper bound in certified mode.
    ``evaluations`` counts projected distances: in heuristic mode one per
    ascent start plus every candidate of every backtracking ladder, in
    certified mode one per patch center.
    """

    v_star: np.ndarray
    lower: float
    upper: float
    evaluations: int
    mode: str


def _project(mu, nu, dirs: np.ndarray):
    """Projections of mu and nu onto each row of ``dirs``: arrays (R, n) and (R, m)."""
    return (mu.points @ dirs.T).T, (nu.points @ dirs.T).T


def _pairings(mu, nu, dirs: np.ndarray):
    """Projections onto the rows of ``dirs`` and one monotone pairing per row.

    Returns ``(pa, pb, mass, i, j)``: row r pairs atom ``i[r, k]`` of mu with
    atom ``j[r, k]`` of nu with mass ``mass[r, k]``. Equal-size uniform
    measures pair their stably sorted atoms one to one with mass 1/n; other
    pairs go through :func:`_monotone_rows`, whose rows may hold segments of
    zero mass.
    """
    pa, pb = _project(mu, nu, dirs)
    if _equal_uniform(mu.weights, nu.weights):
        i = np.argsort(pa, axis=1, kind="stable")
        j = np.argsort(pb, axis=1, kind="stable")
        mass = np.full(pa.shape, 1.0 / pa.shape[1])
    else:
        mass, i, j = _monotone_rows(pa, pb, mu.weights, nu.weights)
    return pa, pb, mass, i, j


def projected_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float, v) -> float:
    """Exact W_p between the projections of mu and nu onto direction v."""
    v = as_unit(v)
    return wasserstein_1d(project(mu, v), project(nu, v), p)


def projected_cost_gradient(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float, v):
    """Value and ambient subgradient of v -> W_p(mu_v, nu_v)^p.

    The subgradient is assembled from one monotone coupling:
    sum mass * p * |v.(x_i - y_j)|^(p-1) * sign(v.(x_i - y_j)) * (x_i - y_j).
    At directions with ties in the projected sort order this is one valid
    choice among several.
    """
    v = np.asarray(v, dtype=float)
    pa, pb, mass, i, j = (a[0] for a in _pairings(mu, nu, v[None]))
    keep = mass > 0.0
    mass, i, j = mass[keep], i[keep], j[keep]
    gap = pa[i] - pb[j]
    value = float(np.sum(mass * np.abs(gap) ** p))
    coeff = mass * p * np.abs(gap) ** (p - 1.0) * np.sign(gap)
    grad = coeff @ (mu.points[i] - nu.points[j])
    return value, grad


def _ascent(mu, nu, p, v0, max_iters):
    """Backtracking subgradient ascent; returns (best v, best W_p^p, evals).

    Each iteration evaluates its whole ladder in one batch: the normalized
    gradient (the eta -> inf limit of the update), then the steps
    v + eta0 2^-k tangent, normalized, for k = 0..24. It moves to the first
    candidate in that order that improves, as a serial first-improvement
    search would. ``evals`` counts every candidate evaluated.
    """
    L = moment_p(mu, p) + moment_p(nu, p)
    etas = (0.5 / max(L, 1e-300)) * 0.5 ** np.arange(25.0)
    v = as_unit(v0)
    val, grad = projected_cost_gradient(mu, nu, p, v)
    evals = 1
    for _ in range(max_iters):
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        ladder = grad[None] / gnorm
        tangent = grad - float(grad @ v) * v
        if float(np.linalg.norm(tangent)) > 0.0:
            steps = v + etas[:, None] * tangent
            ladder = np.vstack([ladder, steps / np.linalg.norm(steps, axis=1, keepdims=True)])
        vals = wasserstein_pp_batch(*_project(mu, nu, ladder), mu.weights, nu.weights, p)
        evals += ladder.shape[0]
        better = np.flatnonzero(vals > val + 1e-14 * (1.0 + abs(val)))
        if not better.size:
            break
        v, val = ladder[better[0]], float(vals[better[0]])
        _, grad = projected_cost_gradient(mu, nu, p, v)
    return v, val, evals


def direction_ascent(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    v0,
    max_iters: int = 100,
):
    """Local search from v0; returns (direction, exact projected distance).

    The objective is nondecreasing over accepted steps; the returned value
    is re-evaluated through the exact quantile path.
    """
    _check_pair(mu, nu, p)
    v, _, _ = _ascent(mu, nu, p, v0, max_iters)
    return v, projected_distance(mu, nu, p, v)


def max_sliced(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    starts: int = 8,
    seed: int = 0,
) -> DirectionResult:
    """Best of ``starts`` ascent runs plus the 2d signed axis directions.

    ``evaluations`` counts one projected distance per start and every
    candidate of every ascent iteration: each iteration evaluates its whole
    ladder (up to 26 directions) in one batch, even when the first one
    improves.
    """
    _check_pair(mu, nu, p)
    if starts < 1:
        raise InvalidOrder(f"starts must be >= 1, got {starts}")
    d = mu.dim
    if d == 1:
        v = np.array([1.0])
        w = wasserstein_1d(to_measure1d(mu), to_measure1d(nu), p)
        return DirectionResult(v_star=v, lower=w, upper=w, evaluations=1, mode="heuristic")

    rng = rng_stream(seed, 0xA5)
    inits = list(np.eye(d)) + list(-np.eye(d))
    raw = rng.standard_normal((starts, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    inits.extend(raw)

    best_v, best_val, evals = None, -1.0, 0
    for v0 in inits:
        v, val, used = _ascent(mu, nu, p, v0, max_iters=100)
        evals += used
        if val > best_val:
            best_v, best_val = v, val
    lower = projected_distance(mu, nu, p, best_v)
    return DirectionResult(
        v_star=best_v, lower=lower, upper=lower, evaluations=evals, mode="heuristic"
    )


# ---------------------------------------------------------------------------
# Certified branch-and-bound
# ---------------------------------------------------------------------------


def _lipschitz_constant(mu, nu, p) -> float:
    """Valid Lipschitz constant for v -> W_p(mu_v, nu_v) on the sphere.

    A common translation of both measures shifts both projections by the
    same amount and leaves every projected distance unchanged, so the
    moment-sum bound may be evaluated after recentering; the pooled mean
    usually shrinks it considerably for off-origin data.
    """
    plain = moment_p(mu, p) + moment_p(nu, p)
    center = 0.5 * (mu.weights @ mu.points + nu.weights @ nu.points)
    mu_c = DiscreteMeasure(points=mu.points - center, weights=mu.weights, dim=mu.dim)
    nu_c = DiscreteMeasure(points=nu.points - center, weights=nu.weights, dim=nu.dim)
    return min(plain, moment_p(mu_c, p) + moment_p(nu_c, p))


def _check_plan(plan: TransportPlan, mu, nu, p) -> None:
    """Reject a plan that is not a coupling of (mu, nu) for order p."""
    if plan.source_size != mu.n or plan.target_size != nu.n:
        raise DimensionMismatch(
            f"plan is {plan.source_size} x {plan.target_size}, measures are {mu.n} x {nu.n}"
        )
    if plan.order != p:
        raise InvalidSpec(f"plan has order {plan.order}, expected {p}")
    a, b = plan.source_marginal(), plan.target_marginal()
    if (
        np.any(plan.mass < 0.0)
        or a.shape != mu.weights.shape
        or b.shape != nu.weights.shape
        or np.max(np.abs(a - mu.weights)) > 1e-9
        or np.max(np.abs(b - nu.weights)) > 1e-9
    ):
        raise InvalidSpec("plan marginals do not match the measure weights")


class _CouplingBound:
    """Upper bound on the projected distance from one fixed coupling.

    Pushing a coupling of the d-dimensional problem through a projection
    yields a feasible coupling of the projected measures, so
    h(v) = (sum gamma_k |v . z_k|^p)^(1/p) >= W_p(mu_v, nu_v) for every v,
    and h is Lipschitz with constant equal to the coupling's own cost; for
    an optimal plan that is the full distance W_p(mu, nu), the tightest
    choice. ``plan`` defaults to a fresh exact solve.
    """

    def __init__(self, mu, nu, p, plan: TransportPlan | None = None):
        if plan is None:
            plan = wasserstein_exact(mu, nu, p)
        else:
            _check_plan(plan, mu, nu, p)
        self.z = mu.points[plan.i] - nu.points[plan.j]
        self.gamma = plan.mass
        self.p = p
        self.lipschitz = plan.cost(mu, nu) ** (1.0 / p)

    def value_batch(self, dirs: np.ndarray) -> np.ndarray:
        return (np.abs(dirs @ self.z.T) ** self.p @ self.gamma) ** (1.0 / self.p)


def _distance_batch(mu, nu, p, dirs: np.ndarray) -> np.ndarray:
    """Exact projected distances along each row of ``dirs``."""
    return wasserstein_pp_batch(*_project(mu, nu, dirs), mu.weights, nu.weights, p) ** (1.0 / p)


def _local_patch_bound(p, centers, steps, mass, t, diff, znorm, lipschitz):
    """Certified sup of the projected distance over caps around ``centers``.

    Works on one fixed monotone pairing per row: its pushforward is a
    feasible coupling of the projections at every direction, with equality
    at the center, so any valid sup bound on
    h(v)^p = sum mass |v . z|^p over the cap bounds the distance itself.

    For p = 1 and p = 2 the bound uses the pairing's tangent gradient (the
    generic Lipschitz constant is replaced by a local slope that vanishes
    at a smooth maximizer); other orders fall back to the pairing-cost
    constant. All variants also cap at f(center) + lipschitz * step.
    """
    f_pp = np.sum(mass * np.abs(t) ** p, axis=1)
    f = f_pp ** (1.0 / p)
    dc = np.sum(mass * znorm**p, axis=1) ** (1.0 / p)
    slope = np.minimum(lipschitz, dc)

    if p == 1:
        signs = np.sign(t)
        nonflip = np.abs(t) > steps[:, None] * znorm
        g = np.einsum("rk,rkd->rd", mass * signs * nonflip, diff)
        g_tan = g - np.einsum("rd,rd->r", g, centers)[:, None] * centers
        local = np.linalg.norm(g_tan, axis=1) + np.sum(mass * znorm * ~nonflip, axis=1)
        ub = f + steps * np.minimum(slope, local)
    elif p == 2:
        ac = np.einsum("rk,rkd->rd", mass * t, diff)
        ac_tan = ac - np.einsum("rd,rd->r", ac, centers)[:, None] * centers
        quad = f_pp + 2.0 * steps * np.linalg.norm(ac_tan, axis=1) + steps**2 * dc**2
        ub = np.minimum(f + steps * slope, np.sqrt(np.maximum(0.0, quad)))
    else:
        ub = f + steps * slope
    return f, ub


def _patch_bounds(mu, nu, p, centers, steps, lipschitz):
    """Exact center distances and certified cap bounds for each patch."""
    pa, pb, mass, i, j = _pairings(mu, nu, centers)
    t = np.take_along_axis(pa, i, axis=1) - np.take_along_axis(pb, j, axis=1)
    diff = mu.points[i] - nu.points[j]
    znorm = np.linalg.norm(diff, axis=2)
    return _local_patch_bound(p, centers, steps, mass, t, diff, znorm, lipschitz)


def _box_geometry(lo: np.ndarray, hi: np.ndarray):
    """Unit centers and chord steps of boxes [lo, hi] on the cube faces.

    A box lies on a face {v_k = 1} (lo_k = hi_k = 1); its directions are its
    points, normalized. Every point has norm >= r = |dist(0, [lo, hi])|,
    where x -> x/|x| is (1/r)-Lipschitz, and the box is convex, so half its
    diagonal over r bounds the chord from the center to any of them.
    """
    centers = 0.5 * (lo + hi)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    least = np.linalg.norm(np.maximum(0.0, np.maximum(lo, -hi)), axis=1)
    steps = np.minimum(2.0, 0.5 * np.linalg.norm(hi - lo, axis=1) / least)
    return centers, steps


def _halve(lo: np.ndarray, hi: np.ndarray):
    """Cut each of P boxes across its longest side (the first on ties).

    The halves of box i are rows i and i + P.
    """
    rows = np.arange(lo.shape[0])
    k = np.argmax(hi - lo, axis=1)
    mid = 0.5 * (lo[rows, k] + hi[rows, k])
    upper_lo, lower_hi = lo.copy(), hi.copy()
    upper_lo[rows, k] = mid
    lower_hi[rows, k] = mid
    return np.vstack([lo, upper_lo]), np.vstack([lower_hi, hi])


def max_sliced_certified(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    tol: float,
    eval_budget: int = 2_000_000,
    plan: TransportPlan | None = None,
) -> DirectionResult:
    """Certified bracket [lower, upper] containing the max-sliced distance.

    Level-synchronous branch-and-bound over boxes on the cube faces
    {v_k = 1}. The first level is the d whole faces, centred on the axis
    directions; each later level halves every surviving box across its
    longest side twice and evaluates all centers in one vectorized sweep.
    Each patch upper bound is the minimum of three valid cap bounds (the
    global Lipschitz estimate f(center) + L * step, the pushed-optimal-
    coupling estimate h(center) + W_p * step, and the center pairing's
    local-slope bound; step bounds the chord from the center to the box),
    inherited downward from the parent. The lower bound is the best exactly
    evaluated center. Supports d in {1, 2, 3} (d = 1 is the trivial
    two-point sphere).

    ``plan`` is an optimal plan of (mu, nu) for order p that the caller has
    already solved (``wasserstein_exact``); it feeds the coupling bound in
    place of a second solve. It is checked first: sizes that do not match
    raise :class:`DimensionMismatch`, another order or marginals that differ
    from the weights by more than 1e-9 raise :class:`InvalidSpec`. When it is
    None the search solves the plan itself.

    ``evaluations`` counts exact projected distances, one per patch center;
    no ascent runs. The first level is always evaluated; before each split,
    if the next level would take ``evaluations`` past ``eval_budget``,
    :class:`BudgetExceeded` is raised with the best bracket attached.
    """
    _check_pair(mu, nu, p)
    if not tol > 0:  # NaN fails too
        raise InvalidOrder(f"tol must be positive, got {tol}")
    d = mu.dim
    if d == 1:
        v = np.array([1.0])
        w = wasserstein_1d(to_measure1d(mu), to_measure1d(nu), p)
        return DirectionResult(v_star=v, lower=w, upper=w, evaluations=1, mode="certified")
    if d not in (2, 3):
        raise UnsupportedDimension(
            f"certified search covers d in {{1, 2, 3}}; use max_sliced for d={d}"
        )

    L = _lipschitz_constant(mu, nu, p)
    bound = _CouplingBound(mu, nu, p, plan)

    # the first level: the d whole faces {v_k = 1} of the cube [-1, 1]^d
    lo, hi = 2.0 * np.eye(d) - 1.0, np.ones((d, d))
    inherited = np.full(d, np.inf)
    best_lower, best_v = -math.inf, None
    evals = 0
    gap = 0.995 * tol  # slightly conservative so the final width meets tol strictly
    pruned_ceiling = -math.inf  # sup over discarded patches, always <= best + gap

    for _ in range(200):
        centers, step = _box_geometry(lo, hi)
        fc, local_ub = _patch_bounds(mu, nu, p, centers, step, L)
        hc = bound.value_batch(centers)
        evals += centers.shape[0]

        k = int(np.argmax(fc))
        if fc[k] > best_lower:
            best_lower, best_v = float(fc[k]), centers[k]

        uppers = np.minimum(inherited, np.minimum(local_ub, hc + bound.lipschitz * step))

        keep = uppers > best_lower + gap
        if np.any(~keep):
            pruned_ceiling = max(pruned_ceiling, float(np.max(uppers[~keep])))
        if not np.any(keep):
            break

        if evals + 4 * int(np.count_nonzero(keep)) > eval_budget:
            partial = DirectionResult(
                v_star=best_v,
                lower=projected_distance(mu, nu, p, best_v),
                upper=max(float(np.max(uppers[keep])), pruned_ceiling, best_lower),
                evaluations=evals,
                mode="certified",
            )
            raise BudgetExceeded(
                f"evaluation budget {eval_budget} hit before reaching tol {tol:.3e}",
                result=partial,
            )
        lo, hi = _halve(*_halve(lo[keep], hi[keep]))
        inherited = np.tile(uppers[keep], 4)
    else:
        raise SolverFailure("certified search failed to converge in 200 levels")

    lower = projected_distance(mu, nu, p, best_v)
    upper = max(pruned_ceiling, lower)
    return DirectionResult(
        v_star=best_v,
        lower=lower,
        upper=upper,
        evaluations=evals,
        mode="certified",
    )
