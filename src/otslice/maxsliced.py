"""Max-sliced Wasserstein: heuristic ascent lower bounds and certified brackets.

The objective v -> W_p(mu_v, nu_v) is Lipschitz on the sphere with constant
M_p(mu) + M_p(nu) and attains its maximum. Two engines:

* ``max_sliced``: multi-start projected subgradient ascent on W_p^p (the
  monotone coupling supplies an exact subgradient wherever the projected
  sort order is locally stable). Every reported value is an exact 1D
  evaluation, hence a valid lower bound.
* ``max_sliced_certified``: branch-and-bound over boxes on the cube faces
  {v_k = 1}, pushed radially onto the sphere, in any dimension d; the
  objective is even in v, so these d faces cover every direction. Each
  patch upper bound is the smaller of two cap bounds, each from a fixed
  coupling pushed through the projection: the monotone pairing at the
  patch center (its cost is Lipschitz with the pairing's own
  d-dimensional cost, and its tangent gradient sharpens that for p = 1
  and 2), and one optimal coupling of the full d-dimensional problem. The
  second collapses to 0 for equal measures, which is what lets brackets
  on near-identical inputs close instead of tiling the whole sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, InvalidOrder, InvalidSpec, SolverFailure
from .measures import DiscreteMeasure, _check_pair, moment_p, rng_stream
from .ot1d import _pairings, to_measure1d, wasserstein_1d
from .ot_exact import TransportPlan, wasserstein_exact
from .sliced import CHUNK_ELEMENTS, _projected_powers, _projections
from .sphere import as_unit, project


@dataclass(frozen=True)
class DirectionResult:
    """A direction with its projected distance and an enclosure bracket.

    ``lower`` is the exact projected distance the search computed at ``v_star``
    (a valid lower bound on the max-sliced distance); ``upper`` equals ``lower``
    in heuristic mode and is a certified global upper bound in certified mode.
    ``evaluations`` counts projected distances: in heuristic mode one per
    ascent start plus the ladder candidates evaluated (2 per iteration, 26
    when neither of those improves), in certified mode one per patch center.
    """

    v_star: np.ndarray
    lower: float
    upper: float
    evaluations: int
    mode: str


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
    v = np.asarray(v, dtype=float)[None]
    pa, pb = _projections(mu, v), _projections(nu, v)
    value, t, mass, i, j = (a[0] for a in _pairings(pa, pb, mu.weights, nu.weights, p))
    keep = mass > 0.0
    gap, mass, i, j = t[keep], mass[keep], i[keep], j[keep]
    coeff = mass * p * np.abs(gap) ** (p - 1.0) * np.sign(gap)
    grad = coeff @ (mu.points[i] - nu.points[j])
    return float(value), grad


def _ascent(mu, nu, p, v0, max_iters):
    """Backtracking subgradient ascent; returns (best v, best W_p^p, evals).

    Each iteration's ladder is the normalized gradient (the eta -> inf limit),
    then v + eta0 2^-k tangent, normalized, for k = 0..24. Candidates 0-1 go
    in one batch (never one row alone: a one-row product takes another BLAS
    kernel and may round differently), 2-25 in a second only if neither
    improves. The step is the first improving candidate in ladder order, as
    in a serial search. ``evals`` counts the start and each candidate evaluated.
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
        bar = val + 1e-14 * (1.0 + abs(val))
        # value-only sorts: through _pairings the 24-row tails need index sorts, twice the time
        vals = _projected_powers(mu, nu, p, ladder[:2])
        if not np.any(vals > bar) and ladder.shape[0] > 2:
            vals = np.concatenate([vals, _projected_powers(mu, nu, p, ladder[2:])])
        evals += vals.size
        better = np.flatnonzero(vals > bar)
        if not better.size:
            break
        v, val = ladder[better[0]], float(vals[better[0]])
        _, grad = projected_cost_gradient(mu, nu, p, v)
    return v, val, evals


def _check_starts(starts: int) -> None:
    if starts < 1:
        raise InvalidOrder(f"starts must be >= 1, got {starts}")


def _check_tol(tol: float) -> None:
    if not tol > 0:  # NaN fails too
        raise InvalidOrder(f"tol must be positive, got {tol}")


def direction_ascent(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    v0,
    max_iters: int = 100,
):
    """Local search from v0; returns (direction, exact projected distance).

    The objective is nondecreasing over accepted steps; the returned value
    is the p-th root of the W_p^p the ascent computed at the direction.
    """
    _check_pair(mu, nu, p)
    v, val, _ = _ascent(mu, nu, p, v0, max_iters)
    return v, val ** (1.0 / p)


def max_sliced(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    starts: int = 8,
    seed: int = 0,
) -> DirectionResult:
    """Best of ``starts`` ascent runs plus the d axis directions.

    The objective is even in v, so -e_k would retrace e_k. ``lower`` is the
    best W_p^p an ascent computed, to the power 1/p. ``evaluations`` counts
    one projected distance per start and the ladder candidates each ascent
    iteration evaluated: the first 2 of its (up to 26) directions, plus the
    other 24 when neither of those improves.
    """
    _check_pair(mu, nu, p)
    _check_starts(starts)
    d = mu.dim
    if d == 1:
        v = np.array([1.0])
        w = wasserstein_1d(to_measure1d(mu), to_measure1d(nu), p)
        return DirectionResult(v_star=v, lower=w, upper=w, evaluations=1, mode="heuristic")

    raw = rng_stream(seed, 0xA5).standard_normal((starts, d))
    inits = np.vstack([np.eye(d), raw / np.linalg.norm(raw, axis=1, keepdims=True)])

    best_v, best_val, evals = None, -1.0, 0
    for v0 in inits:
        v, val, used = _ascent(mu, nu, p, v0, max_iters=100)
        evals += used
        if val > best_val:
            best_v, best_val = v, val
    lower = best_val ** (1.0 / p)
    return DirectionResult(
        v_star=best_v, lower=lower, upper=lower, evaluations=evals, mode="heuristic"
    )


# ---------------------------------------------------------------------------
# Certified branch-and-bound
# ---------------------------------------------------------------------------


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


def _patch_bounds(mu, nu, p, centers, steps):
    """Exact center distances and certified cap bounds for each patch.

    Works on one fixed monotone pairing per center: its pushforward is a
    feasible coupling of the projections at every direction, with equality
    at the center, so any valid sup bound on h(v)^p = sum mass |v . z|^p
    over the cap of chord ``steps`` bounds the distance itself. h is
    Lipschitz with the pairing's own cost dc = (sum mass |z|^p)^(1/p),
    which gives the cap f + step * dc for every order. For p = 1 and p = 2
    the pairing's tangent gradient replaces dc with a local slope that
    vanishes at a smooth maximizer, and the resulting bound never exceeds
    f + step * dc.
    """
    pa, pb = _projections(mu, centers), _projections(nu, centers)
    f_pp, t, mass, i, j = _pairings(pa, pb, mu.weights, nu.weights, p)
    diff = mu.points[i] - nu.points[j]
    znorm = np.linalg.norm(diff, axis=2)
    f = f_pp ** (1.0 / p)

    if p == 1:
        nonflip = np.abs(t) > steps[:, None] * znorm
        g = np.einsum("rk,rkd->rd", mass * np.sign(t) * nonflip, diff)
        g_tan = g - np.einsum("rd,rd->r", g, centers)[:, None] * centers
        local = np.linalg.norm(g_tan, axis=1) + np.sum(mass * znorm * ~nonflip, axis=1)
        return f, f + steps * local
    dc = np.sum(mass * znorm**p, axis=1) ** (1.0 / p)
    if p == 2:
        ac = np.einsum("rk,rkd->rd", mass * t, diff)
        ac_tan = ac - np.einsum("rd,rd->r", ac, centers)[:, None] * centers
        quad = f_pp + 2.0 * steps * np.linalg.norm(ac_tan, axis=1) + steps**2 * dc**2
        return f, np.sqrt(np.maximum(0.0, quad))
    return f, f + steps * dc


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
    longest side twice and evaluates all centers in vectorized chunks of
    boxes, which keep each chunk's temporaries near ``CHUNK_ELEMENTS``.
    Each patch upper bound is the minimum of two valid cap bounds (step
    bounds the chord from the center to the box): the center pairing's
    bound from ``_patch_bounds`` and the pushed-optimal-coupling estimate
    h(center) + W_p * step. Children inherit it from their parent. The
    lower bound is the best center's exact value as ``_patch_bounds``
    computed it. Works at every d (d = 1 is the trivial two-point sphere);
    the work grows steeply with d, and ``eval_budget`` bounds it.

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
    _check_tol(tol)
    d = mu.dim
    if d == 1:
        v = np.array([1.0])
        w = wasserstein_1d(to_measure1d(mu), to_measure1d(nu), p)
        return DirectionResult(v_star=v, lower=w, upper=w, evaluations=1, mode="certified")
    # Pushing a coupling of the d-dimensional problem through a projection
    # yields a feasible coupling of the projected measures, so
    # h(v) = (sum mass |v . z|^p)^(1/p) >= W_p(mu_v, nu_v) for every v, and h
    # is Lipschitz with the coupling's own cost; for an optimal plan that is
    # the full distance W_p(mu, nu), the tightest choice.
    if plan is None:
        plan = wasserstein_exact(mu, nu, p)
    else:
        _check_plan(plan, mu, nu, p)
    z = mu.points[plan.i] - nu.points[plan.j]
    lipschitz = plan.cost(mu, nu) ** (1.0 / p)

    # the first level: the d whole faces {v_k = 1} of the cube [-1, 1]^d
    lo, hi = 2.0 * np.eye(d) - 1.0, np.ones((d, d))
    inherited = np.full(d, np.inf)
    best_lower, best_v = -math.inf, None
    evals = 0
    gap = 0.995 * tol  # slightly conservative so the final width meets tol strictly
    pruned_ceiling = -math.inf  # sup over discarded patches, always <= best + gap

    # chunks of boxes keep the (boxes, n + m, d) temporaries under the cap
    rows = max(1, CHUNK_ELEMENTS // ((mu.n + nu.n) * d))
    for _ in range(200):
        centers, step = _box_geometry(lo, hi)
        parts = [_patch_bounds(mu, nu, p, centers[s:s + rows], step[s:s + rows])
                 + ((np.abs(centers[s:s + rows] @ z.T) ** p @ plan.mass) ** (1.0 / p),)
                 for s in range(0, centers.shape[0], rows)]
        fc, local_ub, hc = (np.concatenate(a) for a in zip(*parts))
        evals += centers.shape[0]

        k = int(np.argmax(fc))
        if fc[k] > best_lower:
            best_lower, best_v = float(fc[k]), centers[k]

        uppers = np.minimum(inherited, np.minimum(local_ub, hc + lipschitz * step))

        keep = uppers > best_lower + gap
        if np.any(~keep):
            pruned_ceiling = max(pruned_ceiling, float(np.max(uppers[~keep])))
        if not np.any(keep):
            break

        if evals + 4 * int(np.count_nonzero(keep)) > eval_budget:
            partial = DirectionResult(
                v_star=best_v,
                lower=best_lower,
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

    return DirectionResult(
        v_star=best_v,
        lower=best_lower,
        upper=max(pruned_ceiling, best_lower),
        evaluations=evals,
        mode="certified",
    )
