"""Max-sliced Wasserstein: heuristic ascent lower bounds and certified brackets.

The objective v -> W_p(mu_v, nu_v) is Lipschitz on the sphere with constant
L = M_p(mu) + M_p(nu) and attains its maximum. Two engines:

* ``max_sliced``: multi-start projected subgradient ascent on W_p^p (the
  monotone coupling supplies an exact subgradient wherever the projected
  sort order is locally stable). Every reported value is an exact 1D
  evaluation, hence a valid lower bound.
* ``max_sliced_certified``: branch-and-bound over sphere patches (angle
  intervals for d = 2, spherical triangles for d = 3). Each patch upper
  bound combines the Lipschitz estimate f(center) + L * diam with a second
  valid bound obtained by pushing one fixed optimal coupling of the full
  d-dimensional problem through the projection: that bound collapses to 0
  for equal measures, which is what lets brackets on near-identical inputs
  close instead of tiling the whole sphere at mesh tol / L.

The objective is even in v, so the search domain is half the sphere.
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
from .measures import DiscreteMeasure, moment_p, rng_stream
from .ot1d import (
    _monotone_rows,
    _segments,
    to_measure1d,
    wasserstein_1d,
    wasserstein_pp_batch,
)
from .ot_exact import TransportPlan, wasserstein_exact
from .sphere import as_unit, project


@dataclass(frozen=True)
class DirectionResult:
    """A direction with its projected distance and an enclosure bracket.

    ``lower`` is the exact projected distance at ``v_star`` (a valid lower
    bound on the max-sliced distance); ``upper`` equals ``lower`` in
    heuristic mode and is a certified global upper bound in certified mode.
    """

    v_star: np.ndarray
    lower: float
    upper: float
    evaluations: int
    mode: str


def _check_inputs(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> None:
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dim {mu.dim} vs {nu.dim}")
    if p < 1:
        raise InvalidOrder(f"order must satisfy p >= 1, got {p}")


def _monotone_pairs(mu, nu, v, with_indices=False):
    """Monotone-coupling masses and projected gaps along direction v.

    Returns (mass, gap) or (mass, gap, i, j) with i, j original atom indices.
    """
    px = mu.points @ v
    py = nu.points @ v
    n, m = px.shape[0], py.shape[0]
    ox = np.argsort(px, kind="stable")
    oy = np.argsort(py, kind="stable")
    if n == m and np.all(mu.weights == mu.weights[0]) and np.all(nu.weights == nu.weights[0]):
        mass = np.full(n, 1.0 / n)
        i, j = ox, oy
    else:
        cx = np.cumsum(mu.weights[ox])
        cy = np.cumsum(nu.weights[oy])
        cx[-1] = 1.0
        cy[-1] = 1.0
        mass, si, sj = _segments(cx, cy)
        # rounding can push cx or cy past 1 before its snapped last entry
        si = np.minimum(si, n - 1)
        sj = np.minimum(sj, m - 1)
        keep = mass > 0.0
        mass, i, j = mass[keep], ox[si[keep]], oy[sj[keep]]
    gap = px[i] - py[j]
    if with_indices:
        return mass, gap, i, j
    return mass, gap


def projected_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float, v) -> float:
    """Exact W_p between the projections of mu and nu onto direction v."""
    v = as_unit(v)
    return wasserstein_1d(project(mu, v), project(nu, v), p)


def _objective_pp(mu, nu, p, v) -> float:
    mass, gap = _monotone_pairs(mu, nu, v)
    return float(np.sum(mass * np.abs(gap) ** p))


def projected_cost_gradient(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float, v):
    """Value and ambient subgradient of v -> W_p(mu_v, nu_v)^p.

    The subgradient is assembled from one monotone coupling:
    sum mass * p * |v.(x_i - y_j)|^(p-1) * sign(v.(x_i - y_j)) * (x_i - y_j).
    At directions with ties in the projected sort order this is one valid
    choice among several.
    """
    v = np.asarray(v, dtype=float)
    mass, gap, i, j = _monotone_pairs(mu, nu, v, with_indices=True)
    value = float(np.sum(mass * np.abs(gap) ** p))
    coeff = mass * p * np.abs(gap) ** (p - 1.0) * np.sign(gap)
    grad = coeff @ (mu.points[i] - nu.points[j])
    return value, grad


def _ascent(mu, nu, p, v0, max_iters):
    """Backtracking subgradient ascent; returns (best v, best W_p^p, evals)."""
    L = moment_p(mu, p) + moment_p(nu, p)
    eta0 = 0.5 / max(L, 1e-300)
    v = as_unit(v0)
    val, grad = projected_cost_gradient(mu, nu, p, v)
    evals = 1
    for _ in range(max_iters):
        tangent = grad - float(grad @ v) * v
        candidates = []
        gnorm = float(np.linalg.norm(grad))
        if gnorm > 0.0:
            candidates.append(grad / gnorm)  # the eta -> inf limit of the update
        if float(np.linalg.norm(tangent)) > 0.0:
            eta = eta0
            for _ in range(25):
                w = v + eta * tangent
                candidates.append(w / np.linalg.norm(w))
                eta *= 0.5
        improved = False
        for cand in candidates:
            cval = _objective_pp(mu, nu, p, cand)
            evals += 1
            if cval > val + 1e-14 * (1.0 + abs(val)):
                v, val = cand, cval
                _, grad = projected_cost_gradient(mu, nu, p, v)
                improved = True
                break
        if not improved:
            break
    return v, val, evals


def direction_ascent(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    v0,
    max_iters: int = 100,
    step_rule: str = "backtracking",
):
    """Local search from v0; returns (direction, exact projected distance).

    The objective is nondecreasing over accepted steps; the returned value
    is re-evaluated through the exact quantile path.
    """
    _check_inputs(mu, nu, p)
    if step_rule != "backtracking":
        raise InvalidOrder(f"unknown step rule {step_rule!r}")
    v, _, _ = _ascent(mu, nu, p, v0, max_iters)
    return v, projected_distance(mu, nu, p, v)


def max_sliced(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    starts: int = 8,
    seed: int = 0,
) -> DirectionResult:
    """Best of ``starts`` ascent runs plus the 2d signed axis directions."""
    _check_inputs(mu, nu, p)
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
    pa = (mu.points @ dirs.T).T
    pb = (nu.points @ dirs.T).T
    return wasserstein_pp_batch(pa, pb, mu.weights, nu.weights, p) ** (1.0 / p)


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
    pa = (mu.points @ centers.T).T
    pb = (nu.points @ centers.T).T
    R, n = pa.shape
    m = pb.shape[1]

    uniform = (
        n == m
        and np.all(mu.weights == mu.weights[0])
        and np.all(nu.weights == nu.weights[0])
    )
    if uniform:
        i = np.argsort(pa, axis=1, kind="stable")
        j = np.argsort(pb, axis=1, kind="stable")
        mass = np.full((R, n), 1.0 / n)
    else:
        mass, i, j = _monotone_rows(pa, pb, mu.weights, nu.weights)
    t = np.take_along_axis(pa, i, axis=1) - np.take_along_axis(pb, j, axis=1)
    diff = mu.points[i] - nu.points[j]
    znorm = np.linalg.norm(diff, axis=2)
    return _local_patch_bound(p, centers, steps, mass, t, diff, znorm, lipschitz)


def _triangle_geometry(verts: np.ndarray):
    """Centers and geodesic radii for a stack of spherical triangles (P, 3, d)."""
    centers = verts.sum(axis=1)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    cos = np.clip(np.einsum("pkd,pd->pk", verts, centers), -1.0, 1.0)
    radii = np.max(np.arccos(cos), axis=1)
    return centers, radii


def _split_triangles(verts: np.ndarray) -> np.ndarray:
    """Subdivide each spherical triangle into 4 via normalized edge midpoints."""
    v0, v1, v2 = verts[:, 0], verts[:, 1], verts[:, 2]

    def mid(a, b):
        m = a + b
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    m01, m12, m02 = mid(v0, v1), mid(v1, v2), mid(v0, v2)
    children = np.concatenate(
        [
            np.stack([v0, m01, m02], axis=1),
            np.stack([v1, m01, m12], axis=1),
            np.stack([v2, m02, m12], axis=1),
            np.stack([m01, m12, m02], axis=1),
        ]
    )
    return children


def max_sliced_certified(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    tol: float,
    eval_budget: int = 2_000_000,
    plan: TransportPlan | None = None,
) -> DirectionResult:
    """Certified bracket [lower, upper] containing the max-sliced distance.

    Level-synchronous branch-and-bound: all surviving patches split at once
    and their centers are evaluated in one vectorized sweep. Each patch
    upper bound is the minimum of three valid cap bounds (the global
    Lipschitz estimate f(center) + L * step, the pushed-optimal-coupling
    estimate h(center) + W_p * step, and the center pairing's local-slope
    bound; step = chord of the patch radius), inherited downward from the
    parent. The lower bound starts from the d axis directions, evaluated
    exactly in one batch, and only ever rises to an exactly evaluated patch
    center. Supports d in {1, 2, 3} (d = 1 is the trivial two-point
    sphere).

    ``plan`` is an optimal plan of (mu, nu) for order p that the caller has
    already solved (``wasserstein_exact``); it feeds the coupling bound in
    place of a second solve. It is checked first: sizes that do not match
    raise :class:`DimensionMismatch`, another order or marginals that differ
    from the weights by more than 1e-9 raise :class:`InvalidSpec`. When it is
    None the search solves the plan itself.

    ``evaluations`` counts exact projected distances: the d axis directions
    plus every patch center. No ascent runs, so it holds no ascent
    evaluations. Raises :class:`BudgetExceeded` with the best
    bracket attached if the evaluation cap is hit first.
    """
    _check_inputs(mu, nu, p)
    if tol <= 0:
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

    axes = np.eye(d)
    axis_values = _distance_batch(mu, nu, p, axes)
    k = int(np.argmax(axis_values))
    best_lower, best_v = float(axis_values[k]), axes[k]
    evals = d
    gap = 0.995 * tol  # slightly conservative so the final width meets tol strictly
    pruned_ceiling = -math.inf  # sup over discarded patches, always <= best + gap

    # the objective is even in v, so half the sphere suffices
    if d == 2:
        lo = np.array([0.0, 0.25, 0.5, 0.75]) * math.pi
        hi = lo + 0.25 * math.pi
        patches = (lo, hi)
        inherited = np.full(4, np.inf)
    else:
        e = np.eye(3)
        patches = np.stack(
            [
                np.stack([sx * e[0], sy * e[1], e[2]])
                for sx in (1.0, -1.0)
                for sy in (1.0, -1.0)
            ]
        )
        inherited = np.full(4, np.inf)

    for _ in range(200):
        if d == 2:
            lo, hi = patches
            theta = 0.5 * (lo + hi)
            centers = np.column_stack([np.cos(theta), np.sin(theta)])
            radii = (hi - lo) / 2.0
        else:
            centers, radii = _triangle_geometry(patches)

        if evals + centers.shape[0] > eval_budget:
            partial = DirectionResult(
                v_star=best_v,
                lower=projected_distance(mu, nu, p, best_v),
                upper=max(float(np.max(inherited)), pruned_ceiling, best_lower),
                evaluations=evals,
                mode="certified",
            )
            raise BudgetExceeded(
                f"evaluation budget {eval_budget} hit before reaching tol {tol:.3e}",
                result=partial,
            )

        step = 2.0 * np.sin(np.minimum(radii, math.pi) / 2.0)
        fc, local_ub = _patch_bounds(mu, nu, p, centers, step, L)
        hc = bound.value_batch(centers)
        evals += centers.shape[0]

        k = int(np.argmax(fc))
        if fc[k] > best_lower:
            best_lower, best_v = float(fc[k]), centers[k]

        uppers = np.minimum(inherited, np.minimum(local_ub, hc + bound.lipschitz * step))

        active_max = float(np.max(uppers))
        if max(active_max, pruned_ceiling) <= best_lower + gap:
            pruned_ceiling = max(pruned_ceiling, active_max)
            break

        keep = uppers > best_lower + gap
        if np.any(~keep):
            pruned_ceiling = max(pruned_ceiling, float(np.max(uppers[~keep])))
        if not np.any(keep):
            break

        if d == 2:
            klo, khi, kup = lo[keep], hi[keep], uppers[keep]
            mid = 0.5 * (klo + khi)
            patches = (
                np.concatenate([klo, mid]),
                np.concatenate([mid, khi]),
            )
            inherited = np.concatenate([kup, kup])
        else:
            patches = _split_triangles(patches[keep])
            inherited = np.tile(uppers[keep], 4)
    else:
        raise SolverFailure("certified search failed to converge in 200 levels")

    lower = projected_distance(mu, nu, p, best_v)
    upper = max(pruned_ceiling, lower) if pruned_ceiling > -math.inf else lower
    return DirectionResult(
        v_star=best_v,
        lower=lower,
        upper=upper,
        evaluations=evals,
        mode="certified",
    )
