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

from .errors import DimensionMismatch, InvalidOrder, InvalidSpec, SolverFailure
from .measures import DiscreteMeasure, _check_pair, moment_p, rng_stream
from .ot1d import (_no_overflow, _paired_chunks, _projected_powers, _scaled, to_measure1d,
                   wasserstein_1d)
from .ot_exact import TransportPlan, _cost_matrix, _meets_marginals, wasserstein_exact
from .sphere import as_unit, project


@dataclass(frozen=True)
class DirectionResult:
    """A direction with its projected distance and an enclosure bracket.

    ``lower`` is the exact projected distance the search computed at ``v_star``
    (a valid lower bound on the max-sliced distance). ``upper`` is a certified
    global upper bound from :func:`max_sliced_certified`, converged or not;
    from :func:`max_sliced` it is ``math.inf`` at d >= 2, since an ascent
    bounds nothing from above (d = 1 is exact). ``evaluations`` counts
    projected distances: for the ascent, summed over the starts (which run in
    lockstep, each with its own count), one per start plus the ladder
    candidates it evaluated (2 per iteration, 26 when neither of those
    improves); for the certified search one per patch center.
    """

    v_star: np.ndarray
    lower: float
    upper: float
    evaluations: int


def projected_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float, v) -> float:
    """Exact W_p between the projections of mu and nu onto direction v.

    Costs that overflow float64 raise :class:`ProblemTooLarge`.
    """
    v = as_unit(v)
    with _no_overflow():
        return wasserstein_1d(project(mu, v), project(nu, v), p)


def _check_rows(dirs: np.ndarray, d: int) -> None:
    """Reject direction rows that are not an (R, d) array."""
    if dirs.ndim != 2 or dirs.shape[1] != d:
        raise DimensionMismatch(f"direction rows have shape {dirs.shape}, measure has dim {d}")


def _push(w, i, j, mu, nu):
    """Per row r, sum_k w[r, k] (x_{i[r, k]} - y_{j[r, k]}), through the atoms.

    One bincount over row-offset indices adds each segment's weight onto its
    atom, into a (rows, n) and a (rows, m) array, and each row is multiplied
    alone, so its result does not depend on the rows beside it.
    """
    out = []
    for idx, m in ((i, mu), (j, nu)):
        offsets = np.arange(0, idx.shape[0] * m.n, m.n)[:, None]
        a = np.bincount((idx + offsets).ravel(), weights=w.ravel(), minlength=offsets.size * m.n)
        out.append(np.matmul(a.reshape(-1, 1, m.n), m.points)[:, 0])
    return out[0] - out[1]


def _gradients(mu, nu, p, dirs):
    """W_p(mu_v, nu_v)^p and its ambient subgradient for each row v of ``dirs``.

    Each subgradient is assembled from the row's monotone coupling:
    sum mass * p * |v.(x_i - y_j)|^(p-1) * sign(v.(x_i - y_j)) * (x_i - y_j).
    At directions with ties in the projected sort order this is one valid
    choice among several. The sums run row by row (``_push``), so the other
    rows of the batch reach a row's result only through its projection, which
    may round otherwise for another chunk row count (``ot1d._projections``).
    """
    value, grad = np.empty(dirs.shape[0]), np.empty(dirs.shape)
    for c, pairing in _paired_chunks(mu, nu, p, dirs):
        value[c], t, mass, i, j = pairing
        grad[c] = _push(mass * p * np.abs(t) ** (p - 1.0) * np.sign(t), i, j, mu, nu)
    return value, grad


def projected_cost_gradient(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float, v):
    """Value and ambient subgradient of v -> W_p(mu_v, nu_v)^p at one direction v.

    The one-row case of the ascent's batched gradient. v need not be a unit
    vector; measures of different dimension or a v that is not a vector of
    length ``mu.dim`` raise :class:`DimensionMismatch`, an order below 1 or
    not finite :class:`InvalidOrder`, costs that overflow float64
    :class:`ProblemTooLarge`.
    """
    _check_pair(mu, nu, p)
    v = np.asarray(v, dtype=float)[None]
    _check_rows(v, mu.dim)
    with _no_overflow():
        value, grad = _gradients(mu, nu, p, v)
    return float(value[0]), grad[0]


_LADDER = 26  # the normalized gradient, then 25 halving tangent steps


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[r] @ b[r]`` for each row, rounded as that one-vector product (a BLAS dot) rounds it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``sqrt(_row_dots(a, a))``, with no overflow in the squares."""
    return _scaled(lambda s: np.sqrt(_row_dots(s, s)), a)


def _ascent(mu, nu, p, starts, max_iters):
    """Backtracking subgradient ascent from each row of ``starts``, in lockstep.

    Returns (directions, W_p^p, evals), one entry per start, each as if the
    start ran alone wherever its projections round alike in batches of any
    row count (``ot1d._projections``). A start's ladder is the normalized
    gradient (the eta -> inf limit), then v + eta0 2^-k tangent, normalized,
    for k = 0..24; it moves to the first candidate in ladder order that
    beats val + 1e-14 (1 + |val|), and stops when its gradient is 0, when
    none does, or after ``max_iters`` iterations. An iteration evaluates
    candidates 0-1 of every live start in one batch, 2-25 in a second only
    for the starts where neither improved, and the gradients of the starts
    that moved in a third. All starts run in one block, whose (starts, 26, d)
    ladder grows by 26 * d * 8 bytes per start; the batches of directions
    chunk themselves. ``evals`` counts a start and each candidate
    evaluated for it. Start rows must be finite, nonzero and of length
    ``mu.dim`` (:class:`DimensionMismatch`).
    """
    v = np.asarray(starts, dtype=float)
    d = mu.dim
    _check_rows(v, d)
    norms = _row_norms(v)
    if not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise DimensionMismatch("direction must be a finite nonzero vector")
    v = v / norms[:, None]
    with np.errstate(over="ignore"):  # L only sizes the steps: if it overflows they are 0
        L = moment_p(mu, p) + moment_p(nu, p)
    etas = (0.5 / max(L, 1e-300)) * 0.5 ** np.arange(_LADDER - 1.0)
    evals = np.ones(v.shape[0], dtype=np.int64)
    live = np.arange(v.shape[0])
    val, grad = _gradients(mu, nu, p, v)
    for it in range(max_iters):
        gnorm = _row_norms(grad)
        moving = gnorm > 0.0
        live, grad, gnorm, u = live[moving], grad[moving], gnorm[moving], v[live[moving]]
        if not live.size:
            break
        tangent = grad - _row_dots(grad, u)[:, None] * u
        steps = u[:, None] + etas[:, None] * tangent[:, None]
        ladder = np.empty((live.size, _LADDER, d))
        ladder[:, 0] = grad / gnorm[:, None]
        ladder[:, 1:] = steps / np.linalg.norm(steps, axis=2, keepdims=True)
        # a start whose tangent is 0 has the normalized gradient alone
        size = np.where(np.any(tangent != 0.0, axis=1), _LADDER, 1)
        bar = val[live] + 1e-14 * (1.0 + np.abs(val[live]))
        cand = np.full((live.size, _LADDER), -np.inf)
        # value-only sorts: through _pairings the 24-row tails need index sorts, twice the time
        head = np.arange(2) < size[:, None]
        cand[:, :2][head] = _projected_powers(mu, nu, p, ladder[:, :2][head])
        tail = (size > 2) & ~np.any(cand[:, :2] > bar[:, None], axis=1)
        if np.any(tail):
            tails = _projected_powers(mu, nu, p, ladder[tail, 2:].reshape(-1, d))
            cand[tail, 2:] = tails.reshape(-1, _LADDER - 2)
        evals[live] += np.minimum(size, 2) + (_LADDER - 2) * tail
        better = cand > bar[:, None]
        rows = np.flatnonzero(np.any(better, axis=1))
        k = np.argmax(better[rows], axis=1)
        live = live[rows]
        v[live], val[live] = ladder[rows, k], cand[rows, k]
        if not live.size or it + 1 == max_iters:
            break
        _, grad = _gradients(mu, nu, p, v[live])
    return v, val, evals


def _one_direction(mu, nu, p) -> DirectionResult:
    """The d = 1 answer: S^0 is {1, -1} and the objective is even, so W_p is exact."""
    with _no_overflow():
        w = wasserstein_1d(to_measure1d(mu), to_measure1d(nu), p)
    return DirectionResult(v_star=np.array([1.0]), lower=w, upper=w, evaluations=1)


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

    The one-start case of the lockstep ascent that :func:`max_sliced` runs.
    The objective is nondecreasing over accepted steps; the returned value
    is the p-th root of the W_p^p the ascent computed at the direction. A v0
    that is not a finite nonzero vector of length ``mu.dim`` raises
    :class:`DimensionMismatch`, costs that overflow float64 :class:`ProblemTooLarge`.
    """
    _check_pair(mu, nu, p)
    with _no_overflow():
        v, val, _ = _ascent(mu, nu, p, np.asarray(v0, dtype=float)[None], max_iters)
    return v[0], val[0] ** (1.0 / p)


def max_sliced(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float,
    starts: int = 8,
    seed: int = 0,
) -> DirectionResult:
    """Best of ``starts`` ascent runs plus the d axis directions.

    The objective is even in v, so -e_k would retrace e_k. The d + ``starts``
    ascents run in lockstep (:func:`_ascent`), each with its own steps,
    iteration count and stop; ``lower`` is the best W_p^p one of them
    computed (the first such start), to the power 1/p. ``evaluations`` sums
    one projected distance per start and the ladder candidates each of its
    iterations evaluated: the first 2 of its (up to 26) directions, plus the
    other 24 when neither of those improves. At d >= 2 ``upper`` is ``math.inf``.
    Costs that overflow float64 raise :class:`ProblemTooLarge`.
    """
    _check_pair(mu, nu, p)
    _check_starts(starts)
    d = mu.dim
    if d == 1:
        return _one_direction(mu, nu, p)

    raw = rng_stream(seed, 0xA5).standard_normal((starts, d))
    inits = np.vstack([np.eye(d), raw / np.linalg.norm(raw, axis=1, keepdims=True)])
    with _no_overflow():
        v, val, evals = _ascent(mu, nu, p, inits, max_iters=100)
    k = int(np.argmax(val))
    lower = float(val[k]) ** (1.0 / p)
    return DirectionResult(v_star=v[k], lower=lower, upper=math.inf, evaluations=int(evals.sum()))

# ---------------------------------------------------------------------------
# Certified branch-and-bound
# ---------------------------------------------------------------------------


def _check_plan(plan: TransportPlan, mu, nu, p) -> None:
    """Reject a plan that is not a coupling of (mu, nu) for order p, to ``_meets_marginals``."""
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
        or not _meets_marginals(a, b, mu.weights, nu.weights)
    ):
        raise InvalidSpec("plan marginals do not match the measure weights")


def _patch_bounds(mu, nu, p, pairing, centers, steps, dist):
    """Exact center distances and certified cap bounds for each patch.

    Works on ``pairing``, each center's fixed monotone pairing as
    ``_paired_chunks`` yields it: its pushforward is a feasible coupling of
    the projections at every direction, with equality at the center, so any
    valid sup bound on h(v)^p = sum mass |v . z|^p over the cap of chord
    ``steps`` bounds the distance itself. h is Lipschitz with the pairing's
    own cost dc = (sum mass |z|^p)^(1/p), which gives the cap f + step * dc
    for every order; each |z| is read from ``dist``, the (n, m) matrix of
    |x_i - y_j|. For p = 1 and 2 the pairing's tangent gradient (``_push``)
    replaces dc with a local slope that vanishes at a smooth maximizer,
    never above f + step * dc.
    """
    f_pp, t, mass, i, j = pairing
    znorm = np.take(dist, np.ravel_multi_index((i, j), dist.shape))
    f = f_pp ** (1.0 / p)

    if p == 1:
        nonflip = np.abs(t) > steps[:, None] * znorm
        np.sign(t, out=t)
        t *= nonflip
    elif p != 2:
        return f, f + steps * np.sum(mass * znorm**p, axis=1) ** (1.0 / p)
    g = _push(t * mass, i, j, mu, nu)
    g -= np.einsum("rd,rd->r", g, centers)[:, None] * centers
    slope = _scaled(lambda s: np.linalg.norm(s, axis=1), g)
    if p == 1:
        return f, f + steps * (slope + np.sum(mass * znorm * ~nonflip, axis=1))
    dc = np.sum(mass * znorm**p, axis=1) ** (1.0 / p)
    return f, np.sqrt(np.maximum(0.0, f_pp + 2.0 * steps * slope + steps**2 * dc**2))


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
    longest side twice and evaluates all centers in one ``_paired_chunks``
    sweep; the (n, m) distance matrix that ``_patch_bounds`` reads is made once.
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
    from the weights by more than 4 eps (n + m) raise :class:`InvalidSpec`.
    When it is None the search solves the plan itself.

    ``evaluations`` counts exact projected distances, one per patch center;
    no ascent runs. The first level is always evaluated; before each split,
    if the next level would take ``evaluations`` past ``eval_budget``, the
    search stops and returns the bracket it holds, its upper raised to the
    live boxes' bounds. Either way the bracket is certified; a width
    ``upper - lower`` above ``tol`` tells that the budget stopped it.
    """
    _check_pair(mu, nu, p)
    _check_tol(tol)
    d = mu.dim
    if d == 1:
        return _one_direction(mu, nu, p)
    # the pushed plan gives h(v) = (sum mass |v . z|^p)^(1/p) >= W_p(mu_v, nu_v) at
    # every v, Lipschitz with the plan's own cost W_p(mu, nu), the least a coupling has
    if plan is None:
        plan = wasserstein_exact(mu, nu, p)
    else:
        _check_plan(plan, mu, nu, p)
    z = mu.points[plan.i] - nu.points[plan.j]
    dist = _cost_matrix(mu.points, nu.points, 1.0)
    lipschitz = plan.cost(mu, nu) ** (1.0 / p)

    # the first level: the d whole faces {v_k = 1} of the cube [-1, 1]^d
    lo, hi = 2.0 * np.eye(d) - 1.0, np.ones((d, d))
    inherited = np.full(d, np.inf)
    best_lower, best_v = -math.inf, None
    evals = 0
    gap = 0.995 * tol  # slightly conservative so the final width meets tol strictly
    ceiling = -math.inf  # sup over unsplit patches, <= best + gap unless the budget stops

    for _ in range(200):
        centers, step = _box_geometry(lo, hi)
        fc, local_ub, hc = np.empty((3, centers.shape[0]))
        for c, pairing in _paired_chunks(mu, nu, p, centers):
            fc[c], local_ub[c] = _patch_bounds(mu, nu, p, pairing, centers[c], step[c], dist)
            hc[c] = (np.abs(centers[c] @ z.T) ** p @ plan.mass) ** (1.0 / p)
        evals += centers.shape[0]

        k = int(np.argmax(fc))
        if fc[k] > best_lower:
            best_lower, best_v = float(fc[k]), centers[k]

        uppers = np.minimum(inherited, np.minimum(local_ub, hc + lipschitz * step))

        keep = uppers > best_lower + gap
        if evals + 4 * int(np.count_nonzero(keep)) > eval_budget:
            keep[:] = False  # the budget stops the search: no box is split further
        if np.any(~keep):
            ceiling = max(ceiling, float(np.max(uppers[~keep])))
        if not np.any(keep):
            break
        lo, hi = _halve(*_halve(lo[keep], hi[keep]))
        inherited = np.tile(uppers[keep], 4)
    else:
        raise SolverFailure("certified search failed to converge in 200 levels")

    return DirectionResult(v_star=best_v, lower=best_lower, upper=max(ceiling, best_lower),
                           evaluations=evals)
