"""Exact W_p on R^d for discrete measures via a dense transportation solve.

The core solver is a primal transportation simplex on the dense bipartite
graph: a monotone-staircase start (the quantile merge of :mod:`otslice.ot1d`
on the lexicographically sorted atoms), duals that a pivot updates only on
the subtree it re-hangs (Bonneel et al., SIGGRAPH Asia 2011), and
most-negative-reduced-cost entering steps that fall back to the provably
finite lowest-index lexicographic rule if degeneracy drags on. Tolerances
are relative to the largest cost, so results do not depend on the units of
the points. Every solve ends with a complementary-slackness, marginal and
strong-duality audit; anything suspicious raises :class:`SolverFailure`.

Equal-size uniform-weight instances route to a cubic-time assignment solve
(`scipy.optimize.linear_sum_assignment`), which is what makes the n ~ 1000
rate experiments tractable.

Costs are |x - y|^p with the Euclidean norm; the p-th root is applied only
when reporting, never inside the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ProblemTooLarge, SolverFailure
from .measures import WEIGHT_SUM_TOL, DiscreteMeasure, _check_pair
from .ot1d import _equal_uniform, _merge_cum

# Dense cost-matrix size guard.
MAX_DENSE_CELLS = 50_000_000
# Most-negative-reduced-cost pivots on an n x m instance before the
# lowest-index rule takes over: per row or column, plus a fixed number.
_DANTZIG_PIVOTS = (30, 200)


@dataclass(frozen=True)
class TransportPlan:
    """Sparse optimal coupling certifying a primal value.

    ``primal_value`` is the p-th root of the total cost; triples are sorted
    lexicographically by (i, j) and carry strictly positive mass.
    """

    i: np.ndarray
    j: np.ndarray
    mass: np.ndarray
    primal_value: float
    order: float
    source_size: int
    target_size: int

    def source_marginal(self) -> np.ndarray:
        return np.bincount(self.i, weights=self.mass, minlength=self.source_size)

    def target_marginal(self) -> np.ndarray:
        return np.bincount(self.j, weights=self.mass, minlength=self.target_size)

    def cost(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """Recompute sum mass * |x_i - y_j|^p from the triples."""
        gaps = np.linalg.norm(mu.points[self.i] - nu.points[self.j], axis=1)
        return float(np.sum(self.mass * gaps**self.order))


@dataclass(frozen=True)
class DualCertificate:
    """Kantorovich potentials on the two supports, for p = 1.

    Feasibility: f_i + g_j <= |x_i - y_j| for every support pair. The gauge
    freedom (f + c, g - c) is fixed by anchoring f at the first atom of mu.
    """

    f: np.ndarray
    g: np.ndarray
    dual_value: float

    def feasibility_margin(self, cost: np.ndarray) -> float:
        """Largest violation of f_i + g_j <= cost_ij (negative if feasible)."""
        return float(np.max(self.f[:, None] + self.g[None, :] - cost))


def _staircase(a: np.ndarray, b: np.ndarray) -> dict:
    """Start basis: the monotone staircase of the two weight vectors.

    One :func:`_merge_cum` row on the cumulative weights steps through n + m
    cells from (0, 0) to (n - 1, m - 1), zeros included; clipping at the end
    repeats one cell, whose mass joins the cell it repeats. Cells of
    zero-weight atoms are set to 0, dropping the rounding that the snapped
    end of a cumulative sum can leave on them.
    """
    mass, i, j = (r[0] for r in _merge_cum(np.cumsum(a)[None], np.cumsum(b)[None]))
    rep = int(np.flatnonzero((np.diff(i) == 0) & (np.diff(j) == 0))[0]) + 1
    mass[rep - 1] += mass[rep]
    mass[(a[i] == 0.0) | (b[j] == 0.0)] = 0.0
    keep = np.arange(mass.shape[0]) != rep
    return dict(zip(zip(i[keep].tolist(), j[keep].tolist()), mass[keep].tolist()))


def _hang(adj, pot, parent, depth, top):
    """Set duals, parents and depths below ``top`` from its own; returns the nodes reached."""
    order = [top]
    # the list grows while it is read; past len(pot) nodes the cells hold a cycle
    for k in islice(order, len(pot)):
        pk, uk, dk = parent[k], pot[k], depth[k] + 1
        for node, c in adj[k].items():
            if node != pk:
                pot[node] = c - uk
                parent[node] = k
                depth[node] = dk
                order.append(node)
    return len(order)


def _cycle_path(parent, depth, ei, ej, n):
    """Cells on the tree path from row ei to column ej, and how many lie on ei's parent chain."""
    up, down = [ei], [n + ej]
    while depth[up[-1]] > depth[down[-1]]:
        up.append(parent[up[-1]])
    while depth[down[-1]] > depth[up[-1]]:
        down.append(parent[down[-1]])
    while up[-1] != down[-1]:
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    nodes = up + down[-2::-1]
    return [(x, y - n) if x < n else (y, x - n) for x, y in zip(nodes, nodes[1:])], len(up) - 1


def _transportation_simplex(C, a, b):
    """Optimal basic solution of min <C, X> s.t. marginals (a, b).

    Returns the basic cells as index arrays (i, j), their masses, the total
    cost and the duals (u, v). Deterministic: ties in entering and leaving
    arcs break toward the lexicographically smallest cell. Tolerances scale
    with the largest cost, so the certificate does not depend on units.
    """
    n, m = C.shape
    X = _staircase(a, b)
    cscale = float(np.max(C)) or 1.0
    etol = 1e-11 * cscale
    per_node, fixed = _DANTZIG_PIVOTS
    dantzig_limit = per_node * (n + m) + fixed
    total_limit = dantzig_limit + 300 * (n + m) + 2000
    adj = [{} for _ in range(n + m)]  # tree neighbour -> cost of the cell between
    for i, j in X:
        adj[i][n + j] = adj[n + j][i] = float(C[i, j])
    # duals solve u_i + v_j = c_ij on the tree, anchored at u_0 = 0; node ids
    # are rows 0..n-1 and columns n..n+m-1
    pot, parent, depth = [0.0] * (n + m), [-1] * (n + m), [0] * (n + m)
    if _hang(adj, pot, parent, depth, 0) != n + m:
        raise SolverFailure("basis does not span the bipartite graph")

    it = 0
    while True:
        duals = np.array(pot)
        rc = C - duals[:n, None]
        rc -= duals[n:]
        if it < dantzig_limit:
            flat = int(np.argmin(rc))  # first minimum in row-major = lex smallest
            ei, ej = divmod(flat, m)
            if rc[ei, ej] >= -etol:
                break
        else:
            # lexicographic (Bland-style) rule: provably finite under degeneracy
            neg = np.flatnonzero(rc.reshape(-1) < -etol)
            if neg.size == 0:
                break
            ei, ej = divmod(int(neg[0]), m)
        if it >= total_limit:
            raise SolverFailure(f"pivot limit {total_limit} exceeded on {n}x{m} instance")

        path, below_ei = _cycle_path(parent, depth, ei, ej, n)
        minus = path[0::2]
        plus = path[1::2]
        theta = min(X[c] for c in minus)
        leaving = min(c for c in minus if X[c] == theta)
        X[(ei, ej)] = theta
        for c in plus:
            X[c] += theta
        for c in minus:
            X[c] = max(0.0, X[c] - theta)
        del X[leaving]
        adj[ei][n + ej] = adj[n + ej][ei] = float(C[ei, ej])
        li, lj = leaving
        del adj[li][n + lj], adj[n + lj][li]
        # the leaving cell cuts off the subtree holding the entering cell's end
        # on its side of the cycle; re-hang that subtree from the other end
        q, r = (ei, n + ej) if path.index(leaving) < below_ei else (n + ej, ei)
        parent[q], depth[q], pot[q] = r, depth[r] + 1, adj[q][r] - pot[r]
        _hang(adj, pot, parent, depth, q)
        it += 1

    # certify before returning
    if float(np.min(rc)) < -1e-9 * cscale:
        raise SolverFailure("negative reduced cost at claimed optimum")
    ci, cj = np.array(list(X), dtype=np.intp).T
    mass = np.fromiter(X.values(), dtype=float, count=len(X))
    row_sum = np.bincount(ci, weights=mass, minlength=n)
    col_sum = np.bincount(cj, weights=mass, minlength=m)
    if (np.max(np.abs(row_sum - a)) > WEIGHT_SUM_TOL
            or np.max(np.abs(col_sum - b)) > WEIGHT_SUM_TOL):
        raise SolverFailure("marginal mismatch at claimed optimum")
    u, v = duals[:n], duals[n:]
    cost = float(mass @ C[ci, cj])
    dual = float(a @ u + b @ v)
    if abs(cost - dual) > 1e-7 * max(min(1.0, cscale), abs(cost)):
        raise SolverFailure("strong-duality check failed at claimed optimum")
    return ci, cj, mass, cost, u, v


def _cost_matrix(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    if len(x) * len(y) > MAX_DENSE_CELLS:
        raise ProblemTooLarge(f"{len(x)} x {len(y)} cost matrix exceeds the dense guard")
    D = cdist(x, y)
    return D if p == 1 else D**p


def _lex_order(points: np.ndarray) -> np.ndarray:
    return np.lexsort(points.T[::-1])


def _solve_simplex(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float):
    """Simplex solve on lexicographically sorted supports.

    Sorting makes the staircase start the monotone coupling, which for 1D
    supports is already optimal (the solver still certifies this via
    reduced costs); results are mapped back to the original atom order.
    Returns (i, j, mass in original indices, u, v, total cost).
    """
    oa = _lex_order(mu.points)
    ob = _lex_order(nu.points)
    C = _cost_matrix(mu.points[oa], nu.points[ob], p)
    i, j, mass, cost, u_s, v_s = _transportation_simplex(C, mu.weights[oa], nu.weights[ob])
    u = np.empty(mu.n)
    v = np.empty(nu.n)
    u[oa] = u_s
    v[ob] = v_s
    return oa[i], ob[j], mass, u, v, cost


def _exact(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float):
    """Plan of :func:`wasserstein_exact` and simplex duals [u, v] (None on the assignment path)."""
    _check_pair(mu, nu, p)
    n, m = mu.n, nu.n
    duals = None
    if _equal_uniform(mu.weights, nu.weights):
        C = _cost_matrix(mu.points, nu.points, p)
        # imported here: scipy.optimize is slow to load and only this branch needs it
        from scipy.optimize import linear_sum_assignment
        i = np.arange(n)
        j = linear_sum_assignment(C)[1]
        mass = np.full(n, 1.0 / n)
        cost = float(C[i, j].sum() / n)
    else:
        i, j, mass, *duals, cost = _solve_simplex(mu, nu, p)
        keep = mass > 0.0
        order = np.lexsort((j[keep], i[keep]))
        i, j, mass = i[keep][order], j[keep][order], mass[keep][order]
    return TransportPlan(
        i=i, j=j, mass=mass, primal_value=cost ** (1.0 / p), order=p,
        source_size=n, target_size=m,
    ), duals


def wasserstein_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> TransportPlan:
    """Optimal transport plan for cost |x - y|^p between two discrete measures."""
    return _exact(mu, nu, p)[0]


def dual_potentials_w1(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DualCertificate:
    """Optimal Kantorovich potentials for p = 1 from the simplex tree duals."""
    _check_pair(mu, nu, 1.0)
    return _certificate(mu, nu, *_solve_simplex(mu, nu, 1.0)[3:5])


def _certificate(mu: DiscreteMeasure, nu: DiscreteMeasure, u, v) -> DualCertificate:
    f = u - u[0]
    g = v + u[0]
    dual_value = float(mu.weights @ f + nu.weights @ g)
    return DualCertificate(f=f, g=g, dual_value=dual_value)


def duality_gap(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """|primal - dual| for p = 1; small by strong LP duality, else the solver lied."""
    _check_pair(mu, nu, 1.0)
    _, _, _, u, v, primal = _solve_simplex(mu, nu, 1.0)
    dual = float(mu.weights @ u + nu.weights @ v)
    return abs(primal - dual)
