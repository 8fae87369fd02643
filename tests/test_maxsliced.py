import itertools
import math

import numpy as np
import pytest

from otslice import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidOrder,
    InvalidSpec,
    Scheme,
    UnsupportedDimension,
    direction_ascent,
    make_discrete,
    max_sliced,
    max_sliced_certified,
    moment_p,
    project,
    projected_cost_gradient,
    projected_distance,
    quadrature_grid,
    sliced_wasserstein,
    to_measure1d,
    wasserstein_1d,
    wasserstein_exact,
)
from otslice import maxsliced
from otslice.maxsliced import _ascent, _box_geometry, _distance_batch, _halve, _patch_bounds
from conftest import random_measure, random_pair


def point_mass(x):
    return make_discrete([list(x)], [1.0])


def grid_max(mu, nu, p, count=100_000):
    theta = np.linspace(0.0, math.pi, count, endpoint=False)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return float(_distance_batch(mu, nu, p, dirs).max())


class TestAscent:
    def test_two_point_masses_converge(self):
        a, b = point_mass((0.0, 0.0)), point_mass((0.6, 0.8))
        v0 = np.array([1.0, 0.2])  # not orthogonal to the gap direction
        v, val = direction_ascent(a, b, 1.0, v0, max_iters=200)
        assert val == pytest.approx(1.0, abs=1e-8)
        assert abs(abs(v @ np.array([0.6, 0.8])) - 1.0) <= 1e-6

    def test_identical_measures(self, rng):
        mu = random_measure(rng, 2)
        _, val = direction_ascent(mu, mu, 2.0, np.array([1.0, 0.0]))
        assert val == 0.0

    def test_objective_nondecreasing_vs_start(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 3, max_atoms=10)
            v0 = rng.standard_normal(3)
            start = projected_distance(mu, nu, 2.0, v0)
            _, val = direction_ascent(mu, nu, 2.0, v0)
            assert val >= start - 1e-12


def serial_ascent(mu, nu, p, v0, max_iters=100):
    """First-improvement reference: try each ladder candidate in turn, stop at the first gain.

    Returns the accepted directions, the final W_p^p and the ladder sizes summed
    (every candidate a batch evaluates, plus the start).
    """
    L = moment_p(mu, p) + moment_p(nu, p)
    eta0 = 0.5 / max(L, 1e-300)
    v = v0 / np.linalg.norm(v0)
    val, grad = projected_cost_gradient(mu, nu, p, v)
    accepted, ladder_total = [], 1
    for _ in range(max_iters):
        tangent = grad - float(grad @ v) * v
        candidates = []
        if np.linalg.norm(grad) > 0.0:
            candidates.append(grad / np.linalg.norm(grad))
        if np.linalg.norm(tangent) > 0.0:
            eta = eta0
            for _ in range(25):
                w = v + eta * tangent
                candidates.append(w / np.linalg.norm(w))
                eta *= 0.5
        ladder_total += len(candidates)
        for cand in candidates:
            cval, cgrad = projected_cost_gradient(mu, nu, p, cand)
            if cval > val + 1e-14 * (1.0 + abs(val)):
                v, val, grad = cand, cval, cgrad
                accepted.append(v)
                break
        else:
            break
    return accepted, val, ladder_total


class TestAscentLadder:
    def pairs(self, rng):
        for k in range(12):
            d = 2 + k % 2
            if k % 3 == 2:
                # integer lattices: projections tie along the axes
                n, m = rng.integers(2, 15, 2)
                yield (make_discrete(rng.integers(-3, 4, (n, d)).astype(float),
                                     rng.dirichlet(np.ones(n))),
                       make_discrete(rng.integers(-3, 4, (m, d)).astype(float),
                                     rng.dirichlet(np.ones(m))))
            else:
                yield random_pair(rng, d, max_atoms=20, weighted=k % 3 == 0)

    def test_batch_picks_the_serial_step(self, rng, monkeypatch):
        gradients_at = []
        original = maxsliced.projected_cost_gradient

        def recording(mu, nu, p, v):
            gradients_at.append(np.array(v))
            return original(mu, nu, p, v)

        monkeypatch.setattr(maxsliced, "projected_cost_gradient", recording)
        runs = 0
        for mu, nu in self.pairs(rng):
            d = mu.dim
            for p in (1.0, 1.5, 2.0):
                for v0 in (np.eye(d)[0], rng.standard_normal(d)):
                    accepted, ref_val, ladder_total = serial_ascent(mu, nu, p, v0)
                    gradients_at.clear()
                    _, val, evals = _ascent(mu, nu, p, v0, max_iters=100)
                    # the batch takes one gradient at the start and one per accepted step
                    steps = gradients_at[1:]
                    assert len(steps) == len(accepted)
                    for got, want in zip(steps, accepted):
                        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
                    assert val == pytest.approx(ref_val, rel=1e-12, abs=1e-300)
                    assert evals == ladder_total
                    runs += 1
        assert runs == 12 * 3 * 2


class TestGradient:
    def test_matches_central_differences(self, rng):
        # nondegenerate directions: ties in the projected order are avoided
        # by nudging v away from any that appear
        checked = 0
        h = 1e-5
        while checked < 20:
            mu, nu = random_pair(rng, 3, max_atoms=8)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            proj = np.concatenate([mu.points @ v, nu.points @ v])
            if np.min(np.abs(np.diff(np.sort(proj)))) < 50 * h:
                continue
            value, grad = projected_cost_gradient(mu, nu, p, v)
            num = np.empty(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fp, _ = projected_cost_gradient(mu, nu, p, v + e)
                fm, _ = projected_cost_gradient(mu, nu, p, v - e)
                num[k] = (fp - fm) / (2 * h)
            scale = max(1.0, float(np.linalg.norm(num)))
            assert np.linalg.norm(grad - num) / scale <= 1e-4
            checked += 1


class TestHeuristic:
    def test_two_point_masses(self):
        a, b = point_mass((1.0, -2.0)), point_mass((3.0, 1.0))
        res = max_sliced(a, b, 1.0, starts=4, seed=0)
        assert res.lower == pytest.approx(math.hypot(2.0, 3.0), abs=1e-8)
        assert res.mode == "heuristic"
        assert res.upper == res.lower

    def test_dominates_axis_projections(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 3, max_atoms=10)
            res = max_sliced(mu, nu, 1.0, starts=4, seed=1)
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1.0
                axis = wasserstein_1d(project(mu, e), project(nu, e), 1.0)
                assert res.lower >= axis - 1e-9

    def test_below_full_distance(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 2, max_atoms=10)
            p = float(rng.choice([1.0, 2.0]))
            res = max_sliced(mu, nu, p, starts=4, seed=2)
            assert res.lower <= wasserstein_exact(mu, nu, p).primal_value + 1e-9

    def test_d1_trivial_sphere(self, rng):
        mu = random_measure(rng, 1)
        nu = random_measure(rng, 1)
        res = max_sliced(mu, nu, 2.0, starts=1, seed=0)
        assert res.lower == wasserstein_1d(to_measure1d(mu), to_measure1d(nu), 2.0)

    def test_v_star_achieves_lower(self, rng):
        mu, nu = random_pair(rng, 3, max_atoms=10)
        res = max_sliced(mu, nu, 2.0, starts=4, seed=3)
        assert projected_distance(mu, nu, 2.0, res.v_star) == pytest.approx(
            res.lower, abs=1e-10
        )


class TestCertified:
    def test_two_point_bracket(self):
        a, b = point_mass((0.2, -0.4)), point_mass((0.8, 0.5))
        res = max_sliced_certified(a, b, 1.0, tol=1e-6)
        gap = math.hypot(0.6, 0.9)
        assert res.lower - 1e-9 <= gap <= res.upper + 1e-9
        assert res.upper - res.lower <= 1e-6
        assert res.mode == "certified"

    def test_identical_measures_bracket(self, rng):
        mu = random_measure(rng, 2)
        res = max_sliced_certified(mu, mu, 2.0, tol=1e-6)
        assert res.lower == 0.0
        assert res.upper <= 1e-6

    def test_brackets_contain_grid_oracle(self, rng):
        for _ in range(10):
            mu, nu = random_pair(rng, 2, max_atoms=12)
            p = float(rng.choice([1.0, 2.0]))
            res = max_sliced_certified(mu, nu, p, tol=1e-6)
            bf = grid_max(mu, nu, p)
            L = moment_p(mu, p) + moment_p(nu, p)
            # the grid can miss the peak by up to L * (half grid step)
            assert res.lower - L * (math.pi / 100_000) <= bf <= res.upper + 1e-9

    def test_d3_brackets_contain_fibonacci_oracle(self, rng):
        dirs = quadrature_grid(3, 100_000).directions  # Fibonacci spiral
        for p in (1.0, 2.0):
            for _ in range(4):
                mu, nu = random_pair(rng, 3, max_atoms=10)
                res = max_sliced_certified(mu, nu, p, tol=1e-5)
                bf = float(_distance_batch(mu, nu, p, dirs).max())
                L = moment_p(mu, p) + moment_p(nu, p)
                # the grid misses v_star (or -v_star) by at most this chord
                v = res.v_star
                mesh = min(
                    np.linalg.norm(dirs - v, axis=1).min(),
                    np.linalg.norm(dirs + v, axis=1).min(),
                )
                assert res.lower - L * mesh <= bf <= res.upper + 1e-9
                assert res.upper - res.lower <= 1e-5

    def test_lower_below_full_distance(self, rng):
        for d in (2, 3):
            for _ in range(5):
                mu, nu = random_pair(rng, d, max_atoms=10)
                res = max_sliced_certified(mu, nu, 1.0, tol=1e-4)
                w = wasserstein_exact(mu, nu, 1.0).primal_value
                assert res.lower <= w + 1e-9
                assert res.upper >= res.lower

    def test_certified_dominates_heuristic(self, rng):
        for _ in range(5):
            mu, nu = random_pair(rng, 2, max_atoms=10)
            cert = max_sliced_certified(mu, nu, 2.0, tol=1e-5)
            heur = max_sliced(mu, nu, 2.0, starts=8, seed=4)
            assert cert.upper >= heur.lower - 1e-9

    def test_d1_exact(self, rng):
        mu = random_measure(rng, 1)
        nu = random_measure(rng, 1)
        res = max_sliced_certified(mu, nu, 1.0, tol=1e-9)
        assert res.lower == res.upper
        assert res.lower == wasserstein_1d(to_measure1d(mu), to_measure1d(nu), 1.0)

    def test_non_finite_order_and_tol(self, rng):
        # inf and NaN used to pass the p < 1 and tol <= 0 checks; a NaN tol
        # gave a "certified" bracket of any width
        mu, nu = random_pair(rng, 2, max_atoms=6)
        for p in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidOrder):
                max_sliced_certified(mu, nu, p, tol=1e-3)
            with pytest.raises(InvalidOrder):
                max_sliced(mu, nu, p)
            with pytest.raises(InvalidOrder):
                projected_distance(mu, nu, p, np.array([1.0, 0.0]))
        with pytest.raises(InvalidOrder):
            max_sliced_certified(mu, nu, 1.0, tol=math.nan)

    def test_unsupported_dimension(self, rng):
        mu, nu = random_pair(rng, 4, max_atoms=6)
        with pytest.raises(UnsupportedDimension):
            max_sliced_certified(mu, nu, 1.0, tol=1e-3)

    def test_budget_exceeded_carries_partial(self, rng):
        mu, nu = random_pair(rng, 3, max_atoms=10)
        with pytest.raises(BudgetExceeded) as exc_info:
            max_sliced_certified(mu, nu, 1.0, tol=1e-10, eval_budget=200)
        partial = exc_info.value.result
        assert partial is not None
        assert partial.lower <= partial.upper
        assert partial.mode == "certified"

    def test_budget_below_first_level(self, rng):
        for d in (2, 3):
            mu, nu = random_pair(rng, d, max_atoms=10)
            with pytest.raises(BudgetExceeded) as exc_info:
                max_sliced_certified(mu, nu, 2.0, tol=1e-4, eval_budget=2)
            partial = exc_info.value.result
            assert partial.v_star.shape == (d,)
            assert np.all(np.isfinite(partial.v_star))
            assert partial.lower == projected_distance(mu, nu, 2.0, partial.v_star)
            assert partial.lower <= partial.upper
            assert partial.evaluations == d

    def test_plan_reuse_matches_own_solve(self, rng):
        for d in (2, 3):
            for p in (1.0, 1.5, 2.0):
                mu, nu = random_pair(rng, d, max_atoms=10)
                a = max_sliced_certified(mu, nu, p, tol=1e-4, plan=wasserstein_exact(mu, nu, p))
                b = max_sliced_certified(mu, nu, p, tol=1e-4)
                assert np.array_equal(a.v_star, b.v_star)
                assert (a.lower, a.upper, a.evaluations, a.mode) == (
                    b.lower, b.upper, b.evaluations, b.mode
                )

    def test_mismatched_plan_rejected(self, rng):
        mu = random_measure(rng, 2, max_atoms=6)
        nu = make_discrete(rng.standard_normal((mu.n + 2, 2)), rng.dirichlet(np.ones(mu.n + 2)))
        with pytest.raises(InvalidSpec):
            max_sliced_certified(mu, nu, 2.0, tol=1e-4, plan=wasserstein_exact(mu, nu, 1.0))
        with pytest.raises(DimensionMismatch):
            max_sliced_certified(mu, nu, 2.0, tol=1e-4, plan=wasserstein_exact(nu, mu, 2.0))
        # same sizes, other weights: only the marginals tell the pair apart
        other = make_discrete(mu.points, rng.dirichlet(np.ones(mu.n)))
        with pytest.raises(InvalidSpec):
            max_sliced_certified(mu, other, 2.0, tol=1e-4, plan=wasserstein_exact(other, mu, 2.0))

    def test_distinct_measures_positive(self, rng):
        for _ in range(5):
            mu, nu = random_pair(rng, 2, max_atoms=8)
            res = max_sliced_certified(mu, nu, 1.0, tol=1e-5)
            assert res.lower > 0.0  # distinct random clouds always separate

    def test_tiny_upper_implies_equal_axis_projections(self, rng):
        # same measure under two representations: an atom split in half
        mu = random_measure(rng, 2, max_atoms=6)
        pts = np.vstack([mu.points, mu.points[:1]])
        w = np.concatenate([mu.weights, [0.0]])
        w[0] /= 2.0
        w[-1] = w[0]
        nu = make_discrete(pts, w)
        res = max_sliced_certified(mu, nu, 1.0, tol=1e-8)
        assert res.upper < 1e-8
        for e in np.eye(2):
            gap = wasserstein_1d(project(mu, e), project(nu, e), 1.0)
            assert gap <= 1e-9


class TestPatchBounds:
    def test_weighted_centers_equal_distance_batch(self, rng):
        for d in (2, 3):
            for n, m in ((1, 6), (9, 14), (17, 11)):
                pts_a = np.round(rng.standard_normal((n, d)), 1)
                pts_b = np.round(rng.standard_normal((m, d)), 1)
                wa = rng.dirichlet(np.ones(n))
                wb = rng.dirichlet(np.ones(m))
                if n > 2:
                    pts_a[1] = pts_a[0]
                    wa[2] = 0.0
                    wa /= wa.sum()
                mu, nu = make_discrete(pts_a, wa), make_discrete(pts_b, wb)
                centers = rng.standard_normal((50, d))
                centers[:d] = np.eye(d)  # axis directions tie the rounded atoms
                centers /= np.linalg.norm(centers, axis=1, keepdims=True)
                steps = rng.uniform(0.0, 0.2, 50)
                for p in (1.0, 1.5, 2.0):
                    f, ub = _patch_bounds(mu, nu, p, centers, steps, 10.0)
                    assert np.array_equal(f, _distance_batch(mu, nu, p, centers))
                    assert np.all(ub >= f)


def random_face_boxes(rng, d, count):
    """Boxes [lo, hi] inside the faces {v_k = 1} of the cube, k cycling over 0..d-1."""
    face = np.arange(count) % d
    ends = np.sort(rng.uniform(-1.0, 1.0, (count, d, 2)), axis=2)
    lo, hi = ends[..., 0], ends[..., 1]
    lo[np.arange(count), face] = 1.0
    hi[np.arange(count), face] = 1.0
    return face, lo, hi


class TestBoxGeometry:
    def test_chord_covers_box_directions(self, rng):
        for d in (2, 3):
            _, lo, hi = random_face_boxes(rng, d, 60)
            # whole faces and boxes off the axis, where the least norm exceeds 1
            lo[:d], hi[:d] = 2.0 * np.eye(d) - 1.0, np.ones((d, d))
            centers, steps = _box_geometry(lo, hi)
            assert np.allclose(np.linalg.norm(centers, axis=1), 1.0)
            corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
            for c, s, a, b in zip(centers, steps, lo, hi):
                pts = np.vstack([a + corners * (b - a), a + rng.uniform(size=(200, d)) * (b - a)])
                dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
                assert np.max(np.linalg.norm(dirs - c, axis=1)) <= s + 1e-12

    def test_two_halvings_tile_parent(self, rng):
        for d in (2, 3):
            face, lo, hi = random_face_boxes(rng, d, 40)
            clo, chi = _halve(*_halve(lo, hi))
            assert clo.shape == (4 * 40, d)
            plo, phi = np.tile(lo, (4, 1)), np.tile(hi, (4, 1))
            assert np.all(clo >= plo) and np.all(chi <= phi) and np.all(clo <= chi)
            assert np.all(chi - clo <= phi - plo)
            rows = np.tile(np.arange(40), 4)
            assert np.all(clo[rows, np.tile(face, 4)] == 1.0)

            def volume(a, b, f):
                widths = b - a
                widths[np.arange(len(f)), f] = 1.0
                return np.prod(widths, axis=1)

            child = volume(clo, chi, np.tile(face, 4)).reshape(4, 40).sum(axis=0)
            assert np.allclose(child, volume(lo, hi, face), rtol=1e-12, atol=0.0)

    def test_square_face_splits_into_quadrants(self):
        lo, hi = _halve(*_halve(np.array([[-1.0, -1.0, 1.0]]), np.ones((1, 3))))
        quads = {(tuple(a[:2]), tuple(b[:2])) for a, b in zip(lo, hi)}
        assert quads == {
            ((-1.0, -1.0), (0.0, 0.0)), ((0.0, -1.0), (1.0, 0.0)),
            ((-1.0, 0.0), (0.0, 1.0)), ((0.0, 0.0), (1.0, 1.0)),
        }

    def test_first_level_covers_sphere_up_to_sign(self, rng):
        for d in (2, 3):
            lo, hi = 2.0 * np.eye(d) - 1.0, np.ones((d, d))
            v = rng.standard_normal((5000, d))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            k = np.argmax(np.abs(v), axis=1)
            x = v / v[np.arange(len(v)), k][:, None]  # the signed v on face k
            assert np.all((lo[k] <= x) & (x <= hi[k]))
            assert np.allclose(x / np.linalg.norm(x, axis=1, keepdims=True),
                               v * np.sign(v[np.arange(len(v)), k])[:, None])


class TestSandwich:
    def test_chain_with_sliced_and_full(self, rng):
        for d in (2, 3):
            for _ in range(8):
                mu, nu = random_pair(rng, d, max_atoms=10)
                p = float(rng.choice([1.0, 2.0]))
                cert = max_sliced_certified(mu, nu, p, tol=1e-4)
                res = 2048 if d == 2 else 8192
                sw = sliced_wasserstein(mu, nu, p, Scheme.quadrature(res), normalized=True)
                w = wasserstein_exact(mu, nu, p).primal_value
                assert sw.value <= cert.upper + 1e-3  # quadrature slack
                assert cert.lower <= w + 1e-9

    def test_sqrt_d_ratio_can_exceed_for_max_sliced(self):
        # W_2 <= sqrt(d) * maxSW_2 holds for the subspace-robust (inf-sup)
        # quantity but NOT for the max-sliced (sup-inf) metric: this frozen
        # instance has a rigorous ratio W_2 / maxSW_2_upper > sqrt(3).
        # Verified independently: full W_2 and the projected 1D value both
        # reproduce under a dense-LP solver; a 2e6-direction grid and 500
        # ascent restarts agree with the certified bracket.
        mu = make_discrete(_CE_MU_POINTS, _CE_MU_WEIGHTS)
        nu = make_discrete(_CE_NU_POINTS, _CE_NU_WEIGHTS)
        cert = max_sliced_certified(mu, nu, 2.0, tol=1e-5)
        w = wasserstein_exact(mu, nu, 2.0).primal_value
        assert w == pytest.approx(1.2821600349377138, rel=1e-9)
        assert cert.upper == pytest.approx(0.72576, abs=5e-4)
        assert w / cert.upper > math.sqrt(3) * (1.0 + 1e-3)


_CE_MU_POINTS = [
    [-1.3258723666881693, 0.4267405017311268, 0.3581254480412572],
    [-0.6598440421299452, -0.5586169936597816, -1.093405474806862],
    [-0.9894196144989964, -0.3479788820664245, -0.06012042750126488],
    [0.8732174075665686, 0.5613303996435267, -0.5457805445492988],
    [0.8097528238742074, -1.9486359745985573, -0.3929869104035927],
    [0.4826859939822945, 1.4741208618445958, -1.6445230276621392],
    [-1.2079064814818765, -0.4991405569808023, -1.5713257032487187],
    [-0.04745187076638793, 0.25963026908314096, -0.2690300925532661],
    [-0.8837856311005597, 1.8751841695015485, 1.5750578559633508],
    [0.3046682601289299, 1.4664767952041904, -0.7931273699000598],
]
_CE_MU_WEIGHTS = [
    0.057356968880708355, 0.045640683570217104, 0.10596158301444386, 0.17564162524896654,
    0.09171591938073849, 0.04623722496240696, 0.0543954029870597, 0.2692222531652308,
    0.09388575851797899, 0.059942580272249225,
]
_CE_NU_POINTS = [
    [0.42109296809531144, 0.0675027264041967, -0.6297565751870867],
    [-2.8555211668904388, 0.3188637707333827, 0.0029582766718437635],
    [-0.1161525671821342, -0.39725480618262765, 1.8845818284840155],
    [-0.08672774762331203, -0.08163858117365687, -0.0034375463199796223],
    [-1.0720781510380688, -0.5364197001623904, -0.34425995847746044],
    [0.3167639100769005, 0.5982864231822282, -0.7553040280098665],
    [1.0568181132060246, -2.3900877811963137, 1.5139097918565758],
    [0.6582662605589961, 0.8262739773412575, 0.13927932541063118],
]
_CE_NU_WEIGHTS = [
    0.19263713684186484, 0.06439817905595324, 0.039205478018974754, 0.2736142611758478,
    0.10943583048646238, 0.009340297334624784, 0.05951275550975101, 0.2518560615765212,
]
