import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from torusvar.functionals import RhoPair, normalized_density
from torusvar.geometry import CurveSystem, FlatTorus, GridField, Point
from torusvar.joins import JoinElement
from torusvar.joins import test_function as peak_pair
from torusvar.measures import (
    BarycenterMeasure,
    DiscreteMeasure,
    concentration_alternative,
    covering_merge,
    covering_thresholds,
    detect_spread,
    distance_to_barycenters,
    kr_distance,
    kr_transport,
    push_forward,
    spread_mass_floor,
)
from torusvar.measures import _ball_kernel, _greedy_ball_centers, _k_median_cost, _voronoi_weights


def reference_distance(torus: FlatTorus, a, b) -> float:
    """Plain 9-image enumeration, written independently of the package's
    minimum-image reduction."""
    return min(np.hypot(a[0] - b[0] + m1 * torus.L1, a[1] - b[1] + m2 * torus.L2)
               for m1 in (-1, 0, 1) for m2 in (-1, 0, 1))


def reference_lp(torus: FlatTorus, w_a, pts_a, w_b, pts_b) -> float:
    """Dense transportation LP assembled from first principles."""
    m, n = len(pts_a), len(pts_b)
    cost = np.array([[min(reference_distance(torus, a, b), 2.0) for b in pts_b]
                     for a in pts_a])
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([w_a, w_b])
    result = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq[:-1],
                     bounds=(0, None), method="highs")
    assert result.status == 0
    return float(result.fun)


def atomic(torus: FlatTorus, weights, coords) -> BarycenterMeasure:
    pts = [torus.point(*c) for c in coords]
    return BarycenterMeasure.of(weights, pts)


def route(out) -> tuple:
    """The swap-invariant part of a transport result: value, route and bound."""
    return out.distance, out.method, out.error_bound


def bump_density(torus: FlatTorus, center: Point, lam: float = 60.0) -> DiscreteMeasure:
    d = torus.distance_field(center)
    return DiscreteMeasure(torus, 1.0 / (1.0 + lam**2 * d**2) ** 2).normalized()


class TestDiscreteMeasure:
    def test_rejects_genuinely_negative_density(self, torus32):
        with pytest.raises(ValueError):
            DiscreteMeasure(torus32, -np.ones((32, 32)))

    def test_clips_roundoff_negatives(self, torus32):
        density = np.full((32, 32), 1.0)
        density[0, 0] = -1e-13
        measure = DiscreteMeasure(torus32, density)
        assert measure.density.min() == 0.0

    def test_uniform_has_unit_mass(self, torus32):
        assert DiscreteMeasure.uniform(torus32).mass() == pytest.approx(1.0)


class TestBarycenterMeasure:
    def test_prunes_zero_atoms(self, torus32):
        sigma = BarycenterMeasure.of([0.5, 0.0, 0.5],
                                     [Point(0.1, 0.1), Point(0.2, 0.2), Point(0.3, 0.3)],
                                     capacity=3)
        assert len(sigma.atoms) == 2

    def test_rejects_excess_atoms(self):
        with pytest.raises(ValueError):
            BarycenterMeasure.of([0.5, 0.5], [Point(0.1, 0.1), Point(0.2, 0.2)],
                                 capacity=1)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            BarycenterMeasure.of([0.5, 0.4], [Point(0.1, 0.1), Point(0.2, 0.2)])


class TestPushForward:
    def test_freezes_vertical_coordinate(self, torus32):
        curves = CurveSystem(0.25, 0.75)
        sigma = atomic(torus32, [0.5, 0.5], [(0.1, 0.6), (0.4, 0.9)])
        out = push_forward(sigma, curves, 1)
        assert all(p.x2 == 0.25 for _, p in out.atoms)

    def test_merges_atoms_that_collide(self, torus32):
        curves = CurveSystem(0.25, 0.75)
        sigma = atomic(torus32, [0.5, 0.5], [(0.1, 0.6), (0.1, 0.9)])
        out = push_forward(sigma, curves, 1)
        assert len(out.atoms) == 1
        assert out.atoms[0][0] == pytest.approx(1.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_contracts_transport_distance(self, seed):
        # retracting both measures onto a circle never increases the distance
        torus = FlatTorus(16)
        curves = CurveSystem(0.25, 0.75)
        rng = np.random.default_rng(seed)
        def rand_measure():
            k = rng.integers(1, 4)
            w = rng.dirichlet(np.ones(k))
            return atomic(torus, w, rng.uniform(0, 1, (k, 2)))
        mu, nu = rand_measure(), rand_measure()
        before = kr_transport(mu, nu, torus=torus).distance
        after = kr_transport(push_forward(mu, curves, 1), push_forward(nu, curves, 1),
                             torus=torus).distance
        assert after <= before + 1e-9


class TestKrTransport:
    def test_mass_mismatch_raises(self, torus32):
        mu = atomic(torus32, [1.0], [(0.1, 0.1)])
        nu = DiscreteMeasure(torus32, np.full((32, 32), 2.0))
        with pytest.raises(ValueError):
            kr_transport(mu, nu)

    def test_single_atom_pair_equals_distance(self, torus32):
        mu = atomic(torus32, [1.0], [(0.1, 0.2)])
        nu = atomic(torus32, [1.0], [(0.7, 0.9)])
        out = kr_transport(mu, nu, torus=torus32)
        assert out.method == "closed-form"
        assert out.distance == pytest.approx(
            reference_distance(torus32, (0.1, 0.2), (0.7, 0.9)), abs=1e-14)
        assert out.error_bound == 0.0

    def test_symmetry_is_bit_exact(self, torus32):
        mu = atomic(torus32, [0.3, 0.7], [(0.05, 0.15), (0.8, 0.45)])
        nu = atomic(torus32, [0.2, 0.5, 0.3], [(0.3, 0.3), (0.6, 0.1), (0.9, 0.9)])
        assert (kr_transport(mu, nu, torus=torus32).distance
                == kr_transport(nu, mu, torus=torus32).distance)

    def test_grid_delta_pair_matches_node_distance(self, torus32):
        p, q = Point(0.25, 0.5), Point(0.75, 0.125)
        mu = DiscreteMeasure.grid_delta(torus32, p)
        nu = DiscreteMeasure.grid_delta(torus32, q)
        assert kr_transport(mu, nu).distance == pytest.approx(
            torus32.distance(p, q), abs=1e-14)

    def test_small_instances_match_reference_lp(self, torus32):
        rng = np.random.default_rng(8)
        for trial in range(25):
            ka, kb = rng.integers(2, 5, 2)
            wa, wb = rng.dirichlet(np.ones(ka)), rng.dirichlet(np.ones(kb))
            pa, pb = rng.uniform(0, 1, (ka, 2)), rng.uniform(0, 1, (kb, 2))
            mine = kr_transport(atomic(torus32, wa, pa), atomic(torus32, wb, pb),
                                torus=torus32)
            assert mine.method == "lp"
            expected = reference_lp(torus32, wa, pa, wb, pb)
            assert mine.distance == pytest.approx(expected, abs=1e-9)

    def test_dense_self_distance_is_an_exact_zero(self):
        torus = FlatTorus(16)  # 256 support points a side: the full LP
        f = bump_density(torus, Point(0.5, 0.5), lam=3.0)
        assert route(kr_transport(f, f)) == (0.0, "lp", 0.0)

    def test_plans_past_the_entry_limit_are_refused(self):
        torus = FlatTorus(128)  # 16384 x 16384 entries
        f = bump_density(torus, Point(0.3, 0.4), lam=3.0)
        g = bump_density(torus, Point(0.7, 0.2), lam=3.0)
        with pytest.raises(ValueError, match="16384 and 16384"):
            kr_transport(f, g)

    @pytest.mark.parametrize("n, atoms, options, method, bound", [
        (16, 2, {}, "lp", 0.0),
        # one side is a single atom: no size limit applies
        (128, 1, {}, "closed-form", 0.0),
        # 4096 x 2 plan entries: well inside the LP's entry limit
        (64, 2, {}, "lp", 0.0),
    ])
    def test_each_route_pins_method_bound_and_swap(self, n, atoms, options, method, bound):
        torus = FlatTorus(n)
        f = bump_density(torus, Point(0.3, 0.4), lam=8.0)
        sigma = atomic(torus, [1.0 / atoms] * atoms,
                       [(0.2 + 0.5 * i, 0.6) for i in range(atoms)])
        forward = route(kr_transport(f, sigma, **options))
        assert forward[1:] == (method, bound)
        assert route(kr_transport(sigma, f, **options)) == forward

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality_on_atomic_triples(self, seed):
        torus = FlatTorus(16)
        rng = np.random.default_rng(seed)
        def rand_measure():
            k = rng.integers(1, 4)
            return atomic(torus, rng.dirichlet(np.ones(k)), rng.uniform(0, 1, (k, 2)))
        mu, nu, pi = (rand_measure() for _ in range(3))
        d = lambda a, b: kr_transport(a, b, torus=torus).distance
        assert d(mu, nu) <= d(mu, pi) + d(pi, nu) + 1e-9

    def test_kr_distance_is_the_plain_number(self, torus32):
        mu = atomic(torus32, [1.0], [(0.2, 0.2)])
        nu = atomic(torus32, [1.0], [(0.2, 0.7)])
        assert kr_distance(mu, nu) == pytest.approx(0.5, abs=1e-12)


class TestNormalizeExp:
    def test_matches_hand_rolled_density(self, torus32):
        rng = np.random.default_rng(9)
        h = torus32.field(1.0 + 0.5 * rng.random((32, 32)))
        u = torus32.field(rng.standard_normal((32, 32)))
        f = DiscreteMeasure.from_field(normalized_density(u, h))
        raw = h.values * np.exp(u.values)
        assert np.allclose(f.density, raw / (raw.sum() * torus32.cell_area), atol=1e-12)
        assert f.mass() == pytest.approx(1.0, abs=1e-12)


class TestDistanceToBarycenters:
    def test_single_atom_oracle_by_exhaustion(self, torus32):
        f = bump_density(torus32, Point(0.4, 0.6), lam=20.0)
        dist, sigma = distance_to_barycenters(f, 1)
        best = np.inf
        for i in range(32):
            for j in range(32):
                z = torus32.node_point(i, j)
                cost = float((torus32.distance_field(z) * f.density).sum()
                             * torus32.cell_area)
                best = min(best, cost)
        assert dist == pytest.approx(best, abs=1e-6)
        assert len(sigma.atoms) == 1

    def test_recovers_an_isolated_peak(self, torus32):
        center = torus32.snap(Point(0.4, 0.6))
        f = bump_density(torus32, center, lam=40.0)
        _, sigma = distance_to_barycenters(f, 1)
        assert torus32.distance(sigma.atoms[0][1], center) <= torus32.max_spacing

    def test_monotone_in_the_atom_budget(self, torus32):
        f = DiscreteMeasure(
            torus32,
            bump_density(torus32, Point(0.2, 0.3), lam=25.0).density
            + bump_density(torus32, Point(0.7, 0.8), lam=25.0).density).normalized()
        dists = [distance_to_barycenters(f, k)[0] for k in (1, 2, 3)]
        assert dists[1] <= dists[0] + 1e-12
        assert dists[2] <= dists[1] + 1e-12

    def test_two_bumps_need_two_atoms(self, torus32):
        f = DiscreteMeasure(
            torus32,
            bump_density(torus32, Point(0.25, 0.25), lam=40.0).density
            + bump_density(torus32, Point(0.75, 0.75), lam=40.0).density).normalized()
        d1, _ = distance_to_barycenters(f, 1)
        d2, sigma2 = distance_to_barycenters(f, 2)
        assert d2 < d1 / 4
        assert len(sigma2.atoms) == 2

    def test_rejects_bad_budget(self, torus32):
        with pytest.raises(ValueError):
            distance_to_barycenters(DiscreteMeasure.uniform(torus32), 0)

    def test_distance_keeps_the_cost_cap_on_a_long_torus(self):
        # diameter above 2: the ground cost min(d, 2) binds
        torus = FlatTorus(64, 5.0, 0.2)
        f = DiscreteMeasure.uniform(torus)
        dist, sigma = distance_to_barycenters(f, 1)
        assert dist == pytest.approx(kr_transport(f, sigma).distance, rel=1e-12)

    def test_two_atom_distance_equals_an_uncoarsened_lp(self):
        # 6400 support points: an LP over every grid node, assembled
        # independently, checks both the projection and the transport LP
        torus = FlatTorus(80)
        f = DiscreteMeasure(
            torus,
            bump_density(torus, Point(0.25, 0.3), lam=25.0).density
            + 0.6 * bump_density(torus, Point(0.7, 0.75), lam=40.0).density).normalized()
        dist, sigma = distance_to_barycenters(f, 2)
        assert len(sigma.atoms) == 2
        expected = dense_to_atoms_lp(f, sigma)
        assert dist == pytest.approx(expected, rel=1e-9)
        out = kr_transport(f, sigma)
        assert out.method == "lp"
        assert out.distance == pytest.approx(expected, rel=1e-9)


def full_recompute_search(mu: DiscreteMeasure, k: int) -> tuple[float, BarycenterMeasure]:
    """The k-median local search with every trial scored from scratch by
    `_k_median_cost`, one distance field per center per trial, and every atom
    budget seeded by its own greedy capture."""
    torus = mu.torus
    h1, h2 = torus.spacing
    best_cost = np.inf
    best_centers: list[Point] = []
    for budget in range(1, k + 1):
        centers = _greedy_ball_centers(mu, budget, radius=2.0 * torus.max_spacing)
        if not centers:
            continue
        cost = _k_median_cost(mu, centers)
        moved = True
        guard = 0
        while moved and guard < 200:
            moved = False
            guard += 1
            for idx, z in enumerate(centers):
                for di, dj in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
                    trial = centers.copy()
                    trial[idx] = torus.point(z.x1 + di * h1, z.x2 + dj * h2)
                    c = _k_median_cost(mu, trial)
                    if c < cost - 1e-15:
                        centers, cost = trial, c
                        z = centers[idx]
                        moved = True
        if cost < best_cost:
            best_cost, best_centers = cost, centers
    weights = _voronoi_weights(mu, best_centers)
    total = weights.sum()
    sigma = BarycenterMeasure(tuple((w / total, z) for w, z in zip(weights, best_centers)
                                    if w > 0), k)
    return best_cost, sigma


# the third torus's spacings are not dyadic, so trial coordinates drift off-node
SEARCH_TORI = (FlatTorus(32), FlatTorus(32, 2.0, 0.5), FlatTorus(40, np.sqrt(2.0), 1.0 / np.sqrt(2.0)))
SEARCH_IDS = ("square", "oblong", "irrational")
bumps = st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                           st.floats(0.0, 1.0, exclude_max=True),
                           st.floats(8.0, 60.0), st.floats(0.2, 1.0)),
                 min_size=1, max_size=3)


class TestIncrementalSearch:
    @settings(max_examples=100, deadline=None)
    @given(torus_index=st.sampled_from(range(len(SEARCH_TORI))), spec=bumps,
           k=st.sampled_from((1, 2, 3)))
    def test_matches_the_full_recompute_search_bit_for_bit(self, torus_index, spec, k):
        torus = SEARCH_TORI[torus_index]
        density = sum(w * bump_density(torus, Point(u1 * torus.L1, u2 * torus.L2), lam).density
                      for u1, u2, lam, w in spec)
        mu = DiscreteMeasure(torus, density).normalized()
        cost, sigma = distance_to_barycenters(mu, k)
        expected_cost, expected_sigma = full_recompute_search(mu, k)
        assert cost == expected_cost
        assert sigma == expected_sigma

    @pytest.mark.parametrize("torus", SEARCH_TORI, ids=SEARCH_IDS)
    def test_matches_the_per_budget_seeding_when_the_capture_runs_out(self, torus):
        # two occupied nodes: the greedy capture takes all mass in two rounds,
        # so budgets 3 and 4 get no further seeds
        density = np.zeros((torus.n, torus.n))
        density[3, 5], density[20, 17] = 2.0, 1.0
        mu = DiscreteMeasure(torus, density).normalized()
        radius = 2.0 * torus.max_spacing
        assert len(_greedy_ball_centers(mu, 4, radius)) == 2
        cost, sigma = distance_to_barycenters(mu, 4)
        expected_cost, expected_sigma = full_recompute_search(mu, 4)
        assert cost == expected_cost
        assert sigma == expected_sigma

    @settings(max_examples=50, deadline=None)
    @given(torus_index=st.sampled_from(range(len(SEARCH_TORI))), spec=bumps,
           k=st.integers(1, 5))
    def test_greedy_seeds_of_a_smaller_budget_are_a_prefix(self, torus_index, spec, k):
        torus = SEARCH_TORI[torus_index]
        density = sum(w * bump_density(torus, Point(u1 * torus.L1, u2 * torus.L2), lam).density
                      for u1, u2, lam, w in spec)
        mu = DiscreteMeasure(torus, density).normalized()
        radius = 2.0 * torus.max_spacing
        seeds = _greedy_ball_centers(mu, k, radius)
        for budget in range(1, k + 1):
            assert _greedy_ball_centers(mu, budget, radius) == seeds[:budget]


def complex_ball_masses(density: np.ndarray, kernel: np.ndarray, cell_area: float) -> np.ndarray:
    """Reference: ball masses by circular convolution on complex FFTs, rounded
    to 12 decimals as in the package."""
    conv = np.fft.ifft2(np.fft.fft2(density) * np.fft.fft2(kernel)).real * cell_area
    return np.round(conv, 12)


def complex_greedy_centers(measure: DiscreteMeasure, rounds: int, radius: float) -> list[Point]:
    """Reference copy of the greedy ball capture on complex-FFT ball masses."""
    torus = measure.torus
    kernel = _ball_kernel(torus, radius)
    density = measure.density.copy()
    centers: list[Point] = []
    for _ in range(rounds):
        if density.sum() * torus.cell_area < 1e-15:
            break
        bm = complex_ball_masses(density, kernel, torus.cell_area)
        i, j = np.unravel_index(int(np.argmax(bm)), bm.shape)
        centers.append(torus.node_point(i, j))
        density[torus.distance_field(centers[-1]) <= radius] = 0.0
    return centers


def complex_spread_points(f: DiscreteMeasure, m: int, eps: float, s: float):
    """Reference copy of `detect_spread` on complex-FFT ball masses."""
    torus = f.torus
    covered = np.zeros((torus.n, torus.n), dtype=bool)
    for z in complex_greedy_centers(f, m, s):
        covered |= torus.distance_field(z) <= s
    if float(f.density[covered].sum() * torus.cell_area) >= 1.0 - eps:
        return None
    bm = complex_ball_masses(f.density, _ball_kernel(torus, s / 4.0), torus.cell_area)
    allowed = np.ones((torus.n, torus.n), dtype=bool)
    points: list[Point] = []
    for _ in range(m):
        i, j = np.unravel_index(int(np.argmax(np.where(allowed, bm, -np.inf))), bm.shape)
        points.append(torus.node_point(i, j))
        allowed &= torus.distance_field(points[-1]) >= 4.0 * (s / 4.0)
        if not allowed.any() and len(points) < m:
            return "too small"
    return points


class TestRealFftBallMasses:
    @settings(max_examples=100, deadline=None)
    @given(torus_index=st.sampled_from(range(len(SEARCH_TORI))), spec=bumps,
           m=st.integers(1, 4), eps=st.floats(0.01, 0.5), s=st.floats(0.05, 0.3))
    def test_picks_the_nodes_of_complex_ffts(self, torus_index, spec, m, eps, s):
        torus = SEARCH_TORI[torus_index]
        density = sum(w * bump_density(torus, Point(u1 * torus.L1, u2 * torus.L2), lam).density
                      for u1, u2, lam, w in spec)
        mu = DiscreteMeasure(torus, density).normalized()
        radius = 2.0 * torus.max_spacing
        assert _greedy_ball_centers(mu, m, radius) == complex_greedy_centers(mu, m, radius)
        try:
            points = detect_spread(mu, m, eps, s)
        except ValueError as exc:
            assert "too small to separate" in str(exc)
            points = "too small"
        assert points == complex_spread_points(mu, m, eps, s)


def dense_to_atoms_lp(f: DiscreteMeasure, sigma: BarycenterMeasure) -> float:
    """Transportation LP from every grid node to the atoms, with no
    coarsening; costs come from the 9-image enumeration."""
    torus = f.torus
    x1, x2 = (g.ravel() for g in torus.grids())
    mass = f.density.ravel() * torus.cell_area
    atoms = sigma.points()
    cost = np.stack([np.min([np.hypot(x1 - a1 + m1 * torus.L1, x2 - a2 + m2 * torus.L2)
                             for m1 in (-1, 0, 1) for m2 in (-1, 0, 1)], axis=0)
                     for a1, a2 in atoms], axis=1)
    m, n = cost.shape
    rows = sparse.kron(sparse.eye(m), np.ones((1, n)), format="csr")
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n), format="csr")
    result = linprog(np.minimum(cost, 2.0).ravel(),
                     A_eq=sparse.vstack([rows, cols[:-1]], format="csr"),
                     b_eq=np.concatenate([mass, sigma.weights()[:-1]]),
                     bounds=(0, None), method="highs")
    assert result.status == 0
    return float(result.fun)


def ball_nodes(torus: FlatTorus, center: Point, radius: float):
    nodes = []
    for i in range(torus.n):
        for j in range(torus.n):
            p = torus.node_point(i, j)
            if torus.distance(center, p) <= radius:
                nodes.append(p)
    return tuple(nodes)


def set_distance(torus: FlatTorus, a, b) -> float:
    return min(torus.distance(p, q) for p in a for q in b)


def set_mass(f: DiscreteMeasure, nodes) -> float:
    total = 0.0
    for p in nodes:
        i, j = f.torus.nearest_node(p)
        total += f.density[i, j]
    return total * f.torus.cell_area


class TestCoveringMerge:
    def build_instance(self, torus):
        centers1 = [Point(0.125, 0.125), Point(0.625, 0.625)]
        centers2 = [Point(0.125, 0.625)]
        radius = 0.06
        omegas1 = [ball_nodes(torus, c, radius) for c in centers1]
        omegas2 = [ball_nodes(torus, c, radius) for c in centers2]
        d1 = sum(bump_density(torus, c, lam=30.0).density for c in centers1)
        d2 = bump_density(torus, centers2[0], lam=30.0).density
        f1 = DiscreteMeasure(torus, d1).normalized()
        f2 = DiscreteMeasure(torus, d2).normalized()
        return omegas1, omegas2, f1, f2

    def test_postconditions_hold_by_remeasurement(self, torus64):
        omegas1, omegas2, f1, f2 = self.build_instance(torus64)
        delta, theta = 0.3, 0.2
        result = covering_merge(omegas1, omegas2, f1, f2, delta, theta)
        assert len(result.sets) == max(len(omegas1), len(omegas2))
        assert result.delta_bar == pytest.approx(delta / 8)
        for a, b in itertools.combinations(result.sets, 2):
            assert set_distance(torus64, a, b) >= result.delta_bar - 1e-12
        for idx in result.component1_indices:
            assert set_mass(f1, result.sets[idx]) >= result.theta_bar - 1e-12
        for idx in result.component2_indices:
            assert set_mass(f2, result.sets[idx]) >= result.theta_bar - 1e-12
        assert len(result.component1_indices) >= len(omegas1)
        assert len(result.component2_indices) >= len(omegas2)

    def test_rejects_families_that_are_too_close(self, torus64):
        omegas1, omegas2, f1, f2 = self.build_instance(torus64)
        with pytest.raises(ValueError, match="family 1"):
            covering_merge([omegas1[0], omegas1[0]], omegas2, f1, f2, 0.3, 0.2)

    def test_rejects_underweight_sets(self, torus64):
        omegas1, omegas2, f1, f2 = self.build_instance(torus64)
        with pytest.raises(ValueError, match="mass"):
            covering_merge(omegas1, omegas2, f1, f2, 0.3, 0.45)

    def test_thresholds_formula(self, torus64):
        delta_bar, theta_bar, count = covering_thresholds(torus64, 0.4, 0.2)
        assert delta_bar == pytest.approx(0.05)
        assert count >= 1
        assert 0 < theta_bar <= 0.2 / count + 1e-15


class TestSpreadDetection:
    def test_concentrated_measure_returns_none(self, torus64):
        f = bump_density(torus64, Point(0.5, 0.5), lam=50.0)
        assert detect_spread(f, m=1, eps=0.2, s=0.2) is None

    def test_uniform_measure_is_spread_with_floor_and_separation(self, torus64):
        f = DiscreteMeasure.uniform(torus64)
        m, eps, s = 2, 0.2, 0.1
        points = detect_spread(f, m=m, eps=eps, s=s)
        assert points is not None and len(points) == m
        floor = spread_mass_floor(torus64, m, eps, s)
        for p, q in itertools.combinations(points, 2):
            assert torus64.distance(p, q) >= s - 1e-12  # radius-s/2 balls disjoint
        for p in points:
            ball = torus64.distance_field(p) <= s / 4
            assert (f.density[ball].sum() * torus64.cell_area) > floor

    def test_rejects_non_probability_input(self, torus64):
        with pytest.raises(ValueError):
            detect_spread(DiscreteMeasure(torus64, np.full((64, 64), 2.0)), 1, 0.1, 0.1)


class TestConcentrationAlternative:
    def make_fields(self, torus, lam):
        zeta = JoinElement(BarycenterMeasure.single(torus.snap(Point(0.5, 0.25))),
                           BarycenterMeasure.single(torus.snap(Point(0.5, 0.75))), 0.0)
        return peak_pair(torus, zeta, lam)

    def test_concentrated_component_is_reported_with_close_atoms(self, torus64):
        u1, u2 = self.make_fields(torus64, 200.0)
        h = torus64.constant_field(1.0)
        eps, s = 0.25, 0.15
        result = concentration_alternative(u1, u2, h, h, k=1, l=1, eps=eps, s=s)
        assert result.component == 1
        assert result.sigma is not None and len(result.sigma.atoms) <= 1
        f1 = DiscreteMeasure.from_field(normalized_density(u1, h))
        reconstruction_gap = kr_transport(f1, result.sigma).distance
        assert reconstruction_gap < 2 * eps + s  # the promised closeness budget

    def test_flat_pair_reports_neither(self, torus64):
        h = torus64.constant_field(1.0)
        zero = torus64.constant_field(0.0)
        result = concentration_alternative(zero, zero, h, h, k=1, l=1, eps=0.1, s=0.1)
        assert result.component == 0
        assert result.centers is None and result.sigma is None
        # the spread witnesses come from the dedicated detector
        spread = detect_spread(DiscreteMeasure.from_field(normalized_density(zero, h)),
                               m=1, eps=0.1, s=0.1)
        assert spread is not None and len(spread) == 1
