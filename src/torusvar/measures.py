"""Probability measures on the torus and the Kantorovich-Rubinstein distance.

Two representations coexist: `DiscreteMeasure` (a non-negative density on the
grid) and `BarycenterMeasure` (an atomic measure with at most `capacity`
atoms).  The distance is the transport (Wasserstein-1) distance with ground
cost min(d(x, y), 2), which agrees with the dual formulation over functions
with max(sup norm, Lipschitz seminorm) <= 1; the cap binds only on tori whose
diameter exceeds 2 (period ratio above about 16).

Every distance is exact.  A side with a single support point z gives the
closed form sum_i m_i min(d(x_i, z), 2), a side with two a fractional
knapsack, neither with a size limit; a pair of sides of three or more points
is solved as a sparse linear program over the full transport plan, which is
refused (ValueError) when the plan has more than `LP_ENTRY_LIMIT` entries.

The module also carries the constructive covering/merging and
spread-detection routines used to decide whether a density is concentrated
near at most k points, and a projection of densities onto atomic measures.
The projection's distance is the k-median cost of its Voronoi-weighted atoms:
exact for the returned measure, an upper bound for the k-atom set.  Its local
search walks on node indices, one center at a time, against the running
minimum of the cap and the other centers' distance fields; every center's
field is a view of one cached origin field (`FlatTorus.node_distance_field`),
so a trial allocates nothing and the walk never drifts off the nodes.  Atom
budgets are searched from k down, and the one-center walk is skipped when a
larger budget already costs less than its floor, the least one-center cost
over nodes (one convolution on real FFTs) less a margin: the walk visits
nodes and its cost is 1-Lipschitz in the center, so it could not win.  Every
distance comes from `geometry`: node fields from
`FlatTorus.node_distance_field`, other fields from `FlatTorus.distance_field`,
point-set distances from `FlatTorus.pairwise_distance`.  So does every FFT
(`to_spectrum`, `from_spectrum`, on `numpy.fft`; each kernel's half spectrum
is built once per torus and radius); scipy serves only the transport LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .functionals import normalized_density
from .geometry import CurveSystem, FlatTorus, GridField, Point, from_spectrum, to_spectrum

MASS_TOLERANCE = 1e-9
LP_ENTRY_LIMIT = 2**16  # |support a| x |support b| above this is refused
_FLOOR_MARGIN = 1e-9  # covers `_one_center_floor`'s FFT round-off only, measured <= 1.2e-15


@dataclass
class DiscreteMeasure:
    """A measure given by a non-negative density sampled on the grid."""

    torus: FlatTorus
    density: np.ndarray

    def __post_init__(self) -> None:
        self.density = np.asarray(self.density, dtype=float)
        n = self.torus.n
        if self.density.shape != (n, n):
            raise ValueError(f"density shape {self.density.shape} does not match grid {(n, n)}")
        if self.density.min() < -1e-12:
            raise ValueError("density must be non-negative")
        self.density = np.maximum(self.density, 0.0)

    def mass(self) -> float:
        return float(self.density.sum() * self.torus.cell_area)

    def normalized(self) -> "DiscreteMeasure":
        m = self.mass()
        if m <= 0:
            raise ValueError("cannot normalize a zero measure")
        return DiscreteMeasure(self.torus, self.density / m)

    @staticmethod
    def from_field(f: GridField) -> "DiscreteMeasure":
        return DiscreteMeasure(f.torus, f.values)

    @staticmethod
    def uniform(torus: FlatTorus) -> "DiscreteMeasure":
        return DiscreteMeasure(torus, np.full((torus.n, torus.n), 1.0 / (torus.L1 * torus.L2)))

    @staticmethod
    def grid_delta(torus: FlatTorus, p: Point) -> "DiscreteMeasure":
        """Unit point mass represented on the grid: 1/cell_area at the node nearest p."""
        density = np.zeros((torus.n, torus.n))
        i, j = torus.nearest_node(p)
        density[i, j] = 1.0 / torus.cell_area
        return DiscreteMeasure(torus, density)


@dataclass(frozen=True)
class BarycenterMeasure:
    """Atomic probability measure sum_i t_i delta_{x_i} with at most `capacity` atoms."""

    atoms: tuple[tuple[float, Point], ...]
    capacity: int

    def __post_init__(self) -> None:
        kept = []
        for t, p in self.atoms:
            if t < 0:
                raise ValueError(f"atom weight {t} is negative")
            if t > 0:
                kept.append((float(t), p))
        object.__setattr__(self, "atoms", tuple(kept))
        if len(self.atoms) > self.capacity:
            raise ValueError(f"{len(self.atoms)} atoms exceed capacity {self.capacity}")
        total = sum(t for t, _ in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total}, expected 1")

    def mass(self) -> float:
        return float(sum(t for t, _ in self.atoms))

    def points(self) -> np.ndarray:
        return np.array([[p.x1, p.x2] for _, p in self.atoms], dtype=float)

    def weights(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms], dtype=float)

    @staticmethod
    def single(p: Point) -> "BarycenterMeasure":
        return BarycenterMeasure(((1.0, p),), 1)

    @staticmethod
    def of(weights: Sequence[float], points: Sequence[Point], capacity: int | None = None) -> "BarycenterMeasure":
        cap = capacity if capacity is not None else len(points)
        return BarycenterMeasure(tuple(zip((float(w) for w in weights), points)), cap)


Measure = Union[DiscreteMeasure, BarycenterMeasure]


def push_forward(sigma: BarycenterMeasure, curves: CurveSystem, component: int) -> BarycenterMeasure:
    """Image of an atomic measure under the retraction onto curve `component`;
    atoms that land on the same point are merged."""
    merged: dict[Point, float] = {}
    for t, p in sigma.atoms:
        q = curves.retract(component, p)
        merged[q] = merged.get(q, 0.0) + t
    return BarycenterMeasure(tuple((t, q) for q, t in merged.items()), sigma.capacity)


# ----- transport distance ----------------------------------------------------

@dataclass(frozen=True)
class TransportResult:
    """Outcome of a distance evaluation: the exact value, its error bound
    (always 0.0) and the route: "closed-form" when a side has one or two
    support points, "lp" when both sides have three or more."""

    distance: float
    error_bound: float
    method: str


def _support(measure: Measure) -> tuple[np.ndarray, np.ndarray]:
    """Support points (K, 2) and their masses (K,) for either representation."""
    if isinstance(measure, BarycenterMeasure):
        return measure.points(), measure.weights()
    nz = measure.density > 0.0
    X1, X2 = measure.torus.grids()
    pts = np.column_stack([X1[nz], X2[nz]])
    return pts, measure.density[nz] * measure.torus.cell_area


def _transport_lp(torus: FlatTorus, pts_a: np.ndarray, w_a: np.ndarray,
                  pts_b: np.ndarray, w_b: np.ndarray) -> float:
    """Exact min-cost transport between two finite supports (sparse LP)."""
    # imported here so that runs which never solve an LP do not load scipy.optimize
    from scipy import sparse
    from scipy.optimize import linprog

    cost = np.minimum(torus.pairwise_distance(pts_a, pts_b), 2.0)
    m, n = cost.shape
    row_sums = sparse.kron(sparse.eye(m, format="csr"), np.ones((1, n)), format="csr")
    col_sums = sparse.kron(np.ones((1, m)), sparse.eye(n, format="csr"), format="csr")
    # The last column constraint is implied by the rest; dropping it keeps the
    # system full-rank and absorbs the (<= 1e-9) mass mismatch.
    a_eq = sparse.vstack([row_sums, col_sums[:-1]], format="csr")
    b_eq = np.concatenate([w_a, w_b[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport solve failed: {res.message}")
    return float(res.fun)


def kr_transport(mu: Measure, nu: Measure, torus: FlatTorus | None = None) -> TransportResult:
    """Exact transport distance on the torus of the discrete sides and of
    `torus`, which must agree, and which a pair of atomic measures must give
    (ValueError otherwise).

    Closed form when one side is a single atom (every unit of mass travels
    straight to that atom) or has two points z1, z2: with sink masses w_j the
    cost is sum_j w_j c_2j + min sum_j x_j (c_1j - c_2j) over sum_j x_j = m_1,
    0 <= x_j <= w_j, a fractional knapsack that fills z1's mass in stable
    order of c_1j - c_2j, in O(K log K) with no size limit.  Else the exact
    LP; a plan of more than `LP_ENTRY_LIMIT` entries raises ValueError before
    it is built.  The smaller side (on a tie, the smaller `_side_key`) is the
    source, so the value is bit-identical under argument swap."""
    gap = abs(mu.mass() - nu.mass())
    if gap > MASS_TOLERANCE:
        raise ValueError(f"measures have unequal masses (gap {gap:.3e})")

    (pts_a, w_a), (pts_b, w_b) = _support(mu), _support(nu)
    tori = [m.torus for m in (mu, nu) if isinstance(m, DiscreteMeasure)]
    tori += [torus] if torus is not None else []
    if not tori:
        raise ValueError("a pair of atomic measures needs the torus they live on")
    if any(t != tori[0] for t in tori[1:]):
        raise ValueError(f"the measures and `torus` name different tori: {tori}")
    torus = tori[0]
    if len(w_a) > len(w_b) or (len(w_a) == len(w_b) and _side_key(pts_a, w_a) > _side_key(pts_b, w_b)):
        pts_a, w_a, pts_b, w_b = pts_b, w_b, pts_a, w_a
    if len(w_a) in (1, 2):
        cost = np.minimum(torus.pairwise_distance(pts_a, pts_b), 2.0)
        if len(w_a) == 1:
            return TransportResult(float((w_b * cost[0]).sum()), 0.0, "closed-form")
        gain = cost[0] - cost[1]
        order = np.argsort(gain, kind="stable")
        before = np.concatenate(([0.0], np.cumsum(w_b[order])[:-1]))
        sent = np.clip(w_a[0] - before, 0.0, w_b[order])
        return TransportResult(float((w_b * cost[1]).sum() + (sent * gain[order]).sum()),
                               0.0, "closed-form")
    if len(w_a) * len(w_b) > LP_ENTRY_LIMIT:
        raise ValueError(f"a transport plan between {len(w_a)} and {len(w_b)} support points "
                         f"exceeds {LP_ENTRY_LIMIT} entries")
    return TransportResult(_transport_lp(torus, pts_a, w_a, pts_b, w_b), 0.0, "lp")


def _side_key(pts: np.ndarray, w: np.ndarray) -> tuple:
    return (pts.tobytes(), w.tobytes())


# ----- projection onto atomic measures ---------------------------------------

def _ball_kernel(torus: FlatTorus, radius: float) -> np.ndarray:
    return (torus.node_distance_field(0, 0) <= radius).astype(float)


@lru_cache(maxsize=64)
def _kernel_spectrum(torus: FlatTorus, radius: Optional[float]) -> np.ndarray:
    """Half spectrum of the radius ball's indicator, or of min(d(., 0), 2) for
    radius None; shared by every caller and read-only."""
    spectrum = to_spectrum(_ball_kernel(torus, radius) if radius is not None else
                           np.minimum(torus.node_distance_field(0, 0), 2.0))
    spectrum.flags.writeable = False
    return spectrum


def _convolve(torus: FlatTorus, density: np.ndarray, radius: Optional[float]) -> np.ndarray:
    """int kernel(x - y) density(y) dy at every node x, by circular convolution on
    real FFTs with `_kernel_spectrum(torus, radius)`, times the cell area."""
    conv = from_spectrum(torus, to_spectrum(density) * _kernel_spectrum(torus, radius))
    conv *= torus.cell_area
    return conv


def _ball_masses(torus: FlatTorus, density: np.ndarray, radius: float) -> np.ndarray:
    """Mass inside the radius ball around every node, by `_convolve` with the
    ball indicator.

    Values are rounded to 12 decimals so that near-ties from FFT round-off are
    broken by lowest node index, keeping center picks deterministic."""
    return np.round(_convolve(torus, density, radius), 12)


def _greedy_ball_centers(measure: DiscreteMeasure, rounds: int, radius: float) -> list[Point]:
    """Repeatedly capture the maximum-mass ball and remove its mass."""
    torus = measure.torus
    density = measure.density.copy()
    centers: list[Point] = []
    for _ in range(rounds):
        if density.sum() * torus.cell_area < 1e-15:
            break
        bm = _ball_masses(torus, density, radius)
        i, j = np.unravel_index(int(np.argmax(bm)), bm.shape)
        centers.append(torus.node_point(i, j))
        density[torus.distance_field(centers[-1]) <= radius] = 0.0
    return centers


def _k_median_cost(measure: DiscreteMeasure, centers: Sequence[tuple[int, int]]) -> float:
    """int min(min_i d(y, z_i), 2) dmu for centers z_i at these node indices —
    the exact transport distance to the atomic measure with these centers and
    their Voronoi masses."""
    torus = measure.torus
    dmin = np.full((torus.n, torus.n), 2.0)  # the ground-cost cap
    for i, j in centers:
        np.minimum(dmin, torus.node_distance_field(i, j), out=dmin)
    return float((measure.density * dmin).sum() * torus.cell_area)


def _voronoi_weights(measure: DiscreteMeasure, fields: Sequence[np.ndarray]) -> np.ndarray:
    """Voronoi mass of each center, from the centers' distance fields."""
    owner = np.argmin(np.stack(fields), axis=0)
    masses = measure.density * measure.torus.cell_area
    return np.array([masses[owner == i].sum() for i in range(len(fields))])


def _one_center_floor(measure: DiscreteMeasure) -> float:
    """A lower bound on int min(d(y, z), 2) dmu over every center z: the
    density's `_convolve` with min(d(., 0), 2), minimized over nodes, less
    `_FLOOR_MARGIN`, which covers the FFT round-off only: the walk visits
    nodes exactly."""
    return float(_convolve(measure.torus, measure.density, None).min()) - _FLOOR_MARGIN


def distance_to_barycenters(mu: DiscreteMeasure, k: int) -> tuple[float, BarycenterMeasure]:
    """Best found atomic approximation with at most k atoms, and its distance.

    Greedy ball captures seed the centers, Voronoi masses give the weights,
    and a local grid search descends on the exact objective
    int min(min_i d(y, z_i), 2) dmu, which equals the transport distance for
    Voronoi-weighted atoms: sending every point to its nearest atom is an
    optimal plan (Kitagawa-Merigot-Thibert).  The search walks on node
    indices: it tries the 8 neighbouring nodes of each center in turn, with
    periodic wrap, and keeps a move that lowers the cost.  Every center's
    field is a `FlatTorus.node_distance_field` view, so a trial builds no
    point and no array, and a walk cannot drift off the nodes.  While center
    i moves, the minimum of the cap 2 and the other centers' fields is fixed,
    so a trial costs one elementwise minimum and one weighted sum into a
    reused buffer.  min is exact, so the starting cost and every trial cost
    equal `_k_median_cost` of their nodes bit for bit.  Candidates are built
    for the atom budgets from k down to 1 and the best kept, ties going to
    the smaller budget, so the result is monotone in k; budget b starts from
    the nodes of the first b centers of one k-round greedy capture, which are
    the centers a b-round capture picks.  Budget 1 is skipped when
    `_one_center_floor` lies above the best cost found: that walk visits
    nodes, its cost is 1-Lipschitz in the center since the mass is 1, and the
    floor is the minimum over nodes less a margin far above the FFT
    round-off, so the walk could only end above a kept candidate, and the
    skip changes no result.  The kept candidate's fields give its Voronoi
    weights, and its atoms sit at `FlatTorus.node_point` of its nodes.  The
    returned value is that objective, the exact transport distance to the
    returned sigma, and so an upper bound on the distance to the k-atom
    set."""
    if k < 1:
        raise ValueError("atom budget k must be >= 1")
    if abs(mu.mass() - 1.0) > MASS_TOLERANCE:
        raise ValueError(f"measure must have unit mass, got {mu.mass()}")
    torus = mu.torus
    n = torus.n
    others = np.empty((n, n))
    trial_cost = np.empty((n, n))
    best_cost = np.inf
    best_centers: list[tuple[int, int]] = []
    best_fields: list[np.ndarray] = []
    seeds = [torus.nearest_node(z)
             for z in _greedy_ball_centers(mu, k, radius=2.0 * torus.max_spacing)]
    for budget in range(len(seeds), 0, -1):
        if budget == 1 and len(seeds) > 1 and _one_center_floor(mu) > best_cost:
            continue  # the one-center walk cannot end below its floor
        centers = seeds[:budget]
        fields = [torus.node_distance_field(i, j) for i, j in centers]
        # _k_median_cost of the seed nodes, from their fields
        cost = float((mu.density * np.minimum.reduce(fields, initial=2.0)).sum() * torus.cell_area)
        moved = True
        guard = 0
        while moved and guard < 200:
            moved = False
            guard += 1
            for idx in range(len(centers)):
                # the cap and the other centers' fields stay fixed while center idx moves
                others.fill(2.0)
                for other, field in enumerate(fields):
                    if other != idx:
                        np.minimum(others, field, out=others)
                for di, dj in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
                    i, j = centers[idx]
                    trial = ((i + di) % n, (j + dj) % n)
                    field = torus.node_distance_field(*trial)
                    np.minimum(others, field, out=trial_cost)
                    trial_cost *= mu.density
                    c = float(trial_cost.sum() * torus.cell_area)
                    if c < cost - 1e-15:
                        centers[idx], fields[idx], cost = trial, field, c
                        moved = True
        if cost <= best_cost:  # ties go to the smaller budget
            best_cost, best_centers, best_fields = cost, centers, fields
    weights = _voronoi_weights(mu, best_fields)
    total = weights.sum()
    sigma = BarycenterMeasure(tuple((w / total, torus.node_point(i, j))
                                    for w, (i, j) in zip(weights, best_centers) if w > 0), k)
    return best_cost, sigma


# ----- covering construction --------------------------------------------------

def _cover_sublattice(torus: FlatTorus, radius: float) -> list[Point]:
    """Grid-node sub-lattice whose closed radius balls cover the torus."""
    h1, h2 = torus.spacing
    m1 = max(1, int(np.sqrt(2.0) * radius / h1))
    m2 = max(1, int(np.sqrt(2.0) * radius / h2))
    idx1 = range(0, torus.n, m1)
    idx2 = range(0, torus.n, m2)
    return [torus.node_point(i, j) for i in idx1 for j in idx2]


def covering_thresholds(torus: FlatTorus, delta: float, theta: float) -> tuple[float, float, int]:
    """The derived constants (delta_bar, theta_bar, cover size H) promised by the
    merging construction: delta_bar = delta/8, theta_bar = min(theta/H, ball area)."""
    delta_bar = delta / 8.0
    count = len(_cover_sublattice(torus, delta_bar))
    ball_nodes = int((torus.node_distance_field(0, 0) <= delta_bar).sum())
    ball_area = ball_nodes * torus.cell_area
    return delta_bar, min(theta / count, ball_area), count


@dataclass(frozen=True)
class CoveringResult:
    """Merged family: each set is a ball or a union of two balls (as node tuples)."""

    sets: tuple[tuple[Point, ...], ...]
    delta_bar: float
    theta_bar: float
    component1_indices: tuple[int, ...]  # sets guaranteed to carry f1 mass >= theta_bar
    component2_indices: tuple[int, ...]  # same for f2


def _set_mass(f: DiscreteMeasure, nodes: Sequence[Point]) -> float:
    torus = f.torus
    total = 0.0
    seen = set()
    for p in nodes:
        ij = torus.nearest_node(p)
        if ij not in seen:
            seen.add(ij)
            total += f.density[ij] * torus.cell_area
    return total


def _ball_nodes(torus: FlatTorus, center: Point, radius: float) -> tuple[Point, ...]:
    inside = torus.distance_field(center) <= radius
    return tuple(torus.node_point(i, j) for i, j in zip(*np.nonzero(inside)))


def covering_merge(omegas1: Sequence[Sequence[Point]], omegas2: Sequence[Sequence[Point]],
                   f1: DiscreteMeasure, f2: DiscreteMeasure,
                   delta: float, theta: float) -> CoveringResult:
    """Merge two separated families into one family carrying mass of both densities.

    Given point-sets that are pairwise delta-separated within each family and
    each carry f-mass >= theta, pick for every set the maximum-mass ball of
    radius delta/8 (centered on a covering sub-lattice of nodes) that meets
    it; centers of the larger family adopt centers of the smaller one that
    come within 3 delta/8, remaining small-family centers are adopted in index
    order, and the resulting balls/unions are delta/8-separated with mass
    >= theta_bar per guaranteed component."""
    torus = f1.torus
    delta_bar, theta_bar, _ = covering_thresholds(torus, delta, theta)

    families = (tuple(tuple(s) for s in omegas1), tuple(tuple(s) for s in omegas2))
    densities = (f1, f2)
    for fam_idx, (family, f) in enumerate(zip(families, densities), start=1):
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                d = float(torus.pairwise_distance(family[a], family[b]).min())
                if d < delta:
                    raise ValueError(
                        f"family {fam_idx} sets {a} and {b} are {d:.4g} apart (< delta={delta})")
        for a, omega in enumerate(family):
            mass = _set_mass(f, omega)
            if mass < theta:
                raise ValueError(
                    f"family {fam_idx} set {a} carries mass {mass:.4g} (< theta={theta})")

    cover_centers = _cover_sublattice(torus, delta_bar)

    def pick_centers(family: tuple, f: DiscreteMeasure) -> list[Point]:
        all_masses = _ball_masses(torus, f.density, delta_bar)
        masses = np.array([all_masses[torus.nearest_node(c)] for c in cover_centers])
        picked = []
        for omega in family:
            dists = torus.pairwise_distance(cover_centers, omega).min(axis=1)
            eligible = dists <= delta_bar
            if not eligible.any():
                raise ValueError("covering sub-lattice failed to reach a set (internal)")
            masked = np.where(eligible, masses, -np.inf)
            picked.append(cover_centers[int(np.argmax(masked))])
        return picked

    big, small = (0, 1) if len(families[0]) >= len(families[1]) else (1, 0)
    centers_big = pick_centers(families[big], densities[big])
    centers_small = pick_centers(families[small], densities[small])

    partner: dict[int, int] = {}
    unmatched = []
    for j, ys in enumerate(centers_small):
        close = [i for i, yb in enumerate(centers_big)
                 if torus.distance(ys, yb) < 3.0 * delta_bar and i not in partner]
        if close:
            partner[close[0]] = j
        else:
            unmatched.append(j)
    free_big = [i for i in range(len(centers_big)) if i not in partner]
    for j, i in zip(unmatched, free_big):
        partner[i] = j

    sets = []
    comp_big_idx, comp_small_idx = [], []
    for i, yb in enumerate(centers_big):
        nodes = _ball_nodes(torus, yb, delta_bar)
        comp_big_idx.append(i)
        if i in partner:
            nodes = tuple(dict.fromkeys(nodes + _ball_nodes(torus, centers_small[partner[i]], delta_bar)))
            comp_small_idx.append(i)
        sets.append(nodes)

    comp1 = comp_big_idx if big == 0 else comp_small_idx
    comp2 = comp_small_idx if big == 0 else comp_big_idx
    return CoveringResult(tuple(sets), delta_bar, theta_bar, tuple(comp1), tuple(comp2))


# ----- spread detection and the concentration dichotomy -----------------------

def spread_mass_floor(torus: FlatTorus, m: int, eps: float, s: float) -> float:
    """Guaranteed per-ball mass for the spread branch: if m radius-s balls cannot
    capture 1-eps of the mass, each greedily chosen radius-s/4 ball (with centers
    4*(s/4)-separated) holds more than eps divided by the s/4-cover size."""
    return eps / len(_cover_sublattice(torus, s / 4.0))


def _concentration_centers(f: DiscreteMeasure, m: int, radius: float) -> tuple[float, list[Point]]:
    """Greedy mass capture by m balls; returns (captured mass, centers)."""
    centers = _greedy_ball_centers(f, m, radius)
    if not centers:
        return 0.0, centers
    torus = f.torus
    covered = np.zeros((torus.n, torus.n), dtype=bool)
    for z in centers:
        covered |= torus.distance_field(z) <= radius
    captured = float(f.density[covered].sum() * torus.cell_area)
    return captured, centers


def detect_spread(f: DiscreteMeasure, m: int, eps: float, s: float) -> Optional[list[Point]]:
    """The spread half of the concentration dichotomy.

    Returns None when m greedy balls of radius s capture mass >= 1 - eps
    (concentration); otherwise returns m points whose radius-s/2 balls are
    pairwise disjoint (centers s-separated) and whose radius-s/4 balls each
    hold mass above `spread_mass_floor`."""
    if abs(f.mass() - 1.0) > MASS_TOLERANCE:
        raise ValueError(f"measure must have unit mass, got {f.mass()}")
    captured, _ = _concentration_centers(f, m, s)
    if captured >= 1.0 - eps:
        return None
    torus = f.torus
    s_bar = s / 4.0
    bm = _ball_masses(torus, f.density, s_bar)
    allowed = np.ones((torus.n, torus.n), dtype=bool)
    points: list[Point] = []
    for _ in range(m):
        masked = np.where(allowed, bm, -np.inf)
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        z = torus.node_point(i, j)
        points.append(z)
        allowed &= torus.distance_field(z) >= 4.0 * s_bar
        if not allowed.any() and len(points) < m:
            raise ValueError("torus too small to separate the requested spread points")
    return points


@dataclass(frozen=True)
class ConcentrationResult:
    """Outcome of the two-component dichotomy: which density is concentrated
    (0 = neither), at which centers, and its atomic reconstruction."""

    component: int
    centers: tuple[Point, ...] | None
    sigma: BarycenterMeasure | None


def _atomic_reconstruction(f: DiscreteMeasure, centers: Sequence[Point],
                           s: float, capacity: int) -> BarycenterMeasure:
    """Atoms at the concentration centers: each takes the mass of its ball (new
    nodes only, in center order) plus an equal share of the leftover mass."""
    torus = f.torus
    masses = []
    claimed = np.zeros((torus.n, torus.n), dtype=bool)
    for z in centers:
        ball = torus.distance_field(z) <= s
        fresh = ball & ~claimed
        masses.append(float(f.density[fresh].sum() * torus.cell_area))
        claimed |= ball
    residual = float(f.density[~claimed].sum() * torus.cell_area)
    k = len(centers)
    weights = np.array(masses) + residual / k
    weights /= weights.sum()
    return BarycenterMeasure(tuple((w, z) for w, z in zip(weights, centers)), capacity)


def concentration_alternative(u1: GridField, u2: GridField, h1: GridField, h2: GridField,
                              k: int, l: int, eps: float, s: float) -> ConcentrationResult:
    """Decide which of the two normalized densities is concentrated.

    Component 1 is checked first (recorded tie-breaking order).  When a
    component is concentrated at its <= k (resp. <= l) greedy centers, the
    atomic measure built from ball masses plus equal residual shares is
    returned; its distance to the density is below 2*eps + s by construction."""
    for component, (u, h, budget) in enumerate(((u1, h1, k), (u2, h2, l)), start=1):
        f = DiscreteMeasure.from_field(normalized_density(u, h))
        captured, centers = _concentration_centers(f, budget, s)
        if captured >= 1.0 - eps:
            sigma = _atomic_reconstruction(f, centers, s, budget) if centers else None
            return ConcentrationResult(component, tuple(centers), sigma)
    return ConcentrationResult(0, None, None)
