"""The topological join of atomic-measure spaces and its test-function family.

A `JoinElement` is a triple (sigma1, sigma2, r): two atomic measures supported
on the two horizontal circles plus an interpolation coordinate r in [0, 1].
At r = 0 the element forgets sigma2 (and symmetrically at r = 1), which the
equality semantics and the test-function construction both honor exactly.

`test_function` builds the two-component peak family: logarithmic sums of
squared-Cauchy bubbles at scales lambda_{1,r} = (1-r) lambda and
lambda_{2,r} = r lambda, mixed through the matrix [[1, -1/2], [-1/2, 1]].
Bubble profiles are midpoint cell averages (8 x 8 per cell by default), so
under-resolved cores at large lambda keep their cell mass instead of a rogue
point value, with one logarithm per bounded group of sub-cell offsets.

`psi_map` goes the other way: it projects a pair of densities back to a join
element through best atomic approximations, the plateau reparametrization
`rtilde`, and push-forward onto the circles.  `energy_curve` (either
problem, "toda" or "meanfield") and the *_check helpers sweep lambda and
fit the growth rates these constructions are designed to exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functionals import EnergyKernel, RhoPair, normalized_density
from .geometry import CurveSystem, FlatTorus, GridField, SingularData, subcell_offsets
from .measures import (
    BarycenterMeasure,
    DiscreteMeasure,
    distance_to_barycenters,
    kr_transport,
    push_forward,
)

DEFAULT_SUBSAMPLES = 8
# `psi_map` is defined only when some density lies within this distance of its atomic set
ADMISSION = 0.25
_LOG_SPAN = 600.0  # bound on |log| of one grouped product of bubble mixes; exp is normal to ~708


@dataclass(frozen=True, eq=False)
class JoinElement:
    """Formal combination (1-r) sigma1 + r sigma2 with endpoint identifications."""

    sigma1: BarycenterMeasure
    sigma2: BarycenterMeasure
    r: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"join coordinate r must lie in [0, 1], got {self.r}")

    def _key(self) -> tuple:
        """What identifies the element: an endpoint forgets the other measure."""
        if self.r == 0.0:
            return (self.sigma1, self.r)
        if self.r == 1.0:
            return (self.sigma2, self.r)
        return (self.sigma1, self.sigma2, self.r)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def scales(self, lam: float) -> tuple[float, float]:
        """The component concentration scales ((1-r) lambda, r lambda)."""
        return ((1.0 - self.r) * lam, self.r * lam)


# ----- test functions ---------------------------------------------------------

def _log_bubble_sum(torus: FlatTorus, sigma: BarycenterMeasure, scale: float,
                    subsamples: int) -> np.ndarray:
    """Cell-averaged samples of log sum_a t_a / q_a^2, q_a = 1 + scale^2 d(x, x_a)^2.

    At scale 0 every bubble is identically 1 and the weights sum to 1, so the
    result is exactly zero — the join's endpoint degeneracy, bit for bit.

    Each atom's column 1 + scale^2 d1^2 is tiled once per axis-1 offset, and q_a
    adds the row scale^2 d2^2.  As 1 <= q_a <= q_max, |log mix| <= span =
    2 log q_max - log t_min, so g = floor(_LOG_SPAN / span) mixes multiply into
    one finite, normal product per log.  Memory is k + 4 n x n arrays; the result
    is the per-offset formula's to round-off (a few eps of its largest value)."""
    n, m = torus.n, subsamples
    if scale == 0.0:
        return np.zeros((n, n))
    scale2 = scale**2
    offsets = subcell_offsets(torus, m)  # axis-1 offset outer, axis-2 offset inner
    q_max = 1.0 + scale2 * (torus.L1**2 + torus.L2**2) / 4.0
    span = max(1.0, 2.0 * np.log(q_max) - np.log(min(t for t, _ in sigma.atoms)))
    group = max(1, int(_LOG_SPAN / span))
    rows = [[scale2 * torus.squared_displacement_row(1, p.x2, o2) for _, o2 in offsets[:m]]
            for _, p in sigma.atoms]
    cols = np.empty((len(rows), n, n))
    acc, prod, mix, term = np.zeros((n, n)), np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    for c, (o1, _) in enumerate(offsets):
        if c % m == 0:
            for col, (_, p) in zip(cols, sigma.atoms):
                np.copyto(col, (1.0 + scale2 * torus.squared_displacement_row(0, p.x1, o1))[:, None])
        for a, (t, _) in enumerate(sigma.atoms):
            # t / q^2, the first atom's into the mix; copy-then-add needs no ufunc buffer
            out = term if a else mix
            np.copyto(out, rows[a][c % m])
            np.add(out, cols[a], out=out)
            np.square(out, out=out)
            np.divide(t, out, out=out)
            if a:
                np.add(mix, term, out=mix)
        if c % group:
            np.multiply(prod, mix, out=prod)
        else:  # a group's first mix starts its product
            prod, mix = mix, prod
        if (c + 1) % group == 0 or c + 1 == m * m:
            acc += np.log(prod, out=prod)
    return np.divide(acc, m * m, out=acc)


def _bubble_sums(torus: FlatTorus, zeta: JoinElement, lam: float,
                 subsamples: int) -> tuple[np.ndarray, np.ndarray]:
    """The log bubble sums (v1, v2) of sigma1 and sigma2 at their scales for lambda."""
    if lam <= 0:
        raise ValueError(f"concentration parameter must be positive, got {lam}")
    s1, s2 = zeta.scales(lam)
    return (_log_bubble_sum(torus, zeta.sigma1, s1, subsamples),
            _log_bubble_sum(torus, zeta.sigma2, s2, subsamples))


def test_function(torus: FlatTorus, zeta: JoinElement, lam: float,
                  subsamples: int = DEFAULT_SUBSAMPLES) -> tuple[GridField, GridField]:
    """The two-component peak family (v1 - v2/2, -v1/2 + v2) at parameter lambda."""
    v1, v2 = _bubble_sums(torus, zeta, lam, subsamples)
    return (GridField(torus, v1 - 0.5 * v2), GridField(torus, -0.5 * v1 + v2))


def scalar_test_function(torus: FlatTorus, zeta: JoinElement, lam: float,
                         subsamples: int = DEFAULT_SUBSAMPLES) -> GridField:
    """The scalar peak family v1 - v2 (positive peaks on curve 1, negative on 2)."""
    v1, v2 = _bubble_sums(torus, zeta, lam, subsamples)
    return GridField(torus, v1 - v2)


# ----- energy sweeps ----------------------------------------------------------

@dataclass(frozen=True)
class SweepCurve:
    """A lambda sweep: per-row scales and values, plus the fitted slope."""

    lambdas: np.ndarray
    scales1: np.ndarray
    scales2: np.ndarray
    values: np.ndarray
    slope: float
    fit_mask: np.ndarray

    def rows(self):
        return zip(self.lambdas, self.scales1, self.scales2, self.values)


def _check_lambda_grid(lambdas: Sequence[float]) -> np.ndarray:
    lams = np.asarray(list(lambdas), dtype=float)
    if len(lams) < 4:
        raise ValueError("lambda grid needs at least 4 points")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("lambda grid must be strictly increasing")
    if lams[-1] / lams[0] < 100.0 * (1.0 - 1e-12):
        raise ValueError("lambda grid must span at least two decades")
    return lams


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(x, y, 1)[0])


def energy_curve(problem: str, torus: FlatTorus, zeta: JoinElement, rho: RhoPair,
                 lambdas: Sequence[float], h, subsamples: int = DEFAULT_SUBSAMPLES) -> SweepCurve:
    """Energy of `problem` ("toda" or "meanfield", with `h` as `EnergyKernel.of`
    takes it) at each lambda of the grid along its peak family, with the
    top-decade slope of the energy against log lambda.

    The kernel is built once per sweep; a two-component kernel sweeps
    `test_function`, a one-component kernel `scalar_test_function`."""
    lams = _check_lambda_grid(lambdas)
    kernel = EnergyKernel.of(problem, h, rho, SingularData.empty())
    if len(kernel.mixing) == 2:
        peaks = lambda lam: test_function(torus, zeta, lam, subsamples)
    else:
        peaks = lambda lam: (scalar_test_function(torus, zeta, lam, subsamples),)
    values = np.array([kernel.energy_of(*peaks(lam)).total for lam in lams])
    mask = lams >= lams[-1] / 10.0
    slope = _fit_slope(np.log(lams[mask]), values[mask])
    s1, s2 = zip(*(zeta.scales(lam) for lam in lams))
    return SweepCurve(lams, np.array(s1), np.array(s2), values, slope, mask)


# ----- projection back to the join --------------------------------------------

def plateau(z: float) -> float:
    """Piecewise-linear ramp: 0 on [0, 1/4], 2z - 1/2 in between, 1 on [3/4, 1]."""
    if z <= 0.25:
        return 0.0
    if z >= 0.75:
        return 1.0
    return 2.0 * z - 0.5


def rtilde(d1: float, d2: float) -> float:
    """Join coordinate from the two projection distances: plateau(d1/(d1+d2))."""
    if d1 < 0 or d2 < 0:
        raise ValueError("distances must be non-negative")
    if d1 + d2 == 0:
        raise ValueError("join coordinate undefined when both distances vanish")
    return plateau(d1 / (d1 + d2))


def psi_map(u1: GridField, u2: GridField, h1: GridField, h2: GridField,
            k: int, l: int, curves: CurveSystem) -> JoinElement:
    """Project a pair of fields onto the join of atomic measures on the circles.

    Each normalized density h_i e^{u_i}/int is approximated by at most k
    (resp. l) atoms; the achieved distances set the join coordinate through
    `rtilde`, and the atoms are pushed onto their circles (coincident images
    merge).  When both densities stay farther than `ADMISSION` from their
    atomic sets, the pair is outside the concentration regime and the map is
    not defined."""
    f1 = DiscreteMeasure.from_field(normalized_density(u1, h1))
    f2 = DiscreteMeasure.from_field(normalized_density(u2, h2))
    d1, sigma1 = distance_to_barycenters(f1, k)
    d2, sigma2 = distance_to_barycenters(f2, l)
    if d1 > ADMISSION and d2 > ADMISSION:
        raise ValueError(
            f"both densities are far from their atomic sets "
            f"(d1={d1:.4g}, d2={d2:.4g} > {ADMISSION}); projection undefined")
    r = rtilde(d1, d2)
    return JoinElement(push_forward(sigma1, curves, 1), push_forward(sigma2, curves, 2), r)


@dataclass(frozen=True)
class HomotopyReport:
    """How far the projection of a peak family lands from its seed element."""

    atom_displacement_1: float
    atom_displacement_2: float
    r_deviation: float


def homotopy_identity_check(torus: FlatTorus, zeta: JoinElement, lam: float,
                            h1: GridField, h2: GridField, curves: CurveSystem,
                            subsamples: int = DEFAULT_SUBSAMPLES) -> HomotopyReport:
    """Round trip zeta -> peak family -> projection, measured per component.

    Displacements are transport distances between seed and recovered atoms;
    the join coordinate is compared against plateau(r), the value the round
    trip is designed to approach as lambda grows."""
    phi1, phi2 = test_function(torus, zeta, lam, subsamples)
    out = psi_map(phi1, phi2, h1, h2, zeta.sigma1.capacity, zeta.sigma2.capacity, curves)
    disp1 = kr_transport(zeta.sigma1, out.sigma1, torus=torus).distance
    disp2 = kr_transport(zeta.sigma2, out.sigma2, torus=torus).distance
    return HomotopyReport(disp1, disp2, abs(out.r - plateau(zeta.r)))


def kr_scaling_check(torus: FlatTorus, zeta: JoinElement, lambdas: Sequence[float],
                     components: Sequence[int], h1: GridField, h2: GridField,
                     subsamples: int = DEFAULT_SUBSAMPLES,
                     fit_floor: float = 10.0) -> list[SweepCurve]:
    """Decay rate of the distance from the peak family's densities to their
    atomic sets, one curve per entry of `components` (each 1 or 2, in order).

    The peak pair is synthesized once per lambda and shared by the components.
    Each curve fits log d against log lambda_{i,r}, restricted to
    lambda_{i,r} >= fit_floor where the profile is genuinely concentrated.  If
    a component is degenerate (its scale is identically zero), the fit falls
    back to log lambda as the regressor; the distance is then scale-free and
    the slope sits near zero."""
    for component in components:
        if component not in (1, 2):
            raise ValueError(f"component must be 1 or 2, got {component}")
    lams = _check_lambda_grid(lambdas)
    dists = np.empty((len(components), len(lams)))
    for j, lam in enumerate(lams):
        phis = test_function(torus, zeta, lam, subsamples)
        for i, c in enumerate(components):
            f = DiscreteMeasure.from_field(normalized_density(phis[c - 1], (h1, h2)[c - 1]))
            dists[i, j] = distance_to_barycenters(f, (zeta.sigma1, zeta.sigma2)[c - 1].capacity)[0]
    s1, s2 = (np.array(s) for s in zip(*(zeta.scales(lam) for lam in lams)))
    curves = []
    for c, values in zip(components, dists):
        scales = (s1, s2)[c - 1]
        regressor = lams if np.all(scales == 0.0) else scales
        mask = regressor >= fit_floor
        if mask.sum() < 2:
            raise ValueError("fewer than two sweep points above the fit floor")
        slope = _fit_slope(np.log(regressor[mask]), np.log(values[mask]))
        curves.append(SweepCurve(lams, s1, s2, values, slope, mask))
    return curves
