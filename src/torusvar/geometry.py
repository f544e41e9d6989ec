"""Flat-torus discretization: metric, quadrature, spectral calculus, Green's functions.

Everything lives on a periodic n-by-n grid over [0, L1) x [0, L2) with
L1 * L2 = 1 (unit total area).  Fields are sampled at the nodes
(i * L1/n, j * L2/n); axis 0 of a value array runs along x1, axis 1 along x2.
Derivatives and Poisson solves are spectral (real `numpy.fft` transforms on the
half spectrum, the package's one FFT backend), so smooth periodic fields are
differentiated to near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

ROW_CACHE_SIZE = 1024  # rows kept by `FlatTorus.squared_displacement_row`: 2 MiB at n = 256


class Point(NamedTuple):
    """A point on the torus; coordinates are kept reduced to [0, L1) x [0, L2)."""

    x1: float
    x2: float


@dataclass(frozen=True)
class FlatTorus:
    """Unit-area flat torus R^2 / (L1*Z x L2*Z) discretized on an n x n node grid."""

    n: int
    L1: float = 1.0
    L2: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"grid resolution must be even and >= 16, got n={self.n}")
        if abs(self.L1 * self.L2 - 1.0) > 1e-12:
            raise ValueError(f"periods must have unit area, got L1*L2={self.L1 * self.L2!r}")

    @property
    def spacing(self) -> tuple[float, float]:
        """Grid spacing per axis, (L1/n, L2/n)."""
        return (self.L1 / self.n, self.L2 / self.n)

    @property
    def max_spacing(self) -> float:
        return max(self.spacing)

    @property
    def cell_area(self) -> float:
        return (self.L1 * self.L2) / (self.n * self.n)

    # ----- points and nodes -------------------------------------------------

    def point(self, x1: float, x2: float) -> Point:
        """Reduce raw coordinates into the fundamental domain."""
        return Point(_reduce(float(x1), self.L1), _reduce(float(x2), self.L2))

    def node_point(self, i: int, j: int) -> Point:
        h1, h2 = self.spacing
        return self.point(i * h1, j * h2)

    def nearest_node(self, p: Point) -> tuple[int, int]:
        """Indices of the grid node closest to p."""
        h1, h2 = self.spacing
        return (int(round(p.x1 / h1)) % self.n, int(round(p.x2 / h2)) % self.n)

    def snap(self, p: Point) -> Point:
        """The grid node closest to p, as a Point."""
        return self.node_point(*self.nearest_node(p))

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates along each axis."""
        h1, h2 = self.spacing
        return (np.arange(self.n) * h1, np.arange(self.n) * h2)

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Full coordinate meshes X1, X2 with indexing (x1-axis, x2-axis)."""
        x1, x2 = self.axes()
        return np.meshgrid(x1, x2, indexing="ij")

    # ----- metric -----------------------------------------------------------

    def distance(self, a: Point, b: Point) -> float:
        """Flat distance: minimum over lattice translates of the Euclidean distance."""
        d1 = _min_image(a.x1 - b.x1, self.L1)
        d2 = _min_image(a.x2 - b.x2, self.L2)
        return float(np.hypot(d1, d2))

    def distance_field(self, p: Point, offset: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
        """Distances d(node + offset, p) for all grid nodes, as a raw n x n array:
        sqrt(d1^2[:, None] + d2^2[None, :]) from the per-axis minimum-image
        displacements d1, d2, rooted in place in `squared_distance_field`'s
        fresh array."""
        field = self.squared_distance_field(p, offset)
        return np.sqrt(field, out=field)

    def node_distance_field(self, i: int, j: int) -> np.ndarray:
        """Distances d(node, node (i, j)) for all grid nodes, as a read-only
        n x n view into `_origin_tiling`: entry [a, b] is the origin field
        `distance_field(Point(0.0, 0.0))` at ((a - i) mod n, (b - j) mod n).
        Nothing is computed, and the node's own entry is exactly 0.  Where the
        spacings are dyadic the view equals `distance_field(node_point(i, j))`
        bit for bit; elsewhere it differs at round-off."""
        n = self.n
        i, j = -i % n, -j % n
        return _origin_tiling(self)[i:i + n, j:j + n]

    def squared_distance_field(self, p: Point,
                               offset: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
        """Squared distances d(node + offset, p)^2 for all grid nodes, n x n."""
        return (self.squared_displacement_row(0, p.x1, offset[0])[:, None]
                + self.squared_displacement_row(1, p.x2, offset[1])[None, :])

    @lru_cache(maxsize=ROW_CACHE_SIZE)
    def squared_displacement_row(self, axis: int, coordinate: float, offset: float) -> np.ndarray:
        """Squared minimum-image displacements (node + offset - coordinate)^2
        along one axis (0 for x1, 1 for x2), one entry per node index.  The
        package's one cached distance primitive: the last `ROW_CACHE_SIZE`
        rows are kept, shared by every caller and read-only."""
        length = (self.L1, self.L2)[axis]
        d = _min_image(np.arange(self.n) * self.spacing[axis] + offset - coordinate, length)
        d *= d
        d.flags.writeable = False
        return d

    def pairwise_distance(self, a, b) -> np.ndarray:
        """K x M distances from each of K points in a to each of M in b (Points
        or coordinate rows); entry by entry `distance`, so swapping a and b
        transposes the result bit for bit."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        d1 = _min_image(a[:, None, 0] - b[None, :, 0], self.L1)
        d2 = _min_image(a[:, None, 1] - b[None, :, 1], self.L2)
        return np.hypot(d1, d2)

    # ----- fields -----------------------------------------------------------

    def field(self, values: np.ndarray) -> "GridField":
        return GridField(self, values)

    def constant_field(self, c: float = 0.0) -> "GridField":
        return GridField(self, np.full((self.n, self.n), float(c)))

    def field_from_function(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                            subsamples: int = 1) -> "GridField":
        """Sample fn(x1, x2) on the nodes; subsamples > 1 averages fn over an
        m x m midpoint refinement of each cell (useful for under-resolved peaks)."""
        acc = np.zeros((self.n, self.n))
        X1, X2 = self.grids()
        for o1, o2 in subcell_offsets(self, subsamples):
            acc += fn(X1 + o1, X2 + o2)
        return GridField(self, acc / subsamples**2)


@lru_cache(maxsize=32)
def _origin_tiling(torus: FlatTorus) -> np.ndarray:
    """The origin's distance field tiled 2 x 2, (2n, 2n), so that every
    periodic shift of it is an n x n window; shared and read-only."""
    tiling = np.tile(torus.distance_field(Point(0.0, 0.0)), (2, 2))
    tiling.flags.writeable = False
    return tiling


def _reduce(x: float, length: float) -> float:
    """x modulo length in [0, length): float % rounds a tiny negative x up to
    length itself, which is folded to 0.0."""
    r = x % length
    return 0.0 if r == length else r


def _min_image(delta, length: float):
    """Reduce a coordinate difference to the minimum-image magnitude in [0, length/2].

    Works on |delta| so that swapping the arguments gives the bit-identical
    magnitude (adding the half-period first is one ulp short of symmetric)."""
    folded = np.abs(np.asarray(delta)) % length
    return np.minimum(folded, length - folded)


def subcell_offsets(torus: FlatTorus, m: int) -> list[tuple[float, float]]:
    """Midpoint offsets of an m x m refinement of one grid cell, centered on the node."""
    h1, h2 = torus.spacing
    a1 = ((np.arange(m) + 0.5) / m - 0.5) * h1
    a2 = ((np.arange(m) + 0.5) / m - 0.5) * h2
    return [(float(o1), float(o2)) for o1 in a1 for o2 in a2]


@dataclass
class GridField:
    """A real scalar field sampled on the torus grid."""

    torus: FlatTorus
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        n = self.torus.n
        if self.values.shape != (n, n):
            raise ValueError(f"field shape {self.values.shape} does not match grid {(n, n)}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


@dataclass(frozen=True)
class SingularData:
    """Marked points p_j with per-component weights alpha1_j, alpha2_j >= 0."""

    points: tuple[Point, ...]
    alpha1: tuple[float, ...]
    alpha2: tuple[float, ...]

    def __post_init__(self) -> None:
        m = len(self.points)
        if len(self.alpha1) != m or len(self.alpha2) != m:
            raise ValueError("points and weight lists must have equal length")
        if any(a < 0 for a in self.alpha1) or any(a < 0 for a in self.alpha2):
            raise ValueError("singular weights must be non-negative")
        for i in range(m):
            for j in range(i + 1, m):
                if (abs(self.points[i].x1 - self.points[j].x1) < 1e-12
                        and abs(self.points[i].x2 - self.points[j].x2) < 1e-12):
                    raise ValueError(f"singular points {i} and {j} coincide")

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def empty() -> "SingularData":
        return SingularData((), (), ())

    @staticmethod
    def of(points: Sequence[tuple[float, float]], alpha1: Sequence[float],
           alpha2: Sequence[float], torus: FlatTorus) -> "SingularData":
        """Convenience constructor reducing raw coordinates into the torus
        domain; points that coincide on the torus are refused."""
        pts = tuple(torus.point(*p) for p in points)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if torus.distance(pts[i], pts[j]) < 1e-12:  # also across the period seam
                    raise ValueError(f"singular points {i} and {j} coincide")
        return SingularData(pts, tuple(float(a) for a in alpha1), tuple(float(a) for a in alpha2))


@dataclass(frozen=True)
class CurveSystem:
    """Two disjoint horizontal circles gamma_i = {x2 = c_i} with their retractions."""

    c1: float
    c2: float

    def __post_init__(self) -> None:
        if self.c1 == self.c2:
            raise ValueError("curve levels must be distinct")

    def level(self, i: int) -> float:
        if i not in (1, 2):
            raise ValueError(f"component must be 1 or 2, got {i}")
        return self.c1 if i == 1 else self.c2

    def retract(self, i: int, x: Point) -> Point:
        """Project onto gamma_i by freezing the vertical coordinate."""
        return Point(x.x1, self.level(i))


# ----- spectral calculus ----------------------------------------------------
#
# Real fields are transformed with rfft2 over both axes, so coefficient arrays
# hold the half spectrum: all n frequencies along x1 (axis 0) and the n/2 + 1
# non-negative ones along x2 (axis 1).  Every symbol below has that shape.

@lru_cache(maxsize=64)
def _spectral_tables(torus: FlatTorus) -> dict:
    """Half-spectrum tables for an n x n grid.

    First-derivative symbols drop the Nyquist row and column (odd derivative
    of a real field), the Laplacian keeps them.  `parseval` weighs each
    coefficient by how often it occurs in the full spectrum (the zero and
    Nyquist columns once, every other column twice) times cell_area / n^2, so
    sum(parseval * a_hat * conj(b_hat)).real is the quadrature of a * b;
    `dirichlet` does the same for grad a . grad b.  The arrays are shared
    by every caller and read-only."""
    n = torus.n
    h1, h2 = torus.spacing
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=h1)[:, None]
    k2 = 2.0 * np.pi * np.fft.rfftfreq(n, d=h2)[None, :]
    k1d = k1.copy()
    k2d = k2.copy()
    k1d[n // 2] = 0.0
    k2d[:, -1] = 0.0
    parseval = np.full((n, n // 2 + 1), 2.0 * torus.cell_area / (n * n))
    parseval[:, 0] /= 2.0
    parseval[:, -1] /= 2.0
    tables = {"minus_lap": k1 * k1 + k2 * k2, "k1d": k1d, "k2d": k2d,
              "parseval": parseval, "dirichlet": parseval * (k1d * k1d + k2d * k2d)}
    for table in tables.values():
        table.flags.writeable = False
    return tables


def to_spectrum(values: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of a real n x n array."""
    return np.fft.rfft2(values)


def from_spectrum(torus: FlatTorus, coeffs: np.ndarray) -> np.ndarray:
    """The real n x n array whose half spectrum is coeffs."""
    return np.fft.irfft2(coeffs, s=(torus.n, torus.n))


def prolong(coeffs: np.ndarray) -> np.ndarray:
    """Zero-pad a half spectrum from the m grid to the 2m grid; on the even nodes
    the prolonged field is the coarse field.  The Nyquist row and column are
    split in halves between +m/2 and -m/2, so prolonging commutes with mirrors."""
    m, half = coeffs.shape[0], coeffs.shape[0] // 2
    out = np.zeros((2 * m, m + 1), dtype=complex)
    out[:half, :half + 1], out[-half:, :half + 1] = coeffs[:half], coeffs[half:]
    out[half] = out[-half] = 0.5 * out[-half]
    out[:, half] *= 0.5
    return 4.0 * out  # the inverse transform at 2m divides by four times as much


def minus_laplacian_symbol(torus: FlatTorus) -> np.ndarray:
    """|k|^2 on the half spectrum (read-only)."""
    return _spectral_tables(torus)["minus_lap"]


def _weighted_inner(weights: np.ndarray, a_hat: np.ndarray, b_hat: np.ndarray) -> float:
    # a numpy reduction, not np.vdot: BLAS may split the sum over threads, and
    # the result would then depend on the thread count
    return float((weights * (a_hat.real * b_hat.real + a_hat.imag * b_hat.imag)).sum())


def spectral_inner(torus: FlatTorus, a_hat: np.ndarray, b_hat: np.ndarray) -> float:
    """int a b from half-spectrum coefficients (Parseval)."""
    return _weighted_inner(_spectral_tables(torus)["parseval"], a_hat, b_hat)


def dirichlet_form(torus: FlatTorus, a_hat: np.ndarray, b_hat: np.ndarray) -> float:
    """int grad a . grad b from half-spectrum coefficients (Parseval), with the
    same Nyquist-free derivative symbols as `gradient_arrays`."""
    return _weighted_inner(_spectral_tables(torus)["dirichlet"], a_hat, b_hat)


def integrate(f: GridField) -> float:
    """Riemann (midpoint) quadrature: sum of node values times the cell area."""
    return float(f.values.sum() * f.torus.cell_area)


def gradient(f: GridField) -> tuple[GridField, GridField]:
    """Spectral gradient (d/dx1, d/dx2)."""
    g1, g2 = gradient_arrays(f.torus, f.values)
    return GridField(f.torus, g1), GridField(f.torus, g2)


def gradient_arrays(torus: FlatTorus, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tab = _spectral_tables(torus)
    vh = to_spectrum(values)
    return (from_spectrum(torus, 1j * tab["k1d"] * vh),
            from_spectrum(torus, 1j * tab["k2d"] * vh))


def laplacian(f: GridField) -> GridField:
    return GridField(f.torus, laplacian_array(f.torus, f.values))


def laplacian_array(torus: FlatTorus, values: np.ndarray) -> np.ndarray:
    return from_spectrum(torus, -minus_laplacian_symbol(torus) * to_spectrum(values))


def dirichlet_energy(f: GridField) -> float:
    """Integral of |grad f|^2 over the torus."""
    coeffs = to_spectrum(f.values)
    return dirichlet_form(f.torus, coeffs, coeffs)


def helmholtz_solve(torus: FlatTorus, rhs: np.ndarray, tau: float) -> np.ndarray:
    """Solve (-Laplacian + tau) u = rhs spectrally (tau > 0)."""
    return from_spectrum(torus, to_spectrum(rhs) / (minus_laplacian_symbol(torus) + tau))


def greens_function(torus: FlatTorus, p: Point) -> GridField:
    """Mean-zero G_p with -Laplacian(G_p) = delta_p^h - 1, where delta_p^h is the
    grid delta (1/cell_area at the node nearest p, zero elsewhere); a copy."""
    return GridField(torus, _greens_values(torus, torus.nearest_node(p)).copy())


@lru_cache(maxsize=32)
def _greens_values(torus: FlatTorus, node: tuple[int, int]) -> np.ndarray:
    """`greens_function`'s values by nearest node, shared and read-only."""
    rhs = np.full((torus.n, torus.n), -1.0)
    rhs[node] += 1.0 / torus.cell_area
    denom = minus_laplacian_symbol(torus).copy()
    denom[0, 0] = 1.0
    ghat = to_spectrum(rhs) / denom
    ghat[0, 0] = 0.0
    values = from_spectrum(torus, ghat)
    values.flags.writeable = False
    return values


def desingularized_weight(h: GridField, singular: SingularData, component: int) -> GridField:
    """Multiply h by exp(-4 pi sum_j alpha_j G_{p_j}); near p_j the product vanishes
    like d(x, p_j)^(2 alpha_j), which removes the Dirac data from the equation."""
    if component not in (1, 2):
        raise ValueError(f"component must be 1 or 2, got {component}")
    if np.min(h.values) <= 0.0:
        raise ValueError("weight h must be strictly positive")
    alphas = singular.alpha1 if component == 1 else singular.alpha2
    log_factor = np.zeros_like(h.values)
    for p, alpha in zip(singular.points, alphas):
        if alpha != 0.0:
            log_factor -= 4.0 * np.pi * alpha * _greens_values(h.torus, h.torus.nearest_node(p))
    return GridField(h.torus, h.values * np.exp(log_factor))


def random_smooth_field(torus: FlatTorus, rng: np.random.Generator,
                        modes: int = 4, scale: float = 1.0) -> GridField:
    """Band-limited random field: real combination of Fourier modes |k| <= modes."""
    n = torus.n
    coeffs = np.zeros((n, n), dtype=complex)
    for a in range(-modes, modes + 1):
        for b in range(-modes, modes + 1):
            if a == 0 and b == 0:
                continue
            coeffs[a % n, b % n] = rng.normal() + 1j * rng.normal()
    vals = np.fft.ifft2(coeffs).real
    vals *= scale / max(np.abs(vals).max(), 1e-300)
    return GridField(torus, vals)
