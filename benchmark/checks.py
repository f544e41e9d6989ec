"""Output checks that decide each benchmark op's verdict.

Every check recomputes its verdict with plain numpy from what the program
wrote or returned, never through torusvar itself: solution fields are read
from the binary field format and fed to a strong-form residual assembled
here (own weight profiles, own Green's functions, own spectral Laplacian);
membership verdicts are compared with nearest distances to the enumerated
lines and points; projection outputs are held to the regime the join
coordinate must land in.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

PDE_RESIDUAL_LIMIT = 1e-6
SLOPE_TARGET, SLOPE_TOLERANCE = -1.0, 0.15
DISTANCE_AGREEMENT = 1e-9
REPORT_AGREEMENT = 1e-6  # relative; a reported residual against the one recomputed here


# ----- solves -----------------------------------------------------------------

def read_field(path: Path) -> np.ndarray:
    """Samples of a field file: 32-byte header (magic, n, L1, L2), then float64."""
    blob = Path(path).read_bytes()
    magic, n, _, _ = struct.unpack("<8sQdd", blob[:32])
    if magic != b"TORUSFLD":
        raise ValueError(f"{path} is not a field file")
    return np.frombuffer(blob[32:], dtype="<f8").reshape(n, n)


def _node_axes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(n) / n
    return np.meshgrid(x, x, indexing="ij")


def weight_profile(n: int, spec: dict) -> np.ndarray:
    """The `constant` and `gauss-bump` weight profiles on the unit torus."""
    profile = spec.get("profile", "constant")
    if profile == "constant":
        return np.full((n, n), float(spec.get("value", 1.0)))
    if profile != "gauss-bump":
        raise ValueError(f"no reference for weight profile {profile!r}")
    x1, x2 = _node_axes(n)
    cx, cy = spec["center"]
    w = float(spec["width"])
    bump = sum(np.exp(-((x1 - cx - m1) ** 2 + (x2 - cy - m2) ** 2) / (2.0 * w * w))
               for m1 in (-1, 0, 1) for m2 in (-1, 0, 1))
    return 1.0 + float(spec["amplitude"]) * bump


def _minus_laplacian_symbol(n: int) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None] ** 2 + k[None, :] ** 2


def _laplacian(values: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(-_minus_laplacian_symbol(len(values)) * np.fft.fft2(values)).real


def green(n: int, point: Sequence[float]) -> np.ndarray:
    """Mean-zero G with -Lap G = (grid delta at the node nearest point) - 1."""
    i, j = (int(round(c * n)) % n for c in point)
    rhs = np.full((n, n), -1.0)
    rhs[i, j] += n * n
    symbol = _minus_laplacian_symbol(n)
    symbol[0, 0] = 1.0
    g_hat = np.fft.fft2(rhs) / symbol
    g_hat[0, 0] = 0.0
    return np.fft.ifft2(g_hat).real


def singular_weight(n: int, spec: dict, singular: dict, component: int) -> np.ndarray:
    alphas = singular.get("alpha1" if component == 1 else "alpha2", [])
    log_factor = np.zeros((n, n))
    for p, alpha in zip(singular.get("points", []), alphas):
        log_factor -= 4.0 * np.pi * alpha * green(n, p)
    return weight_profile(n, spec) * np.exp(log_factor)


def _density(values: np.ndarray, weight: np.ndarray) -> np.ndarray:
    raw = weight * np.exp(values - values.max())
    return raw / raw.mean()


def strong_residual(u: Sequence[np.ndarray], weights: Sequence[np.ndarray],
                    rho: Sequence[float]) -> float:
    """L2 norm of the strong-form equations: the two-component system for two
    fields, the sinh-type mean-field equation for one."""
    r1, r2 = rho
    if len(u) == 2:
        f1, f2 = _density(u[0], weights[0]), _density(u[1], weights[1])
        e1 = -_laplacian(u[0]) - 2.0 * r1 * (f1 - 1.0) + r2 * (f2 - 1.0)
        e2 = -_laplacian(u[1]) - 2.0 * r2 * (f2 - 1.0) + r1 * (f1 - 1.0)
        return float(np.sqrt((e1 * e1 + e2 * e2).mean()))
    f_plus, f_minus = _density(u[0], weights[0]), _density(-u[0], weights[0])
    e = -_laplacian(u[0]) - r1 * (f_plus - 1.0) + r2 * (f_minus - 1.0)
    return float(np.sqrt((e * e).mean()))


def problem_weights(config: dict) -> list[np.ndarray]:
    """Desingularized weights the way the config poses the problem."""
    n = config["grid"]["n"]
    singular = config.get("singular", {})
    h = config.get("h", {"profile": "constant"})
    if config.get("problem", "toda") == "toda":
        return [singular_weight(n, h, singular, 1),
                singular_weight(n, config.get("h2", h), singular, 2)]
    return [singular_weight(n, h, singular, 1)]


def check_solve(config: dict, out: Path, exit_code: int) -> bool:
    """A solve passes when it exits 0 with `converged` set and the written
    fields satisfy the strong-form equations to PDE_RESIDUAL_LIMIT."""
    report = json.loads((out / "solve.json").read_text())
    names = ("u1", "u2") if config.get("problem", "toda") == "toda" else ("u",)
    fields = [read_field(out / f"solution_{name}.bin") for name in names]
    residual = strong_residual(fields, problem_weights(config), config["rho"])
    return exit_code == 0 and report["converged"] is True and residual <= PDE_RESIDUAL_LIMIT


def check_stalled_solve(config: dict, out: Path) -> bool:
    """A solve that exits 4 reports its stall truthfully: `converged` is false,
    the written fields are finite, their smoothed gradient recomputed here is
    above the gradient tolerance and matches the written `residual_norm`, and
    their strong residual matches the written `pde_residual`."""
    report = json.loads((out / "solve.json").read_text())
    names = ("u1", "u2") if config.get("problem", "toda") == "toda" else ("u",)
    fields = [read_field(out / f"solution_{name}.bin") for name in names]
    if report["converged"] is not False or not all(np.isfinite(f).all() for f in fields):
        return False
    weights = problem_weights(config)
    smoothed = descent_residual(fields, weights, config["rho"])
    strong = strong_residual(fields, weights, config["rho"])
    return (smoothed > config["solver"]["gradient_tolerance"] * (1.0 + REPORT_AGREEMENT)
            and _agrees(smoothed, report["residual_norm"])
            and _agrees(strong, report["pde_residual"]))


def _agrees(mine: float, written: float) -> bool:
    return abs(mine - written) <= REPORT_AGREEMENT * abs(mine)


def descent_residual(u: Sequence[np.ndarray], weights: Sequence[np.ndarray],
                     rho: Sequence[float], tau: float = 1.0) -> float:
    """L2 norm of the energy gradient smoothed by (-Lap + tau)^-1: the quantity
    a solve compares with its gradient tolerance."""
    lap = [_laplacian(values) for values in u]
    if len(u) == 2:
        f = [_density(u[0], weights[0]), _density(u[1], weights[1])]
        grads = [-(2.0 / 3.0) * lap[0] - (1.0 / 3.0) * lap[1] + rho[0] * (1.0 - f[0]),
                 -(1.0 / 3.0) * lap[0] - (2.0 / 3.0) * lap[1] + rho[1] * (1.0 - f[1])]
    else:
        f_plus, f_minus = _density(u[0], weights[0]), _density(-u[0], weights[0])
        grads = [-lap[0] + rho[0] * (1.0 - f_plus) - rho[1] * (1.0 - f_minus)]
    symbol = _minus_laplacian_symbol(len(u[0])) + tau
    smoothed = [np.fft.ifft2(np.fft.fft2(g - g.mean()) / symbol).real for g in grads]
    return float(np.sqrt(sum((d * d).mean() for d in smoothed)))


def check_continuation_step(config: dict, rho: Sequence[float], result) -> bool:
    """One warm-started step: `converged` is set and holds, i.e. the smoothed
    gradient of the returned fields at this step's rho is within tolerance."""
    fields = [component.values for component in result.u]
    tolerance = config["solver"]["gradient_tolerance"]
    residual = descent_residual(fields, problem_weights(config), rho)
    return bool(result.converged) and residual <= tolerance * (1.0 + REPORT_AGREEMENT)


def check_stalled_continuation_step(config: dict, rho: Sequence[float], result) -> bool:
    """A step that returns `converged` false reports its stall truthfully: the
    smoothed gradient recomputed here is above tolerance and matches the
    returned `residual_norm`."""
    fields = [component.values for component in result.u]
    residual = descent_residual(fields, problem_weights(config), rho)
    tolerance = config["solver"]["gradient_tolerance"]
    return (not result.converged and residual > tolerance * (1.0 + REPORT_AGREEMENT)
            and _agrees(residual, result.residual_norm))


# ----- projections ------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_projection(config: dict, out: Path, exit_code: int) -> bool:
    """Every r value: the recovered join coordinate lies in its regime (0 at
    r=0, 1 at r=1, inside (0,1) otherwise; rows report |r~ - plateau(r)|), and
    each growing component's atoms move by less than three grid spacings."""
    if exit_code != 0:
        return False
    limit = 3.0 / config["grid"]["n"]
    for row in _rows(out / "projection.csv"):
        r, deviation = row["r"], row["r_deviation"]
        regime = deviation == 0.0 if r in (0.0, 1.0) else deviation < 0.5
        moved = []
        if r < 1.0:
            moved.append(row["displacement1"])
        if r > 0.0:
            moved.append(row["displacement2"])
        if not (regime and max(moved) < limit):
            return False
    return True


def check_kr_scaling(config: dict, out: Path, exit_code: int) -> bool:
    """Each component's fitted decay slope of log d against log scale lies
    within SLOPE_TARGET +/- SLOPE_TOLERANCE, refitted here from kr.csv."""
    if exit_code != 0:
        return False
    rows = _rows(out / "kr.csv")
    for component in config.get("components", [1, 2]):
        scale_key = "scale1" if component == 1 else "scale2"
        mine = [row for row in rows if row["component"] == component
                and row[scale_key] >= config.get("fit_floor", 10.0)]
        if len(mine) < 2:
            return False
        x = np.log([row[scale_key] for row in mine])
        y = np.log([row["distance"] for row in mine])
        if abs(float(np.polyfit(x, y, 1)[0]) - SLOPE_TARGET) > SLOPE_TOLERANCE:
            return False
    return True


# ----- quantization -----------------------------------------------------------

def _on_ellipse(points: np.ndarray, alpha1: float, alpha2: float) -> bool:
    s1, s2 = points[:, 0], points[:, 1]
    defect = s1 * s1 - s1 * s2 + s2 * s2 - 2.0 * (1.0 + alpha1) * s1 - 2.0 * (1.0 + alpha2) * s2
    scale = (1.0 + s1 + s2) ** 2
    return bool(np.all(points >= 0.0)) and bool(np.all(np.abs(defect) <= 1e-9 * scale))


def check_enumeration(config: dict, out: Path, exit_code: int) -> bool:
    """Local points lie on their ellipse; the global set holds every 4 pi line
    and every 4 pi lattice point of the padded box, and nothing outside it."""
    if exit_code != 0:
        return False
    report = json.loads((out / "quantization.json").read_text())
    local_ok = all(_on_ellipse(np.array(entry["points"]), *entry["alpha"])
                   for entry in report["local"])
    box = np.array(report["global"]["box"]) + 4.0 * np.pi
    lines1 = np.array(report["global"]["lambda1"])
    lines2 = np.array(report["global"]["lambda2"])
    points = np.array(report["global"]["lambda0"])
    inside = (np.all(points >= 0.0) and np.all(points <= box + 1e-9)
              and np.all(lines1 <= box[0] + 1e-9) and np.all(lines2 <= box[1] + 1e-9))
    lattice = 4.0 * np.pi * np.arange(int(box.min() / (4.0 * np.pi)) + 1)

    def contains(values: np.ndarray, targets: np.ndarray) -> bool:
        return bool(np.all(np.abs(values[None, :] - targets[:, None]).min(axis=1) <= 1e-9))

    grid = np.array([(a, b) for a in lattice for b in lattice])
    lattice_ok = contains(lines1, lattice) and contains(lines2, lattice) and bool(np.all(
        np.hypot(points[None, :, 0] - grid[:, None, 0],
                 points[None, :, 1] - grid[:, None, 1]).min(axis=1) <= 1e-9))
    return local_ok and bool(inside) and lattice_ok


def nearest_distances(samples: np.ndarray, lines1: np.ndarray, lines2: np.ndarray,
                      points: np.ndarray) -> np.ndarray:
    """Distance from each sample to the nearest line (coordinate gap) or point."""
    d1 = np.abs(samples[:, :1] - lines1[None, :]).min(axis=1)
    d2 = np.abs(samples[:, 1:] - lines2[None, :]).min(axis=1)
    dp = np.hypot(samples[:, :1] - points[None, :, 0],
                  samples[:, 1:] - points[None, :, 1]).min(axis=1)
    return np.minimum(np.minimum(d1, d2), dp)


def check_membership(config: dict, out: Path, exit_code: int, tol: float,
                     controls: Sequence[int]) -> list[bool]:
    """Per written verdict: its distance matches the nearest distance to the
    enumerated set, `inside` agrees with that distance, and on-set controls
    are caught.  The enumeration's box must reach every sample."""
    samples = np.array(config["rho_samples"], dtype=float)
    if exit_code != 0:
        return [False] * len(samples)
    report = json.loads((out / "quantization.json").read_text())
    enum = report["global"]
    expected = nearest_distances(samples, np.array(enum["lambda1"]),
                                 np.array(enum["lambda2"]), np.array(enum["lambda0"]))
    verdicts = []
    for index, (entry, distance) in enumerate(zip(report["membership"], expected)):
        ok = (abs(entry["distance"] - distance) <= DISTANCE_AGREEMENT
              and entry["inside"] == bool(distance <= tol))
        if index in controls:
            ok = ok and entry["inside"]
        verdicts.append(ok)
    verdicts += [False] * (len(samples) - len(verdicts))
    return verdicts
