"""Reproducible experiment runner.

Every subcommand reads a JSON config, writes CSV/JSON data plus a manifest
(config echo, library versions, seed, thread count) into the output
directory, and exits 0 on success, 2 on an invalid config (malformed values,
non-object sections, unknown top-level keys, a weight that is not strictly
positive at every node, both curve levels on one grid row, and marked points
given to any subcommand but `quantization`, `solve` and `continuation`, the
three that read them), 3 on a module precondition failure, and 4 when a
solve fails to converge.  Subcommands that pose a problem (`test-energy`,
`quantization`, `solve`, `continuation`) read it from the `problem` key:
"toda" (the default) or "meanfield".  Data outputs are byte-identical
across runs with the same config and seed; wall-clock timestamps appear only
in the manifest.  JSON data files are compact: one line with sorted keys.
Subcommands run serially: the thread count (`--threads` or the `threads`
key) must be at least 1 and is echoed in the manifest, but has no effect.

Grid fields are stored as flat binary: a 32-byte header (8-byte magic
``TORUSFLD``, unsigned 64-bit resolution, two 64-bit periods, all
little-endian) followed by the row-major float64 samples, with a JSON sidecar
describing the layout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import platform
import struct
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .functionals import RhoPair, mt_ratio, mt_system_gap
from .geometry import (
    CurveSystem,
    FlatTorus,
    GridField,
    Point,
    SingularData,
    random_smooth_field,
)
from .joins import (
    DEFAULT_SUBSAMPLES,
    JoinElement,
    energy_curve,
    homotopy_identity_check,
    kr_scaling_check,
    scalar_test_function,
    test_function,
)
from .measures import BarycenterMeasure
from .quantization import blowup_candidates, global_lambda, global_membership, local_lambda
from .solver import SolverConfig, blowup_masses, continuation_sweep, minimize, pde_residual

FIELD_MAGIC = b"TORUSFLD"


class ConfigError(ValueError):
    """Raised when the experiment config cannot be interpreted."""


# ----- grid field file format ---------------------------------------------------

def write_field(path: Path, field: GridField, label: str) -> None:
    """Binary dump (32-byte header + row-major float64) with a JSON sidecar."""
    torus = field.torus
    header = struct.pack("<8sQdd", FIELD_MAGIC, torus.n, torus.L1, torus.L2)
    path.write_bytes(header + field.values.astype("<f8").tobytes(order="C"))
    sidecar = {
        "magic": FIELD_MAGIC.decode(),
        "resolution": torus.n,
        "periods": [torus.L1, torus.L2],
        "dtype": "<f8",
        "order": "row-major",
        "header_bytes": 32,
        "label": label,
    }
    _write_json(path.with_suffix(path.suffix + ".json"), sidecar)


def read_field(path: Path) -> GridField:
    blob = Path(path).read_bytes()
    if len(blob) < 32:
        raise ValueError(f"{path} is too short to hold a field header")
    magic, n, l1, l2 = struct.unpack("<8sQdd", blob[:32])
    if magic != FIELD_MAGIC:
        raise ValueError(f"{path} does not start with the field magic {FIELD_MAGIC!r}")
    values = np.frombuffer(blob[32:], dtype="<f8")
    if values.size != n * n:
        raise ValueError(f"{path} holds {values.size} samples, expected {n * n}")
    return GridField(FlatTorus(int(n), l1, l2), values.reshape(int(n), int(n)).copy())


# ----- weight profiles -----------------------------------------------------------

def h_profile(torus: FlatTorus, config: dict, key: str = "h") -> GridField:
    """Named weight profiles: `constant`, `sin-bump`, `gauss-bump` (periodicized).
    A weight that is not strictly positive at every node is a ConfigError naming `key`."""
    profile = config.get("profile", "constant")
    if profile == "constant":
        values = np.full((torus.n, torus.n), _expect(config, "value", _real, 1.0))
    elif profile == "sin-bump":
        a = _expect(config, "amplitude", _real, 0.3)
        if not -1.0 < a < 1.0:
            raise ConfigError(f"sin-bump amplitude must lie in (-1, 1), got {a}")
        x1, x2 = torus.axes()
        values = (1.0 + a * np.sin(2.0 * np.pi * x1 / torus.L1)[:, None]
                  * np.sin(2.0 * np.pi * x2 / torus.L2)[None, :])
    elif profile == "gauss-bump":
        a = _expect(config, "amplitude", _real, 0.5)
        w = _expect(config, "width", _real, 0.1)
        cx, cy = _expect(config, "center", _pair, (0.5, 0.5))
        if a <= -1.0 or w <= 0.0:
            raise ConfigError("gauss-bump needs amplitude > -1 and width > 0")
        # the Gaussian factors, so the sum over the 3 x 3 nearest periodic images
        # (farther ones are negligible) is an outer product of per-axis sums
        g1, g2 = (sum(np.exp(-(x - c - m * length) ** 2 / (2.0 * w * w)) for m in (-1, 0, 1))
                  for x, c, length in zip(torus.axes(), (cx, cy), (torus.L1, torus.L2)))
        values = 1.0 + a * np.outer(g1, g2)
    else:
        raise ConfigError(f"unknown weight profile {profile!r}")
    if not values.min() > 0.0:
        raise ConfigError(f"config key {key!r} gives a weight with minimum {values.min():.6g}; "
                          "it must be strictly positive")
    return torus.field(values)


# ----- configuration --------------------------------------------------------------

def _expect(mapping: dict, key: str, kind, default):
    """The one place a config value is converted: `kind` failing is a ConfigError."""
    try:
        return kind(mapping.get(key, default))
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"config key {key!r} is invalid: {exc}") from exc


def _section(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


def _list_of(kind):
    def convert(values) -> list:
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"expected a JSON list, got {values!r}")
        return [kind(v) for v in values]
    return convert


def _real(value) -> float:
    """A JSON number; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _count(value) -> int:
    """An integral JSON number: 3 or 3.0, but not 3.9 or true."""
    if not _real(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _pair(value) -> tuple[float, float]:
    x, y = _list_of(_real)(value)
    return x, y


def _one_of(*names):
    def check(value):
        if value not in names:
            raise ValueError(f"expected one of {names}, got {value!r}")
        return value
    return check


def _lambda_grid(config) -> list[float]:
    """An explicit list, or `start`/`stop`/`count` with `spacing` "log" or "linear"."""
    if not isinstance(config, dict):
        return _list_of(_real)(config)
    spacing = _expect(config, "spacing", _one_of("log", "linear"), "log")
    return list((np.geomspace if spacing == "log" else np.linspace)(
        _expect(config, "start", _real, 10.0), _expect(config, "stop", _real, 1000.0),
        _expect(config, "count", _count, 9)))


# top-level keys only some subcommands read, echoed into the manifest as given;
# every other accepted key is one that `ExperimentConfig.load` resolves
OPTION_KEYS = ("problem", "initial", "components", "r_values", "lam", "box", "rho_samples",
               "nu", "steps", "subsamples", "fit_floor", "random_fields", "mass_centers",
               "mass_radius")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, validated up front and echoed into the manifest."""

    torus: FlatTorus
    curves: CurveSystem
    singular: SingularData
    h1: GridField
    h2: GridField
    rho: RhoPair
    lambdas: tuple[float, ...]
    k: int
    l: int
    r: float
    solver: SolverConfig
    seed: int
    threads: int
    tol: Optional[float]
    out: Path
    resolved: dict  # the full parameter set, for the manifest

    @staticmethod
    def load(config_path: Optional[str], out: str, seed: Optional[int],
             threads: Optional[int], tol: Optional[float]) -> "ExperimentConfig":
        raw = {}
        if config_path is not None:
            try:
                raw = _section(json.loads(Path(config_path).read_text()))
            except (OSError, ValueError, TypeError) as exc:
                raise ConfigError(f"cannot read config {config_path}: {exc}") from exc

        if "alpha" in raw:
            raise ConfigError("config key 'alpha' is retired: give 'singular' points instead")
        grid, curves_raw, singular_raw, solver_raw = (
            _expect(raw, key, _section, {}) for key in ("grid", "curves", "singular", "solver"))
        h_config = _expect(raw, "h", _section, {"profile": "constant"})
        h2_config = _expect(raw, "h2", _section, h_config)
        try:
            torus = FlatTorus(_expect(grid, "n", _count, 64),
                              *_expect(grid, "periods", _pair, (1.0, 1.0)))
            curves = CurveSystem(_expect(curves_raw, "c1", _real, 0.25),
                                 _expect(curves_raw, "c2", _real, 0.75))
            rows = {torus.nearest_node(torus.point(0.0, c))[1] for c in (curves.c1, curves.c2)}
            if len(rows) == 1:
                raise ConfigError(f"config key 'curves' puts both levels on grid row {rows.pop()}")
            singular = SingularData.of(_expect(singular_raw, "points", _list_of(_pair), []),
                                       _expect(singular_raw, "alpha1", _list_of(_real), []),
                                       _expect(singular_raw, "alpha2", _list_of(_real), []), torus)
            solver = SolverConfig(
                max_iterations=_expect(solver_raw, "max_iterations", _count, 2000),
                gradient_tolerance=_expect(solver_raw, "gradient_tolerance", _real, 1e-8))
            h1 = h_profile(torus, h_config)
            h2 = h1 if h2_config is h_config else h_profile(torus, h2_config, "h2")
            rho = RhoPair(*_expect(raw, "rho", _pair, (2.0 * np.pi, 2.0 * np.pi)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        lambdas = tuple(_expect(raw, "lambdas", _lambda_grid, {}))
        if tol is None and raw.get("tol") is not None:
            tol = _expect(raw, "tol", _real, None)

        resolved = {
            "grid": {"n": torus.n, "periods": [torus.L1, torus.L2]},
            "curves": {"c1": curves.c1, "c2": curves.c2},
            "singular": {"points": [[p.x1, p.x2] for p in singular.points],
                         "alpha1": list(singular.alpha1), "alpha2": list(singular.alpha2)},
            "h": h_config, "h2": h2_config,
            "rho": [rho.rho1, rho.rho2],
            "lambdas": list(lambdas),
            "k": _expect(raw, "k", _count, 1), "l": _expect(raw, "l", _count, 1),
            "r": _expect(raw, "r", _real, 0.5),
            "solver": {"max_iterations": solver.max_iterations,
                       "gradient_tolerance": solver.gradient_tolerance},
            "seed": seed if seed is not None else _expect(raw, "seed", _count, 0),
            "threads": threads if threads is not None else _expect(raw, "threads", _count, 1),
            "tol": tol,
        }
        for key in OPTION_KEYS:
            if key in raw:
                resolved[key] = raw[key]
        unknown = sorted(set(raw) - set(resolved))
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        if not 0.0 <= resolved["r"] <= 1.0:
            raise ConfigError(f"join coordinate r must lie in [0, 1], got {resolved['r']}")
        if resolved["k"] < 1 or resolved["l"] < 1:
            raise ConfigError("atom budgets k and l must be at least 1")
        if resolved["threads"] < 1:
            raise ConfigError("thread count must be at least 1")
        if tol is not None and tol <= 0:
            raise ConfigError("tolerance must be positive when given")

        return ExperimentConfig(
            torus=torus, curves=curves, singular=singular, h1=h1, h2=h2, rho=rho,
            lambdas=lambdas, k=resolved["k"], l=resolved["l"], r=resolved["r"],
            solver=solver, seed=resolved["seed"], threads=resolved["threads"], tol=tol,
            out=Path(out), resolved=resolved)

    def option(self, key: str, kind, default):
        return _expect(self.resolved, key, kind, default)

    def join_element(self) -> JoinElement:
        """Atoms spread evenly along each marked circle, snapped to grid nodes."""
        def atoms(count: int, level: float) -> BarycenterMeasure:
            pts = [self.torus.snap(Point((i + 0.5) * self.torus.L1 / count, level))
                   for i in range(count)]
            return BarycenterMeasure.of([1.0 / count] * count, pts, capacity=count)
        return JoinElement(atoms(self.k, self.curves.c1),
                           atoms(self.l, self.curves.c2), self.r)


# ----- serialization helpers ------------------------------------------------------

def _write_json(path: Path, payload: dict) -> None:
    # no indent: with one, CPython falls back to its pure-Python encoder
    path.write_text(json.dumps(payload, sort_keys=True, default=lambda v: v.tolist()) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                             else v for v in row])


def _write_manifest(cfg: ExperimentConfig, subcommand: str) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": cfg.resolved,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "versions": {
            "torusvar": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(cfg.out / "manifest.json", manifest)


# ----- subcommands ----------------------------------------------------------------

def _run_quantization(cfg: ExperimentConfig) -> int:
    problem, _ = _problem_and_weights(cfg)
    # local sets are the Toda problem's; a mean-field report's table is `candidates`
    pairs = ((list(zip(cfg.singular.alpha1, cfg.singular.alpha2)) or [(0.0, 0.0)])
             if problem == "toda" else [])
    box = cfg.option("box", _pair, (40.0, 40.0))
    samples = [RhoPair(*p) for p in cfg.option("rho_samples", _list_of(_pair), [])]
    gs = global_lambda(cfg.singular, box, problem)
    report = {
        "local": [{"alpha": [a1, a2], "points": local_lambda(a1, a2).points}
                  for a1, a2 in pairs],
        "candidates": blowup_candidates(cfg.singular, problem=problem),
        "global": {
            "box": box,
            "lambda1": gs.lambda1,
            "lambda2": gs.lambda2,
            "lambda0": gs.lambda0,
        },
    }
    membership = []
    for rho in samples:
        verdict = global_membership(rho, cfg.singular, cfg.tol if cfg.tol else 1e-9, problem)
        membership.append({"rho": [rho.rho1, rho.rho2], "inside": verdict.inside,
                           "distance": verdict.nearest_distance,
                           "witness": verdict.witness})
    report["membership"] = membership
    _write_json(cfg.out / "quantization.json", report)
    return 0


def _run_test_energy(cfg: ExperimentConfig) -> int:
    problem, weights = _problem_and_weights(cfg)
    subsamples = cfg.option("subsamples", _count, DEFAULT_SUBSAMPLES)
    curve = energy_curve(problem, cfg.torus, cfg.join_element(), cfg.rho, cfg.lambdas,
                         weights, subsamples)
    _write_csv(cfg.out / "energy.csv", ["problem", "lambda", "scale1", "scale2", "value"],
               [(problem, *row) for row in curve.rows()])
    per_bubble = 8.0 * np.pi if problem == "toda" else 16.0 * np.pi
    predicted = 0.0
    if cfg.r < 1.0:  # the first family only contributes while its scale grows
        predicted += per_bubble * cfg.k - 2.0 * cfg.rho.rho1
    if cfg.r > 0.0:
        predicted += per_bubble * cfg.l - 2.0 * cfg.rho.rho2
    _write_json(cfg.out / "slopes.json", {problem: {"slope": curve.slope,
                                                    "predicted": predicted}})
    return 0


def _run_kr_scaling(cfg: ExperimentConfig) -> int:
    components = cfg.option("components", _list_of(_count), [1, 2])
    zeta = cfg.join_element()
    subsamples = cfg.option("subsamples", _count, DEFAULT_SUBSAMPLES)
    fit_floor = cfg.option("fit_floor", _real, 10.0)
    curves = list(zip(components, kr_scaling_check(cfg.torus, zeta, cfg.lambdas, components,
                                                   cfg.h1, cfg.h2, subsamples=subsamples,
                                                   fit_floor=fit_floor)))
    rows = [(c, lam, s1, s2, d) for c, curve in curves
            for lam, s1, s2, d in curve.rows()]
    _write_csv(cfg.out / "kr.csv",
               ["component", "lambda", "scale1", "scale2", "distance"], rows)
    _write_json(cfg.out / "kr.json",
                {f"component{c}": {"slope": curve.slope} for c, curve in curves})
    return 0


def _run_projection(cfg: ExperimentConfig) -> int:
    lam = cfg.option("lam", _real, 1000.0)
    r_values = cfg.option("r_values", _list_of(_real), [0.0, 0.5, 1.0])
    subsamples = cfg.option("subsamples", _count, DEFAULT_SUBSAMPLES)
    base = cfg.join_element()

    reports = []
    for r in r_values:
        zeta = JoinElement(base.sigma1, base.sigma2, r)
        reports.append((r, homotopy_identity_check(cfg.torus, zeta, lam, cfg.h1, cfg.h2,
                                                   cfg.curves, subsamples=subsamples)))
    _write_csv(cfg.out / "projection.csv",
               ["r", "displacement1", "displacement2", "r_deviation"],
               [(r, rep.atom_displacement_1, rep.atom_displacement_2, rep.r_deviation)
                for r, rep in reports])
    _write_json(cfg.out / "projection.json",
                {"lambda": lam,
                 "worst_displacement": max(max(rep.atom_displacement_1,
                                               rep.atom_displacement_2)
                                           for _, rep in reports),
                 "worst_r_deviation": max(rep.r_deviation for _, rep in reports)})
    return 0


def _run_mt_check(cfg: ExperimentConfig) -> int:
    subsamples = cfg.option("subsamples", _count, DEFAULT_SUBSAMPLES)
    random_fields = cfg.option("random_fields", _count, 5)
    zeta = cfg.join_element()
    pure = JoinElement(zeta.sigma1, zeta.sigma2, 0.0)  # single-family bubble for the ratio
    rows = []
    ratios = []
    gaps = []
    for lam in cfg.lambdas:
        u = scalar_test_function(cfg.torus, pure, lam, subsamples)
        ratio = mt_ratio(u)
        ratios.append(ratio)
        rows.append(("bubble-ratio", lam, ratio))
        phi1, phi2 = test_function(cfg.torus, zeta, lam, subsamples)
        gap = mt_system_gap(phi1, phi2, cfg.h1, cfg.h2)
        gaps.append(gap)
        rows.append(("system-gap", lam, gap))
    rng = np.random.default_rng(cfg.seed)
    random_ratios = []
    for index in range(random_fields):
        u = random_smooth_field(cfg.torus, rng, modes=4, scale=1.5)
        ratio = mt_ratio(u)
        random_ratios.append(ratio)
        rows.append(("random-ratio", float(index), ratio))
    _write_csv(cfg.out / "mt.csv", ["case", "lambda", "value"], rows)
    _write_json(cfg.out / "mt.json", {
        "max_bubble_ratio": max(ratios),
        "min_system_gap": min(gaps),
        "max_random_ratio": max(random_ratios) if random_ratios else None,
    })
    return 0


def _problem_and_weights(cfg: ExperimentConfig) -> tuple[str, object]:
    """The configured problem name and the weights its solver takes."""
    problem = cfg.option("problem", _one_of("toda", "meanfield"), "toda")
    return problem, ((cfg.h1, cfg.h2) if problem == "toda" else cfg.h1)


def _run_solve(cfg: ExperimentConfig) -> int:
    problem, weights = _problem_and_weights(cfg)
    centers = [Point(*p) for p in cfg.option("mass_centers", _list_of(_pair), [])]
    radius = cfg.option("mass_radius", _real, 5.0 * cfg.torus.max_spacing)
    names = ("u1", "u2") if problem == "toda" else ("u",)
    initial = None
    if cfg.option("initial", _one_of("zero", "random"), "zero") == "random":
        rng = np.random.default_rng(cfg.seed)
        initial = tuple(random_smooth_field(cfg.torus, rng, modes=4, scale=0.5)
                        for _ in names)
    if cfg.tol is not None:  # the forbidden-set gate
        verdict = global_membership(cfg.rho, cfg.singular, cfg.tol, problem)
        if verdict.inside:
            raise ValueError(f"rho = ({cfg.rho.rho1:.6f}, {cfg.rho.rho2:.6f}) lies within "
                             f"{cfg.tol} of the forbidden set (witness: {verdict.witness})")
    result = minimize(problem, weights, cfg.rho, cfg.singular, cfg.solver, initial)
    residual = pde_residual(problem, result.u, weights, cfg.rho, cfg.singular)
    for name, component in zip(names, result.u):
        write_field(cfg.out / f"solution_{name}.bin", component, name)
    report = {
        "problem": problem,
        "rho": [cfg.rho.rho1, cfg.rho.rho2],
        "energy": result.energy,
        "energy_coarse": result.energy_coarse,
        "energy_gap": result.energy_gap,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "coarse_iterations": result.coarse_iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "coercive": result.coercive,
        "pde_residual": residual,
    }
    if centers:
        masses = blowup_masses(problem, result.u, weights, cfg.rho, centers, radius,
                               cfg.singular)
        report["mass_report"] = [{
            "center": [m.center.x1, m.center.x2],
            "masses": list(m.masses),
            "nearest_candidate": list(m.nearest_candidate),
            "candidate_distance": m.candidate_distance,
        } for m in masses]
    _write_json(cfg.out / "solve.json", report)
    return 0 if result.converged else 4


def _run_continuation(cfg: ExperimentConfig) -> int:
    problem, weights = _problem_and_weights(cfg)
    nu = cfg.option("nu", _real, 0.5)
    steps = cfg.option("steps", _count, 5)
    results = continuation_sweep(problem, cfg.rho, nu, steps, weights, cfg.singular,
                                 cfg.solver)
    mus = np.linspace(-nu, nu, steps)
    _write_csv(cfg.out / "continuation.csv",
               ["mu", "rho1", "rho2", "energy", "energy_coarse", "energy_gap", "iterations",
                "residual_norm", "converged", "stop_reason"],
               [(float(mu), cfg.rho.rho1 + float(mu), cfg.rho.rho2 + float(mu), r.energy,
                 r.energy_coarse, r.energy_gap, r.iterations, r.residual_norm, int(r.converged),
                 r.stop_reason) for mu, r in zip(mus, results)])
    _write_json(cfg.out / "continuation.json", {
        "nu": nu, "steps": steps,
        "all_converged": all(r.converged for r in results),
        "energies": [r.energy for r in results],
    })
    return 0 if all(r.converged for r in results) else 4


_RUNNERS = {
    "quantization": _run_quantization,
    "test-energy": _run_test_energy,
    "kr-scaling": _run_kr_scaling,
    "projection": _run_projection,
    "mt-check": _run_mt_check,
    "solve": _run_solve,
    "continuation": _run_continuation,
}


def run(subcommand: str, cfg: ExperimentConfig) -> int:
    """Dispatch a subcommand; the manifest is written before any work starts."""
    # only these read marked points; every other subcommand uses the raw weights
    if subcommand not in ("quantization", "solve", "continuation") and len(cfg.singular):
        raise ConfigError(f"config key 'singular' is not read by {subcommand}")
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_manifest(cfg, subcommand)
    return _RUNNERS[subcommand](cfg)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="torusvar",
        description="Variational experiments on the flat torus: energies on bubble "
                    "families, transport projections, quantization tables, solves.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--threads", type=int, help="accepted and echoed; has no effect")
        p.add_argument("--tol", type=float,
                       help="forbidden-set gate tolerance (overrides config)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)

    try:
        return run(args.subcommand, ExperimentConfig.load(
            args.config, args.out, args.seed, args.threads, args.tol))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
