"""What a traced pass instruments, how spans become per-layer metrics,
percentile selection, and the environment recorded beside every result."""

from __future__ import annotations

import math
import os
import platform
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from tracing import Span, Tracer, self_times

ROUTES = ("closed-form", "lp", "coarsened-closed-form", "coarsened-lp")

END_TO_END = (("wall_s", "s"), ("op_ms.p50", "ms"), ("op_ms.slowest", "ms"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"), ("converged_frac", "ratio"))

# Reported with --trace 1, in this order.
PER_LAYER = (
    ("geometry.spectral.calls", "count"), ("geometry.spectral.self_s", "s"),
    ("geometry.spectral.mbytes_computed", "MB"),
    ("geometry.distance_field.calls", "count"), ("geometry.distance_field.self_s", "s"),
    ("geometry.desingularized_weight.self_s", "s"),
    ("functionals.energy.calls", "count"), ("functionals.energy.self_s", "s"),
    ("functionals.gradient.calls", "count"), ("functionals.gradient.self_s", "s"),
    ("solver.minimize.calls", "count"), ("solver.iterations", "count"),
    ("solver.energy_evals", "count"), ("solver.accept_ratio", "ratio"),
    ("solver.s_per_iter", "s"), ("solver.minimize.self_s", "s"),
    ("solver.pde_residual.self_s", "s"), ("solver.check_continuation_box.self_s", "s"),
    ("joins.test_function.calls", "count"), ("joins.test_function.self_s", "s"),
    ("joins.psi_map.self_s", "s"),
    ("measures.distance_to_barycenters.calls", "count"),
    ("measures.distance_to_barycenters.self_s", "s"),
    ("measures.kr_transport.calls", "count"), ("measures.kr_transport.self_s", "s"),
    *((f"measures.kr_transport.route.{route}", "count") for route in ROUTES),
    ("measures.kr_transport.error_bound_max", "length"),
    ("measures.kr_transport.bound_ratio_max", "ratio"),
    ("quantization.global_lambda.calls", "count"), ("quantization.global_lambda.self_s", "s"),
    ("quantization.global_lambda.points", "count"), ("quantization.local_lambda.self_s", "s"),
    ("quantization.global_membership.calls", "count"),
    ("quantization.global_membership.self_s", "s"), ("quantization.rebuild_ratio", "ratio"),
    ("cli.self_s", "s"), ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
)


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(getattr(obj, "values", None), np.ndarray):  # a GridField
        return obj.values.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(item) for item in obj)
    return 0


def _spectral(args, kwargs, result) -> dict:
    """Computed traffic of one transform call: input plus output array bytes."""
    return {"bytes": _array_bytes(args) + _array_bytes(result)}


def _iterations(args, kwargs, result) -> dict:
    return {} if result is None else {"iterations": result.iterations}


def _route(args, kwargs, result) -> dict:
    if result is None:
        return {}
    return {"method": result.method, "bound": result.error_bound,
            "distance": result.distance}


def _enumeration(args, kwargs, result) -> dict:
    singular, box = args[0], args[1]
    return {"key": (singular, tuple(box)),
            "points": 0 if result is None else len(result.lambda0)}


# (module, attribute or Class.method, layer, describe).  The layer doubles as
# the span name; every caller's reference to the function is wrapped.
INSTRUMENTS = (
    ("torusvar.geometry", "laplacian_array", "geometry.spectral", _spectral),
    ("torusvar.geometry", "gradient_arrays", "geometry.spectral", _spectral),
    ("torusvar.geometry", "helmholtz_solve", "geometry.spectral", _spectral),
    ("torusvar.geometry", "greens_function", "geometry.spectral", _spectral),
    ("torusvar.geometry", "FlatTorus.distance_field", "geometry.distance_field", None),
    ("torusvar.geometry", "desingularized_weight", "geometry.desingularized_weight", None),
    ("torusvar.functionals", "toda_energy", "functionals.energy", None),
    ("torusvar.functionals", "meanfield_energy", "functionals.energy", None),
    ("torusvar.functionals", "toda_gradient", "functionals.gradient", None),
    ("torusvar.functionals", "meanfield_gradient", "functionals.gradient", None),
    ("torusvar.solver", "minimize", "solver.minimize", _iterations),
    ("torusvar.solver", "pde_residual", "solver.pde_residual", None),
    ("torusvar.solver", "check_continuation_box", "solver.check_continuation_box", None),
    ("torusvar.joins", "test_function", "joins.test_function", None),
    ("torusvar.joins", "scalar_test_function", "joins.test_function", None),
    ("torusvar.joins", "psi_map", "joins.psi_map", None),
    ("torusvar.measures", "distance_to_barycenters", "measures.distance_to_barycenters", None),
    ("torusvar.measures", "kr_transport", "measures.kr_transport", _route),
    ("torusvar.quantization", "global_lambda", "quantization.global_lambda", _enumeration),
    ("torusvar.quantization", "local_lambda", "quantization.local_lambda", None),
    ("torusvar.quantization", "global_membership", "quantization.global_membership", None),
    ("torusvar.cli", "main", "cli", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in INSTRUMENTS))


def instrument(tracer: Tracer) -> None:
    for module, attr, layer, describe in INSTRUMENTS:
        if "." in attr:
            cls_name, method = attr.split(".")
            tracer.patch_method(getattr(sys.modules[module], cls_name), method, layer, describe)
        else:
            tracer.patch_function(module, attr, layer, describe)


# ----- per-layer metrics ------------------------------------------------------

def layer_metrics(spans: Sequence[Span], bytes_written: int) -> dict[str, float]:
    """Counts, self times and ratios per layer for one traced pass."""
    own = self_times(list(spans))
    by_id = {s.id: s for s in spans}
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.name == layer]
        metrics[f"{layer}.calls"] = len(mine)
        metrics[f"{layer}.self_s"] = sum(own[s.id] for s in mine)

    def under_minimize(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == "solver.minimize":
                return True
            parent = by_id[parent].parent
        return False

    def of(layer: str) -> list[Span]:
        return [s for s in spans if s.name == layer]

    metrics["geometry.spectral.mbytes_computed"] = sum(
        s.info.get("bytes", 0) for s in of("geometry.spectral")) / 1e6
    solves = of("solver.minimize")
    iterations = sum(s.info.get("iterations", 0) for s in solves)
    energy_evals = sum(1 for s in of("functionals.energy") if under_minimize(s))
    trials = energy_evals - len(solves)  # every solve evaluates its start once
    metrics["solver.iterations"] = iterations
    metrics["solver.energy_evals"] = energy_evals
    metrics["solver.accept_ratio"] = iterations / trials if trials > 0 else 0.0
    metrics["solver.s_per_iter"] = (sum(s.duration for s in solves) / iterations
                                    if iterations else 0.0)
    transports = of("measures.kr_transport")
    for route in ROUTES:
        metrics[f"measures.kr_transport.route.{route}"] = sum(
            1 for s in transports if s.info.get("method") == route)
    bounds = [s.info["bound"] for s in transports if "bound" in s.info]
    ratios = [s.info["bound"] / s.info["distance"] for s in transports
              if s.info.get("distance", 0.0) > 0.0]
    metrics["measures.kr_transport.error_bound_max"] = max(bounds, default=0.0)
    metrics["measures.kr_transport.bound_ratio_max"] = max(ratios, default=0.0)
    enumerations = of("quantization.global_lambda")
    metrics["quantization.global_lambda.points"] = sum(
        s.info.get("points", 0) for s in enumerations)
    keys = {s.info["key"] for s in enumerations if "key" in s.info}
    metrics["quantization.rebuild_ratio"] = (len(keys) / len(enumerations)
                                             if enumerations else 0.0)
    metrics["cli.bytes_written"] = bytes_written
    return metrics


def attributed_seconds(spans: Sequence[Span]) -> float:
    """Sum of self times: the traced wall time that some layer accounts for."""
    return sum(self_times(list(spans)).values())


# ----- statistics ---------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the sample count it was chosen from."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


# ----- environment --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_size(level: int) -> Optional[str]:
    """Size of one instance of the unified cache at this level, as sysfs lists it."""
    try:
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            if (index / "level").read_text().strip() == str(level):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def environment(threads: int, seed: int) -> dict:
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "l2": _cache_size(2), "l3": _cache_size(3),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cli_threads": threads, "seed": seed}
