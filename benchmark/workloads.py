"""The three workloads: seeded configs, how each CLI invocation runs, and
which of its results count as ops.

The seed moves every feature of a configuration (marked points, weight
bumps, marked circles) by one grid translation, draws the scalar solve's
random start, and jitters the membership queries inside fixed strata.  A
grid translation poses an equivalent discrete problem, so every seed costs
the same amount of work while the program sees different inputs.

An op is one CLI invocation, except where an invocation's work is a series
of like calls: a continuation sweep counts one op per step (each
`torusvar.solver.minimize` call it makes) and a membership run one op per
query (each `torusvar.cli.global_membership` call).
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks

WORKLOADS = ("solve", "projection", "quantization")
CLI_THREADS = 1
TWO_PI = 2.0 * np.pi
GATE_TOL = 1e-6

# An op is `ok` when it succeeded and its check agrees; `stalled` when the
# program reported that a solve did not converge and the check confirms that
# report; `failed` when it raised or exited with an error code; `wrong` when
# its check disagrees with what the program reported.  Only `failed` and
# `wrong` ops count as failed in the result.
OK, STALLED, FAILED, WRONG = "ok", "stalled", "failed", "wrong"
STALL_EXIT = 4


@dataclass
class Invocation:
    label: str
    subcommand: str
    config: dict
    extra_args: tuple[str, ...]
    check: Callable[["Invocation", Path, int, list], list[str]]
    sub_ops: Optional[tuple[str, str]] = None  # (module, attribute) whose calls are the ops
    expected_ops: int = 1
    controls: tuple[int, ...] = ()  # membership queries that lie on the set


@dataclass
class Outcome:
    exit_code: int  # -1 when the invocation raised
    latencies: list[float]
    calls: list  # (args, result) per sub-op call


def _verdict(ok: bool, claimed: bool) -> str:
    """`failed` when the program itself reported the failure, `wrong` when it
    claimed success and the check disagrees."""
    return OK if ok else (WRONG if claimed else FAILED)


# ----- checks, per invocation kind --------------------------------------------

def _check_solve(inv: Invocation, out: Path, code: int, calls: list) -> list[str]:
    if code == STALL_EXIT:
        return [STALLED if checks.check_stalled_solve(inv.config, out) else WRONG]
    if code != 0:
        return [FAILED]
    return [OK if checks.check_solve(inv.config, out, code) else WRONG]


def _check_continuation(inv: Invocation, out: Path, code: int, calls: list) -> list[str]:
    verdicts = []
    for args, result in calls:
        rho = (args[2].rho1, args[2].rho2)
        if result.converged:
            ok = checks.check_continuation_step(inv.config, rho, result)
            verdicts.append(OK if ok else WRONG)
        else:
            ok = checks.check_stalled_continuation_step(inv.config, rho, result)
            verdicts.append(STALLED if ok else WRONG)
    verdicts += [FAILED] * (inv.expected_ops - len(verdicts))
    stalled = any(not result.converged for _, result in calls)
    if code != (STALL_EXIT if stalled else 0) and FAILED not in verdicts:
        verdicts.append(FAILED)  # the sweep failed outside its steps
    return verdicts


def _reported(oks: list[bool], code: int) -> list[str]:
    """Verdicts for ops whose only failure report is the exit code."""
    return [_verdict(ok, claimed=code == 0) for ok in oks]


def _check_projection(inv: Invocation, out: Path, code: int, calls: list) -> list[str]:
    return _reported([checks.check_projection(inv.config, out, code)], code)


def _check_kr_scaling(inv: Invocation, out: Path, code: int, calls: list) -> list[str]:
    return _reported([checks.check_kr_scaling(inv.config, out, code)], code)


def _check_enumeration(inv: Invocation, out: Path, code: int, calls: list) -> list[str]:
    return _reported([checks.check_enumeration(inv.config, out, code)], code)


def _check_membership(inv: Invocation, out: Path, code: int, calls: list) -> list[str]:
    oks = checks.check_membership(inv.config, out, code, GATE_TOL, inv.controls)
    return _reported(oks, code)


# ----- seeded configurations --------------------------------------------------

def _shifter(rng: np.random.Generator, axes: tuple[bool, bool]) -> Callable:
    """Translation by whole cells of a 128 grid (also whole cells of 256)."""
    t = [int(rng.integers(0, 128)) / 128.0 if on else 0.0 for on in axes]
    return lambda x, y: [float((x + t[0]) % 1.0), float((y + t[1]) % 1.0)]


def _weights(at: Callable) -> dict:
    # Widths stay <= 0.15 so the profile's 3x3 periodic images make it
    # translation-invariant to ~1e-10 and every shift costs the same.
    return {"h": {"profile": "gauss-bump", "amplitude": 0.5, "width": 0.15,
                  "center": at(0.3, 0.4)},
            "h2": {"profile": "gauss-bump", "amplitude": -0.4, "width": 0.12,
                   "center": at(0.7, 0.15)}}


def _solve(rng: np.random.Generator) -> list[Invocation]:
    at = _shifter(rng, (True, True))
    weights = _weights(at)
    two_points = {"points": [at(0.25, 0.75), at(0.75, 0.3)],
                  "alpha1": [0.5, 1.0], "alpha2": [1.0, 0.5]}
    two = {"grid": {"n": 256}, "problem": "toda", **weights, "singular": two_points,
           "rho": [TWO_PI, TWO_PI], "solver": {"gradient_tolerance": 5e-9}}
    scalar = {"grid": {"n": 256}, "problem": "meanfield", "h": weights["h"],
              "singular": {"points": [at(0.5, 0.5)], "alpha1": [1.0], "alpha2": [1.0]},
              "rho": [2.0 * TWO_PI, 2.0 * TWO_PI], "initial": "random",
              # The descent stops at its float floor, 7e-9 to 1.1e-8 here, so at
              # 1e-8 whether it converges depends on the random start.  1.5e-8
              # sits above the floor and keeps the strong residual (about 43x
              # the tolerance) under the 1e-6 check for every seed.  The stall
              # itself shows in the two-component solve, which stalls every pass.
              "solver": {"gradient_tolerance": 1.5e-8}}
    # At 1e-8 a step stalled at its float floor from 3 of 24 seeds; 1.5e-8
    # sits above the floor, as for the scalar solve.
    sweep = {"grid": {"n": 128}, "problem": "toda", **weights, "singular": two_points,
             "rho": [TWO_PI, TWO_PI], "nu": 0.5, "steps": 7,
             "solver": {"gradient_tolerance": 1.5e-8}}
    start_seed = str(int(rng.integers(0, 2**31)))
    return [
        Invocation("solve-two-component", "solve", two, ("--tol", str(GATE_TOL)),
                   _check_solve),
        Invocation("solve-scalar", "solve", scalar, ("--seed", start_seed), _check_solve),
        Invocation("continuation", "continuation", sweep, (), _check_continuation,
                   sub_ops=("torusvar.solver", "minimize"), expected_ops=7),
    ]


def _projection(rng: np.random.Generator) -> list[Invocation]:
    # The CLI spreads atoms at fixed abscissas, so only the vertical shift is free.
    at = _shifter(rng, (False, True))
    c1, c2 = at(0.0, 0.25)[1], at(0.0, 0.75)[1]
    # Constant weights: the recovered atom masses then equal the seeded ones,
    # so displacements measure the projection alone.
    base = {"grid": {"n": 128}, "curves": {"c1": c1, "c2": c2}, "k": 2, "l": 2}
    pair = {**base, "lam": 1000.0, "r_values": [0.0, 0.5, 1.0]}
    sweep = {**base, "r": 0.5, "components": [1, 2],
             "lambdas": {"start": 10.0, "stop": 1000.0, "count": 5}}
    single = {**pair, "k": 1, "l": 1}
    return [
        Invocation("projection-k2", "projection", pair, (), _check_projection),
        Invocation("kr-scaling-k2", "kr-scaling", sweep, (), _check_kr_scaling),
        Invocation("projection-k1", "projection", single, (), _check_projection),
    ]


def _quantization(rng: np.random.Generator) -> list[Invocation]:
    at = _shifter(rng, (True, True))
    three = {"grid": {"n": 32}, "box": [10.0 * TWO_PI, 10.0 * TWO_PI],
             "singular": {"points": [at(0.2, 0.2), at(0.5, 0.6), at(0.8, 0.3)],
                          "alpha1": [0.5] * 3, "alpha2": [2.0] * 3}}
    # 99 queries near the diagonal, one per stratum of a log-uniform radius in
    # [16 pi, 28 pi]: a query's cost grows with its box, about twofold over the
    # range, so the median query sits where costs are spread out, and every
    # seed draws the same mix.  One on-set control (on the line rho1 = 24 pi)
    # sits at a seeded position in the list.
    log_r = np.log(16.0 * np.pi) + np.log(1.75) * (np.arange(99) + rng.uniform(size=99)) / 99
    tilt = rng.uniform(-0.1, 0.1, size=99)
    samples = [[float(np.exp(lr) * (1.0 + d)), float(np.exp(lr) * (1.0 - d))]
               for lr, d in zip(log_r, tilt)]
    control = int(rng.integers(0, len(samples) + 1))
    samples.insert(control, [12.0 * TWO_PI, float(rng.uniform(16.0, 28.0)) * np.pi])
    box = 32.0 * np.pi  # covers every query, so the written set can check them
    queries = {"grid": {"n": 32}, "box": [box, box], "rho_samples": samples,
               "singular": {"points": [at(0.3, 0.3), at(0.7, 0.6)],
                            "alpha1": [0.5] * 2, "alpha2": [2.0] * 2}}
    return [
        Invocation("enumeration-m3", "quantization", three, (), _check_enumeration),
        Invocation("membership-m2", "quantization", queries, ("--tol", str(GATE_TOL)),
                   _check_membership, sub_ops=("torusvar.cli", "global_membership"),
                   expected_ops=len(samples), controls=(control,)),
    ]


def build(workload: str, seed: int) -> list[Invocation]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"solve": _solve, "projection": _projection,
            "quantization": _quantization}[workload](rng)


# ----- running ------------------------------------------------------------------

def config_path(workdir: Path, index: int, inv: Invocation) -> Path:
    return workdir / f"{index}-{inv.label}.json"


def write_configs(invocations: list[Invocation], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for index, inv in enumerate(invocations):
        config_path(workdir, index, inv).write_text(json.dumps(inv.config))


def prepare(invocations: list[Invocation], workdir: Path) -> None:
    """Build every input the ops start from: configs, weight profiles,
    desingularized weights, spectral tables and local quantization tables."""
    import torusvar
    from torusvar.cli import ExperimentConfig

    write_configs(invocations, workdir)
    for index, inv in enumerate(invocations):
        cfg = ExperimentConfig.load(str(config_path(workdir, index, inv)),
                                    str(workdir / "out"), None, None, None)
        torusvar.laplacian(cfg.h1)
        if len(cfg.singular):
            torusvar.desingularized_weight(cfg.h1, cfg.singular, 1)
            torusvar.desingularized_weight(cfg.h2, cfg.singular, 2)
            for a1, a2 in zip(cfg.singular.alpha1, cfg.singular.alpha2):
                torusvar.local_lambda(a1, a2)
        if inv.subcommand in ("projection", "kr-scaling"):
            cfg.join_element()


class SubOpClock:
    """Times each call of one module attribute while an invocation runs."""

    def __init__(self, target: Optional[tuple[str, str]], clock=time.perf_counter):
        self.target = target
        self.clock = clock
        self.latencies: list[float] = []
        self.calls: list = []
        self._original = None

    def __enter__(self) -> "SubOpClock":
        if self.target is not None:
            module = sys.modules[self.target[0]]
            self._original = original = getattr(module, self.target[1])

            def timed(*args, **kwargs):
                start = self.clock()
                result = original(*args, **kwargs)
                self.latencies.append(self.clock() - start)
                self.calls.append((args, result))
                return result
            setattr(module, self.target[1], timed)
        return self

    def __exit__(self, *exc) -> None:
        if self.target is not None:
            setattr(sys.modules[self.target[0]], self.target[1], self._original)


def execute(inv: Invocation, index: int, workdir: Path, out: Path) -> Outcome:
    argv = [inv.subcommand, "--config", str(config_path(workdir, index, inv)),
            "--out", str(out), "--threads", str(CLI_THREADS), *inv.extra_args]
    with SubOpClock(inv.sub_ops) as sub:
        start = time.perf_counter()
        try:
            code = sys.modules["torusvar.cli"].main(argv)
        except Exception:  # an op that raises counts as failed; the run goes on
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
    latencies = sub.latencies if inv.sub_ops is not None else [elapsed]
    return Outcome(code, latencies, sub.calls)


def verdicts(inv: Invocation, outcome: Outcome, out: Path) -> list[str]:
    try:
        return inv.check(inv, out, outcome.exit_code, outcome.calls)
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        traceback.print_exc()
        return [WRONG if outcome.exit_code == 0 else FAILED] * inv.expected_ops
