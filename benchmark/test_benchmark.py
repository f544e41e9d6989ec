"""Tests of the benchmark's own arithmetic, tracing and output checks.

    PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import csv
import json
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered_length, self_times  # noqa: E402


# ----- self-time arithmetic ---------------------------------------------------

def span(id, start, end, parent=None):
    return Span(id, f"s{id}", start, end, parent, None)


def test_self_time_of_nested_spans():
    spans = [span(0, 0.0, 10.0), span(1, 2.0, 5.0, 0), span(2, 3.0, 4.0, 1)]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_counts_overlapping_children_once():
    # two children overlap on [3, 4]; a third sticks out past the parent's end
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, 0), span(2, 3.0, 6.0, 0),
             span(3, 8.0, 12.0, 0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[3] == 4.0


def test_covered_length_merges_touching_and_disjoint_intervals():
    assert covered_length([(0, 1), (1, 2), (5, 6)], 0, 10) == 3
    assert covered_length([(2, 3)], 4, 10) == 0
    assert covered_length([], 0, 1) == 0


def test_tracer_links_parents_and_restores_originals():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert self_times(tracer.spans)[by_name["outer"].id] == 2.0


def test_spans_opened_on_pool_threads_hang_under_the_root():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: threading.get_ident())

    def root():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(leaf) for _ in range(4)]]
    tracer.wrap("root", root)()
    root_span = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4 and all(s.parent == root_span.id for s in leaves)


def test_instrumenting_torusvar_wraps_every_caller_and_restores(tmp_path):
    import torusvar.cli
    import torusvar.quantization
    original = torusvar.quantization.global_lambda
    config = tmp_path / "q.json"
    config.write_text(json.dumps({"grid": {"n": 16}, "box": [10.0, 10.0]}))
    tracer = Tracer()
    report.instrument(tracer)
    try:
        assert torusvar.cli.global_lambda is not original
        assert torusvar.cli.main(["quantization", "--config", str(config),
                                  "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.restore()
    assert torusvar.cli.global_lambda is original
    assert torusvar.quantization.global_lambda is original
    names = {s.name for s in tracer.spans}
    assert {"cli", "quantization.global_lambda", "quantization.local_lambda"} <= names
    cli_span = next(s for s in tracer.spans if s.name == "cli")
    enumeration = next(s for s in tracer.spans if s.name == "quantization.global_lambda")
    assert enumeration.parent == cli_span.id
    metrics = report.layer_metrics(tracer.spans, bytes_written=0)
    assert metrics["quantization.global_lambda.calls"] == 1
    assert metrics["quantization.rebuild_ratio"] == 1.0


# ----- percentiles ------------------------------------------------------------

def test_percentile_is_nearest_rank_with_its_count():
    values = [float(v) for v in range(10, 0, -1)]
    assert report.percentile(values, 50) == (5.0, 10)
    assert report.percentile(values, 90) == (9.0, 10)
    assert report.percentile(values + [11.0], 90) == (10.0, 11)
    assert report.percentile([3.0], 90) == (3.0, 1)
    with pytest.raises(ValueError):
        report.percentile([], 50)


def test_median_of_even_and_odd_counts():
    assert report.median([3.0, 1.0, 2.0]) == 2.0
    assert report.median([4.0, 1.0, 2.0, 3.0]) == 2.5


# ----- the metric names the benchmark declares --------------------------------

def test_declared_metrics_match_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        first = [inv.config for inv in workloads.build(name, 7)]
        assert first == [inv.config for inv in workloads.build(name, 7)]
        assert first != [inv.config for inv in workloads.build(name, 8)]


# ----- output checks reject wrong outputs ---------------------------------------

def write_field(path: Path, values: np.ndarray) -> None:
    n = len(values)
    path.write_bytes(struct.pack("<8sQdd", b"TORUSFLD", n, 1.0, 1.0)
                     + values.astype("<f8").tobytes())


SOLVE_CONFIG = {"grid": {"n": 16}, "problem": "toda", "rho": [2 * np.pi, 2 * np.pi],
                "solver": {"gradient_tolerance": 1e-8}}


def write_solve(out: Path, u1: np.ndarray, converged: bool = True) -> None:
    out.mkdir(exist_ok=True)
    write_field(out / "solution_u1.bin", u1)
    write_field(out / "solution_u2.bin", np.zeros((16, 16)))
    (out / "solve.json").write_text(json.dumps({"converged": converged}))


def test_solve_check_rejects_fields_that_miss_the_equations(tmp_path):
    # constant weights: the zero state solves the system exactly
    write_solve(tmp_path, np.zeros((16, 16)))
    assert checks.check_solve(SOLVE_CONFIG, tmp_path, 0)
    x = np.arange(16) / 16
    write_solve(tmp_path, 1e-3 * np.sin(2 * np.pi * x)[:, None] * np.ones(16))
    assert not checks.check_solve(SOLVE_CONFIG, tmp_path, 0)
    write_solve(tmp_path, np.zeros((16, 16)), converged=False)
    assert not checks.check_solve(SOLVE_CONFIG, tmp_path, 4)


def test_stalled_solve_check_accepts_only_a_truthful_stall_report(tmp_path):
    x = np.arange(16) / 16
    u1 = 1e-3 * np.sin(2 * np.pi * x)[:, None] * np.ones(16)
    fields = [u1, np.zeros((16, 16))]
    weights = checks.problem_weights(SOLVE_CONFIG)
    truthful = {"converged": False,
                "residual_norm": checks.descent_residual(fields, weights, SOLVE_CONFIG["rho"]),
                "pde_residual": checks.strong_residual(fields, weights, SOLVE_CONFIG["rho"])}
    write_solve(tmp_path, u1)
    for report, accepted in ((truthful, True),
                             ({**truthful, "converged": True}, False),
                             ({**truthful, "residual_norm": 1e-9}, False),
                             ({**truthful, "pde_residual": 0.0}, False)):
        (tmp_path / "solve.json").write_text(json.dumps(report))
        assert checks.check_stalled_solve(SOLVE_CONFIG, tmp_path) is accepted
    # the zero state meets the tolerance, so a stall report on it is false
    write_solve(tmp_path, np.zeros((16, 16)))
    (tmp_path / "solve.json").write_text(json.dumps(
        {"converged": False, "residual_norm": 0.0, "pde_residual": 0.0}))
    assert not checks.check_stalled_solve(SOLVE_CONFIG, tmp_path)


def test_solve_check_agrees_with_the_cli(tmp_path):
    import torusvar.cli
    config = {**SOLVE_CONFIG, "grid": {"n": 32}, "h": {"profile": "gauss-bump",
              "amplitude": 0.5, "width": 0.15, "center": [0.3, 0.4]},
              "singular": {"points": [[0.25, 0.75]], "alpha1": [0.5], "alpha2": [1.0]}}
    (tmp_path / "c.json").write_text(json.dumps(config))
    code = torusvar.cli.main(["solve", "--config", str(tmp_path / "c.json"),
                              "--out", str(tmp_path / "out")])
    written = json.loads((tmp_path / "out" / "solve.json").read_text())
    fields = [checks.read_field(tmp_path / "out" / f"solution_u{i}.bin") for i in (1, 2)]
    mine = checks.strong_residual(fields, checks.problem_weights(config), config["rho"])
    assert mine == pytest.approx(written["pde_residual"], rel=1e-6)
    smoothed = checks.descent_residual(fields, checks.problem_weights(config), config["rho"])
    assert smoothed == pytest.approx(written["residual_norm"], rel=1e-6)
    assert code == 0


def test_continuation_step_check_rejects_a_false_convergence_claim():
    zero = SimpleNamespace(values=np.zeros((16, 16)))
    good = SimpleNamespace(u=(zero, zero), converged=True)
    assert checks.check_continuation_step(SOLVE_CONFIG, SOLVE_CONFIG["rho"], good)
    bumped = SimpleNamespace(values=np.eye(16) * 1e-3)
    assert not checks.check_continuation_step(
        SOLVE_CONFIG, SOLVE_CONFIG["rho"], SimpleNamespace(u=(bumped, zero), converged=True))
    assert not checks.check_continuation_step(
        SOLVE_CONFIG, SOLVE_CONFIG["rho"], SimpleNamespace(u=(zero, zero), converged=False))


def test_stalled_continuation_step_check_rejects_a_false_stall_report():
    zero = SimpleNamespace(values=np.zeros((16, 16)))
    bumped = SimpleNamespace(values=np.eye(16) * 1e-3)
    residual = checks.descent_residual([bumped.values, zero.values],
                                       checks.problem_weights(SOLVE_CONFIG), SOLVE_CONFIG["rho"])
    stall = SimpleNamespace(u=(bumped, zero), converged=False, residual_norm=residual)
    assert checks.check_stalled_continuation_step(SOLVE_CONFIG, SOLVE_CONFIG["rho"], stall)
    for false_report in (SimpleNamespace(u=(zero, zero), converged=False, residual_norm=0.0),
                         SimpleNamespace(u=(bumped, zero), converged=False,
                                         residual_norm=residual / 2)):
        assert not checks.check_stalled_continuation_step(
            SOLVE_CONFIG, SOLVE_CONFIG["rho"], false_report)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_projection_check_rejects_wrong_regimes_and_lost_atoms(tmp_path):
    header = ["r", "displacement1", "displacement2", "r_deviation"]
    config = {"grid": {"n": 128}}
    good = [(0.0, 1e-6, 0.25, 0.0), (0.5, 1e-6, 1e-6, 1e-5), (1.0, 0.25, 1e-6, 0.0)]
    write_csv(tmp_path / "projection.csv", header, good)
    assert checks.check_projection(config, tmp_path, 0)
    for bad in ([(0.0, 1e-6, 0.25, 0.1)] + good[1:],      # r~ > 0 at r = 0
                good[:1] + [(0.5, 1e-6, 1e-6, 0.5)] + good[2:],  # r~ at an end at r = 1/2
                good[:2] + [(1.0, 0.25, 0.05, 0.0)]):     # growing atoms moved
        write_csv(tmp_path / "projection.csv", header, bad)
        assert not checks.check_projection(config, tmp_path, 0)
    write_csv(tmp_path / "projection.csv", header, good)
    assert not checks.check_projection(config, tmp_path, 3)


def test_kr_scaling_check_rejects_a_wrong_decay_rate(tmp_path):
    header = ["component", "lambda", "scale1", "scale2", "distance"]
    lams = np.geomspace(10.0, 1000.0, 5)

    def rows(rate):
        return [(c, lam, lam / 2, lam / 2, 0.3 * (lam / 2) ** -rate)
                for c in (1, 2) for lam in lams]
    config = {"components": [1, 2], "fit_floor": 10.0}
    write_csv(tmp_path / "kr.csv", header, rows(1.05))
    assert checks.check_kr_scaling(config, tmp_path, 0)
    write_csv(tmp_path / "kr.csv", header, rows(0.5))
    assert not checks.check_kr_scaling(config, tmp_path, 0)


def run_quantization(tmp_path, config) -> Path:
    import torusvar.cli
    (tmp_path / "q.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert torusvar.cli.main(["quantization", "--config", str(tmp_path / "q.json"),
                              "--out", str(out), "--tol", "1e-6"]) == 0
    return out


def edit_json(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def test_enumeration_check_rejects_a_broken_set(tmp_path):
    config = {"grid": {"n": 16}, "box": [30.0, 30.0],
              "singular": {"points": [[0.5, 0.5]], "alpha1": [0.5], "alpha2": [2.0]}}
    out = run_quantization(tmp_path, config)
    assert checks.check_enumeration(config, out, 0)
    saved = (out / "quantization.json").read_text()
    for change in (lambda r: r["global"]["lambda0"].remove([0.0, 0.0]),
                   lambda r: r["global"]["lambda1"].pop(),
                   lambda r: r["local"][0]["points"][1].__setitem__(0, 1.0)):
        (out / "quantization.json").write_text(saved)
        edit_json(out / "quantization.json", change)
        assert not checks.check_enumeration(config, out, 0)


def test_membership_check_rejects_wrong_verdicts_and_a_missed_control(tmp_path):
    samples = [[3.0, 5.0], [4 * np.pi, 2.0], [20.0, 31.0]]
    config = {"grid": {"n": 16}, "box": [40.0, 40.0], "rho_samples": samples,
              "singular": {"points": [[0.5, 0.5]], "alpha1": [0.5], "alpha2": [2.0]}}
    out = run_quantization(tmp_path, config)
    assert checks.check_membership(config, out, 0, 1e-6, [1]) == [True] * 3
    saved = (out / "quantization.json").read_text()
    for change in (lambda r: r["membership"][0].__setitem__("distance", 0.5),
                   lambda r: r["membership"][1].__setitem__("inside", False),
                   lambda r: r["membership"][2].__setitem__("inside", True)):
        (out / "quantization.json").write_text(saved)
        edit_json(out / "quantization.json", change)
        assert not all(checks.check_membership(config, out, 0, 1e-6, [1]))


def test_verdicts_separate_reported_failures_from_wrong_claims():
    assert workloads._verdict(True, claimed=True) == workloads.OK
    assert workloads._verdict(False, claimed=False) == workloads.FAILED
    assert workloads._verdict(False, claimed=True) == workloads.WRONG


def test_a_solve_verdict_follows_its_exit_code(tmp_path, monkeypatch):
    inv = SimpleNamespace(config=SOLVE_CONFIG)
    monkeypatch.setattr(checks, "check_stalled_solve", lambda config, out: True)
    assert workloads._check_solve(inv, tmp_path, workloads.STALL_EXIT, []) == [workloads.STALLED]
    monkeypatch.setattr(checks, "check_stalled_solve", lambda config, out: False)
    assert workloads._check_solve(inv, tmp_path, workloads.STALL_EXIT, []) == [workloads.WRONG]
    assert workloads._check_solve(inv, tmp_path, 3, []) == [workloads.FAILED]
