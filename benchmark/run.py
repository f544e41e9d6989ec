"""Run one benchmark workload through the public `torusvar.cli.main` entry point.

    python3 benchmark/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` every
pass runs untraced and the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics, including the tracing overhead.  Human-readable lines
(one per metric, with units and sample counts, the check outcome and the
environment) come first; the JSON result is always the last line.  Span
records and a copy of the result go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import report
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 2  # per kind of pass: untraced, and traced with --trace 1


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    verdicts: list[str]
    spans: list = field(default_factory=list)
    bytes_written: int = 0


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Import torusvar from this checkout's sources, or exit 2."""
    if not (SRC / "torusvar" / "__init__.py").is_file():
        _fail(f"no torusvar sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import torusvar.cli  # noqa: F401  (the entry point every op goes through)

    if Path(sys.modules["torusvar"].__file__).resolve().parent != SRC / "torusvar":
        _fail("torusvar was imported from outside this checkout")


def _directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(invocations, workdir: Path, traced: bool) -> PassResult:
    outs = [workdir / "pass" / str(index) for index in range(len(invocations))]
    shutil.rmtree(workdir / "pass", ignore_errors=True)
    tracer = Tracer() if traced else None
    outcomes = []
    start = time.perf_counter()
    if tracer is not None:
        report.instrument(tracer)
    try:
        for index, (inv, out) in enumerate(zip(invocations, outs)):
            if tracer is not None:
                tracer.op = index
            outcomes.append(workloads.execute(inv, index, workdir, out))
    finally:
        if tracer is not None:
            tracer.restore()
    wall = time.perf_counter() - start
    bytes_written = sum(_directory_bytes(out) for out in outs if out.exists())
    latencies, verdicts = [], []
    for inv, outcome, out in zip(invocations, outcomes, outs):
        latencies += outcome.latencies
        verdicts += workloads.verdicts(inv, outcome, out)
    return PassResult(wall, latencies, verdicts,
                      tracer.spans if tracer is not None else [], bytes_written)


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import torusvar and build the
    workload's inputs, then exit."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=60, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return report.median(times)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    invocations = workloads.build(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            workloads.prepare(invocations, workdir)
            return 0
        setup_s = None if args.trace else measure_setup(args)
        workloads.prepare(invocations, workdir)
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(run_pass(invocations, workdir, traced=False))
            if args.trace:
                traced.append(run_pass(invocations, workdir, traced=True))
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(plain)
            if len(plain) >= MIN_PASSES and elapsed + per_round > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    every = plain + traced
    verdicts = [v for p in every for v in p.verdicts]
    attempted = len(verdicts)
    failed = sum(v in (workloads.FAILED, workloads.WRONG) for v in verdicts)
    stalled = verdicts.count(workloads.STALLED)
    correct = workloads.WRONG not in verdicts
    # the mean pass, i.e. the run's untraced time over its passes: every second
    # of the run counts, so slow drift of the machine's speed averages out
    wall_s = sum(p.wall for p in plain) / len(plain)
    env = report.environment(workloads.CLI_THREADS, args.seed)
    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
             f"{len(plain)} untraced and {len(traced)} traced passes, "
             f"{attempted} ops attempted, {failed} failed "
             f"(failed_frac {failed / attempted:.4f}), {stalled} stalled, "
             f"check {'passed' if correct else 'FAILED: an op claimed success wrongly'}"]
    if args.trace:
        traced_wall = sum(p.wall for p in traced) / len(traced)
        per_pass = [report.layer_metrics(p.spans, p.bytes_written) for p in traced]
        metrics = {name: report.median([m[name] for m in per_pass]) for name in per_pass[0]}
        # each traced pass runs right after an untraced one: pair them, so that
        # slow drift of the machine cancels
        metrics["trace.overhead_s"] = report.median(
            [t.wall - p.wall for p, t in zip(plain, traced)])
        metrics["trace.unattributed_s"] = report.median(
            [p.wall - report.attributed_seconds(p.spans) for p in traced])
        result_metrics = {name: _metric(metrics[name], unit) for name, unit in report.PER_LAYER}
        lines.append(f"  untraced wall {wall_s:.4f} s, traced wall {traced_wall:.4f} s "
                     f"(mean of {len(plain)} and {len(traced)} passes)")
    else:
        latencies = [x * 1e3 for p in plain for x in p.latencies]
        p50, count = report.percentile(latencies, 50)
        # each pass's slowest op, averaged like wall_s: the ops of a pass differ
        # in kind, so a pooled tail percentile would fall on the edge between
        # two kinds and jump with the machine's speed
        slowest = sum(max(p.latencies) for p in plain) * 1e3 / len(plain)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": wall_s, "op_ms.p50": p50, "op_ms.slowest": slowest,
                  "setup_s": setup_s, "peak_rss_mib": rss_mib,
                  "converged_frac": verdicts.count(workloads.OK) / attempted}
        result_metrics = {name: _metric(values[name], unit) for name, unit in report.END_TO_END}
        lines.append(f"  op latencies pooled over {len(plain)} passes: n={count}; "
                     f"slowest op averaged over the {len(plain)} passes")
    for name, metric in result_metrics.items():
        lines.append(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    lines.append("env " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    _save(args, env, result, plain, traced)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _save(args, env: dict, result: dict, plain: list, traced: list) -> None:
    """Write the result with its environment and every pass's wall time and,
    when traced, every span."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    walls = {"untraced_pass_walls": [p.wall for p in plain],
             "traced_pass_walls": [p.wall for p in traced],
             "untraced_pass_latencies": [p.latencies for p in plain]}
    (out / f"{stem}.json").write_text(json.dumps({"env": env, **result, **walls}, indent=2)
                                      + "\n")
    if traced:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            for number, p in enumerate(traced):
                for s in p.spans:
                    fh.write(json.dumps({"pass": number, "id": s.id, "name": s.name,
                                         "start": s.start, "end": s.end,
                                         "parent": s.parent, "op": s.op}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
