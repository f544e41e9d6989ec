"""Run-to-run spread of the end-to-end metrics, judged against their bounds.

    python3 benchmark/steadiness.py --workload solve --runs 10 --seconds 30

Runs `run.py` once per seed (first-seed, first-seed + 1, ...), one run at a
time, and prints for each end-to-end metric the median of the runs, the
distance between the first and third quartiles (`statistics.quantiles`,
n=4) as a share of the median, and that spread against the metric's bound
in BENCHMARK.json.  A metric is steady when its spread is below a third of
its bound; `setup_s` is listed but its spread is not judged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={result['metrics'][name]['value']:.6g}" for name in values),
              flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, q2, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / q2
        judged = name != "setup_s"
        ok = spread < bound / 3.0 or not judged
        steady &= ok
        print(f"{name:14s} median {q2:.6g}  spread {spread:.4f}  bound {bound}  "
              f"{'steady' if ok else 'NOT steady'}{'' if judged else ' (not judged)'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
