"""Run workloads over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads games resync --runs 5 --first-seed 1

Runs `run.py` once per seed, one process at a time, and prints for every
end-to-end metric each run's value, the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  A metric is steady when its spread is below a third of
its bound.  The exit code is 1 when a run fails or any metric, `setup_s`
included, is not steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description="Seed-to-seed spread of the benchmark.")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                steady = False
            runs.append({"seed": seed, **result})
        print(f"{workload}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = spread(values)
            ok = s["spread"] < bound / 3
            steady &= ok
            print(f"  {metric:<12} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
                  f"q3 {s['q3']:12.4f}  spread {s['spread']:.4f}  bound {bound}"
                  f"  {'ok' if ok else 'WIDE'}")
            print("    runs: " + " ".join(f"{v:.4f}" for v in values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
