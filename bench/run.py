"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload inventory --seed 1 --seconds 15 --trace 0

Each measurement runs `workloads.py` in a fresh Python process with
PYTHONHASHSEED=0 and the checkout's `src/` on PYTHONPATH.  With `--trace 0`
that is one untraced run, and the result line carries the end-to-end metrics,
each the median over the run's passes.  Set-ups and op latencies are CPU
times, and every time is corrected to the machine's nominal speed (see
speed.py); the wall-clock figures are printed beside them.
With `--trace 1` an untraced run is followed by a traced one, and the result
line carries the per-layer metrics plus `trace.overhead`, the traced run's
ops/s divided by the untraced run's.

The output is one line per metric (name, value, unit), every failure found,
and as its last line one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 when every check passed, 1 when a check failed and 2 when
the program could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "workloads.py"
WORKLOADS = ("inventory", "resync", "pop-serve", "games", "ktime-pop")
DEV_SEED = 1
# Held out: use it only to confirm a claim made on other seeds.
HELDOUT_SEED = 20261017
# Every run must end within this many seconds, child processes included.
DEADLINE_S = 170


def _worker(args, traced: bool, workdir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(int(traced)), "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--spans", str(ROOT / ".bench_work" / f"spans-{args.workload}.csv")]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_metrics(metrics: dict):
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.4f}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one rfpop benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEV_SEED,
                        help=f"input seed: {DEV_SEED} for development, "
                             f"{HELDOUT_SEED} held out to confirm claims")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fleets and two ops a pass, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rfpop").is_dir():
        print(f"error: no rfpop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        runs = [_worker(args, False, workdir / "plain", deadline)]
        if args.trace:
            runs.append(_worker(args, True, workdir / "traced", deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = runs[0]
    env = plain["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ops {plain['attempted']}")
    print(f"env: python {env['python']}, cryptography {env['cryptography']}, "
          f"cpu {env['cpu']}, nproc {env['nproc']}, PYTHONHASHSEED {env['pythonhashseed']}")
    for run in runs:
        label = "traced" if run["trace"] else "untraced"
        print(f"{label} run, end-to-end, times corrected to nominal machine speed "
              f"(correction factor {run['speed_factor']:.4f}):")
        _print_metrics(run["metrics"])
        print("  as measured on the wall clock: " + ", ".join(
            f"{name} {value:.4f} {unit}" for name, (value, unit) in run["raw"].items()))
        print(f"  op_tail_us is p{run['tail_percentile']:.2f} of each pass: "
              f"{run['tail_beyond']} of its {run['pass_ops']} ops "
              f"lie beyond it")
        for name in run["passes"][0]:
            print(f"  {name} of each pass: "
                  + ", ".join(f"{p[name]:.4f}" for p in run["passes"]))
        print(f"  fail_rate {run['failed'] / run['attempted']:.4f} "
              f"({run['failed']} of {run['attempted']} ops failed)")

    if args.trace:
        traced = runs[1]
        layers = dict(traced["layers"])
        overhead = traced["metrics"]["ops_per_s"][0] / plain["metrics"]["ops_per_s"][0]
        layers["trace.overhead"] = [overhead, "ratio"]
        print(f"traced run, per layer ({traced['spans']} spans in {traced.get('spans_file')}):")
        _print_metrics(layers)
        metrics = layers
    else:
        metrics = plain["metrics"]

    failures = [f for run in runs for f in run["failures"]]
    for failure in failures:
        print(f"FAILED: {failure}")
    correct = all(run["correct"] for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
