"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q bench/tests

They run every workload at smoke size (tiny fleets, two ops a pass), so
they check the benchmark's plumbing and its correctness checks, not its
numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "primitives.hashes_per_op",
    "primitives.point_muls_per_op",
    "app.wire.frames_per_op",
    "app.dbfile.journal_bytes_per_op",
    "ma.records_scanned_per_step2",
)


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def assert_declared_metrics(lines: list[str], declared: list[dict]):
    result = json.loads(lines[-1])
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [line.split() for line in lines[:-1]]
        assert any(words[0] == metric["name"] and words[-1] == metric["unit"]
                   for words in printed if words), metric["name"]
    assert any(line.strip().startswith("fail_rate") for line in lines)
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc, lines = run_bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = assert_declared_metrics(lines, SPEC["end_to_end"])
    ops = workloads.WORKLOADS[workload].passes * workloads.SMOKE_PASS_OPS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == ops
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_of_one_seed_repeat_their_exact_counts(workload):
    first, second = (run_bench(workload, trace=1) for _ in range(2))
    counts = []
    for proc, lines in (first, second):
        assert proc.returncode == 0, proc.stderr
        result = assert_declared_metrics(lines, SPEC["per_layer"])
        assert result["correct"]
        counts.append({name: result["metrics"][name]["value"] for name in EXACT_COUNTS})
    assert counts[0] == counts[1]


def test_flipped_credential_byte_counts_as_a_failed_op(tmp_path, monkeypatch):
    real_tag_run = workloads.netrun.tag_run
    calls = []
    # Each pass runs a warm-up op and then its timed ops, so this call is the
    # first timed op of the second pass.
    bad_op = workloads.SMOKE_PASS_OPS
    flip_at = bad_op + 3

    def tag_run(*args, **kwargs):
        results = real_tag_run(*args, **kwargs)
        calls.append(1)
        if len(calls) == flip_at:
            cred = bytearray.fromhex(results[0]["credential"])
            cred[-1] ^= 0x01
            results[0]["credential"] = cred.hex()
        return results

    monkeypatch.setattr(workloads.netrun, "tag_run", tag_run)
    result = workloads.run_workload("pop-serve", seed=3, seconds=1, trace=False,
                                    smoke=True, workdir=tmp_path)
    ops = workloads.PopServe.passes * workloads.SMOKE_PASS_OPS
    assert result["attempted"] == ops and result["failed"] == 1
    assert not result["correct"]
    assert any(f.startswith(f"op {bad_op}:") and "cred_veri" in f
               for f in result["failures"])


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run_bench("inventory", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
