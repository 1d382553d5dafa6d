"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import refloop  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--jobs", "6"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_same_seed_same_jobs():
    first = [job.name for job in workloads.st_sweep(11)]
    assert first == [job.name for job in workloads.st_sweep(11)]
    assert first != [job.name for job in workloads.st_sweep(12)]


def _median_normalised(job, count: int) -> tuple[float, float]:
    timings = [refloop.measure(job.run)[1] for _ in range(count)]
    return (
        statistics.median(t.normalised for t in timings),
        statistics.median(t.job_s for t in timings),
    )


@pytest.mark.xfail(
    reason="a busy thread in the same process does not slow the job and the "
    "reference loop alike: the interpreter lock and the scheduler hand out "
    "time in slices comparable to the 2 ms reference loop, so the job's "
    "normalised time moved by 15-150 % in measurements (see README.md)",
    strict=False,
)
def test_normalisation_cancels_a_busy_sibling_thread():
    """A CPU-burning thread in the same process slows the job and the
    reference loop alike, so the normalised time stays within the bound.

    With the default 5 ms switch interval, every time the job releases the
    interpreter lock (in BLAS calls) the busy thread keeps it for 5 ms, a
    convoy that hits the job far more often than the reference loop.  A
    10 us interval makes the two threads interleave finely, which is how
    a competing process on the same core behaves."""
    job = next(j for j in workloads.st_sweep(3) if j.kind == "multisink")
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "job_p50_ms")
    affinity = os.sched_getaffinity(0)
    interval = sys.getswitchinterval()
    stop = threading.Event()

    def burn():
        while not stop.is_set():
            sum(i * i for i in range(100))

    sibling = threading.Thread(target=burn)
    try:
        os.sched_setaffinity(0, {max(affinity)})
        sys.setswitchinterval(1e-5)
        for _ in range(10):
            refloop.time_reference()
        alone, alone_raw = _median_normalised(job, 60)
        sibling.start()
        loaded, loaded_raw = _median_normalised(job, 60)
    finally:
        stop.set()
        if sibling.is_alive():
            sibling.join(timeout=10)
        sys.setswitchinterval(interval)
        os.sched_setaffinity(0, affinity)
    assert not sibling.is_alive()
    assert loaded_raw > 1.3 * alone_raw, "the sibling thread did not slow the job"
    assert abs(loaded / alone - 1.0) <= bound, (loaded, alone, loaded_raw, alone_raw)
