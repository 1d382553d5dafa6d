"""Benchmark of powerflow: many short end-to-end jobs, each timed against
an interleaved reference loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload st_sweep|df_sweep|cli --seed N \
        --seconds S --trace 0|1 [--jobs K]

The run pins itself (and so its children) to one CPU and fixes BLAS at one
thread.  It sets up the workload several times to time set-up, builds the
seeded job list, runs every job once and then keeps cycling through the
list until S seconds have passed.  Each job is bracketed by two runs of the
reference loop (refloop.py) and its wall time is rescaled to the loop's
nominal speed.  Every job's output is checked, untimed.  The last line of
stdout is the result JSON; the line before it holds ungated information
(raw seconds, reference speeds, environment).  With --trace 1 every job
runs once plain and once with the layer wrappers of tracing.py, and the
result holds the per-layer metrics instead.  --jobs K keeps only the first
K jobs of the list, for smoke tests.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import refloop  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
# after the first pass, a job runs about REPEAT_TARGET_S (normalised) of
# back-to-back executions per round, at most MAX_REPEATS
REPEAT_TARGET_S = 0.02
MAX_REPEATS = 5
WORKLOADS = ("st_sweep", "df_sweep", "cli")


def _release_free_memory():
    """Return a function that hands freed heap memory back to the OS, so a
    run's peak RSS is its largest job rather than allocator history."""
    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):
        return gc.collect
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int

    def release() -> None:
        gc.collect()
        trim(0)

    return release


def _pin_cpu() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _run_child(work: Path, args: list[str], stdout, stderr) -> tuple[float, dict, int, int]:
    """Run child.py; returns (wall seconds, its record, exit code, peak RSS KB)."""
    record_path = work / "child.json"
    if record_path.exists():
        record_path.unlink()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args[:1], "--result", str(record_path), *args[1:]],
        stdout=stdout, stderr=stderr, cwd=ROOT,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    record["spawn"] = t0
    return wall, record, proc.returncode, usage.ru_maxrss


def _child_timing(wall: float, record: dict) -> refloop.Timing:
    """The child's own work: its wall time less its two reference loops."""
    refs = (record["ref_before"], record["ref_after"])
    return refloop.Timing(wall - sum(refs), refs)


def measure_setup(work: Path, workload: str, seed: int, corpus: Path) -> list[refloop.Timing]:
    """Set the workload up SETUP_REPS times in fresh processes: imports,
    network generation and, for cli, the file corpus."""
    timings = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(corpus, ignore_errors=True)
        with open(work / "setup.err", "w") as err:
            wall, record, rc, _ = _run_child(
                work, ["setup", "--workload", workload, "--seed", str(seed), "--corpus", str(corpus)],
                subprocess.DEVNULL, err,
            )
        if rc != 0 or "ref_after" not in record:
            sys.stderr.write((work / "setup.err").read_text())
            raise RuntimeError(f"set-up of {workload} failed with exit code {rc}")
        timings.append(_child_timing(wall, record))
    return timings


def _remove_outputs(job) -> None:
    for path in job.outputs:
        path.unlink(missing_ok=True)


class Runner:
    """Executes jobs, checks them and keeps the statistics of one run."""

    def __init__(self, workload: str, trace: bool, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[refloop.Timing]] = {}
        self.traced_samples: list[refloop.Timing] = []
        self.plain_samples: list[refloop.Timing] = []
        self.totals = tracing.Tracer() if trace else None
        self.startups: list[float] = []
        self.child_rss_kb = 0
        self.release_memory = _release_free_memory()

    def _fail(self, name: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append(f"{name}: {'; '.join(problems)}")
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)

    def _library(self, job, traced: bool):
        self.release_memory()
        if not traced:
            out, timing = refloop.measure(job.run)
            return timing, job.check(out)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            out, timing = refloop.measure(job.run)
        finally:
            tracer.uninstall()
        self.totals.merge(tracer.snapshot(), timing.speed)
        return timing, job.check(out)

    def _cli(self, job, traced: bool):
        stdout_path = self.work / "stdout.txt"
        with open(stdout_path, "w") as out, open(self.work / "stderr.txt", "w") as err:
            wall, record, rc, rss_kb = _run_child(
                self.work, ["cli", *(["--trace"] if traced else []), "--", *job.argv], out, err
            )
        if rc != 0 or "ref_after" not in record:
            _remove_outputs(job)
            tail = (self.work / "stderr.txt").read_text()[-500:]
            raise RuntimeError(f"exit code {rc}: {tail}")
        timing = _child_timing(wall, record)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        if traced:
            self.totals.merge(record["trace"], timing.speed)
            startup = record["entry"] - record["spawn"] + record["startup_s"]
            self.startups.append(startup * timing.speed)
        problems = job.check(stdout_path.read_text())
        _remove_outputs(job)
        return timing, problems

    def execute(self, job, traced: bool = False):
        """Run one job; returns its Timing, or None when it raised."""
        self.attempted += 1
        try:
            if self.workload == "cli":
                timing, problems = self._cli(job, traced)
            else:
                timing, problems = self._library(job, traced)
        except Exception:  # a failed job is counted, and the run goes on
            self._fail(job.name, [traceback.format_exc(limit=3)])
            return None
        if problems:
            self._fail(job.name, problems)
        return timing

    def _sample(self, job) -> None:
        timing = self.execute(job)
        if timing is None:
            return
        self.samples.setdefault(job.name, []).append(timing)
        if self.trace:
            traced = self.execute(job, traced=True)
            if traced is not None:
                self.plain_samples.append(timing)
                self.traced_samples.append(traced)

    def _repeats(self, job) -> int:
        """Executions of `job` per round after the first pass: short jobs
        run several times, so that their medians rest on more samples."""
        timings = self.samples.get(job.name)
        if self.trace or not timings:
            return 1
        typical = statistics.median(t.normalised for t in timings)
        return max(1, min(MAX_REPEATS, round(REPEAT_TARGET_S / typical)))

    def run(self, jobs, seconds: float) -> float:
        """Run every job once, then keep cycling through the list until
        `seconds` have passed; returns the number of passes made."""
        deadline = time.perf_counter() + seconds
        k = 0
        while k < len(jobs) or time.perf_counter() < deadline:
            job = jobs[k % len(jobs)]
            repeats = self._repeats(job) if k >= len(jobs) else 1
            k += 1
            for _ in range(repeats):
                self._sample(job)
        return k / len(jobs)


def _by_kind(jobs, samples: dict) -> dict:
    """run_s split by kind of job."""
    out: dict[str, float] = {}
    for job in jobs:
        if job.name in samples:
            value = statistics.median(t.normalised for t in samples[job.name])
            out[job.kind] = out.get(job.kind, 0.0) + value
    return out


def _quantiles(values: list[float]) -> tuple[float, float]:
    ordered = sorted(values)
    p50 = statistics.median(ordered)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1] if len(ordered) > 1 else ordered[0]
    return p50, p90


def _environment(cpu: int) -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "ref_nominal_s": refloop.REF_NOMINAL_S,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args()

    if not (SRC / "powerflow" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cpu = _pin_cpu()
    work = WORK / f"{args.workload}-{os.getpid()}"
    corpus = work / "corpus"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = measure_setup(work, args.workload, args.seed, corpus)
        jobs = workloads.build(args.workload, args.seed, corpus, write=False)[: args.jobs]
        for _ in range(10):
            refloop.time_reference()
        runner = Runner(args.workload, bool(args.trace), work)
        start = time.perf_counter()
        passes = runner.run(jobs, args.seconds)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    per_job = [[t.normalised for t in ts] for ts in runner.samples.values()]
    medians = [statistics.median(v) for v in per_job]
    raw = [statistics.median(t.job_s for t in ts) for ts in runner.samples.values()]
    speeds = [t.speed for ts in runner.samples.values() for t in ts]
    if not medians:  # every job failed: correct is false, times read 0
        medians = raw = speeds = [0.0]
    p50, p90 = _quantiles(medians)
    if args.workload == "cli":
        rss_kb = runner.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_norm = [t.normalised for t in setups]

    if args.trace:
        plain = sum(t.normalised for t in runner.plain_samples)
        traced = sum(t.normalised for t in runner.traced_samples)
        overhead = traced / plain - 1.0 if plain else 0.0
        startup_ms = statistics.median(runner.startups) * 1e3 if runner.startups else 0.0
        metrics = tracing.per_layer_metrics(runner.totals, passes, startup_ms, overhead)
    else:
        metrics = {
            "run_s": {"value": sum(medians), "unit": "s"},
            "job_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "job_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "latency_samples": len(medians),
        "measured_s": elapsed,
        "raw_run_s": sum(raw),
        "run_s_by_kind": _by_kind(jobs, runner.samples),
        "raw_setup_s": [t.job_s for t in setups],
        "setup_s_each": setup_norm,
        "ref_speed": {"median": statistics.median(speeds), "min": min(speeds), "max": max(speeds)},
        "environment": _environment(cpu),
        "problems": runner.problems[:10],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
