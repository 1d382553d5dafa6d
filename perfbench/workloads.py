"""The three workloads: seeded job lists and their correctness checks.

* ``st_sweep``: library jobs classify -> centrality_profile ->
  predict_limit -> simulate("st") on four kinds of network.
* ``df_sweep``: library jobs of simulate("df") and compare_models.
* ``cli``: invocations of the command-line entry point over a file corpus
  written during set-up.

Job lists depend only on the seed.  Network sizes follow fixed grids over
the stated ranges and the seed draws everything else (advisors, weights,
node labels, starting points, job order), so the work in a list changes
little from seed to seed.  Jobs are shuffled so kinds interleave.  The program
is called through module attributes (``dynamics.simulate``, ...) so that
the traced run can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import checks
import networks as nw
from networks import Planted
from powerflow import dynamics, equilibria, netcore, spectral
from powerflow import io as pf_io

WORKLOADS = ("st_sweep", "df_sweep", "cli")

#: Step cap of the df runs on reducible stars: they approach the centre
#: like 1/t, and 2000 steps leave the ten-node test star 5.7e-4 from it.
DF_STAR_CAP = 2000
#: Convergence threshold of the st star runs (about 30k steps each).
ST_STAR_EPS = 1e-9
#: CLI star writes: about 10k CSV rows each.
CLI_STAR_TOL = "1e-8"


@dataclass
class LibraryJob:
    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class CliJob:
    name: str
    kind: str
    argv: list[str]
    check: Callable[[str], list[str]]
    outputs: list[Path] = field(default_factory=list)


def _rng(seed: int, workload: str):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _sizes(count: int, lo: int, hi: int) -> list[int]:
    """`count` sizes spread evenly over [lo, hi]."""
    return [int(v) for v in np.round(np.linspace(lo, hi, count))]


def _shuffled(rng, jobs: list) -> list:
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------- library


def _limit_problems(C, planted: Planted, x0, trajectory, s=None, profile=None) -> list[str]:
    """Mass, limit and sink checks shared by every simulated trajectory."""
    states = trajectory.states
    problems = checks.mass(states)
    final = states[-1]
    if s is None:
        s = netcore.classify(C)
        profile = spectral.centrality_profile(C, s)
    if planted.center is not None:
        problems += checks.near_vertex(final, planted.center)
    elif planted.kind == "multi_sink":
        zeta = checks.sink_totals(planted, final)[0]
        x_star = equilibria.assemble_multisink_equilibrium(s, profile, zeta)
        problems += checks.near(final, x_star, "the assembled equilibrium")
    else:
        prediction = equilibria.predict_limit(C, s, profile, x0)
        if prediction.kind == equilibria.KIND_UNIQUE_INTERIOR and isinstance(
            trajectory.status, dynamics.Converged
        ):
            problems += checks.near(final, prediction.x_star, "the predicted limit")
    return problems


def _profile_problems(C, profile) -> list[str]:
    problems = []
    for lifted in profile.lifted:
        problems += checks.left_residual(C.entries, lifted)
    return problems


def _st_job(name, planted: Planted, x0, eps_conv) -> LibraryJob:
    C = netcore.validate_matrix(planted.entries)

    def run():
        s = netcore.classify(C)
        profile = spectral.centrality_profile(C, s)
        prediction = equilibria.predict_limit(C, s, profile, x0)
        trajectory = dynamics.simulate(
            "st", C, x0, eps_conv=eps_conv, structure=s
        )
        return s, profile, prediction, trajectory

    def check(out) -> list[str]:
        s, profile, prediction, trajectory = out
        problems = checks.structure(s, planted) + _profile_problems(C, profile)
        if planted.kind == "multi_sink":
            problems += checks.monotone_sinks(planted, trajectory.states)
        return problems + _limit_problems(C, planted, x0, trajectory, s, profile)

    return LibraryJob(name, name.rstrip("0123456789"), run, check)


def st_sweep(seed: int) -> list[LibraryJob]:
    """56 sparse strongly connected (n 20-200), 12 slow chains (n 45),
    32 multi-sink with transients, 4 stars (n 10-200, every step kept).

    The chains share one size, so p90, which falls among them, is an order
    statistic of a dozen similar jobs rather than one job's time."""
    rng = _rng(seed, "st_sweep")
    jobs = []
    for k, n in enumerate(_sizes(56, 20, 200)):
        jobs.append(_st_job(f"sparse{k}", nw.sparse_strong(rng, n), nw.interior_start(rng, n), dynamics.EPS_CONV))
    for k in range(12):
        jobs.append(_st_job(f"chain{k}", nw.chain(rng, 45), nw.interior_start(rng, 45), dynamics.EPS_CONV))
    for k, m in enumerate(_sizes(32, 4, 30)):
        planted = nw.multi_sink(rng, _sizes(2 + k % 2, 3, 8), m)
        jobs.append(_st_job(f"multisink{k}", planted, nw.interior_start(rng, planted.n), dynamics.EPS_CONV))
    for k, n in enumerate(_sizes(4, 10, 200)):
        jobs.append(_st_job(f"star{k}", nw.star(rng, n), nw.interior_start(rng, n), ST_STAR_EPS))
    return _shuffled(rng, jobs)


def _df_job(name, planted: Planted, x0, max_steps=dynamics.DEFAULT_MAX_STEPS) -> LibraryJob:
    C = netcore.validate_matrix(planted.entries)

    def run():
        return dynamics.simulate("df", C, x0, max_steps=max_steps)

    def check(trajectory) -> list[str]:
        return _limit_problems(C, planted, x0, trajectory)

    return LibraryJob(name, name.rstrip("0123456789"), run, check)


def _compare_job(name, planted: Planted, x0) -> LibraryJob:
    C = netcore.validate_matrix(planted.entries)

    def run():
        return equilibria.compare_models(C, x0)

    def check(report) -> list[str]:
        return (
            checks.monotone_sinks(planted, report.trajectory_st.states)
            + _limit_problems(C, planted, x0, report.trajectory_st)
            + _limit_problems(C, planted, x0, report.trajectory_df)
        )

    return LibraryJob(name, name.rstrip("0123456789"), run, check)


def df_sweep(seed: int) -> list[LibraryJob]:
    """2 reducible stars at a step cap, 16 slow chains (n 30), and 41 df
    runs plus 41 model comparisons on multi-sink networks.

    The chains share one size, so p90, which falls in the middle of them,
    is an order statistic of 16 similar jobs rather than one job's time."""
    rng = _rng(seed, "df_sweep")
    jobs = []
    for k, leaves in enumerate(_sizes(2, 8, 11)):
        planted = nw.reducible_star(rng, leaves, 1 + k)
        jobs.append(_df_job(f"redstar{k}", planted, nw.interior_start(rng, planted.n), DF_STAR_CAP))
    for k in range(16):
        jobs.append(_df_job(f"chain{k}", nw.chain(rng, 30), nw.interior_start(rng, 30)))
    for k, m in enumerate(_sizes(41, 3, 12)):
        planted = nw.multi_sink(rng, _sizes(2 + k % 2, 3, 6), m)
        jobs.append(_df_job(f"multisink{k}", planted, nw.interior_start(rng, planted.n)))
    for k, m in enumerate(_sizes(41, 3, 12)):
        planted = nw.multi_sink(rng, _sizes(2 + k % 2, 3, 6), m)
        jobs.append(_compare_job(f"compare{k}", planted, nw.interior_start(rng, planted.n)))
    return _shuffled(rng, jobs)


# -------------------------------------------------------------------- cli


def _vector(stdout: str, prefix: str) -> Optional[np.ndarray]:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            body = line[len(prefix):].strip().strip("[]")
            return np.array([float(v) for v in body.split(",")])
    return None


def _value(stdout: str, prefix: str) -> Optional[str]:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _node_set(nodes) -> str:
    return "{" + ", ".join(str(v) for v in nodes) + "}"


def _csv_rows(path: Path) -> tuple[int, np.ndarray]:
    """Data rows of a trajectory CSV and its last state."""
    rows = 0
    last = ""
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            if not line.startswith("#"):
                rows += 1
                last = line
    return rows, np.array([float(v) for v in last.split(",")[1:]])


@dataclass
class CorpusFile:
    path: Path
    planted: Planted
    adjacency: bool

    @property
    def matrix(self) -> np.ndarray:
        """The weights the program reads from this file."""
        return nw.equal_split(self.planted.entries) if self.adjacency else self.planted.entries


def _check_classify(f: CorpusFile, out: str) -> list[str]:
    p = f.planted
    if p.kind == "irreducible":
        ok = _value(out, "structure:") == "irreducible" and _value(out, "star center:") == (
            None if p.center is None else str(p.center)
        )
    elif p.kind == "reachable":
        ok = _value(out, "reachable set:") == _node_set(p.sinks[0]) and _value(
            out, "star center of reachable subgraph:"
        ) == (None if p.center is None else str(p.center))
    else:
        ok = _value(out, "structure:") == f"multi-sink, K={len(p.sinks)} sinks" and all(
            _value(out, f"sink {k}:") == f"{_node_set(s)} (size {len(s)})"
            for k, s in enumerate(p.sinks, start=1)
        )
    return [] if ok else ["classify output does not match the planted structure"]


def _check_centrality(f: CorpusFile, out: str) -> list[str]:
    if f.planted.kind == "multi_sink":
        vectors = [_vector(out, f"sink {k} lifted:") for k in range(1, len(f.planted.sinks) + 1)]
    else:
        vectors = [_vector(out, "centrality:")]
    if any(v is None for v in vectors):
        return ["centrality output incomplete"]
    problems = []
    for v in vectors:
        problems += checks.left_residual(f.matrix, v)
    return problems


def _check_equilibrium(f: CorpusFile, out: str) -> list[str]:
    p = f.planted
    if p.center is not None:
        ok = _value(out, "autocrat at node") == f"{p.center}; interior equilibria: none"
        return [] if ok else ["equilibrium output misses the star centre"]
    if p.kind == "multi_sink":
        return [] if _value(out, "equilibrium family:") else ["no equilibrium family"]
    x = _vector(out, "interior equilibrium:")
    if x is None or _value(out, "ordering check:") != "PASS":
        return ["interior equilibrium missing or misordered"]
    return checks.fixed_point(f.matrix, x)


def _check_csv(path: Path, n: int, steps: int, center: Optional[int]) -> list[str]:
    """Row count against the reported steps; the last state's mass and,
    for stars, its distance from the centre.  Columns past x_n are sink
    totals."""
    rows, last = _csv_rows(path)
    last = last[:n]
    problems = [] if rows == steps + 1 else [f"{path.name}: {rows} rows for {steps} steps"]
    problems += checks.mass(last)
    if center is not None:
        problems += checks.near_vertex(last, center)
    return problems


_READ_CHECKS = {
    "classify": _check_classify,
    "centrality": _check_centrality,
    "equilibrium": _check_equilibrium,
}


def _read_job(command: str, f: CorpusFile) -> CliJob:
    check = _READ_CHECKS[command]
    argv = [command, "--network", str(f.path)]
    return CliJob(f"{command}-{f.path.stem}", command, argv, lambda out: check(f, out))


def _simulate_job(name: str, source: list[str], n: int, out_path: Path, center, extra=()) -> CliJob:
    argv = ["simulate", *source, *extra, "--out", str(out_path)]

    def check(out: str) -> list[str]:
        steps = _value(out, "steps:")
        if steps is None:
            return ["no step count"]
        return _check_csv(out_path, n, int(steps), center)

    return CliJob(name, "simulate", argv, check, [out_path])


def _compare_job_cli(name: str, f: CorpusFile, prefix: Path) -> CliJob:
    argv = ["compare", "--network", str(f.path), "--out", str(prefix)]
    paths = [Path(f"{prefix}.st.csv"), Path(f"{prefix}.df.csv")]

    def check(out: str) -> list[str]:
        steps = _value(out, "steps:")
        if steps is None:
            return ["no step counts"]
        st, df = (int(part.split("=")[1]) for part in steps.split())
        n = f.planted.n
        return _check_csv(paths[0], n, st, None) + _check_csv(paths[1], n, df, None)

    return CliJob(name, "compare", argv, check, paths)


def cli(seed: int, corpus_dir: Path, write: bool = True) -> list[CliJob]:
    """100 CLI invocations over a corpus written to `corpus_dir`.

    Reads: 80 classify/centrality/equilibrium calls on 40 small files, 3 on
    dense files of n 500-1000, and centrality of one slow chain (n 175).
    Writes: 2 star trajectories of about 10k rows, 7 df simulations and 7
    model comparisons, all as CSV.  The writes use one network size each,
    so p90, which falls among the df simulations, is an order statistic of
    similar jobs.
    """
    rng = _rng(seed, "cli")
    corpus_dir = Path(corpus_dir)
    out_dir = corpus_dir / "out"
    if write:
        out_dir.mkdir(parents=True, exist_ok=True)
    files: list[CorpusFile] = []

    def add(planted: Planted, adjacency: bool) -> CorpusFile:
        fmt = "adj" if adjacency else "dense"
        f = CorpusFile(corpus_dir / f"{len(files):03d}-{planted.kind}.{fmt}.txt", planted, adjacency)
        if write and adjacency:
            f.path.write_text("\n".join(nw.adjacency_lines(planted.entries)) + "\n", encoding="utf-8")
        elif write:
            pf_io.write_matrix(netcore.validate_matrix(planted.entries), f.path)
        files.append(f)
        return f

    jobs: list[CliJob] = []
    small_kinds = (
        lambda n: nw.sparse_strong(rng, n),
        lambda n: nw.multi_sink(rng, _sizes(2 + n % 2, 3, 8), max(2, n // 4)),
        lambda n: nw.reducible_star(rng, max(4, n // 2), 1 + n % 3),
        lambda n: nw.star(rng, n),
    )
    for k, n in enumerate(_sizes(40, 10, 120)):
        f = add(small_kinds[k % 4](n), adjacency=bool(k % 2))
        commands = ("classify", "centrality", "equilibrium")
        for command in (commands[k % 3], commands[(k + 1) % 3]):
            jobs.append(_read_job(command, f))
    for k, n in enumerate(_sizes(3, 500, 1000)):
        f = add(nw.sparse_strong(rng, n), adjacency=False)
        command = ("classify", "centrality", "equilibrium")[k]
        jobs.append(_read_job(command, f))
    f = add(nw.chain(rng, 175), adjacency=False)
    jobs.append(_read_job("centrality", f))

    jobs.append(_simulate_job(
        "simulate-star50", ["--builder", "star:50"], 50,
        out_dir / "star-builder.csv", 1, ("--tol", CLI_STAR_TOL),
    ))
    f = add(nw.star(rng, 40), adjacency=False)
    jobs.append(_simulate_job(
        f"simulate-{f.path.stem}", ["--network", str(f.path)], 40,
        out_dir / f"{f.path.stem}.csv", f.planted.center, ("--tol", CLI_STAR_TOL),
    ))
    for k in range(7):
        f = add(nw.sparse_strong(rng, 40), adjacency=bool(k % 2))
        jobs.append(_simulate_job(
            f"simulate-df-{f.path.stem}", ["--network", str(f.path)], 40,
            out_dir / f"{f.path.stem}.csv", None, ("--model", "df", "--x0", f"random:{k}"),
        ))
    for k in range(7):
        f = add(nw.multi_sink(rng, (3, 6), 8), adjacency=bool(k % 2))
        jobs.append(_compare_job_cli(f"compare-{f.path.stem}", f, out_dir / f.path.stem))
    return _shuffled(rng, jobs)


def build(workload: str, seed: int, corpus_dir: Path, write: bool = True) -> list:
    """The job list of `workload`; for cli also writes its corpus."""
    if workload == "st_sweep":
        return st_sweep(seed)
    if workload == "df_sweep":
        return df_sweep(seed)
    if workload == "cli":
        return cli(seed, corpus_dir, write)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
