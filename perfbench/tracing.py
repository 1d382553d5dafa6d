"""Span and count wrappers around the program's layers, for the traced run.

The wrappers live here, in the benchmark, not in the program.  Each one
replaces a function on the module that calls it (for example
``powerflow.dynamics._condensation``, which ``df_step`` calls), times the
call as a span, and charges the span's time minus its child spans' time to
the layer as self time.  Some wrappers also record counts (steps, bytes
read and written, the largest eigenvector residual).  Wrappers are
installed for one job and removed after it, so untraced jobs run the
program unmodified.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np


def _simulate_counts(tracer, result, args, kwargs, self_s):
    model = args[0] if args else kwargs["model"]
    states = result.states
    tracer.add(f"dynamics.{model}.steps", result.total_steps)
    tracer.add(f"dynamics.{model}.self_s", self_s)
    tracer.add("dynamics.simulate.runs", 1)
    tracer.add("dynamics.simulate.converged", type(result.status).__name__ == "Converged")
    recorded = states.nbytes + result.step_deltas.nbytes
    if result.sink_power is not None:
        recorded += result.sink_power.nbytes
    tracer.add("dynamics.recorded_bytes", recorded)
    drift = float(np.max(np.abs(states.sum(axis=1) - states[0].sum())))
    tracer.peak("dynamics.max_mass_drift", drift)


def _eigvec_counts(tracer, result, args, kwargs, self_s):
    M = np.asarray(args[0], dtype=float)
    tracer.peak("spectral.eigvec.max_residual", float(np.max(np.abs(result @ M - result))))


def _read_counts(tracer, result, args, kwargs, self_s):
    tracer.add("io.read_bytes", os.path.getsize(args[0]))


def _write_counts(tracer, result, args, kwargs, self_s):
    tracer.add("io.written_bytes", os.path.getsize(args[1]))


#: (module, attribute, layer span name, count hook): every place where one
#: layer of the program calls another, and the benchmark's own entry calls.
WRAP_POINTS = (
    ("powerflow.io", "validate_matrix", "netcore.validate_matrix", None),
    ("powerflow.netcore", "classify", "netcore.classify", None),
    ("powerflow.dynamics", "classify", "netcore.classify", None),
    ("powerflow.equilibria", "classify", "netcore.classify", None),
    ("powerflow.cli", "classify", "netcore.classify", None),
    ("powerflow.netcore", "_condensation", "netcore.condensation", None),
    ("powerflow.dynamics", "_condensation", "netcore.condensation", None),
    ("powerflow.spectral", "dominant_left_eigenvector", "spectral.eigvec", _eigvec_counts),
    ("powerflow.dynamics", "dominant_left_eigenvector", "spectral.eigvec", _eigvec_counts),
    ("powerflow.spectral", "centrality_profile", "spectral.centrality_profile", None),
    ("powerflow.cli", "centrality_profile", "spectral.centrality_profile", None),
    ("powerflow.dynamics", "influence_matrix", "spectral.influence_matrix", None),
    ("powerflow.dynamics", "simulate", "dynamics.simulate", _simulate_counts),
    ("powerflow.equilibria", "simulate", "dynamics.simulate", _simulate_counts),
    ("powerflow.cli", "simulate", "dynamics.simulate", _simulate_counts),
    ("powerflow.dynamics", "df_step", "dynamics.df_step", None),
    ("powerflow.equilibria", "predict_limit", "equilibria.predict_limit", None),
    ("powerflow.equilibria", "solve_interior_equilibrium", "equilibria.solve_interior", None),
    ("powerflow.cli", "solve_interior_equilibrium", "equilibria.solve_interior", None),
    ("powerflow.equilibria", "compare_models", "equilibria.compare_models", None),
    ("powerflow.cli", "compare_models", "equilibria.compare_models", None),
    ("powerflow.io", "load_network", "io.load_network", _read_counts),
    ("powerflow.io", "write_trajectory_csv", "io.write_trajectory_csv", _write_counts),
    ("powerflow.cli", "main", "cli.main", None),
)


class Tracer:
    """Aggregated spans and counts of the jobs run while installed.

    spans[name] = [calls, inclusive seconds, self seconds]; counts hold
    sums, peaks hold maxima.
    """

    def __init__(self) -> None:
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        # time of finished child spans (and of count hooks) per open span
        self._open: list[float] = []
        self._saved: list[tuple] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                children = self._open.pop()
                record = self.spans[name]
                record[0] += 1
                record[1] += span
                record[2] += span - children
            hook_s = 0.0
            if hook is not None:
                t1 = time.perf_counter()
                hook(self, result, args, kwargs, span - children)
                hook_s = time.perf_counter() - t1
            if self._open:
                # the parent's self time excludes this span and its hook
                self._open[-1] += span + hook_s
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, hook in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
        }

    def merge(self, snapshot: dict, speed: float) -> None:
        """Add another tracer's snapshot, its times rescaled by the job's
        reference speed (see refloop.Timing)."""
        for name, (calls, total, self_s) in snapshot["spans"].items():
            record = self.spans[name]
            record[0] += calls
            record[1] += total * speed
            record[2] += self_s * speed
        for name, value in snapshot["counts"].items():
            self.counts[name] += value * speed if name.endswith("_s") else value
        for name, value in snapshot["peaks"].items():
            self.peak(name, value)


def per_layer_metrics(totals: Tracer, passes: float, startup_ms: float, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, per pass over the job list."""
    spans, counts, peaks = totals.spans, totals.counts, totals.peaks

    def calls(name):
        return spans[name][0] / passes

    def self_ms(name):
        return spans[name][2] * 1e3 / passes

    def ratio(num, den):
        return num / den if den else 0.0

    st_steps = counts["dynamics.st.steps"]
    df_calls, df_total = spans["dynamics.df_step"][0], spans["dynamics.df_step"][1]
    values = {
        "dynamics.st.steps": (st_steps / passes, "count"),
        "dynamics.st.us_per_step": (ratio(counts["dynamics.st.self_s"] * 1e6, st_steps), "us"),
        "dynamics.simulate.self_ms": (self_ms("dynamics.simulate"), "ms"),
        "dynamics.recorded_mb": (counts["dynamics.recorded_bytes"] / 1e6 / passes, "MB"),
        "dynamics.df.steps": (counts["dynamics.df.steps"] / passes, "count"),
        "dynamics.df_step.self_ms": (self_ms("dynamics.df_step"), "ms"),
        "dynamics.df_step.ms_per_step": (ratio(df_total * 1e3, df_calls), "ms"),
        "dynamics.converged_frac": (
            ratio(counts["dynamics.simulate.converged"], counts["dynamics.simulate.runs"]), "ratio"),
        "dynamics.max_mass_drift": (peaks["dynamics.max_mass_drift"], "abs"),
        "netcore.condensation.calls": (calls("netcore.condensation"), "count"),
        "netcore.condensation.self_ms": (self_ms("netcore.condensation"), "ms"),
        "netcore.classify.calls": (calls("netcore.classify"), "count"),
        "netcore.classify.self_ms": (self_ms("netcore.classify"), "ms"),
        "netcore.validate_matrix.self_ms": (self_ms("netcore.validate_matrix"), "ms"),
        "spectral.eigvec.calls": (calls("spectral.eigvec"), "count"),
        "spectral.eigvec.self_ms": (self_ms("spectral.eigvec"), "ms"),
        "spectral.eigvec.max_residual": (peaks["spectral.eigvec.max_residual"], "abs"),
        "spectral.centrality_profile.self_ms": (self_ms("spectral.centrality_profile"), "ms"),
        "spectral.influence_matrix.self_ms": (self_ms("spectral.influence_matrix"), "ms"),
        "equilibria.predict_limit.self_ms": (self_ms("equilibria.predict_limit"), "ms"),
        "equilibria.solve_interior.calls": (calls("equilibria.solve_interior"), "count"),
        "equilibria.solve_interior.self_ms": (self_ms("equilibria.solve_interior"), "ms"),
        "equilibria.compare_models.self_ms": (self_ms("equilibria.compare_models"), "ms"),
        "io.load_network.self_ms": (self_ms("io.load_network"), "ms"),
        "io.read_mb": (counts["io.read_bytes"] / 1e6 / passes, "MB"),
        "io.write_trajectory_csv.self_ms": (self_ms("io.write_trajectory_csv"), "ms"),
        "io.written_mb": (counts["io.written_bytes"] / 1e6 / passes, "MB"),
        "cli.startup_ms": (startup_ms, "ms"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
