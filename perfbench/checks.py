"""Correctness checks on job outputs.

Each check compares the program's output with something computed another
way: the structure the generator planted, a residual computed here with
plain numpy, or a different solver of the program (the limit predictor
against the simulated limit, the multi-sink assembler against the final
state).  A check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

from networks import Planted

MASS_TOL = 1e-9
LIMIT_TOL = 1e-6
STAR_TOL = 1e-3
RESIDUAL_TOL = 1e-10
FIXED_POINT_TOL = 1e-9
# a float sum may drop by a few ulps without the sink total decreasing
MONOTONE_TOL = 1e-14


def mass(states: np.ndarray) -> list[str]:
    drift = float(np.max(np.abs(np.atleast_2d(states).sum(axis=1) - 1.0)))
    return [] if drift <= MASS_TOL else [f"mass drifted by {drift:.3g}"]


def near_vertex(x: np.ndarray, center: int) -> list[str]:
    gap = 1.0 - float(x[center - 1])
    return [] if gap <= STAR_TOL else [f"ended {gap:.3g} from e_{center}"]


def near(x: np.ndarray, target: np.ndarray, what: str) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(x) - np.asarray(target))))
    return [] if gap <= LIMIT_TOL else [f"ended {gap:.3g} from {what}"]


def left_residual(M: np.ndarray, c: np.ndarray) -> list[str]:
    """Centrality residual max |c M - c|."""
    residual = float(np.max(np.abs(c @ M - c)))
    return [] if residual <= RESIDUAL_TOL else [f"centrality residual {residual:.3g}"]


def fixed_point(C: np.ndarray, x: np.ndarray) -> list[str]:
    """Residual of x under the single-timescale update."""
    x2 = x * x
    residual = float(np.max(np.abs(C.T @ (x - x2) + x2 - x)))
    return [] if residual <= FIXED_POINT_TOL else [f"fixed-point residual {residual:.3g}"]


def sink_totals(planted: Planted, states: np.ndarray) -> np.ndarray:
    """Per-sink mass of every recorded state, summed here."""
    states = np.atleast_2d(states)
    return np.stack(
        [states[:, np.asarray(s) - 1].sum(axis=1) for s in planted.sinks], axis=1
    )


def monotone_sinks(planted: Planted, states: np.ndarray) -> list[str]:
    drop = float(np.min(np.diff(sink_totals(planted, states), axis=0), initial=0.0))
    return [] if drop >= -MONOTONE_TOL else [f"a sink total decreased by {-drop:.3g}"]


def structure(s, planted: Planted) -> list[str]:
    """Classifier output against the planted structure."""
    name = type(s).__name__
    if planted.kind == "irreducible":
        ok = name == "Irreducible" and s.star_center == planted.center
    elif planted.kind == "reachable":
        ok = (
            name == "ReducibleReachable"
            and (s.reachable,) == planted.sinks
            and s.star_center_of_subgraph == planted.center
        )
    else:
        ok = name == "MultiSink" and s.sinks == planted.sinks
    return [] if ok else [f"classified as {s!r}, planted {planted.kind} {planted.sinks}"]
