"""Self-weight update rules and the trajectory engine.

Two update rules act on a self-weight vector x in the unit simplex:

* model ``"st"``, the single-timescale rule, applies reflected appraisal at
  every averaging step: x <- C^T (x - x^2) + x^2.  Total self-weight is
  conserved analytically, every autocratic vertex is exactly fixed, and on
  multi-sink networks each sink's power total never decreases.
* model ``"df"``, the classical DeGroot-Friedkin update, reallocates power
  only after the influence matrix W(x) has mixed to its long-run limit:
  each closed group of W(x) gets its internal eigenvector split, weighted
  by the share of mass the averaging process absorbs into that group.
  With a single closed group this is just the dominant left eigenvector
  of W(x).  The split has the closed form x_i+ ~ c_i / (1 - x_i), c the
  centrality of the group in C (Jia, Mirtabatabaei, Friedkin & Bullo,
  SIAM Review 57(3), 2015), and the groups, their weights and their
  centralities do not depend on x except through its exact vertex
  coordinates.  :func:`df_plan` computes them once per run, so a step
  costs O(n) with no eigenproblem and no SCC pass.

:func:`simulate` iterates either rule with convergence detection, vertex
absorption, per-step deltas, a conservation monitor, and per-sink power
tracking on multi-sink networks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInitialError, MassDriftError, StructureMismatchError
from .netcore import (
    Irreducible,
    MultiSink,
    NetworkStructure,
    ReducibleReachable,
    RelativeInteractionMatrix,
    _condensation,
    classify,
)
from .spectral import EPS_SPECTRAL, dominant_left_eigenvector, influence_matrix

logger = logging.getLogger(__name__)

SINGLE_TIMESCALE = "st"
ORIGINAL_DF = "df"
MODELS = (SINGLE_TIMESCALE, ORIGINAL_DF)

#: Simplex membership and vertex detection tolerance.
EPS_SIMPLEX = 1e-9
#: Default step-delta convergence threshold.
EPS_CONV = 1e-12
DEFAULT_MAX_STEPS = 10**6

# The update conserves total mass exactly in real arithmetic; anything past
# accumulation noise means a defect, so the monitor aborts rather than
# renormalizing (renormalization would mask the bug).
_MASS_DRIFT_LIMIT = 1e-9
_MASS_CHECK_INTERVAL = 512


def check_simplex(x, eps: float = EPS_SIMPLEX) -> np.ndarray:
    """Return x as a float vector after verifying simplex membership."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidInitialError(f"expected a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInitialError("components must be finite")
    if np.any(x < -eps) or np.any(x > 1.0 + eps):
        raise InvalidInitialError("components must lie in [0, 1]")
    if abs(float(x.sum()) - 1.0) > max(eps, x.size * 1e-15):
        raise InvalidInitialError(f"components must sum to 1, got {float(x.sum())!r}")
    return x


def vertex_index(x, eps: float = EPS_SIMPLEX) -> Optional[int]:
    """1-based i when x lies within eps of the autocratic vertex e_i."""
    i = int(np.argmax(x))
    return i + 1 if x[i] >= 1.0 - eps else None


def st_df_step(C: RelativeInteractionMatrix, x) -> np.ndarray:
    """One single-timescale update: C^T (x - x^2) + x^2.

    Vertices are exactly fixed with no rounding: at x = e_i the appraisal
    term x - x^2 vanishes identically, leaving x^2 = e_i.
    """
    x = np.asarray(x, dtype=float)
    x2 = x * x
    return C.entries.T @ (x - x2) + x2


@dataclass(frozen=True)
class DfPlan:
    """The x-independent part of the df step for every state x whose set
    of exact vertex coordinates (x_i >= 1) is `absorbing`.

    classes: 0-based index array of each closed class of W(x).
    weights: share of the population's mass each class absorbs.
    centralities: each class's centrality in C, None for a singleton.
    """

    absorbing: tuple[int, ...]
    classes: tuple[np.ndarray, ...]
    weights: tuple[float, ...]
    centralities: tuple[Optional[np.ndarray], ...]

    def __post_init__(self) -> None:
        for vec in (*self.classes, *self.centralities):
            if vec is not None:
                vec.setflags(write=False)


def _absorbing(x: np.ndarray) -> tuple[int, ...]:
    """0-based coordinates at which W(x) has the row e_i."""
    return tuple(np.flatnonzero(x >= 1.0).tolist())


def _closed_classes(structure: NetworkStructure) -> list[np.ndarray]:
    if isinstance(structure, Irreducible):
        return [np.arange(structure.n)]
    if isinstance(structure, ReducibleReachable):
        return [np.asarray(structure.reachable, dtype=int) - 1]
    return [np.asarray(s, dtype=int) - 1 for s in structure.sinks]


def df_plan(
    C: RelativeInteractionMatrix,
    absorbing: tuple[int, ...] = (),
    structure: Optional[NetworkStructure] = None,
    eps_spectral: float = EPS_SPECTRAL,
) -> DfPlan:
    """Set up :func:`df_step` for the states whose exact vertex coordinates
    are `absorbing` (0-based; empty for every state with all x_i < 1).

    With no absorbing coordinate W(x) has C's off-diagonal pattern, so its
    closed classes are C's sinks, taken from `structure` when given.  Each
    absorbing coordinate turns its row of W(x) into e_i; the classes then
    come from the condensation of that pattern.  Transient rows satisfy
    I - W_MM = (I - D_M)(I - C_MM) and W_Ms = (I - D_M) C_Ms, so the mass a
    closed class s absorbs from the uniform start, 1/n per node, is
    |s| / n + y C_Ms 1 with (I - C_MM^T) y = 1/n: independent of x.
    """
    if absorbing or structure is None:
        # W(indicator of the absorbing set) has the pattern of every such W(x)
        indicator = np.zeros(C.n)
        indicator[list(absorbing)] = 1.0
        condensation = _condensation(influence_matrix(C, indicator).entries)
        classes = [
            np.asarray(condensation.components[k], dtype=int) - 1
            for k in condensation.sinks
        ]
    else:
        classes = _closed_classes(structure)
    n = C.n
    weights = np.array([s.size / n for s in classes])
    in_class = np.zeros(n, dtype=bool)
    for s in classes:
        in_class[s] = True
    transient = np.flatnonzero(~in_class)
    if transient.size:
        C_MM = C.entries[np.ix_(transient, transient)]
        y = np.linalg.solve(
            np.eye(transient.size) - C_MM.T, np.full(transient.size, 1.0 / n)
        )
        for k, s in enumerate(classes):
            weights[k] += float(y @ C.entries[np.ix_(transient, s)].sum(axis=1))
    centralities = tuple(
        None
        if s.size == 1
        else dominant_left_eigenvector(C.entries[np.ix_(s, s)], eps_spectral)
        for s in classes
    )
    return DfPlan(
        absorbing=tuple(absorbing),
        classes=tuple(classes),
        weights=tuple(float(w) for w in weights),
        centralities=centralities,
    )


def df_step(
    C: RelativeInteractionMatrix,
    x,
    eps_spectral: float = EPS_SPECTRAL,
    plan: Optional[DfPlan] = None,
) -> np.ndarray:
    """One DeGroot-Friedkin update: the power allocation implied by the
    long-run averaging limit of W(x).

    Each closed class s of W(x) keeps the dominant-left-eigenvector split
    of its block, weighted by the share of the population's mass that
    averaging absorbs into it.  Because v W_ss - v = [v (I - D_s)](C_ss - I),
    that split is c_i / (1 - x_i) normalised, with c the centrality of
    C_ss, so the step costs O(n) once the x-independent classes, weights
    and centralities are known.  `plan` carries them (see :func:`df_plan`);
    when it is omitted or was built for another set of exact vertex
    coordinates, it is built here.
    """
    x = np.asarray(x, dtype=float)
    absorbing = _absorbing(x)
    if plan is None or plan.absorbing != absorbing:
        plan = df_plan(C, absorbing, eps_spectral=eps_spectral)
    out = np.zeros(x.size)
    for s, w, c in zip(plan.classes, plan.weights, plan.centralities):
        if c is None:
            out[s] = w
        else:
            y = c / (1.0 - x[s])
            out[s] = (w / y.sum()) * y
    return out / out.sum()


def sink_power(structure: NetworkStructure, x) -> np.ndarray:
    """Per-sink power totals: zeta_k = sum of self-weights inside sink k.

    The totals sum to at most 1; the deficit is the mass still held by
    non-sink nodes.
    """
    if not isinstance(structure, MultiSink):
        raise StructureMismatchError(
            "sink power is defined only for multi-sink structures, "
            f"got {type(structure).__name__}"
        )
    x = np.asarray(x, dtype=float)
    return np.array([float(x[np.asarray(s, dtype=int) - 1].sum()) for s in structure.sinks])


@dataclass(frozen=True)
class Converged:
    at: int
    limit: np.ndarray


@dataclass(frozen=True)
class MaxStepsReached:
    steps: int


@dataclass(frozen=True)
class VertexAbsorbed:
    vertex: int
    at: int


TrajectoryStatus = Union[Converged, MaxStepsReached, VertexAbsorbed]


@dataclass(frozen=True)
class Trajectory:
    """Recorded run of one update rule.

    states: recorded self-weight vectors, always including t = 0 and the
        final state; thinned by `record_every` in between.
    steps: the time index of each recorded row.
    step_deltas: max-norm change of every step taken; never thinned.
    status: Converged, MaxStepsReached or VertexAbsorbed.
    sink_power: per-step sink totals for multi-sink networks (row t is
        zeta(t) for t = 0 .. total_steps); None otherwise.  Never thinned.
    """

    states: np.ndarray
    steps: np.ndarray
    step_deltas: np.ndarray
    status: TrajectoryStatus
    sink_power: Optional[np.ndarray] = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def total_steps(self) -> int:
        return int(self.step_deltas.size)


def simulate(
    model: str,
    C: RelativeInteractionMatrix,
    x0,
    *,
    eps_conv: float = EPS_CONV,
    max_steps: int = DEFAULT_MAX_STEPS,
    record_every: int = 1,
    eps_simplex: float = EPS_SIMPLEX,
    eps_spectral: float = EPS_SPECTRAL,
    structure: Optional[NetworkStructure] = None,
) -> Trajectory:
    """Iterate the chosen update rule from x0 and record the trajectory.

    Termination: Converged once the step delta drops below `eps_conv` and
    the fixed-point residual of the limit under the same rule is below
    10 * eps_conv; VertexAbsorbed when the state sits within `eps_simplex`
    of a vertex the rule leaves fixed (always immediate for model "st",
    whose vertices are exactly fixed); MaxStepsReached otherwise.

    No renormalization is applied between steps; a drift monitor raises
    MassDriftError if total self-weight moves by more than accumulation
    noise.  A two-node strongly connected network is degenerate (both
    rules fix every interior point), reported as Converged at step 0.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    x = check_simplex(x0, eps_simplex).astype(float).copy()
    if x.size != C.n:
        raise InvalidInitialError(
            f"initial vector has {x.size} components for a {C.n}-node network"
        )
    if structure is None:
        structure = classify(C)
    multi = isinstance(structure, MultiSink)
    sink_idx = (
        [np.asarray(s, dtype=int) - 1 for s in structure.sinks] if multi else None
    )

    scratch_sq = np.empty(C.n)
    scratch = np.empty(C.n)
    if model == SINGLE_TIMESCALE:
        CT = np.ascontiguousarray(C.entries.T)

        def step(v: np.ndarray) -> np.ndarray:
            np.multiply(v, v, out=scratch_sq)
            np.subtract(v, scratch_sq, out=scratch)
            out = CT @ scratch
            out += scratch_sq
            return out

    else:
        plan = df_plan(C, structure=structure, eps_spectral=eps_spectral)

        def step(v: np.ndarray) -> np.ndarray:
            return df_step(C, v, eps_spectral, plan=plan)

    record_every = max(1, int(record_every))
    states = [x.copy()]
    recorded_steps = [0]
    deltas: list[float] = []
    zetas = [np.array([float(x[s].sum()) for s in sink_idx])] if multi else None
    mass0 = float(x.sum())
    logger.info("simulate model=%s n=%d max_steps=%d", model, C.n, max_steps)

    status: Optional[TrajectoryStatus] = None
    t = 0
    v0 = vertex_index(x, eps_simplex)
    if v0 is not None and float(np.max(np.abs(step(x) - x))) <= eps_simplex:
        status = VertexAbsorbed(vertex=v0, at=0)
    elif getattr(structure, "degenerate_pair", False):
        status = Converged(at=0, limit=x.copy())
    else:
        while t < max_steps:
            nxt = step(x)
            t += 1
            np.subtract(nxt, x, out=scratch)
            np.abs(scratch, out=scratch)
            delta = float(scratch.max())
            deltas.append(delta)
            if multi:
                zetas.append(np.array([float(nxt[s].sum()) for s in sink_idx]))
            if t % record_every == 0:
                states.append(nxt)
                recorded_steps.append(t)
            x = nxt
            if t % _MASS_CHECK_INTERVAL == 0:
                drift = abs(float(x.sum()) - mass0)
                if drift > _MASS_DRIFT_LIMIT:
                    raise MassDriftError(
                        f"total self-weight drifted by {drift:.3g} after {t} steps"
                    )
            if delta < eps_conv or x.max() >= 1.0 - eps_simplex:
                fixed_dev = float(np.max(np.abs(step(x) - x)))
                vi = vertex_index(x, eps_simplex)
                if vi is not None and fixed_dev <= eps_simplex:
                    status = VertexAbsorbed(vertex=vi, at=t)
                    break
                if delta < eps_conv and fixed_dev < 10.0 * eps_conv:
                    status = Converged(at=t, limit=x.copy())
                    break
        if status is None:
            status = MaxStepsReached(steps=max_steps)

    drift = abs(float(x.sum()) - mass0)
    if drift > _MASS_DRIFT_LIMIT:
        raise MassDriftError(
            f"total self-weight drifted by {drift:.3g} after {t} steps"
        )
    if recorded_steps[-1] != t:
        states.append(x.copy())
        recorded_steps.append(t)
    logger.info("simulate done: %s after %d steps", type(status).__name__, t)
    return Trajectory(
        states=np.vstack(states),
        steps=np.asarray(recorded_steps, dtype=int),
        step_deltas=np.asarray(deltas, dtype=float),
        status=status,
        sink_power=np.vstack(zetas) if multi else None,
    )
