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
  coordinates.  A plan holds them, the centralities read from the
  structure's centrality profile, and is rebuilt only when those coordinates
  change, so a step costs O(n) with no eigenproblem and no SCC pass.

:func:`simulate` iterates either rule with convergence detection, vertex
absorption, per-step deltas, a conservation monitor, and per-sink power
tracking on multi-sink networks.  It steps in blocks of up to a few hundred
steps and checks, records and measures each block with a few bare ufunc
calls into preallocated arrays, writing recorded rows once into the arrays
it returns.  Most runs take tens of steps, so this per-block cost and the
per-run set-up are a large share of a run.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

from .defaults import DEFAULT_MAX_STEPS, EPS_CONV, MODELS, ORIGINAL_DF, SINGLE_TIMESCALE
from .errors import InvalidInitialError, MassDriftError, StructureMismatchError
from .netcore import (
    NetworkStructure,
    RelativeInteractionMatrix,
    _check_structure_size,
    classify,
)
from .spectral import CentralityProfile, centrality_profile

# Not called here: perfbench's tracer wraps these three names on this
# module, and its install fails on a missing name.
from .netcore import _condensation  # noqa: F401
from .spectral import dominant_left_eigenvector, influence_matrix  # noqa: F401

logger = logging.getLogger(__name__)

#: Simplex membership and vertex detection tolerance.
EPS_SIMPLEX = 1e-9

# The update conserves total mass exactly in real arithmetic; anything past
# accumulation noise means a defect, so the monitor aborts rather than
# renormalizing (renormalization would mask the bug).
_MASS_DRIFT_LIMIT = 1e-9
_MASS_CHECK_INTERVAL = 512

# simulate computes the steps of a block into one preallocated buffer: the
# first block is short so that short runs pay for few steps past their end,
# later ones are sized from the observed contraction rate.  The buffer holds
# _MAX_BLOCK + 1 states, fewer than the n x n matrix for n > _MAX_BLOCK.
_FIRST_BLOCK = 8
_MAX_BLOCK = 256

# A recording doubles its capacity when full (see _Recording).  Of the
# factors 1.25, 1.5, 2 and 3, doubling gave the lowest peak RSS on long star
# runs: smaller steps reallocate, and so copy, more often below glibc's mmap
# threshold, and larger ones leave more spare capacity.
_GROWTH = 2


def check_simplex(x, eps: float = EPS_SIMPLEX) -> np.ndarray:
    """Return x as a float vector after verifying simplex membership."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidInitialError(f"expected a vector, got shape {x.shape}")
    # bare reductions: the wrappers of np.all, np.any and sum cost more
    # than the tests on a vector of a few hundred entries
    if not np.logical_and.reduce(np.isfinite(x)):
        raise InvalidInitialError("components must be finite")
    if np.logical_or.reduce(x < -eps) or np.logical_or.reduce(x > 1.0 + eps):
        raise InvalidInitialError("components must lie in [0, 1]")
    total = float(np.add.reduce(x))
    if abs(total - 1.0) > max(eps, x.size * 1e-15):
        raise InvalidInitialError(f"components must sum to 1, got {total!r}")
    return x


def _check_initial(x0, n: int, eps: float = EPS_SIMPLEX) -> np.ndarray:
    """x0 as by :func:`check_simplex`, after verifying it has a component
    for each of the network's n nodes."""
    x = check_simplex(x0, eps)
    if x.size != n:
        raise InvalidInitialError(
            f"initial vector has {x.size} components for a {n}-node network"
        )
    return x


def vertex_index(x, eps: float = EPS_SIMPLEX) -> Optional[int]:
    """1-based i when x lies within eps of the autocratic vertex e_i."""
    i = int(np.argmax(x))
    return i + 1 if x[i] >= 1.0 - eps else None


def st_df_step(C: RelativeInteractionMatrix, x) -> np.ndarray:
    """One single-timescale update: C^T (x - x^2) + x^2.

    Vertices are exactly fixed with no rounding: at x = e_i the appraisal
    term x - x^2 vanishes identically, leaving x^2 = e_i.  This function and
    :func:`simulate` share one kernel on a C-ordered copy of C^T, so a
    trajectory equals repeated calls of this function bit for bit.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    CT = np.ascontiguousarray(C.entries.T)
    _st_steps(CT, [x, out], np.empty(x.size), np.empty(x.size))
    return out


def fixed_point_residual(C: RelativeInteractionMatrix, x) -> float:
    """Max-norm distance between x and its single-timescale update."""
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(st_df_step(C, x) - x)))


def _st_steps(CT: np.ndarray, states, sq: np.ndarray, appraisal: np.ndarray) -> None:
    """The st kernel: write CT (x - x^2) + x^2 of each vector x in
    `states` into the next one, with `sq` and `appraisal` as scratch.

    Four numpy calls per step with positional outputs; the bound `CT.dot`
    reaches the same BLAS gemv as `@` without `np.dot`'s dispatch.  The
    loop is here rather than in the caller because a Python call per step
    would cost about a tenth of the step.
    """
    multiply, subtract, dot, add = np.multiply, np.subtract, CT.dot, np.add
    for x, out in zip(states, states[1:]):
        multiply(x, x, sq)
        subtract(x, sq, appraisal)
        dot(appraisal, out)
        add(out, sq, out)


@dataclass(frozen=True, eq=False)
class _DfPlan:
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
    return tuple((x >= 1.0).nonzero()[0].tolist())


def _df_plan(
    C: RelativeInteractionMatrix,
    profile: CentralityProfile,
    absorbing: tuple[int, ...],
) -> _DfPlan:
    """Set up the df step for the states whose exact vertex coordinates are
    `absorbing` (0-based; empty for every state with all x_i < 1), from the
    centrality `profile` of C's classified structure.

    The closed classes of W(x) are the singletons {a}, a in `absorbing`, and
    the closed classes of C that hold no absorbing node, with their scores
    from the profile.  Row a of W(x) is e_a and every other row has C's
    off-diagonal pattern, so a closed class of W(x) that avoids the
    absorbing set is closed in C, and a closed class of C that holds some a
    drains into it.  Transient rows satisfy I - W_MM = (I - D_M)(I - C_MM)
    and W_Ms = (I - D_M) C_Ms, so the mass a closed class s absorbs from
    the uniform start, 1/n per node, is |s| / n + y C_Ms 1 with
    (I - C_MM^T) y = 1/n: independent of x.
    """
    held = set(absorbing)
    sinks = zip(profile.structure.sink_index, profile.per_sink)
    kept = [(s, c) for s, c in sinks if held.isdisjoint(s.tolist())]
    classes = tuple(np.array([a]) for a in absorbing) + tuple(s for s, _ in kept)
    n = C.n
    weights = np.array([s.size / n for s in classes])
    in_class = np.zeros(n, dtype=bool)
    for s in classes:
        in_class[s] = True
    transient = np.flatnonzero(~in_class)
    if transient.size:
        # a column of row indices against the column indices gathers the
        # same block as np.ix_, without its Python-level set-up
        rows = transient[:, None]
        C_MM = C.entries[rows, transient]
        y = np.linalg.solve(
            np.eye(transient.size) - C_MM.T, np.full(transient.size, 1.0 / n)
        )
        for k, s in enumerate(classes):
            weights[k] += float(y @ np.add.reduce(C.entries[rows, s], axis=1))
    return _DfPlan(
        absorbing=tuple(absorbing),
        classes=classes,
        weights=tuple(float(w) for w in weights),
        centralities=(None,) * len(absorbing) + tuple(c for _, c in kept),
    )


def df_step(C: RelativeInteractionMatrix, x) -> np.ndarray:
    """One DeGroot-Friedkin update: the power allocation implied by the
    long-run averaging limit of W(x).

    Each closed class s of W(x) keeps the dominant-left-eigenvector split
    of its block, weighted by the share of the population's mass that
    averaging absorbs into it.  Because v W_ss - v = [v (I - D_s)](C_ss - I),
    that split is c_i / (1 - x_i) normalised, with c the centrality of
    C_ss, so the step costs O(n) once the x-independent classes, weights
    and centralities are known.  This call classifies C, builds its
    centrality profile and plans for x's exact vertex coordinates;
    :func:`simulate` builds the profile once per run and plans again only
    when those coordinates change.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    _df_step_into(_df_plan(C, centrality_profile(C, classify(C)), _absorbing(x)), x, out)
    return out


def _df_step_into(plan: _DfPlan, x: np.ndarray, out: np.ndarray) -> None:
    """Write the df step of x into `out`; `plan` must be built for x's
    exact vertex coordinates, which this does not check."""
    out.fill(0.0)
    for s, w, c in zip(plan.classes, plan.weights, plan.centralities):
        if c is None:
            out[s] = w
        else:
            y = c / (1.0 - x[s])
            out[s] = (w / np.add.reduce(y)) * y
    out /= np.add.reduce(out)


def _steps_planned(plan: _DfPlan, states: np.ndarray) -> int:
    """Number of leading rows of `states` that have exactly the plan's
    exact vertex coordinates."""
    planned = np.zeros(states.shape[1], dtype=bool)
    planned[list(plan.absorbing)] = True
    missed = np.logical_or.reduce((states >= 1.0) != planned, axis=1).nonzero()[0]
    return int(missed[0]) if missed.size else len(states)


def sink_power(structure: NetworkStructure, x) -> np.ndarray:
    """Per-sink power totals: zeta_k = sum of self-weights inside sink k.

    The totals sum to at most 1; the deficit is the mass still held by
    non-sink nodes.  `x` must lie in the simplex within EPS_SIMPLEX
    (InvalidInitialError) and have `structure.n` components
    (StructureMismatchError).
    """
    if structure.num_sinks == 1:
        raise StructureMismatchError(
            "sink power is defined only for multi-sink structures, "
            "got one closed class"
        )
    x = check_simplex(x)
    _check_structure_size(structure, x.size)
    totals = np.empty((1, structure.num_sinks))
    _sink_totals(structure, x[None, :], totals)
    return totals[0]


def _sink_totals(structure: NetworkStructure, rows: np.ndarray, out: np.ndarray) -> None:
    """Write the per-sink totals of every row of `rows` into `out`, shape
    (rows, K).

    `take` gathers each sink into a C-ordered block (`rows[:, s]` would
    be F-ordered), so every row is reduced on its own exactly like a 1-D
    sum: a row's totals do not depend on how many rows are reduced together.
    """
    for k, s in enumerate(structure.sink_index):
        np.add.reduce(rows.take(s, axis=1), axis=1, out=out[:, k])


class _Recording:
    """Rows appended to one owned array: grown in place, trimmed once.

    The array starts with room for one full block, so the rows of a block
    always fit after one growth by _GROWTH.  It grows with `ndarray.resize`,
    which reallocates the buffer (realloc remaps a large one rather than
    copying it), and no list of blocks or final join holds the rows a second
    time.  Nothing else may view `array` until :meth:`trimmed` hands it out.
    """

    def __init__(self, *row_shape: int) -> None:
        self.array = np.empty((_MAX_BLOCK + 1, *row_shape))
        self.size = 0

    def append(self, rows: np.ndarray) -> None:
        self.extend(len(rows))[...] = rows

    def extend(self, count: int) -> np.ndarray:
        """The next `count` rows, for the caller to fill before any other
        call: a later growth moves the array."""
        end = self.size + count
        if end > len(self.array):
            grown = (_GROWTH * len(self.array), *self.array.shape[1:])
            self.array.resize(grown, refcheck=False)
        rows = self.array[self.size : end]
        self.size = end
        return rows

    def trimmed(self) -> np.ndarray:
        """The recorded rows as a C-contiguous array that owns its data."""
        self.array.resize((self.size, *self.array.shape[1:]), refcheck=False)
        return self.array


# A status class's `tag` heads the trajectory CSV's "# status=" line, and
# its fields follow as name=value; its `text`, with the fields filled in
# by name, is the CLI's sentence.  A new status needs only its class.
@dataclass(frozen=True)
class Converged:
    tag: ClassVar[str] = "converged"
    text: ClassVar[str] = "converged at step {at}"
    at: int


@dataclass(frozen=True)
class MaxStepsReached:
    tag: ClassVar[str] = "max_steps_reached"
    text: ClassVar[str] = "max steps reached ({steps})"
    steps: int


@dataclass(frozen=True)
class VertexAbsorbed:
    tag: ClassVar[str] = "vertex_absorbed"
    text: ClassVar[str] = "vertex absorbed at node {vertex} (step {at})"
    vertex: int
    at: int


TrajectoryStatus = Union[Converged, MaxStepsReached, VertexAbsorbed]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded run of one update rule.

    states: recorded self-weight vectors, always including t = 0 and the
        final state; thinned by `record_every` in between.
    steps: the time index of each recorded row.
    step_deltas: max-norm change of every step taken; never thinned.
    status: Converged, MaxStepsReached or VertexAbsorbed.
    sink_power: per-step sink totals for multi-sink networks (row t is
        zeta(t) for t = 0 .. total_steps); None otherwise.  Never thinned.

    Each array is C-contiguous and owns its data.  A run of T steps on n
    nodes holds (T / record_every + 1) * n * 8 bytes of states, once, plus
    8 bytes of delta (and 8 per sink of sink totals) per step; a larger
    `record_every` thins long runs.
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


def _step_count(name: str, value, least: int) -> int:
    """`value` as an int, or ValueError naming it unless it is a whole
    number >= `least` (ints, numpy ints and integral floats pass)."""
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def simulate(
    model: str,
    C: RelativeInteractionMatrix,
    x0,
    *,
    eps_conv: float = EPS_CONV,
    max_steps: int = DEFAULT_MAX_STEPS,
    record_every: int = 1,
    eps_simplex: float = EPS_SIMPLEX,
    structure: Optional[NetworkStructure] = None,
) -> Trajectory:
    """Iterate the chosen update rule from x0 and record the trajectory.

    Termination: VertexAbsorbed when the state sits within `eps_simplex`
    of a vertex and the rule moves it by at most `eps_simplex` (always
    immediate for model "st", whose vertices are exactly fixed); otherwise
    Converged at the first step whose delta is below `eps_conv`;
    MaxStepsReached when neither happens within `max_steps`.

    No renormalization is applied between steps; a drift monitor raises
    MassDriftError if total self-weight moves by more than accumulation
    noise.  A two-node strongly connected network is degenerate (both
    rules fix every interior point), reported as Converged at step 0.

    The rule runs in blocks of up to a few hundred steps; deltas,
    termination candidates, drift checks, sink totals and recorded rows of
    a block are then computed with a few ufunc calls into preallocated
    arrays.  A df run ignores division by zero and invalid results (only
    the dropped steps taken past a change of exact vertex coordinates
    produce them); the st rule keeps the caller's error state.  Steps computed
    past the terminating one are discarded.  The step is deterministic, so
    states, deltas, steps and status are exactly those of stepping one at a
    time; the first block is short and later blocks are sized from the
    contraction rate delta_t / delta_(t-1), logged at debug level.  Model
    "st" steps with the kernel of :func:`st_df_step`, so a trajectory
    equals repeated calls of it by construction; model "df" applies the
    plan of :func:`df_step`, matched to the exact vertex coordinates once
    per block, and ends a block at the first state where they change.

    Recorded rows are copied from each block straight into the arrays that
    are returned, which grow geometrically in place and are trimmed once at
    the end: the (total_steps / record_every + 1) * n * 8 bytes of states
    are held once, plus the per-step deltas and sink totals.  Raise
    `record_every` (a whole number >= 1, else ValueError) to thin a long
    run; `max_steps` must be a whole number >= 0 and `eps_conv` a number
    >= 0 (0 runs to `max_steps`), else ValueError.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    max_steps = _step_count("max_steps", max_steps, 0)
    record_every = _step_count("record_every", record_every, 1)
    # written to fail on NaN too
    if not eps_conv >= 0.0:
        raise ValueError(f"eps_conv must be at least 0, got {eps_conv!r}")
    n = C.n
    x = _check_initial(x0, n, eps_simplex).astype(float)
    if structure is None:
        structure = classify(C)
    _check_structure_size(structure, n)
    multi = structure.num_sinks > 1

    # advance(states) steps from states[0] into each later row in turn
    if model == SINGLE_TIMESCALE:
        CT = np.ascontiguousarray(C.entries.T)
        sq = np.empty(n)
        appraisal = np.empty(n)

        def advance(states) -> None:
            _st_steps(CT, states, sq, appraisal)

        # a floating-point error of the st rule is a defect and warns
        errors = contextlib.nullcontext()
    else:
        profile = centrality_profile(C, structure)
        plan = _df_plan(C, profile, ())

        def advance(states) -> None:
            # The plan fits states[0].  The block loop keeps the steps up to
            # the first later state with other exact vertex coordinates.
            nonlocal plan
            absorbing = _absorbing(states[0])
            if absorbing != plan.absorbing:
                plan = _df_plan(C, profile, absorbing)
            for prev, row in zip(states, states[1:]):
                _df_step_into(plan, prev, row)

        # the steps taken from a state past such a change may divide by
        # 1 - x_i = 0; they are dropped, so the run ignores those errors
        errors = np.errstate(divide="ignore", invalid="ignore")

    maximum, add = np.maximum.reduce, np.add.reduce

    def fixed_point_deviation(v: np.ndarray) -> float:
        nxt = np.empty(n)
        advance([v, nxt])
        return float(maximum(np.abs(nxt - v)))

    # each row is written once, into the array that is returned
    states = _Recording(n)
    states.append(x[None, :])
    step_deltas = _Recording()
    if multi:
        sink_rows = _Recording(structure.num_sinks)
        _sink_totals(structure, x[None, :], sink_rows.extend(1))
    mass0 = float(add(x))
    logger.info("simulate model=%s n=%d max_steps=%d", model, n, max_steps)

    status: Optional[TrajectoryStatus] = None
    t = 0
    v0 = vertex_index(x, eps_simplex)
    if v0 is not None and fixed_point_deviation(x) <= eps_simplex:
        status = VertexAbsorbed(vertex=v0, at=0)
    elif n == 2:
        status = Converged(at=0)
    else:
        buf = np.empty((_MAX_BLOCK + 1, n))
        buf[0] = x
        rows = [buf[0]]  # views of buf's rows, extended as blocks grow
        # per-step scratch, sliced to the block's k steps
        deltas = np.empty(_MAX_BLOCK)
        peaks = np.empty(_MAX_BLOCK)
        near_fixed = np.empty(_MAX_BLOCK, dtype=bool)
        near_vertex = np.empty(_MAX_BLOCK, dtype=bool)
        vertex_level = 1.0 - eps_simplex
        k = _FIRST_BLOCK
        previous_delta = math.nan
        with errors:
            while t < max_steps:
                # rows[j] holds the state at step t + j for j = 0 .. k
                k = min(k, max_steps - t)
                rows.extend(buf[len(rows) : k + 1])
                advance(rows[: k + 1])
                if model == ORIGINAL_DF:
                    # a df state reaching or leaving a vertex coordinate needs
                    # another plan: the steps taken from it are dropped
                    k = 1 + _steps_planned(plan, buf[1:k])
                block = buf[1 : k + 1]
                change = np.subtract(block, buf[:k])
                maximum(np.absolute(change, out=change), axis=1, out=deltas[:k])
                maximum(block, axis=1, out=peaks[:k])
                np.less(deltas[:k], eps_conv, out=near_fixed[:k])
                np.greater_equal(peaks[:k], vertex_level, out=near_vertex[:k])
                np.logical_or(near_fixed[:k], near_vertex[:k], out=near_fixed[:k])
                end = k
                for j in (near_fixed[:k].nonzero()[0] + 1).tolist():
                    vi = vertex_index(rows[j], eps_simplex)
                    # the delta of step t + j + 1 is the fixed-point deviation of row j
                    if vi is not None and (
                        deltas[j] if j < k else fixed_point_deviation(rows[j])
                    ) <= eps_simplex:
                        status = VertexAbsorbed(vertex=vi, at=t + j)
                    elif deltas[j - 1] < eps_conv:
                        status = Converged(at=t + j)
                    else:
                        continue
                    end = j
                    break
                for step_no in range(
                    t + _MASS_CHECK_INTERVAL - t % _MASS_CHECK_INTERVAL,
                    t + end + 1,
                    _MASS_CHECK_INTERVAL,
                ):
                    drift = abs(float(add(rows[step_no - t])) - mass0)
                    if drift > _MASS_DRIFT_LIMIT:
                        raise MassDriftError(
                            f"total self-weight drifted by {drift:.3g} after {step_no} steps"
                        )
                step_deltas.append(deltas[:end])
                if multi:
                    _sink_totals(structure, buf[1 : end + 1], sink_rows.extend(end))
                first = record_every - t % record_every
                states.append(buf[first : end + 1 : record_every])
                last = float(deltas[end - 1])
                before = float(deltas[end - 2]) if end > 1 else previous_delta
                rate = last / before if before > 0.0 else math.nan
                t += end
                logger.debug(
                    "simulate block: steps=%d block=%d delta=%.3g rate=%.9g",
                    t, k, last, rate,
                )
                buf[0] = rows[end]
                if status is not None:
                    break
                previous_delta = last
                gap = 1.0 - float(peaks[end - 1])
                k = _block_length(k, last, rate, gap, eps_conv, eps_simplex)
        x = buf[0].copy()
        if status is None:
            status = MaxStepsReached(steps=max_steps)

    drift = abs(float(add(x)) - mass0)
    if drift > _MASS_DRIFT_LIMIT:
        raise MassDriftError(
            f"total self-weight drifted by {drift:.3g} after {t} steps"
        )
    steps = np.arange(0, t + 1, record_every)
    if steps[-1] != t:
        states.append(x[None, :])
        steps = np.append(steps, t)
    logger.info("simulate done: %s after %d steps", type(status).__name__, t)
    return Trajectory(
        states=states.trimmed(),
        steps=steps,
        step_deltas=step_deltas.trimmed(),
        status=status,
        sink_power=sink_rows.trimmed() if multi else None,
    )


def _block_length(
    k: int,
    delta: float,
    rate: float,
    gap: float,
    eps_conv: float,
    eps_simplex: float,
) -> int:
    """Steps in the next block: enough, at the observed contraction `rate`,
    to take the step `delta` below `eps_conv` or the distance `gap` from the
    nearest vertex below `eps_simplex`, plus the step that confirms it (a
    zero tolerance sets no target); at most twice the last block, since
    early rates are rough."""
    longest = min(2 * k, _MAX_BLOCK)
    if not 0.0 < rate < 1.0:
        return longest
    log_rate = math.log(rate)
    need = math.log(eps_conv / delta) / log_rate if eps_conv > 0.0 else math.inf
    if eps_simplex > 0.0 and gap > eps_simplex:
        need = min(need, math.log(eps_simplex / gap) / log_rate)
    return int(min(max(need, 0.0) + 2.0, longest))
