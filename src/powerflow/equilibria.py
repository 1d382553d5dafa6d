"""Equilibrium solvers, limit prediction, and the two-model comparison.

The interior equilibria of both update rules coincide and are pinned down
by eigenvector centrality: the fixed-point condition x - x^2 = C^T (x - x^2)
forces x_i (1 - x_i) to be proportional to the centrality score c_i, so the
equilibrium solves x_i = a * c_i / (1 - x_i) for a single scalar a fixed by
the total mass.  The solver iterates the power reallocation map
x <- total * y / sum(y) with y_i = c_i / (1 - x_i), which implicitly selects
the correct quadratic branch per coordinate.

:func:`predict_limit` dispatches on the classified network structure;
:func:`assemble_multisink_equilibrium` materializes the equilibrium of a
multi-sink network from a given split of power among the sinks;
:func:`compare_models` runs both update rules from one initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .defaults import (
    DEFAULT_MAX_STEPS,
    EPS_CONV,
    EPS_EQUILIBRIUM,
    ORIGINAL_DF,
    SINGLE_TIMESCALE,
)
from .dynamics import (
    EPS_SIMPLEX,
    Trajectory,
    check_simplex,
    simulate,
    st_df_step,
    vertex_index,
)
from .errors import (
    CenterDominantError,
    DimensionTooSmallError,
    FamilyParameterRequiredError,
    NoConvergenceError,
    StructureMismatchError,
)
from .netcore import (
    Irreducible,
    MultiSink,
    NetworkStructure,
    ReducibleReachable,
    RelativeInteractionMatrix,
    classify,
)
from .spectral import CentralityProfile

MAX_SOLVER_ITERATIONS = 10**5
# Boundary of the regime where the interior point degenerates into a vertex.
_CENTER_DOMINANT_MARGIN = 1e-12


def fixed_point_residual(C: RelativeInteractionMatrix, x) -> float:
    """Max-norm distance between x and its single-timescale update."""
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(st_df_step(C, x) - x)))


def solve_interior_equilibrium(
    c, total_mass: float, eps: float = EPS_EQUILIBRIUM
) -> np.ndarray:
    """Solve x_i = a * c_i / (1 - x_i) with sum(x) = total_mass.

    `c` is a strictly positive simplex vector of centrality scores, either
    of a whole strongly connected network (total_mass = 1) or of one sink
    (total_mass = the sink's power total).  Iterates
    x <- total_mass * y / sum(y) with y_i = c_i / (1 - x_i) from
    x = total_mass * c until successive iterates differ by less than `eps`;
    the iteration is the power reallocation map itself, so it lands on the
    correct branch of the per-coordinate quadratic by construction.

    Two-entry inputs use the closed form (total_mass / 2, total_mass / 2);
    a two-member group holding all mass has a one-parameter equilibrium
    family instead of a point and raises CenterDominantError, as does a
    dominant score c_i >= 1/2 with total_mass = 1 (the star regime, where
    the interior point degenerates into the center's vertex).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise DimensionTooSmallError(
            f"need at least 2 centrality entries, got {c.size}"
        )
    if np.any(c <= 0.0) or abs(float(c.sum()) - 1.0) > 1e-9:
        raise ValueError("centrality scores must be strictly positive and sum to 1")
    if not 0.0 < total_mass <= 1.0 + _CENTER_DOMINANT_MARGIN:
        raise ValueError(f"total mass must lie in (0, 1], got {total_mass!r}")
    full_mass = total_mass >= 1.0 - _CENTER_DOMINANT_MARGIN
    if c.size == 2:
        if full_mass:
            raise CenterDominantError(
                "a two-member group holding all power has the equilibrium "
                "family (a, 1-a); no unique interior point exists"
            )
        return np.full(2, total_mass / 2.0)
    if full_mass and float(c.max()) >= 0.5 - _CENTER_DOMINANT_MARGIN:
        raise CenterDominantError(
            f"dominant centrality score {float(c.max()):.6g} >= 1/2 with all "
            "power in the group: the interior equilibrium degenerates into "
            "the center's autocratic vertex"
        )
    x = total_mass * c
    for _ in range(MAX_SOLVER_ITERATIONS):
        y = c / (1.0 - x)
        x_new = total_mass * (y / y.sum())
        if float(np.max(np.abs(x_new - x))) < eps:
            return x_new
        x = x_new
    raise NoConvergenceError(MAX_SOLVER_ITERATIONS)


@dataclass(frozen=True)
class TwoNodeEquilibrium:
    """Equilibrium of a two-node sink holding total power `total`.

    `point` is the even split (total/2, total/2) when total < 1; with all
    power in the sink every split (a, 1-a) is fixed and `point` is None.
    """

    total: float
    point: Optional[np.ndarray]

    @property
    def is_family(self) -> bool:
        return self.point is None


def two_node_equilibrium(zeta: float) -> TwoNodeEquilibrium:
    """Equilibrium of a two-node sink as a function of its power total."""
    if not 0.0 <= zeta <= 1.0 + _CENTER_DOMINANT_MARGIN:
        raise ValueError(f"sink power total must lie in [0, 1], got {zeta!r}")
    if zeta >= 1.0 - _CENTER_DOMINANT_MARGIN:
        return TwoNodeEquilibrium(total=zeta, point=None)
    return TwoNodeEquilibrium(total=zeta, point=np.full(2, zeta / 2.0))


KIND_VERTEX = "vertex"
KIND_STAR_AUTOCRAT = "star_autocrat"
KIND_UNIQUE_INTERIOR = "unique_interior"
KIND_TWO_NODE_FAMILY = "two_node_family"
KIND_MULTI_SINK_FAMILY = "multi_sink_family"


@dataclass(frozen=True)
class EquilibriumPrediction:
    """Predicted limit of the single-timescale dynamics for one run.

    kind: one of "vertex" (autocratic start stays put), "star_autocrat"
        (power concentrates on the star center), "unique_interior" (x_star
        holds the solved point), "two_node_family" (the split between the
        two supporting nodes depends on the transient) or
        "multi_sink_family" (the sink power split depends on the
        trajectory; use simulation plus the assembler to realize a member).
    provenance: short human-readable regime note.
    """

    kind: str
    provenance: str
    vertex: Optional[int] = None
    center: Optional[int] = None
    x_star: Optional[np.ndarray] = None
    support: Optional[tuple[int, ...]] = None


# provenance of the two-node family, the star and the interior point, for a
# sink that is the whole network (True) or a globally reachable set (False)
_SINGLE_SINK_NOTES = {
    True: (
        "two-member group: every interior point is fixed",
        "star pattern: power concentrates on the center",
        "strongly connected non-star: unique interior equilibrium, independent of the start",
    ),
    False: (
        "two reachable nodes absorb all power; their split depends on the transient",
        "star pattern on the reachable set: power concentrates on its center",
        "reachable set absorbs all power; unique equilibrium supported there",
    ),
}


def predict_limit(
    C: RelativeInteractionMatrix,
    structure: NetworkStructure,
    profile: CentralityProfile,
    x0,
    eps: float = EPS_EQUILIBRIUM,
    eps_simplex: float = EPS_SIMPLEX,
) -> EquilibriumPrediction:
    """Predict the limit of the single-timescale dynamics from x0.

    Pointwise predictions are returned whenever the structure pins the
    limit down (autocratic starts, stars, unique interior equilibria);
    family predictions mark the regimes where the realized member depends
    on the transient and must come from simulation.

    Past an autocratic start only the structure matters: several sinks give
    the multi-sink family, and one sink (`structure.sink_index`, the whole
    network or the reachable set) gives, by its size and star center, the
    two-node family, the star or the interior point, zero off the sink.
    """
    x0 = check_simplex(x0, eps_simplex)
    v = vertex_index(x0, eps_simplex)
    if v is not None:
        return EquilibriumPrediction(
            kind=KIND_VERTEX,
            provenance="autocratic start: every vertex is a fixed point",
            vertex=v,
        )
    if isinstance(structure, MultiSink):
        return EquilibriumPrediction(
            kind=KIND_MULTI_SINK_FAMILY,
            provenance="multiple sinks: any split of power among the sinks can "
            "be an equilibrium; the realized split comes from simulation",
            support=tuple(v for sink in structure.sinks for v in sink),
        )
    (sink,) = structure.sink_index
    whole = sink.size == structure.n
    pair_note, star_note, interior_note = _SINGLE_SINK_NOTES[whole]
    support = tuple((sink + 1).tolist())
    if sink.size == 2:
        return EquilibriumPrediction(
            kind=KIND_TWO_NODE_FAMILY, provenance=pair_note, support=support
        )
    center = structure.star_center if whole else structure.star_center_of_subgraph
    if center is not None:
        return EquilibriumPrediction(
            kind=KIND_STAR_AUTOCRAT, provenance=star_note, center=center
        )
    x_star = np.zeros(structure.n)
    x_star[sink] = solve_interior_equilibrium(profile.per_sink[0], 1.0, eps)
    return EquilibriumPrediction(
        kind=KIND_UNIQUE_INTERIOR, provenance=interior_note, x_star=x_star, support=support
    )


def assemble_multisink_equilibrium(
    structure: NetworkStructure,
    profile: CentralityProfile,
    zeta_star,
    eps: float = EPS_EQUILIBRIUM,
    alpha: Optional[float] = None,
) -> np.ndarray:
    """Equilibrium of a multi-sink network for a given sink power split.

    Non-sink nodes get 0.  A sink with total 0 gets the zero vector; a
    two-node sink gets the even split, unless it holds all power, in which
    case its equilibria form the family (a, 1-a) and `alpha` must pick the
    member (FamilyParameterRequiredError otherwise).  Larger sinks are
    solved from their centrality scores with the sink total as mass.
    """
    if not isinstance(structure, MultiSink):
        raise StructureMismatchError(
            "assembling a per-sink equilibrium requires a multi-sink "
            f"structure, got {type(structure).__name__}"
        )
    zeta = np.asarray(zeta_star, dtype=float)
    if zeta.size != structure.num_sinks:
        raise ValueError(
            f"expected {structure.num_sinks} sink totals, got {zeta.size}"
        )
    # written to fail on NaN totals too
    if not (np.all(zeta >= 0.0) and abs(float(zeta.sum()) - 1.0) <= 1e-9):
        raise ValueError("sink totals must be non-negative and sum to 1")
    x = np.zeros(structure.n)
    for k, idx in enumerate(structure.sink_index):
        total = float(zeta[k])
        if total == 0.0:
            continue
        if idx.size == 1:
            x[idx] = total
        elif idx.size == 2:
            split = two_node_equilibrium(total)
            if split.is_family:
                if alpha is None:
                    raise FamilyParameterRequiredError(
                        f"sink {k + 1} holds all power: its equilibria are "
                        "the family (a, 1-a); pass alpha to pick one"
                    )
                if not 0.0 <= alpha <= 1.0:
                    raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
                x[idx] = (alpha, 1.0 - alpha)
            else:
                x[idx] = split.point
        else:
            x[idx] = solve_interior_equilibrium(profile.per_sink[k], total, eps)
    return x


def regime_name(structure: NetworkStructure) -> str:
    """Short label of the structural regime a network falls into."""
    if isinstance(structure, Irreducible):
        if structure.degenerate_pair:
            return "irreducible-pair"
        if structure.star_center is not None:
            return f"irreducible-star(center={structure.star_center})"
        return "irreducible"
    if isinstance(structure, ReducibleReachable):
        if structure.r == 2:
            return "reachable-pair"
        if structure.star_center_of_subgraph is not None:
            return f"reachable-star(center={structure.star_center_of_subgraph})"
        return f"reachable(r={structure.r})"
    return f"multi-sink(K={structure.num_sinks})"


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of running both update rules from the same start.

    per_step_distance holds the max-norm gap between the two recorded
    trajectories at matching recorded steps (up to the shorter run);
    sink_power_st / sink_power_df the final per-sink totals on multi-sink
    networks.
    """

    trajectory_st: Trajectory
    trajectory_df: Trajectory
    limit_st: np.ndarray
    limit_df: np.ndarray
    limit_distance: float
    steps_st: int
    steps_df: int
    per_step_distance: np.ndarray
    regime: str
    sink_power_st: Optional[np.ndarray] = None
    sink_power_df: Optional[np.ndarray] = None


def compare_models(
    C: RelativeInteractionMatrix,
    x0,
    *,
    eps_conv: float = EPS_CONV,
    max_steps: int = DEFAULT_MAX_STEPS,
    record_every: int = 1,
    structure: Optional[NetworkStructure] = None,
) -> ComparisonReport:
    """Run both update rules from the same x0 and report their limits.

    On strongly connected networks (and from non-autocratic starts on
    single-sink reducible ones) the two limits agree; autocratic starts on
    reducible nodes and multi-sink networks are the regimes where they
    genuinely part ways.
    """
    if structure is None:
        structure = classify(C)
    traj_st = simulate(
        SINGLE_TIMESCALE, C, x0, eps_conv=eps_conv, max_steps=max_steps,
        record_every=record_every, structure=structure,
    )
    traj_df = simulate(
        ORIGINAL_DF, C, x0, eps_conv=eps_conv, max_steps=max_steps,
        record_every=record_every, structure=structure,
    )
    limit_st = traj_st.final_state
    limit_df = traj_df.final_state
    shared = min(traj_st.states.shape[0], traj_df.states.shape[0])
    per_step = np.max(
        np.abs(traj_st.states[:shared] - traj_df.states[:shared]), axis=1
    )
    multi = isinstance(structure, MultiSink)
    return ComparisonReport(
        trajectory_st=traj_st,
        trajectory_df=traj_df,
        limit_st=limit_st,
        limit_df=limit_df,
        limit_distance=float(np.max(np.abs(limit_st - limit_df))),
        steps_st=traj_st.total_steps,
        steps_df=traj_df.total_steps,
        per_step_distance=per_step,
        regime=regime_name(structure),
        sink_power_st=traj_st.sink_power[-1] if multi else None,
        sink_power_df=traj_df.sink_power[-1] if multi else None,
    )
