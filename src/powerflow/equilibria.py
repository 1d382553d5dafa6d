"""Equilibrium solvers, limit prediction, and the two-model comparison.

The interior equilibria of both update rules coincide and are pinned down
by eigenvector centrality: the fixed-point condition x - x^2 = C^T (x - x^2)
forces x_i (1 - x_i) to be proportional to the centrality score c_i, so the
equilibrium solves x_i = a * c_i / (1 - x_i) for a single scalar a fixed by
the total mass.  :func:`solve_interior_equilibrium` finds that point as one
bracketed scalar root: the power s of the top score fixes a, every other
coordinate follows on the minus branch of its quadratic, and the mass
condition is a concave function of s with a single sign change.

:func:`predict_limit` and :func:`assemble_multisink_equilibrium` share
one rule per closed class: holding all power, a star class sits at its
centre's vertex and a two-node class has the family (a, 1-a); any other
class gets the interior point of its centrality scores from that one
solver.  Both take only a profile solved for an equal structure.  A
prediction is its kind plus its point (`x_star`, None for the families).
:func:`check_interior` checks a solved interior point; :func:`compare_models`
runs both update rules from one start.  Each result holds a value once:
limits, step counts and sink totals are read from the trajectories, and
:func:`regime_name` describes the regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .defaults import (
    DEFAULT_MAX_STEPS,
    EPS_CONV,
    EPS_EQUILIBRIUM,
    EPS_TIE,
    ORIGINAL_DF,
    SINGLE_TIMESCALE,
)
from .dynamics import (
    Trajectory,
    _check_initial,
    fixed_point_residual,
    simulate,
    vertex_index,
)
from .errors import (
    DimensionTooSmallError,
    FamilyParameterRequiredError,
    NoConvergenceError,
    StructureMismatchError,
)
from .netcore import (
    NetworkStructure,
    RelativeInteractionMatrix,
    _check_structure_size,
    classify,
)
from .spectral import CentralityProfile, _check_profile_fits

# A total mass up to this much above 1 counts as 1.
_MASS_SLACK = 1e-12


def solve_interior_equilibrium(
    c, total_mass: float, eps: float = EPS_EQUILIBRIUM
) -> np.ndarray:
    """Solve x_i (1 - x_i) = a * c_i with sum(x) = total_mass, x interior.

    `c` is a strictly positive simplex vector of centrality scores, either
    of a whole strongly connected network (total_mass = 1) or of one sink
    (total_mass = the sink's power total).

    Parametrisation.  The unknown is s, the power of the top score c_top
    (shared by the k scores tied with it), so a = s (1 - s) / c_top.  Every
    other coordinate is on the minus branch of its quadratic, written
    without cancellation: x_i(s) = 2 q_i / (1 + d_i) with
    q_i = s (1 - s) r_i, r_i = c_i / c_top < 1 and d_i = sqrt(1 - 4 q_i).
    (Only the top can hold more than half the mass.)  s is the root of

        F(s) = (s - m) + (k - 1) s + sum_i x_i(s),   m = total_mass,

    summed from the small terms, so F keeps its relative accuracy near a
    star, where s -> 1 and every x_i -> 0.

    Uniqueness.  With d_i^2 = 1 - r_i + r_i (1 - 2s)^2, the second
    derivative of x_i(s) is (2 r_i / d_i) (r_i (1 - 2s)^2 / d_i^2 - 1) <= 0,
    so F is concave on [0, 1].  As F(0) = -m < 0 and F(1) = k - m >= 0, F
    changes sign exactly once.  For k = 1 and m = 1 the vertex s = 1 is a
    root too, and the interior root lies below it exactly when
    F'(1) = 1 - (1 - c_top) / c_top < 0, that is when c_top < 1/2, and it
    tends to the vertex as c_top -> 1/2.  A star's c_top rounds to within
    an ulp or two of 1/2, either side, so stars are told apart by
    `classify`, not here; on one this returns the vertex within a few ulps.

    Root finding.  Newton steps, F'(s) = k + (1 - 2s) sum_i r_i / d_i,
    start from s = m c_top, below the root (the top holds at least its
    share of the mass), inside the bracket [0, m].  A bisection step is
    taken whenever Newton leaves the bracket or, from above the root,
    fails to halve the previous step.  From below no such test is needed:
    F is concave, so a Newton step lands below the root again with F
    raised, and the loop stops at the first step that does not, since
    rounding then decides.  It also stops once a Newton step is at most
    one ulp of s or the bracket cannot shrink.  Every pass moves an end of
    the bracket strictly inside it, so no iteration budget is needed.
    Near a star the relative error of 1 - x_top and of the small
    coordinates is about machine epsilon / (1 - 2 c_top).

    Residual gate.  The result must have
    max(|sum(x) - m|, max_i |x_i (1 - x_i) - a c_i|) <= eps, else
    NoConvergenceError carries that residual.  Tied scores get
    bit-identical powers.

    A two-member group holding all mass has a one-parameter equilibrium
    family instead of a point and raises FamilyParameterRequiredError.  A
    mass up to 1e-12 above 1 counts as 1; any mass below 1 has its
    interior point.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise DimensionTooSmallError(
            f"need at least 2 centrality entries, got {c.size}"
        )
    # written to fail on NaN and infinite scores too
    if not (np.all(c > 0.0) and abs(float(c.sum()) - 1.0) <= 1e-9):
        raise ValueError(
            "centrality scores must be finite, strictly positive and sum to 1"
        )
    if not 0.0 < total_mass <= 1.0 + _MASS_SLACK:
        raise ValueError(f"total mass must lie in (0, 1], got {total_mass!r}")
    m = min(float(total_mass), 1.0)
    if m >= 1.0 and c.size == 2:
        raise FamilyParameterRequiredError(
            "a two-member group holding all power has the equilibrium "
            "family (a, 1-a); no unique interior point exists"
        )
    c_top = float(c.max())
    top = c == c_top
    rest = ~top
    k = int(np.count_nonzero(top))
    r = c[rest] / c_top

    def f_df(s):
        # capping s (1 - s) at its true maximum 1/4 keeps 4 q <= r < 1
        q = min(s * (1.0 - s), 0.25) * r
        d = np.sqrt(1.0 - 4.0 * q)
        x_rest = 2.0 * q / (1.0 + d)
        f = (s - m) + (k - 1) * s + float(x_rest.sum())
        return f, k + (1.0 - 2.0 * s) * float((r / d).sum()), x_rest

    lo, hi = 0.0, m
    s = m * c_top
    step = hi - lo
    f_below = None
    while True:
        f, df, x_rest = f_df(s)
        # a Newton step from below the root lands below it with F raised
        if f_below is not None and not f_below < f < 0.0:
            break
        if f < 0.0:
            lo = s
        else:
            hi = s
        newton = s - f / df if df > 0.0 else math.inf
        if abs(newton - s) <= math.ulp(s):
            break
        if lo < newton < hi and (f < 0.0 or abs(newton - s) <= 0.5 * abs(step)):
            f_below, s_next = (f if f < 0.0 else None), newton
        else:
            f_below, s_next = None, lo + 0.5 * (hi - lo)
            if not lo < s_next < hi:
                break
        step, s = s_next - s, s_next

    x = np.empty_like(c)
    x[top] = s
    x[rest] = x_rest
    a = s * (1.0 - s) / c_top
    residual = max(
        abs(float(x.sum()) - m), float(np.max(np.abs(x * (1.0 - x) - a * c)))
    )
    if not residual <= eps:
        raise NoConvergenceError(residual=residual)
    return x


KIND_VERTEX = "vertex"
KIND_STAR_AUTOCRAT = "star_autocrat"
KIND_UNIQUE_INTERIOR = "unique_interior"
KIND_TWO_NODE_FAMILY = "two_node_family"
KIND_MULTI_SINK_FAMILY = "multi_sink_family"


@dataclass(frozen=True, eq=False)
class EquilibriumPrediction:
    """Predicted limit of the single-timescale dynamics for one run.

    kind: one of "vertex" (an autocratic start stays put), "star_autocrat"
        (power concentrates on the star centre), "unique_interior",
        "two_node_family" (the split between the two sink nodes depends on
        the transient) or "multi_sink_family" (the sink power split
        depends on the trajectory; use simulation plus the assembler to
        realize a member).  :func:`regime_name` describes the regime.
    x_star: the predicted point of the first three kinds (e_v, the
        centre's vertex, the solved interior point), None for the families.
    """

    kind: str
    x_star: Optional[np.ndarray]


def _write_class_equilibrium(x, structure, profile, k: int, total: float, eps: float) -> None:
    """Write closed class k's equilibrium for `total` into `x`: at a total
    of 1 with a centre in `structure.centers`, that centre's vertex, else
    the interior point of its scores, solved to residual `eps`."""
    center = structure.centers[k]
    if total == 1.0 and center is not None:
        x[center - 1] = 1.0
    else:
        x[structure.sink_index[k]] = solve_interior_equilibrium(profile.per_sink[k], total, eps)


def predict_limit(
    C: RelativeInteractionMatrix,
    structure: NetworkStructure,
    profile: CentralityProfile,
    x0,
    eps: float = EPS_EQUILIBRIUM,
) -> EquilibriumPrediction:
    """Predict the limit of the single-timescale dynamics from x0.

    `x0` must lie in the simplex within EPS_SIMPLEX and have `C.n`
    components (InvalidInitialError); a start within EPS_SIMPLEX of a
    vertex is autocratic and stays put.  Past it only the structure
    matters: several sinks give the multi-sink family and a two-node sink
    the two-node family, whose member depends on the transient and must
    come from simulation.  Any other single sink (the whole network or the
    reachable set) holds all power and gets the assembly's per-class rule
    at total 1: the star centre's vertex or the interior point, zero off
    the sink, solved to residual `eps`.  `structure` must be classified
    from `C` and `profile` solved for it (StructureMismatchError); a
    profile of another matrix with the same closed classes and centres
    still passes.
    """
    _check_structure_size(structure, C.n)
    _check_profile_fits(profile, structure)
    x0 = _check_initial(x0, C.n)
    v = vertex_index(x0)
    x_star = np.zeros(structure.n)
    if v is not None:
        x_star[v - 1] = 1.0
        return EquilibriumPrediction(KIND_VERTEX, x_star)
    if structure.num_sinks > 1:
        return EquilibriumPrediction(KIND_MULTI_SINK_FAMILY, None)
    if structure.sink_index[0].size == 2:
        return EquilibriumPrediction(KIND_TWO_NODE_FAMILY, None)
    _write_class_equilibrium(x_star, structure, profile, 0, 1.0, eps)
    kind = KIND_UNIQUE_INTERIOR if structure.centers[0] is None else KIND_STAR_AUTOCRAT
    return EquilibriumPrediction(kind, x_star)


def assemble_multisink_equilibrium(
    structure: NetworkStructure,
    profile: CentralityProfile,
    zeta_star,
    eps: float = EPS_EQUILIBRIUM,
    alpha: Optional[float] = None,
) -> np.ndarray:
    """Equilibrium of a multi-sink network for a given sink power split.

    Non-sink nodes get 0 and a sink with total 0 the zero vector.  Holding
    all power, a total of 1, a sink with a centre in `structure.centers`
    gets its vertex and a two-node sink the family (a, 1-a), whose member
    `alpha` picks (FamilyParameterRequiredError without it).  Every other
    sink, of two or more nodes since each node of a validated network gives
    weight to another, is solved by :func:`solve_interior_equilibrium` from
    its centrality scores with the sink total as mass, a two-node sink
    (scores (1/2, 1/2)) thus getting the even split.  Each total must lie
    in [0, 1], their sum within 1e-9 of 1.  `profile` must be solved for
    `structure` (StructureMismatchError); a profile of another matrix with
    the same closed classes and centres still passes.
    """
    if structure.num_sinks == 1:
        raise StructureMismatchError(
            "assembling a per-sink equilibrium requires a multi-sink "
            "structure, got one closed class"
        )
    _check_profile_fits(profile, structure)
    zeta = np.asarray(zeta_star, dtype=float)
    if zeta.size != structure.num_sinks:
        raise ValueError(
            f"expected {structure.num_sinks} sink totals, got {zeta.size}"
        )
    # written to fail on NaN totals too
    in_range = np.all((zeta >= 0.0) & (zeta <= 1.0))
    if not (in_range and abs(float(zeta.sum()) - 1.0) <= 1e-9):
        raise ValueError("sink totals must lie in [0, 1] and sum to 1")
    x = np.zeros(structure.n)
    for k, idx in enumerate(structure.sink_index):
        total = float(zeta[k])
        if total == 0.0:
            continue
        # a two-node sink has no centre
        if total == 1.0 and idx.size == 2:
            if alpha is None:
                raise FamilyParameterRequiredError(
                    f"sink {k + 1} holds all power: its equilibria are "
                    "the family (a, 1-a); pass alpha to pick one"
                )
            if not 0.0 <= alpha <= 1.0:
                raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
            x[idx] = (alpha, 1.0 - alpha)
        else:
            _write_class_equilibrium(x, structure, profile, k, total, eps)
    return x


def regime_name(structure: NetworkStructure) -> str:
    """Short label of the structural regime a network falls into."""
    if structure.num_sinks > 1:
        return f"multi-sink(K={structure.num_sinks})"
    size = len(structure.sinks[0])
    whole = size == structure.n
    prefix = "irreducible" if whole else "reachable"
    if size == 2:
        return f"{prefix}-pair"
    if structure.centers[0] is not None:
        return f"{prefix}-star(center={structure.centers[0]})"
    return prefix if whole else f"{prefix}(r={size})"


@dataclass(frozen=True)
class InteriorCheck:
    """Checks of an interior equilibrium on one sink: `alpha`, the mean of
    x_i (1 - x_i) / c_i there, its fixed-point `residual` and the ordering check."""

    alpha: float
    residual: float
    ordering_consistent: bool


def check_interior(C: RelativeInteractionMatrix, x_star, sink, c) -> InteriorCheck:
    """Check `x_star` against the scores `c` of the sink with 0-based indices `sink`."""
    x_sink = x_star[sink]
    return InteriorCheck(
        float(np.mean(x_sink * (1.0 - x_sink) / c)),
        fixed_point_residual(C, x_star),
        _ordering_consistent(x_sink, c),
    )


#: pairs compared per block by the ordering check
_PAIR_BLOCK = 1 << 14


def _ordering_consistent(x_star, c) -> bool:
    """True when, over all pairs (i, j), a higher score c_i > c_j + EPS_TIE
    gives a higher power x_i > x_j and tied scores give powers within
    10 * EPS_TIE."""
    c = np.asarray(c, dtype=float)
    x = np.asarray(x_star, dtype=float)
    c_above = c + EPS_TIE
    # the pair tables a block of rows at a time: O(n) memory, not O(n^2)
    rows = max(1, _PAIR_BLOCK // max(c.size, 1))
    for start in range(0, c.size, rows):
        c_i = c[start:start + rows, None]
        x_i = x[start:start + rows, None]
        inverted = (c_i > c_above) & (x_i <= x)
        split_tie = (np.abs(c_i - c) < EPS_TIE) & (np.abs(x_i - x) > 10 * EPS_TIE)
        if inverted.any() or split_tie.any():
            return False
    return True


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of running both update rules from the same start.

    Each limit, step count and final per-sink total is read from its
    trajectory: `final_state`, `total_steps` and `sink_power[-1]` (multi-sink
    networks only).  limit_distance is the max-norm gap between the two
    limits; regime is :func:`regime_name` of the network.
    """

    trajectory_st: Trajectory
    trajectory_df: Trajectory
    limit_distance: float
    regime: str


def compare_models(
    C: RelativeInteractionMatrix,
    x0,
    *,
    eps_conv: float = EPS_CONV,
    max_steps: int = DEFAULT_MAX_STEPS,
    record_every: int = 1,
    structure: Optional[NetworkStructure] = None,
) -> ComparisonReport:
    """Run both update rules from the same x0 and report their trajectories.

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
    return ComparisonReport(
        trajectory_st=traj_st,
        trajectory_df=traj_df,
        limit_distance=float(np.max(np.abs(traj_st.final_state - traj_df.final_state))),
        regime=regime_name(structure),
    )
