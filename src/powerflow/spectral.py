"""Dominant-left-eigenvector machinery for row-stochastic matrices.

Provides the eigenvalue-1 left eigenvector (eigenvector centrality) of an
irreducible row-stochastic matrix, the centrality profile of a classified
network (the structure it was solved for and one score vector per closed
class; it fits only an equal structure, and like every record that holds
arrays it compares by identity), and the influence matrix
W(x) = diag(x) + (I - diag(x)) C, a plain read-only array.

The eigenvector is one direct LU solve, with no iteration budget, damping
or fallback (see :func:`dominant_left_eigenvector`).  Grassmann-Taksar-Heyman
elimination, the subtraction-free alternative, ran 6-30 times slower in
numpy at n = 200-1000 and is not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoConvergenceError, StructureMismatchError
from .netcore import NetworkStructure, RelativeInteractionMatrix, _check_structure_size

#: Residual target for eigenvector computations (max norm of v M - v).
EPS_SPECTRAL = 1e-12


def dominant_left_eigenvector(M) -> np.ndarray:
    """Left eigenvector v of an irreducible row-stochastic matrix M with
    v M = v, v > 0, sum(v) = 1, accepted when the max-norm residual of
    v M - v is below EPS_SPECTRAL.

    One direct LU solve of v (M - I) = 0 with its last equation replaced by
    sum(v) = 1; for irreducible M that system is nonsingular, whatever the
    period or the spectral gap, so the answer is deterministic and carries
    no iteration error.  The residual is a hard gate: NoConvergenceError,
    carrying the residual, reports a singular system (M not irreducible), a
    residual at or above EPS_SPECTRAL, or, naming it, a score that is not
    strictly positive, as true scores far below LU's absolute accuracy of
    about 1e-16 can come out.
    """
    A = np.asarray(M, dtype=float)
    n = A.shape[0]
    if n == 1:
        return np.ones(1)
    lhs = A.T.copy()
    lhs[np.diag_indices(n)] -= 1.0
    lhs[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        raise NoConvergenceError(residual=math.inf) from None
    v /= v.sum()
    residual = float(np.max(np.abs(v @ A - v)))
    if not residual < EPS_SPECTRAL:
        raise NoConvergenceError(residual=residual)
    if not np.all(v > 0.0):
        low = int(np.argmin(v))
        raise NoConvergenceError(residual, (
            f"met its residual target, but score {low + 1} of {n} is {v[low]:.3g}, "
            "not strictly positive"
        ))
    return v


@dataclass(frozen=True, eq=False)
class CentralityProfile:
    """Eigenvector centrality scores of a classified network, each held once.

    structure: the NetworkStructure the scores were solved for, the only
        one they fit (see :func:`_check_profile_fits`).
    per_sink: for each closed class in `structure.sink_index`, the
        centrality vector of its induced subnetwork (positive, sums to 1).
    lifted: read-only n-vectors built on each access, the per_sink vectors
        zero off their class; global_c the one of them, or None with several.
    """

    structure: NetworkStructure
    per_sink: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for vec in self.per_sink:
            vec.setflags(write=False)

    @property
    def lifted(self) -> tuple[np.ndarray, ...]:
        table = np.zeros((len(self.per_sink), self.structure.n))
        for row, idx, c_k in zip(table, self.structure.sink_index, self.per_sink):
            row[idx] = c_k
        table.setflags(write=False)
        return tuple(table)

    @property
    def global_c(self) -> Optional[np.ndarray]:
        return self.lifted[0] if self.structure.num_sinks == 1 else None


def _check_profile_fits(profile: CentralityProfile, structure: NetworkStructure) -> None:
    """StructureMismatchError unless `profile` was solved for an equal `structure`."""
    if profile.structure != structure:
        raise StructureMismatchError(
            f"structure of a {structure.n}-node network, {structure}, is not the "
            f"{profile.structure.n}-node one this profile was solved for, {profile.structure}"
        )


def centrality_profile(
    C: RelativeInteractionMatrix, structure: NetworkStructure
) -> CentralityProfile:
    """Centrality scores for `C` under its classified `structure`.

    One eigenvector per closed class in `structure.sink_index`: the whole
    network when it is irreducible, the reachable set when it is reducible
    with one sink, each sink otherwise, each gated by EPS_SPECTRAL (see
    :func:`dominant_left_eigenvector`).
    """
    _check_structure_size(structure, C.n)
    # a class spanning the network is solved on C itself, not a copy
    return CentralityProfile(structure, tuple(
        dominant_left_eigenvector(C.entries if idx.size == C.n else C.entries[idx[:, None], idx])
        for idx in structure.sink_index
    ))


def influence_matrix(C: RelativeInteractionMatrix, x) -> np.ndarray:
    """W(x) as a read-only array: self-weights on the diagonal,
    (1 - x_i) c_ij elsewhere.

    Row-stochastic for every simplex x because each row is a convex
    combination of e_i and row i of C.
    """
    x = np.asarray(x, dtype=float)
    W = (1.0 - x)[:, None] * C.entries
    np.fill_diagonal(W, x)
    W.setflags(write=False)
    return W
