"""Dominant-left-eigenvector machinery for row-stochastic matrices.

Provides the eigenvalue-1 left eigenvector (eigenvector centrality) of an
irreducible row-stochastic matrix, the centrality profile of a classified
network (one global vector, or one vector per sink), and construction of
the state-dependent influence matrix W(x) = diag(x) + (I - diag(x)) C.

The eigenvector comes from one direct LU solve of v (M - I) = 0 with one
equation replaced by sum(v) = 1, gated by its residual.  It needs no
iteration budget, no lazy damping for periodic inputs and no fallback, and
slow-mixing inputs (long chains) are solved to rounding accuracy.
Grassmann-Taksar-Heyman elimination, the subtraction-free alternative,
ran 6-30 times slower in numpy at n = 200-1000 and is not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoConvergenceError
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


@dataclass(frozen=True)
class CentralityProfile:
    """Eigenvector centrality scores of a classified network.

    per_sink: for each sink, the centrality vector of the sink's induced
        subnetwork (strictly positive, sums to 1).  A single-sink network
        contributes one entry.
    lifted: the per_sink vectors embedded as n-vectors, positive exactly on
        the owning sink's nodes.
    global_c: the one lifted vector when the condensation has a single
        sink (zero outside the reachable set in the reducible case), else
        None.
    """

    per_sink: tuple[np.ndarray, ...]
    lifted: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for vec in (*self.per_sink, *self.lifted):
            vec.setflags(write=False)

    @property
    def global_c(self) -> Optional[np.ndarray]:
        return self.lifted[0] if len(self.lifted) == 1 else None


def centrality_profile(
    C: RelativeInteractionMatrix, structure: NetworkStructure
) -> CentralityProfile:
    """Centrality scores for `C` under its classified `structure`.

    One eigenvector per closed class in `structure.sink_index`: the whole
    network when it is irreducible, the reachable set when it is reducible
    with one sink, each sink otherwise, each gated by EPS_SPECTRAL (see
    :func:`dominant_left_eigenvector`).  `global_c` is the lifted vector of
    the only class when there is one, and None with several.
    """
    _check_structure_size(structure, C.n)
    per_sink, lifted = [], []
    for idx in structure.sink_index:
        # a class spanning the network is solved on C itself, not a copy
        block = C.entries if idx.size == C.n else C.entries[np.ix_(idx, idx)]
        c_k = dominant_left_eigenvector(block)
        vec = np.zeros(C.n)
        vec[idx] = c_k
        per_sink.append(c_k)
        lifted.append(vec)
    return CentralityProfile(per_sink=tuple(per_sink), lifted=tuple(lifted))


@dataclass(frozen=True)
class InfluenceMatrix:
    """Influence matrix W(x) = diag(x) + (I - diag(x)) C."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)


def influence_matrix(C: RelativeInteractionMatrix, x) -> InfluenceMatrix:
    """Build W(x): self-weights on the diagonal, (1 - x_i) c_ij elsewhere.

    Row-stochastic for every simplex x because each row is a convex
    combination of e_i and row i of C.
    """
    x = np.asarray(x, dtype=float)
    W = (1.0 - x)[:, None] * C.entries
    np.fill_diagonal(W, x)
    return InfluenceMatrix(entries=W)
