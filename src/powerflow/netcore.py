"""Influence-matrix validation and the closed classes of its digraph.

The relative interaction matrix of a group is row-stochastic with zero
diagonal: entry (i, j) is the relative weight individual i accords to
individual j.  Everything downstream dispatches on the closed classes
(sinks) of the digraph of its positive entries, the strongly connected
components that no edge leaves.  This module owns the validation gate, the
component search, which marks the closed components in the same pass over
the pattern, and the classifier that sorts a network by them into one of
three variants: one component (irreducible), one closed class among
several components, which is then the set of nodes reachable from every
node (reducible with a globally reachable set), or several closed classes
(multi-sink).  One record, :class:`NetworkStructure`, holds the closed
classes and their star centres (`sinks`, `centers` and the 0-based
`sink_index`), which the other modules read directly, one class at a time.
The three variants are field-less subclasses of it that name the regime;
their only extras are the views `star_center`, `reachable` and
`star_center_of_subgraph`.
:func:`classify` reads the positive pattern once, and its exact star test
reads one row plus a row and a column per candidate centre, so its cost is
that of the pattern pass and Tarjan's O(n + edges) search.

All node identifiers on public surfaces are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DiagonalNonzeroError,
    MatrixValidationError,
    NegativeEntryError,
    NonSquareError,
    RowSumOutOfToleranceError,
    StructureMismatchError,
)

#: Validation tolerance.  File-sourced matrices carry decimal round-off
#: (e.g. rows made of nine copies of 1/9), so exact comparisons are too strict.
EPS_VALIDATION = 1e-9


@dataclass(frozen=True)
class RelativeInteractionMatrix:
    """Validated row-stochastic, zero-diagonal weight matrix.

    Construct via :func:`validate_matrix` or the builders in
    :mod:`powerflow.io`.  The entries array is frozen after construction,
    so values are safe to share across threads.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def validate_matrix(raw) -> RelativeInteractionMatrix:
    """Validate a raw square matrix of relative interpersonal weights.

    Requires non-negative entries, an exactly-zero diagonal and unit row
    sums, all within EPS_VALIDATION.  Round-off negatives / diagonal dust
    are cleared, which keeps the positive-entry pattern free of spurious
    edges.  A row is then divided by its sum when that sum is more than
    n eps from 1, or when the row has one positive entry (which so becomes
    exactly 1.0).  Other rows keep their bits.  A divided row sums to
    within n eps of 1 again, so validating a validated matrix (or loading
    a file :func:`powerflow.io.write_matrix` wrote) gives it back bit for
    bit.
    The caller's `raw` is copied, never changed.
    """
    return _validate_owned(np.array(raw, dtype=float))


def _validate_owned(entries: np.ndarray) -> RelativeInteractionMatrix:
    """:func:`validate_matrix` of a float array the caller hands over: it is
    renormalized in place and frozen into the result, with no copy."""
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise NonSquareError(entries.shape if entries.ndim else ())
    n = entries.shape[0]
    if n < 2:
        raise MatrixValidationError(f"need at least 2 nodes, got {n}")
    if not np.all(np.isfinite(entries)):
        raise MatrixValidationError("entries must be finite numbers")
    negative = np.argwhere(entries < -EPS_VALIDATION)
    if negative.size:
        i, j = negative[0]
        raise NegativeEntryError(int(i) + 1, int(j) + 1, float(entries[i, j]))
    nonzero_diag = np.flatnonzero(np.abs(np.diagonal(entries)) > EPS_VALIDATION)
    if nonzero_diag.size:
        i = int(nonzero_diag[0])
        raise DiagonalNonzeroError(i + 1, float(entries[i, i]))
    sums = entries.sum(axis=1)
    off = np.flatnonzero(np.abs(sums - 1.0) > EPS_VALIDATION)
    if off.size:
        i = int(off[0])
        raise RowSumOutOfToleranceError(i + 1, float(sums[i]))
    entries[entries < 0.0] = 0.0
    np.fill_diagonal(entries, 0.0)
    sums = entries.sum(axis=1, keepdims=True)
    # Summing n non-negative doubles in any order errs by at most about
    # (n - 1) eps/2 relative, so a row divided once sums to within about
    # (n - 1/2) eps of 1 (below n eps for n up to ~10^7) and is kept the
    # next time.  A one-entry row becomes exactly 1.0 (x / x) and stays so.
    divide = (np.abs(sums - 1.0) > n * np.finfo(float).eps) | (
        np.count_nonzero(entries, axis=1, keepdims=True) == 1
    )
    np.divide(entries, sums, out=entries, where=divide)
    return RelativeInteractionMatrix(entries)


def _tarjan(adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of an adjacency-list digraph (0-based).

    Tarjan's algorithm (SIAM J. Comput. 1(2), 1972), iterative so deep
    graphs cannot hit the recursion limit: each frame of the explicit DFS
    stack holds a node and an iterator over its neighbours, which resumes
    where the descent into a child left it.  Components come out in reverse
    topological order of the condensation: whenever an edge runs from
    component A to component B, B is emitted first.
    """
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adjacency[root]))]
        while work:
            v, neighbors = work[-1]
            for w in neighbors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adjacency[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return components


def _condensation(
    entries: np.ndarray,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Strongly connected components of the positive-entry pattern of any
    square matrix, and which of them are closed.

    Returns `(components, closed)`: `components` holds 1-based node tuples
    in reverse topological order (every component precedes the components
    that point into it), and `closed` lists, ascending, the indices of the
    components that no edge leaves; a validated network has at least one.
    """
    n = entries.shape[0]
    # one pass over the pattern; its column list is cut into rows at the row
    # offsets (a flat nonzero plus divmod is several times faster than 2-D)
    heads, tails = np.divmod(np.flatnonzero(entries > 0.0), n)
    offsets = np.searchsorted(heads, np.arange(n + 1)).tolist()
    tails_list = tails.tolist()
    adjacency = [tails_list[a:b] for a, b in zip(offsets, offsets[1:])]
    raw = _tarjan(adjacency)
    components = tuple(tuple(sorted(v + 1 for v in comp)) for comp in raw)
    if len(raw) == 1:
        return components, (0,)
    # map the pattern edges to components: a component no edge leaves is closed
    component_of = [0] * n
    for k, comp in enumerate(raw):
        for v in comp:
            component_of[v] = k
    index = np.array(component_of)
    src = index[heads]
    left = set(src[src != index[tails]].tolist())
    return components, tuple(k for k in range(len(raw)) if k not in left)


def star_center(
    C: RelativeInteractionMatrix, nodes: Optional[Sequence[int]] = None
) -> Optional[int]:
    """Center of a star pattern within `nodes` (default: all nodes), or None.

    Node h is the center when, inside the group, every other member accords
    weight exactly 1.0 to h, as a validated row with one positive entry
    does, while h accords strictly positive weight to every other member:
    a structural test with no tolerance.  Groups of fewer than three
    members never count: with two nodes the pattern is a symmetric swap,
    not a star.  The test reads O(|nodes|) entries.
    """
    if nodes is None:
        idx = np.arange(C.n)
    else:
        idx = np.asarray(sorted(nodes), dtype=int) - 1
    if idx.size < 3:
        return None
    entries = C.entries
    first, leaves = idx[0], idx.size - 1
    # the centre is the first member, which the second gives 1.0 to, or the
    # one member the first gives 1.0 to; the weights between h and that
    # giver, read first, reject most groups; the zero diagonal counts in neither
    for h, giver in ((first, idx[1]), (idx[entries[first, idx].argmax()], first)):
        if (
            entries[giver, h] == 1.0
            and entries[h, giver] > 0.0
            and np.count_nonzero(entries[idx, h] == 1.0) == leaves
            and np.count_nonzero(entries[h, idx]) == leaves
        ):
            return int(h) + 1
    return None


@dataclass(frozen=True)
class NetworkStructure:
    """A network's closed classes, the one record of its structure.

    `sinks` holds each class as an ascending 1-based node tuple, ordered by
    smallest node, and `centers` each class's star centre or None.
    `sink_index` holds them as read-only 0-based arrays, built once and
    kept out of == and repr.
    """

    n: int
    sinks: tuple[tuple[int, ...], ...]
    centers: tuple[Optional[int], ...]
    sink_index: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = tuple(np.asarray(s, dtype=int) - 1 for s in self.sinks)
        for idx in index:
            idx.setflags(write=False)
        object.__setattr__(self, "sink_index", index)

    @property
    def num_sinks(self) -> int:
        return len(self.sinks)

    @property
    def non_sink_nodes(self) -> tuple[int, ...]:
        in_sink = set().union(*self.sinks)
        return tuple(v for v in range(1, self.n + 1) if v not in in_sink)


def _check_structure_size(structure: NetworkStructure, n: int) -> None:
    """StructureMismatchError unless `structure` was classified from a
    network of n nodes."""
    if structure.n != n:
        raise StructureMismatchError(
            f"structure was classified from a {structure.n}-node network, "
            f"not this {n}-node one"
        )


class Irreducible(NetworkStructure):
    """Strongly connected: the whole network is the one closed class, and
    `star_center` is set iff the star predicate holds."""

    @property
    def star_center(self) -> Optional[int]:
        return self.centers[0]


class ReducibleReachable(NetworkStructure):
    """Not strongly connected, with one closed class: `reachable`, the
    globally reachable nodes, where power eventually concentrates.
    `star_center_of_subgraph` is set iff that class is a star."""

    @property
    def reachable(self) -> tuple[int, ...]:
        return self.sinks[0]

    @property
    def star_center_of_subgraph(self) -> Optional[int]:
        return self.centers[0]


class MultiSink(NetworkStructure):
    """Two or more closed classes, plus the transient nodes in none."""


def classify(C: RelativeInteractionMatrix) -> NetworkStructure:
    """Classify the network structure of `C`.

    Total: every validated matrix maps to exactly one variant, by the
    closed classes of its condensation: a single component is Irreducible,
    a single closed class among several components ReducibleReachable, and
    several closed classes MultiSink.
    """
    components, closed = _condensation(C.entries)
    # disjoint ascending tuples sort by their smallest node
    sinks = tuple(sorted(components[k] for k in closed))
    variant = (Irreducible if len(components) == 1
               else ReducibleReachable if len(sinks) == 1 else MultiSink)
    return variant(C.n, sinks, tuple(star_center(C, s) for s in sinks))
