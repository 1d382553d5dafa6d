"""Influence-matrix validation and directed-graph structure analysis.

The relative interaction matrix of a group is row-stochastic with zero
diagonal: entry (i, j) is the relative weight individual i accords to
individual j.  Everything downstream dispatches on the shape of the digraph
induced by its positive entries, so this module owns the validation gate,
the strongly-connected-component machinery, and the classifier that splits
a network into one of three variants: irreducible, reducible with a
globally reachable node set, or multi-sink.  Each variant carries its
closed classes as `sink_index`, for the other modules to read, and
:func:`single_sink` describes the one closed class of the first two.
:func:`classify` reads the positive pattern once, for the component
search, and its star test reads one row plus a row and a column per
candidate centre, so its cost is that of the pattern pass and Tarjan's
O(n + edges) search.

All node identifiers on public surfaces are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    DiagonalNonzeroError,
    MatrixValidationError,
    NegativeEntryError,
    NonSquareError,
    RowSumOutOfToleranceError,
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
    sums, all within EPS_VALIDATION.  Accepted rows are renormalized so
    each sums to 1 up to float rounding, and round-off negatives / diagonal
    dust are cleared, which keeps the positive-entry pattern free of
    spurious edges.
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
    entries /= entries.sum(axis=1, keepdims=True)
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


@dataclass(frozen=True)
class Condensation:
    """Strongly connected components plus the digraph between them.

    `components` holds 1-based node tuples in reverse topological order
    (every component precedes the components that point into it), `edges`
    the deduplicated component-index pairs, and `component_index[i-1]` the
    component holding node i.
    """

    components: tuple[tuple[int, ...], ...]
    component_index: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def sinks(self) -> tuple[int, ...]:
        """Indices of components with no outgoing condensation edge."""
        has_out = {a for a, _ in self.edges}
        return tuple(k for k in range(len(self.components)) if k not in has_out)


def _condensation(entries: np.ndarray) -> Condensation:
    """Condensation of the positive-entry pattern of any square matrix."""
    n = entries.shape[0]
    # one pass over the pattern; its column list is cut into rows at the row
    # offsets (a flat nonzero plus divmod is several times faster than 2-D)
    heads, tails = np.divmod(np.flatnonzero(entries > 0.0), n)
    offsets = np.searchsorted(heads, np.arange(n + 1)).tolist()
    tails_list = tails.tolist()
    adjacency = [tails_list[a:b] for a, b in zip(offsets, offsets[1:])]
    raw = _tarjan(adjacency)
    component_index = [0] * n
    for k, component in enumerate(raw):
        for v in component:
            component_index[v] = k
    edges: frozenset[tuple[int, int]] = frozenset()
    if len(raw) > 1:
        index = np.array(component_index)
        src, dst = index[heads], index[tails]
        cross = src != dst
        edges = frozenset(zip(src[cross].tolist(), dst[cross].tolist()))
    return Condensation(
        components=tuple(tuple(sorted(v + 1 for v in comp)) for comp in raw),
        component_index=tuple(component_index),
        edges=edges,
    )


def strongly_connected_components(C: RelativeInteractionMatrix) -> Condensation:
    """Components of the weight digraph of `C` (edge i -> j iff c_ij > 0)."""
    return _condensation(C.entries)


def globally_reachable_set(C: RelativeInteractionMatrix) -> tuple[int, ...]:
    """Nodes reachable from every node of the network.

    Nonempty exactly when the condensation has a single sink, in which case
    it equals that sink's node set; with several sinks no node is reachable
    from all of them and the result is empty.
    """
    condensation = strongly_connected_components(C)
    sinks = condensation.sinks
    if len(sinks) != 1:
        return ()
    return condensation.components[sinks[0]]


def star_center(
    C: RelativeInteractionMatrix,
    nodes: Optional[Sequence[int]] = None,
    eps: float = EPS_VALIDATION,
) -> Optional[int]:
    """Center of a star pattern within `nodes` (default: all nodes), or None.

    Node h is the center when, inside the group, every other member accords
    weight 1 to h (and hence 0 to everyone else) while h accords strictly
    positive weight to every other member.  Groups of fewer than three
    members never count: with two nodes the pattern is a symmetric swap,
    not a star.  Callers should pass a group whose induced submatrix is
    row-stochastic (the full network, a sink, or the reachable set).
    "Weight 1" means at least 1 - eps; when several members qualify, the
    lowest-numbered one is the center.  The test reads O(|nodes|) entries.
    """
    if nodes is None:
        idx = np.arange(C.n)
    else:
        idx = np.asarray(sorted(nodes), dtype=int) - 1
    if idx.size < 3:
        return None
    entries = C.entries
    threshold = 1.0 - eps
    # a centre other than the first member gets >= 1 - eps from it, so only
    # those members and the first one are tested, one row and column each
    candidates = np.flatnonzero(entries[idx[0], idx] >= threshold)
    for p in (0, *candidates[candidates > 0].tolist()):
        h = idx[p]
        # both tests skip the diagonal, position p of each vector
        column = entries[idx, h] >= threshold
        row = entries[h, idx] > 0.0
        column[p] = row[p] = True
        if column.all() and row.all():
            return int(h) + 1
    return None


def _sink_index(sinks) -> tuple[np.ndarray, ...]:
    """One read-only 0-based index array per closed class, from each class's
    1-based nodes: every structure's `sink_index`, kept out of == and repr."""
    index = tuple(np.asarray(s, dtype=int) - 1 for s in sinks)
    for idx in index:
        idx.setflags(write=False)
    return index


@dataclass(frozen=True)
class Irreducible:
    """Strongly connected network.

    `star_center` is set iff the star predicate holds.  The whole network
    is the one closed class, so `sink_index` holds the single array 0..n-1.
    """

    n: int
    star_center: Optional[int] = None
    sink_index: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sink_index", _sink_index((np.arange(1, self.n + 1),)))

    @property
    def degenerate_pair(self) -> bool:
        """True for a two-node network, which can only be the swap
        [[0, 1], [1, 0]]: both update rules fix every interior point of the
        simplex, so no unique interior equilibrium exists."""
        return self.n == 2


@dataclass(frozen=True)
class ReducibleReachable:
    """Not strongly connected, with a single condensation sink.

    `reachable` lists the globally reachable nodes (ascending); power
    eventually concentrates there, and `sink_index` holds their 0-based
    indices as its single array.  `star_center_of_subgraph` is populated
    only when the sink has at least three nodes and forms a star.
    """

    n: int
    reachable: tuple[int, ...]
    star_center_of_subgraph: Optional[int] = None
    sink_index: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sink_index", _sink_index((self.reachable,)))

    @property
    def r(self) -> int:
        return len(self.reachable)


@dataclass(frozen=True)
class MultiSink:
    """Two or more condensation sinks plus transient (non-sink) nodes.

    `permutation` lists original 1-based node ids in normal-form order:
    sink 1 nodes, then sink 2 nodes, ..., then non-sink nodes.  Reindexing
    rows and columns by it yields a block lower-triangular matrix whose
    leading diagonal blocks are the irreducible row-stochastic sinks.
    Sinks are ordered by their smallest node id, and `sink_index` holds
    their 0-based indices in that order.
    """

    n: int
    sinks: tuple[tuple[int, ...], ...]
    non_sink_nodes: tuple[int, ...]
    permutation: tuple[int, ...]
    sink_index: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sink_index", _sink_index(self.sinks))

    @property
    def num_sinks(self) -> int:
        return len(self.sinks)

    @property
    def sink_sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sinks)

    @property
    def m(self) -> int:
        return len(self.non_sink_nodes)


NetworkStructure = Union[Irreducible, ReducibleReachable, MultiSink]


def classify(C: RelativeInteractionMatrix) -> NetworkStructure:
    """Classify the network structure of `C`.

    Total: every validated matrix maps to exactly one variant, and the
    result equals Irreducible iff the globally reachable set is all nodes.
    """
    condensation = strongly_connected_components(C)
    if len(condensation.components) == 1:
        return Irreducible(C.n, star_center=star_center(C))
    sink_ids = condensation.sinks
    if len(sink_ids) == 1:
        reachable = condensation.components[sink_ids[0]]
        return ReducibleReachable(C.n, reachable, star_center(C, reachable))
    sinks = tuple(
        sorted((condensation.components[k] for k in sink_ids), key=lambda c: c[0])
    )
    in_sink = {v for comp in sinks for v in comp}
    non_sink = tuple(v for v in range(1, C.n + 1) if v not in in_sink)
    permutation = tuple(v for comp in sinks for v in comp) + non_sink
    return MultiSink(C.n, sinks, non_sink, permutation)


class SingleSink(NamedTuple):
    """The one closed class of a single-sink structure: its `sink_index`
    entry, whether it spans the network, and its star centre or None."""

    index: np.ndarray
    whole: bool
    center: Optional[int]


def single_sink(structure: NetworkStructure) -> Optional[SingleSink]:
    """The closed class of a structure that has one, else None."""
    if len(structure.sink_index) != 1:
        return None
    (index,) = structure.sink_index
    whole = index.size == structure.n
    center = structure.star_center if whole else structure.star_center_of_subgraph
    return SingleSink(index, whole, center)
