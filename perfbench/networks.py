"""Seeded generators of the benchmark's input networks.

Each generator returns a row-stochastic, zero-diagonal numpy matrix with
its node labels shuffled, plus the structure it was built with (sinks,
star centre), so the benchmark can check what the program reports against
what was planted.  Labels in the planted structure are 1-based, like the
program's.  Nothing here imports the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Planted:
    """A generated network and the structure it was built with.

    kind: "irreducible", "reachable" (single sink plus transient nodes) or
        "multi_sink".
    sinks: 1-based node sets of the closed groups, sorted by smallest id;
        empty for irreducible networks.
    center: star centre (of the whole network or of its single sink).
    """

    entries: np.ndarray
    kind: str
    sinks: tuple[tuple[int, ...], ...] = ()
    center: Optional[int] = None

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _normalise_rows(E: np.ndarray) -> np.ndarray:
    np.fill_diagonal(E, 0.0)
    return E / E.sum(axis=1, keepdims=True)


def _relabel(rng, E: np.ndarray, groups, center):
    """Shuffle node labels; map planted 0-based groups to 1-based labels."""
    perm = rng.permutation(E.shape[0])
    new_label = np.empty_like(perm)
    new_label[perm] = np.arange(perm.size)
    out = np.ascontiguousarray(E[np.ix_(perm, perm)])
    sinks = tuple(sorted(tuple(sorted(int(new_label[v]) + 1 for v in g)) for g in groups))
    return out, sinks, None if center is None else int(new_label[center]) + 1


def _ring_with_chords(rng, nodes: np.ndarray, chords: int, E: np.ndarray) -> None:
    """Strongly connected pattern on `nodes`: a directed ring plus random
    extra advisors, with random positive weights."""
    k = nodes.size
    for pos, i in enumerate(nodes):
        targets = {int(nodes[(pos + 1) % k])}
        others = [int(v) for v in nodes if v != i]
        extra = rng.choice(others, size=min(chords, len(others)), replace=False)
        targets.update(int(v) for v in extra)
        for j in targets:
            E[i, j] = rng.uniform(0.5, 1.5)


def sparse_strong(rng, n: int) -> Planted:
    """Strongly connected, non-star network with about three advisors each."""
    E = np.zeros((n, n))
    _ring_with_chords(rng, np.arange(n), 2, E)
    E, _, _ = _relabel(rng, _normalise_rows(E), (), None)
    return Planted(E, "irreducible")


def chain(rng, n: int) -> Planted:
    """Bidirectional path with equal weights: slow mixing, so convergence
    takes many steps.  Random weights would make the cost swing from seed
    to seed, so only the labels are random."""
    E = np.zeros((n, n))
    E[0, 1] = E[n - 1, n - 2] = 1.0
    for i in range(1, n - 1):
        E[i, i - 1] = E[i, i + 1] = 0.5
    E, _, _ = _relabel(rng, E, (), None)
    return Planted(E, "irreducible")


def star(rng, n: int) -> Planted:
    """Star: every leaf listens only to the centre, which listens to all."""
    E = np.zeros((n, n))
    E[1:, 0] = 1.0
    E[0, 1:] = rng.uniform(0.5, 1.5, n - 1)
    E, _, center = _relabel(rng, _normalise_rows(E), (), 0)
    return Planted(E, "irreducible", center=center)


def reducible_star(rng, leaves: int, transient: int) -> Planted:
    """Star sink on leaves + 1 nodes, plus transient nodes that listen to
    star members and to each other and are listened to by nobody."""
    k = leaves + 1
    n = k + transient
    E = np.zeros((n, n))
    E[1:k, 0] = 1.0
    E[0, 1:k] = rng.uniform(0.5, 1.5, leaves)
    for t in range(k, n):
        advisors = rng.choice(n - 1, size=min(3, n - 1), replace=False)
        advisors = [int(a) if a < t else int(a) + 1 for a in advisors]
        advisors.append(int(rng.integers(0, k)))
        E[t, advisors] = rng.uniform(0.5, 1.5, len(advisors))
    E, sinks, center = _relabel(rng, _normalise_rows(E), (range(k),), 0)
    return Planted(E, "reachable", sinks=sinks, center=center)


def multi_sink(rng, sink_sizes, transient: int) -> Planted:
    """Closed strongly connected groups plus transient nodes.

    Every transient node listens to one node of each sink in turn (so mass
    reaches every sink) and to one or two other random nodes.
    """
    n = sum(sink_sizes) + transient
    E = np.zeros((n, n))
    groups = []
    start = 0
    for size in sink_sizes:
        nodes = np.arange(start, start + size)
        _ring_with_chords(rng, nodes, 1, E)
        groups.append(nodes)
        start += size
    sink_nodes = start
    for t in range(sink_nodes, n):
        group = groups[(t - sink_nodes) % len(groups)]
        E[t, int(rng.choice(group))] = rng.uniform(0.5, 1.5)
        others = [v for v in range(n) if v != t]
        for j in rng.choice(others, size=int(rng.integers(1, 3)), replace=False):
            E[t, int(j)] = rng.uniform(0.5, 1.5)
    E, sinks, _ = _relabel(rng, _normalise_rows(E), groups, None)
    return Planted(E, "multi_sink", sinks=sinks)


def interior_start(rng, n: int) -> np.ndarray:
    """Random interior point of the simplex."""
    x = rng.exponential(1.0, n)
    return x / x.sum()


def equal_split(E: np.ndarray) -> np.ndarray:
    """The weights an adjacency-list file of E's pattern stands for."""
    pattern = (E > 0.0).astype(float)
    return pattern / pattern.sum(axis=1, keepdims=True)


def adjacency_lines(E: np.ndarray) -> list[str]:
    return [
        f"{i + 1}: " + " ".join(str(j + 1) for j in np.flatnonzero(row > 0.0))
        for i, row in enumerate(E)
    ]
