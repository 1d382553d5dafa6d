import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerflow as pf
from powerflow.errors import (
    DiagonalNonzeroError,
    MatrixValidationError,
    NegativeEntryError,
    NonSquareError,
    RowSumOutOfToleranceError,
)

from powerflow.netcore import _condensation, _tarjan

import nets
from test_regimes import REGIMES


class TestValidateMatrix:
    def test_two_node_swap_is_valid(self):
        C = pf.validate_matrix([[0, 1], [1, 0]])
        assert C.n == 2
        assert np.array_equal(C.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_three_node_example(self):
        C = pf.validate_matrix([[0, 0.5, 0.5], [1, 0, 0], [0.5, 0.5, 0]])
        assert C.n == 3
        assert np.allclose(C.entries.sum(axis=1), 1.0, atol=1e-15)

    def test_diagonal_nonzero_rejected(self):
        with pytest.raises(DiagonalNonzeroError) as err:
            pf.validate_matrix([[0.1, 0.9], [1, 0]])
        assert err.value.node == 1

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError) as err:
            pf.validate_matrix([[0, 1.2, -0.2], [1, 0, 0], [0.5, 0.5, 0]])
        assert (err.value.node_i, err.value.node_j) == (1, 3)

    def test_row_sum_out_of_tolerance(self):
        with pytest.raises(RowSumOutOfToleranceError) as err:
            pf.validate_matrix([[0, 0.4, 0.4], [1, 0, 0], [0.5, 0.5, 0]])
        assert err.value.node == 1
        assert err.value.row_sum == pytest.approx(0.8)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            pf.validate_matrix([[0, 1, 0], [1, 0, 0]])

    def test_single_node_rejected(self):
        with pytest.raises(MatrixValidationError):
            pf.validate_matrix([[0.0]])

    def test_rows_renormalized_within_tolerance(self):
        raw = np.array(nets.THREE_NODE)
        raw[0] *= 1.0 + 1e-10  # decimal round-off stays acceptable
        C = pf.validate_matrix(raw)
        assert abs(C.entries[0].sum() - 1.0) < 1e-15

    @pytest.mark.parametrize("leaf", [0.9999999999999999, 1.0000000000000002])
    def test_one_entry_row_becomes_exactly_one(self, leaf):
        # within n eps of 1, yet the leaf listens only to the centre
        C = pf.validate_matrix([[0, 0.5, 0.5], [leaf, 0, 0], [1, 0, 0]])
        assert C.entries[1].tobytes() == np.array([1.0, 0.0, 0.0]).tobytes()
        assert pf.classify(C).centers == (1,)

    @pytest.mark.parametrize("ulps, kept", [(6, True), (10, True), (11, False)])
    def test_row_within_n_eps_keeps_its_bits(self, ulps, kept):
        n, eps = 10, np.finfo(float).eps
        raw = np.zeros((n, n))
        for i in range(n):  # each row sums to exactly 1 + ulps * eps
            raw[i, (i + 1) % n] = 0.5
            raw[i, (i + 2) % n] = 0.5 + ulps * eps
        C = pf.validate_matrix(raw)
        assert (C.entries.tobytes() == raw.tobytes()) == kept
        assert np.all(np.abs(C.entries.sum(axis=1) - 1.0) <= n * eps)

    def test_validation_is_idempotent(self):
        rng = np.random.default_rng(2026)
        for n in (3, 17, 130, 600):
            raw = rng.random((n, n)) * (rng.random((n, n)) < 0.3) + np.eye(n, k=1)
            raw[-1, 0] = 1.0
            np.fill_diagonal(raw, 0.0)
            raw /= raw.sum(axis=1, keepdims=True)
            raw *= 1.0 + rng.uniform(-1e-11, 1e-11, (n, 1))
            C = pf.validate_matrix(raw)
            assert pf.validate_matrix(C.entries).entries.tobytes() == C.entries.tobytes()

    def test_diagonal_dust_cleared(self):
        raw = np.array(nets.THREE_NODE)
        raw[0, 0] = 1e-12
        C = pf.validate_matrix(raw)
        assert C.entries[0, 0] == 0.0

    def test_callers_array_left_writable_and_unchanged(self):
        raw = np.array(nets.THREE_NODE)
        raw[0] *= 1.0 + 1e-10
        raw[0, 0] = 1e-12
        before = raw.copy()
        C = pf.validate_matrix(raw)
        assert raw.flags.writeable
        assert np.array_equal(raw, before)
        assert not np.shares_memory(C.entries, raw)
        raw[1, 0] = 0.25  # still the caller's to change

    def test_entries_are_frozen(self):
        C = nets.three_node()
        with pytest.raises(ValueError):
            C.entries[0, 0] = 0.5


def _brute_force_components(entries):
    """Mutual-reachability classes via boolean transitive closure."""
    n = entries.shape[0]
    reach = (entries > 0) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    mutual = reach & reach.T
    seen, components = set(), []
    for i in range(n):
        if i in seen:
            continue
        comp = tuple(sorted(j + 1 for j in range(n) if mutual[i, j]))
        seen.update(j - 1 for j in comp)
        components.append(comp)
    return set(components)


def _brute_force_sinks(entries, components):
    sinks = set()
    for comp in components:
        idx = [v - 1 for v in comp]
        outside = [j for j in range(entries.shape[0]) if j + 1 not in comp]
        if not outside or not np.any(entries[np.ix_(idx, outside)] > 0):
            sinks.add(comp)
    return sinks


def _condensation_per_row(entries):
    """Reference: the adjacency built row by row with one flatnonzero each,
    and a component closed when none of its rows points outside it."""
    n = entries.shape[0]
    adjacency = [np.flatnonzero(entries[i] > 0.0).tolist() for i in range(n)]
    raw = _tarjan(adjacency)
    sinks = tuple(
        k
        for k, comp in enumerate(raw)
        if set(comp).issuperset(j for i in comp for j in adjacency[i])
    )
    return tuple(tuple(sorted(v + 1 for v in comp)) for comp in raw), sinks


def _closed_components(components, closed):
    return {components[k] for k in closed}


class TestStronglyConnectedComponents:
    def test_ring_is_one_component(self):
        C = nets.ring3()
        components, closed = _condensation(C.entries)
        assert components == ((1, 2, 3),)
        assert closed == (0,)
        assert _closed_components(components, closed) == _brute_force_sinks(C.entries, components)

    def test_two_sink_block_example(self):
        components, closed = _condensation(nets.two_sink_five().entries)
        assert len(components) == 3
        assert _closed_components(components, closed) == {(1, 2), (3, 4)}

    def test_reachable_pair_example(self):
        components, closed = _condensation(nets.reachable_pair().entries)
        assert set(components) == {(1, 2), (3,)}
        assert [components[k] for k in closed] == [(1, 2)]

    def test_reverse_topological_order(self):
        # every positive entry between two components must point from a
        # later to an earlier slot
        rng = np.random.default_rng(5)
        for _ in range(50):
            C = nets.random_binary_pattern(rng, int(rng.integers(3, 8)))
            components, closed = _condensation(C.entries)
            slot = {v: k for k, comp in enumerate(components) for v in comp}
            for i, j in zip(*np.nonzero(C.entries > 0)):
                assert slot[i + 1] >= slot[j + 1]
            assert _closed_components(components, closed) == _brute_force_sinks(C.entries, components)

    def test_against_transitive_closure_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            C = nets.random_binary_pattern(rng, n)
            components, closed = _condensation(C.entries)
            expected = _brute_force_components(C.entries)
            assert set(components) == expected
            expected_sinks = _brute_force_sinks(C.entries, expected)
            assert _closed_components(components, closed) == expected_sinks

    def test_matches_per_row_adjacency_on_sparse_digraphs(self):
        # raw patterns, not validated: rows may be empty, the last ones too
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            entries = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 0.3))
            entries[rng.random(n) < 0.2] = 0.0
            assert _condensation(entries) == _condensation_per_row(entries)

    def test_matches_per_row_adjacency_with_self_loops(self):
        # W(x) at an exact vertex: row i is e_i, a self-loop and nothing else
        rng = np.random.default_rng(12)
        for C in (nets.reducible_star_ten(), nets.two_sink_six(), nets.transient_cycle_six()):
            for i in range(C.n):
                W = pf.influence_matrix(C, np.eye(C.n)[i])
                components, closed = _condensation(W)
                assert (components, closed) == _condensation_per_row(W)
                assert (i + 1,) in components
            W = pf.influence_matrix(C, nets.random_interior(rng, C.n))
            assert _condensation(W) == _condensation_per_row(W)

    def test_matches_per_row_adjacency_with_single_entry_rows(self):
        # star leaves and a directed ring: every such row has one entry
        rng = np.random.default_rng(13)
        for C in (pf.build_star(12), nets.ring3(), nets.reducible_star_ten()):
            assert _condensation(C.entries) == _condensation_per_row(C.entries)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            entries = np.zeros((n, n))
            entries[np.arange(n), (np.arange(n) + rng.integers(1, n, n)) % n] = 1.0
            assert _condensation(entries) == _condensation_per_row(entries)


def _reachability(entries):
    """reach[i, j] iff node j can be reached from node i (each node reaches
    itself), by squaring the boolean adjacency until it stops changing."""
    n = entries.shape[0]
    reach = (entries > 0) | np.eye(n, dtype=bool)
    while True:
        wider = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(wider, reach):
            return reach
        reach = wider


def _mostly_acyclic(rng, n):
    """Raw digraph whose edges mostly run from a node to a lower one, so most
    components are single nodes; rare upward edges close a few cycles."""
    down = np.tril(rng.random((n, n)) < rng.uniform(0.05, 0.3), -1)
    up = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.04), 1)
    return rng.uniform(0.1, 1.0, (n, n)) * (down | up)


class TestCondensationAgainstReachability:
    """_condensation checked against mutual reachability, with no call of
    the component search it is built on."""

    def test_components_order_and_index_on_mostly_acyclic_digraphs(self):
        rng = np.random.default_rng(31)
        singletons = nodes = 0
        for _ in range(150):
            n = int(rng.integers(1, 40))
            entries = _mostly_acyclic(rng, n)
            components, closed = _condensation(entries)
            reach = _reachability(entries)
            mutual = reach & reach.T
            expected = {tuple((np.flatnonzero(mutual[i]) + 1).tolist()) for i in range(n)}
            assert len(components) == len(expected)
            assert set(components) == expected
            assert sorted(v for comp in components for v in comp) == list(range(1, n + 1))
            # reverse topological: a component reachable from another comes first
            for a, comp_a in enumerate(components):
                for b, comp_b in enumerate(components):
                    if a != b and reach[comp_a[0] - 1, comp_b[0] - 1]:
                        assert b < a
            # closed: the component reaches no node outside itself
            assert list(closed) == sorted(closed)
            assert _closed_components(components, closed) == {
                comp
                for comp in expected
                if np.count_nonzero(reach[comp[0] - 1]) == len(comp)
            }
            singletons += sum(len(c) == 1 for c in components)
            nodes += n
        assert singletons > nodes / 2

    def test_long_path_and_cycle(self):
        # 5000 nodes deep: a recursive search would pass Python's recursion limit
        n = 5000
        entries = np.zeros((n, n), dtype=bool)
        entries[np.arange(n - 1), np.arange(1, n)] = True
        components, closed = _condensation(entries)
        # the search from node 1 reaches node n last and emits it first
        assert components == tuple((v,) for v in range(n, 0, -1))
        # node n, the end of the path, is the one closed component
        assert closed == (0,)
        entries[n - 1, 0] = True
        assert _condensation(entries) == ((tuple(range(1, n + 1)),), (0,))


def _globally_reachable_set(C):
    """Nodes reachable from every node, read from classify: the one closed
    class of a single-sink structure, none with several sinks."""
    structure = pf.classify(C)
    return structure.sinks[0] if structure.num_sinks == 1 else ()


class TestGloballyReachableSet:
    def test_irreducible_gives_all_nodes(self):
        assert _globally_reachable_set(nets.ring3()) == (1, 2, 3)

    def test_unique_sink(self):
        assert _globally_reachable_set(nets.reachable_pair()) == (1, 2)

    def test_two_sinks_give_empty(self):
        assert _globally_reachable_set(nets.two_sink_five()) == ()


def _star_center_per_node(C, nodes=None):
    """Reference: the star predicate tested one candidate at a time."""
    idx = np.arange(C.n) if nodes is None else np.asarray(sorted(nodes), dtype=int) - 1
    k = idx.size
    if k < 3:
        return None
    sub = C.entries[np.ix_(idx, idx)]
    for p in range(k):
        others = np.arange(k) != p
        if np.all(sub[others, p] == 1.0) and np.all(sub[p, others] > 0.0):
            return int(idx[p]) + 1
    return None


def _random_star(rng, n, center, leaf_weight=1.0):
    """Star on n nodes with random hub weights; every leaf gives
    `leaf_weight` to the hub and the rest to one other leaf."""
    entries = np.zeros((n, n))
    entries[center] = rng.uniform(0.1, 1.0, n)
    entries[center, center] = 0.0
    entries[center] /= entries[center].sum()
    for leaf in range(n):
        if leaf != center:
            other = next(j for j in range(n) if j not in (leaf, center))
            entries[leaf, center] = leaf_weight
            entries[leaf, other] = 1.0 - leaf_weight
    return pf.validate_matrix(entries)


class TestStarCenter:
    def test_canonical_star(self):
        C = pf.build_star(10)
        assert pf.star_center(C) == 1

    def test_ring_has_no_center(self):
        assert pf.star_center(nets.ring3()) is None

    def test_pair_excluded(self):
        C = pf.validate_matrix([[0, 1], [1, 0]])
        assert pf.star_center(C) is None

    def test_star_on_subset(self):
        C = nets.reducible_star_ten()
        assert pf.star_center(C, range(1, 10)) == 1
        assert pf.star_center(C) is None  # node 10 breaks the global pattern

    def test_center_column_is_all_ones(self):
        C = pf.build_star(7)
        h = pf.star_center(C)
        rows = [i for i in range(7) if i != h - 1]
        assert np.all(C.entries[rows, h - 1] == 1.0)

    def test_matches_definition_on_random_groups(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(3, 25))
            center = int(rng.integers(n))
            ring = np.roll(np.eye(n), 1, axis=1)
            for C in (
                _random_star(rng, n, center),
                pf.validate_matrix(ring),
                nets.random_valid(rng, n),
            ):
                assert pf.star_center(C) == _star_center_per_node(C)
                size = int(rng.integers(0, n + 1))
                nodes = sorted(rng.choice(np.arange(1, n + 1), size, replace=False).tolist())
                assert pf.star_center(C, nodes) == _star_center_per_node(C, nodes)

    def test_near_star_is_not_a_star(self):
        # a leaf weight one ulp below 1.0 already breaks the pattern
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            center = int(rng.integers(n))
            for leaf_weight, expected in (
                (1.0, center + 1),
                (1.0 - 1e-9, None),
                (1.0 - 1e-12, None),
                (float(np.nextafter(1.0, 0.0)), None),
            ):
                C = _random_star(rng, n, center, leaf_weight)
                assert _star_center_per_node(C) == expected
                assert pf.star_center(C) == expected

    def test_star_on_random_subset(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(6, 20))
            group = np.sort(rng.choice(n, int(rng.integers(3, n)), replace=False))
            entries = rng.random((n, n))
            np.fill_diagonal(entries, 0.0)
            star = _random_star(rng, group.size, int(rng.integers(group.size))).entries
            entries[np.ix_(group, group)] = star
            entries[group[:, None], np.setdiff1d(np.arange(n), group)] = 0.0
            C = pf.validate_matrix(entries / entries.sum(axis=1, keepdims=True))
            nodes = (group + 1).tolist()
            assert pf.star_center(C, nodes) == _star_center_per_node(C, nodes) is not None
            assert pf.star_center(C) == _star_center_per_node(C)

    def test_groups_below_three_nodes(self):
        C = pf.build_star(6)
        for nodes in ([], [1], [1, 2], [3, 5]):
            assert pf.star_center(C, nodes) is None
            assert _star_center_per_node(C, nodes) is None

    def test_centre_in_any_position(self):
        # the centre is the first member or the one member the first gives
        # 1.0 to; no other candidate exists
        for center in range(3):
            entries = np.zeros((3, 3))
            entries[:, center] = 1.0
            entries[center] = 0.5
            entries[center, center] = 0.0
            C = pf.validate_matrix(entries)
            assert pf.star_center(C) == _star_center_per_node(C) == center + 1
        # no member of the uniform triangle is a centre
        C = pf.validate_matrix([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
        assert pf.star_center(C) is None


class TestClassify:
    def test_star_is_irreducible_with_center(self):
        structure = pf.classify(pf.build_star(10))
        assert isinstance(structure, pf.Irreducible)
        assert structure.star_center == 1
        assert pf.regime_name(structure) == "irreducible-star(center=1)"

    def test_pair_flagged_degenerate(self):
        structure = pf.classify(pf.validate_matrix([[0, 1], [1, 0]]))
        assert isinstance(structure, pf.Irreducible)
        assert pf.regime_name(structure) == "irreducible-pair"

    def test_reachable_pair(self):
        structure = pf.classify(nets.reachable_pair())
        assert isinstance(structure, pf.ReducibleReachable)
        assert structure.reachable == (1, 2)
        assert len(structure.reachable) == 2
        assert structure.star_center_of_subgraph is None

    def test_reducible_star_subgraph_center(self):
        structure = pf.classify(nets.reducible_star_ten())
        assert isinstance(structure, pf.ReducibleReachable)
        assert structure.reachable == tuple(range(1, 10))
        assert structure.star_center_of_subgraph == 1

    def test_multi_sink_partition(self):
        structure = pf.classify(nets.two_sink_five())
        assert isinstance(structure, pf.MultiSink)
        assert structure.sinks == ((1, 2), (3, 4))
        assert structure.non_sink_nodes == (5,)
        assert sum(map(len, structure.sinks)) + len(structure.non_sink_nodes) == structure.n

    def test_permutation_yields_normal_form(self):
        structure = pf.classify(nets.two_sink_six())
        C = nets.two_sink_six()
        # normal-form order: sink 1 nodes, then sink 2 nodes, ..., then non-sink nodes
        perm = np.asarray(sum(structure.sinks, ()) + structure.non_sink_nodes) - 1
        P = C.entries[np.ix_(perm, perm)]
        offset = 0
        for size in map(len, structure.sinks):
            block = P[offset : offset + size, offset : offset + size]
            # sink rows live entirely inside their own diagonal block
            assert np.allclose(P[offset : offset + size].sum(axis=1), block.sum(axis=1))
            assert np.allclose(block.sum(axis=1), 1.0, atol=1e-12)
            sub = pf.validate_matrix(block) if size > 1 else None
            if sub is not None:
                assert isinstance(pf.classify(sub), pf.Irreducible)
            offset += size

    def test_total_function_and_reachability_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(2, 7))
            C = nets.random_binary_pattern(rng, n)
            structure = pf.classify(C)
            assert isinstance(
                structure, (pf.Irreducible, pf.ReducibleReachable, pf.MultiSink)
            )
            reachable = _globally_reachable_set(C)
            assert (len(reachable) == C.n) == isinstance(structure, pf.Irreducible)
            # the same set straight from reachability: the nodes every node reaches
            from_all = np.flatnonzero(_reachability(C.entries).all(axis=0)) + 1
            assert reachable == tuple(from_all.tolist())
        # each variant is reachable
        assert isinstance(pf.classify(nets.ring3()), pf.Irreducible)
        assert isinstance(pf.classify(nets.reachable_pair()), pf.ReducibleReachable)
        assert isinstance(pf.classify(nets.two_sink_five()), pf.MultiSink)


STRUCTURE_NETWORKS = {
    **{name: getattr(nets, name)() for name in (
        "three_node", "reachable_pair", "ring3", "star3", "two_sink_five",
        "two_sink_six", "star_sink_seven", "transient_cycle_six",
        "reducible_star_ten", "synthetic_krackhardt_matrix",
        "synthetic_reduced_krackhardt",
    )},
    **{f"regime-{r.name}": pf.validate_matrix(r.matrix) for r in REGIMES},
}


@pytest.mark.parametrize("C", STRUCTURE_NETWORKS.values(), ids=STRUCTURE_NETWORKS.keys())
def test_structure_views_follow_sinks_and_centers(C):
    structure = pf.classify(C)
    sinks, centers = structure.sinks, structure.centers
    assert all(list(s) == sorted(s) for s in sinks)
    assert [s[0] for s in sinks] == sorted(s[0] for s in sinks)
    assert len(centers) == structure.num_sinks == len(sinks) == len(structure.sink_index)
    for k, idx in enumerate(structure.sink_index):
        assert tuple((idx + 1).tolist()) == sinks[k]
    in_sink = {v for s in sinks for v in s}
    assert structure.non_sink_nodes == tuple(
        v for v in range(1, C.n + 1) if v not in in_sink
    )
    # the class is the one the record implies
    assert isinstance(structure, pf.NetworkStructure)
    whole = sinks == (tuple(range(1, C.n + 1)),)
    assert isinstance(structure, pf.Irreducible) == whole
    assert isinstance(structure, pf.ReducibleReachable) == (len(sinks) == 1 and not whole)
    assert isinstance(structure, pf.MultiSink) == (len(sinks) >= 2)
    if isinstance(structure, pf.Irreducible):
        assert structure.star_center == centers[0]
    elif isinstance(structure, pf.ReducibleReachable):
        assert structure.reachable == sinks[0]
        assert structure.star_center_of_subgraph == centers[0]
    twin = pf.classify(C)
    assert twin is not structure
    assert twin == structure and hash(twin) == hash(structure)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(3, 7))
@settings(max_examples=40, deadline=None)
def test_validate_is_idempotent(seed, n):
    C = nets.random_valid(np.random.default_rng(seed), n)
    again = pf.validate_matrix(C.entries)
    assert np.allclose(again.entries, C.entries, atol=1e-15)
