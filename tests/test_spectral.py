import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerflow as pf

import nets
from nets import run_cli


class TestDominantLeftEigenvector:
    def test_periodic_ring_converges_to_uniform(self):
        # a plain cycle is periodic; the lazy iteration must still converge
        v = pf.dominant_left_eigenvector(np.array(nets.RING3, dtype=float))
        assert np.allclose(v, 1.0 / 3.0, atol=1e-11)

    def test_star_scores(self):
        C = pf.build_star(10)
        v = pf.dominant_left_eigenvector(C.entries)
        assert v[0] == pytest.approx(0.5, abs=1e-11)
        assert np.allclose(v[1:], 1.0 / 18.0, atol=1e-11)

    def test_three_node_hand_solved(self):
        v = pf.dominant_left_eigenvector(nets.three_node().entries)
        assert np.allclose(v, nets.THREE_NODE_CENTRALITY, atol=1e-11)

    def test_residual_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            M = nets.random_valid(rng, int(rng.integers(3, 9))).entries
            v = pf.dominant_left_eigenvector(M)
            assert np.max(np.abs(v @ M - v)) < pf.EPS_SPECTRAL
            assert v.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(v >= 0)

    def test_lazy_damping_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            M = nets.random_valid(rng, 5).entries
            lazy = 0.5 * (np.eye(5) + M)
            v = pf.dominant_left_eigenvector(M)
            w = pf.dominant_left_eigenvector(lazy)
            assert np.max(np.abs(v - w)) < 10 * pf.EPS_SPECTRAL

    def test_two_node_swap(self):
        v = pf.dominant_left_eigenvector(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(v, 0.5, atol=1e-12)

    def test_single_state(self):
        assert pf.dominant_left_eigenvector(np.array([[1.0]])) == pytest.approx(1.0)

    def test_deterministic(self):
        M = nets.random_valid(np.random.default_rng(1), 6).entries
        a = pf.dominant_left_eigenvector(M)
        b = pf.dominant_left_eigenvector(M)
        assert np.array_equal(a, b)


class TestCentralityProfile:
    def test_doubly_stochastic_is_uniform(self):
        C = pf.build_doubly_stochastic_random(6, seed=13)
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        assert np.allclose(profile.global_c, 1.0 / 6.0, atol=1e-10)

    def test_two_node_sink_scores(self):
        C = nets.two_sink_five()
        profile = pf.centrality_profile(C, pf.classify(C))
        assert profile.global_c is None
        assert np.allclose(profile.per_sink[0], 0.5, atol=1e-12)
        assert np.allclose(profile.per_sink[1], 0.5, atol=1e-12)

    def test_reachable_pair_lifted_with_zeros(self):
        C = nets.reachable_pair()
        profile = pf.centrality_profile(C, pf.classify(C))
        assert np.allclose(profile.global_c, [0.5, 0.5, 0.0], atol=1e-12)

    def test_lifted_support_matches_sinks(self):
        C = nets.two_sink_six()
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        for sink, lifted in zip(structure.sinks, profile.lifted):
            members = np.asarray(sink, dtype=int) - 1
            mask = np.zeros(C.n, dtype=bool)
            mask[members] = True
            assert np.all(lifted[mask] > 0)
            assert np.all(lifted[~mask] == 0)
            assert lifted.sum() == pytest.approx(1.0, abs=1e-12)

    def test_per_sink_strictly_positive(self):
        C = nets.two_sink_six()
        profile = pf.centrality_profile(C, pf.classify(C))
        for c_k in profile.per_sink:
            assert np.all(c_k > 0)


class TestInfluenceMatrix:
    def test_is_a_read_only_float_array(self):
        W = pf.influence_matrix(nets.three_node(), np.full(3, 1.0 / 3.0))
        assert type(W) is np.ndarray and W.dtype == float and W.shape == (3, 3)
        assert not W.flags.writeable

    def test_vertex_collapses_row(self):
        C = nets.three_node()
        x = np.array([1.0, 0.0, 0.0])
        W = pf.influence_matrix(C, x)
        assert np.array_equal(W[0], [1.0, 0.0, 0.0])
        assert np.array_equal(W[1:], C.entries[1:])

    def test_uniform_mixes_identity_and_network(self):
        C = nets.ring3()
        W = pf.influence_matrix(C, np.full(3, 1.0 / 3.0))
        expected = np.eye(3) / 3.0 + (2.0 / 3.0) * C.entries
        assert np.allclose(W, expected, atol=1e-15)

    def test_entrywise_example(self):
        W = pf.influence_matrix(nets.star3(), np.array([0.5, 0.5, 0.0]))
        expected = [[0.5, 0.25, 0.25], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]
        assert np.allclose(W, expected, atol=1e-15)

    def test_uniform_state_keeps_centrality(self):
        rng = np.random.default_rng(21)
        C = nets.random_valid(rng, 5)
        W = pf.influence_matrix(C, np.full(5, 0.2))
        c = pf.dominant_left_eigenvector(C.entries)
        w = pf.dominant_left_eigenvector(W)
        assert np.max(np.abs(c - w)) < 10 * pf.EPS_SPECTRAL


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(3, 8))
@settings(max_examples=50, deadline=None)
def test_influence_rows_sum_to_one(seed, n):
    rng = np.random.default_rng(seed)
    C = nets.random_valid(rng, n)
    x = nets.random_interior(rng, n)
    W = pf.influence_matrix(C, x)
    assert np.allclose(W.sum(axis=1), 1.0, atol=5e-15)
    assert np.all(W >= 0)


def test_slow_path_matches_exact_stationary_vector():
    # equal-weight bidirectional path: the stationary vector is proportional
    # to degree, and the spectral gap is about pi^2 / n^2
    n = 200
    entries = np.zeros((n, n))
    entries[0, 1] = entries[n - 1, n - 2] = 1.0
    for i in range(1, n - 1):
        entries[i, i - 1] = entries[i, i + 1] = 0.5
    exact = np.full(n, 1.0 / (n - 1))
    exact[[0, n - 1]] = 1.0 / (2 * (n - 1))
    v = pf.dominant_left_eigenvector(pf.validate_matrix(entries).entries)
    assert np.max(np.abs(v - exact)) < 1e-13


@pytest.mark.parametrize(
    "M, residual",
    [
        ([[1.0, 0.0], [0.5, 0.5]], 0.0),  # one sink: the solve gives a zero entry
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]], math.inf),  # two sinks: singular
        # 1x1 inputs that are not stochastic: the solve gives [1], the gate rejects it
        ([[0.5]], 0.5),
        ([[0.0]], 1.0),
        ([[math.nan]], math.nan),
    ],
    ids=["one-sink", "two-sinks", "one-state-half", "one-state-zero", "one-state-nan"],
)
def test_reducible_input_raises_with_residual(M, residual):
    with pytest.raises(pf.errors.NoConvergenceError) as info:
        pf.dominant_left_eigenvector(np.array(M))
    assert info.value.residual == pytest.approx(residual, nan_ok=True)
    assert "iterations" not in str(info.value)


def biased_path(n, eps):
    """Node 1 gives 1 to node 2; node i gives 1 - eps to i - 1 and eps to
    i + 1; node n gives 1 to n - 1.  Detailed balance makes the scores fall
    geometrically with ratio eps / (1 - eps), to about 2.4e-37 at n = 40 and
    eps = 0.1."""
    entries = np.zeros((n, n))
    entries[0, 1] = entries[n - 1, n - 2] = 1.0
    for i in range(1, n - 1):
        entries[i, i - 1] = 1.0 - eps
        entries[i, i + 1] = eps
    return pf.validate_matrix(entries)


def test_non_positive_score_is_named(tmp_path, capsys):
    # LU's absolute error exceeds the tiny true scores, so some come out
    # non-positive although the residual meets its target
    C = biased_path(40, 0.1)
    with pytest.raises(pf.errors.NoConvergenceError, match="not strictly positive") as info:
        pf.dominant_left_eigenvector(C.entries)
    error = info.value
    assert error.residual < pf.EPS_SPECTRAL
    assert str(error).startswith("solve met its residual target, but score ")
    path = tmp_path / "path.txt"
    pf.write_matrix(C, path)
    code, out, err = run_cli(capsys, "centrality", "--network", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {error}\n"
