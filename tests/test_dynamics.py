import itertools
import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerflow as pf
from powerflow import dynamics
from powerflow.errors import InvalidInitialError, MassDriftError, StructureMismatchError
from powerflow.netcore import RelativeInteractionMatrix, _condensation

import nets


class TestSingleTimescaleStep:
    def test_vertices_exactly_fixed(self):
        rng = np.random.default_rng(0)
        C = nets.random_valid(rng, 6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = 1.0
            assert np.array_equal(pf.st_df_step(C, e), e)

    def test_hand_evaluated_example(self):
        C = nets.reachable_pair()
        nxt = pf.st_df_step(C, np.array([0.2, 0.2, 0.6]))
        assert np.allclose(nxt, [0.32, 0.32, 0.36], atol=1e-15)

    def test_star_three_componentwise(self):
        nxt = pf.st_df_step(nets.star3(), np.array([0.5, 0.5, 0.0]))
        assert np.allclose(nxt, [0.5, 0.375, 0.125], atol=1e-15)

    def test_star_center_strictly_grows_in_interior(self):
        C = pf.build_star(8)
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = nets.random_interior(rng, 8)
            assert pf.st_df_step(C, x)[0] > x[0]


class TestOriginalDfStep:
    def test_uniform_state_returns_centrality(self):
        C = nets.three_node()
        out = pf.df_step(C, np.full(3, 1.0 / 3.0))
        assert np.allclose(out, nets.THREE_NODE_CENTRALITY, atol=1e-9)

    def test_vertex_in_sink_is_fixed(self):
        C = nets.three_node()
        e2 = np.array([0.0, 1.0, 0.0])
        assert np.allclose(pf.df_step(C, e2), e2, atol=1e-12)

    def test_vertex_on_transient_node_moves(self):
        C = nets.reducible_star_ten()
        e10 = np.zeros(10)
        e10[9] = 1.0
        out = pf.df_step(C, e10)
        assert out[9] < 0.5
        assert out[0] > 0.3  # mass lands mostly on the star

    def test_matches_brute_force_eigenvector(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            C = nets.random_valid(rng, 3)
            x = nets.random_interior(rng, 3)
            W = pf.influence_matrix(C, x)
            values, vectors = np.linalg.eig(W.T)
            k = int(np.argmin(np.abs(values - 1.0)))
            expected = np.real(vectors[:, k])
            expected = expected / expected.sum()
            assert np.max(np.abs(pf.df_step(C, x) - expected)) < 1e-8

    def test_doubly_stochastic_keeps_ordering_of_state(self):
        rng = np.random.default_rng(15)
        C = pf.build_doubly_stochastic_random(5, seed=3)
        for _ in range(10):
            x = nets.random_interior(rng, 5)
            out = pf.df_step(C, x)
            assert np.array_equal(np.argsort(out), np.argsort(x))


def _limit_power(C, x, squarings=50):
    """Average row of the long-run limit of W(x), by repeated squaring of
    the lazy (I + W) / 2, which shares that limit and is aperiodic where
    W(x) is not (rows renormalised against rounding): the df step from its
    definition, with no eigenvector or absorption solve."""
    W = 0.5 * (np.eye(C.n) + pf.influence_matrix(C, x))
    for _ in range(squarings):
        W = W @ W
        W /= W.sum(axis=1, keepdims=True)
    return W.mean(axis=0)


class TestClosedFormDfStep:
    def test_irreducible_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            C = nets.random_valid(rng, n)
            c = pf.dominant_left_eigenvector(C.entries)
            x = nets.random_interior(rng, n)
            y = c / (1.0 - x)
            out = pf.df_step(C, x)
            assert np.max(np.abs(out - y / y.sum())) < 1e-14
            W = pf.influence_matrix(C, x)
            assert np.max(np.abs(out @ W - out)) < 1e-13

    def test_multi_sink_per_sink_form_with_fixed_weights(self):
        rng = np.random.default_rng(42)
        for C in (nets.two_sink_five(), nets.two_sink_six()):
            structure = pf.classify(C)
            profile = pf.centrality_profile(C, structure)
            weights = []
            for _ in range(10):
                x = nets.random_interior(rng, C.n)
                out = pf.df_step(C, x)
                assert np.max(np.abs(out - _limit_power(C, x))) < 1e-10
                weights.append(pf.sink_power(structure, out))
                expected = np.zeros(C.n)
                for sink, c_k, w in zip(structure.sinks, profile.per_sink, weights[-1]):
                    idx = np.asarray(sink) - 1
                    y = c_k / (1.0 - x[idx])
                    expected[idx] = w * y / y.sum()
                assert np.max(np.abs(out - expected)) < 1e-14
            assert np.ptp(np.array(weights), axis=0).max() < 1e-14

    def test_exact_vertex_matches_limit_definition(self):
        for C in (nets.reducible_star_ten(), nets.two_sink_five(), nets.two_sink_six(),
                  nets.transient_cycle_six(), nets.three_node()):
            for i in range(C.n):
                e = np.zeros(C.n)
                e[i] = 1.0
                out = pf.df_step(C, e)
                assert np.max(np.abs(out - _limit_power(C, e))) < 1e-10

    def test_simulate_reads_vertex_coordinates_once_per_block(self, monkeypatch):
        from powerflow import dynamics

        calls = []
        absorbing = dynamics._absorbing

        def counted_absorbing(x):
            calls.append(1)
            return absorbing(x)

        monkeypatch.setattr(dynamics, "_absorbing", counted_absorbing)
        x0 = nets.random_interior(np.random.default_rng(43), 3)
        traj = pf.simulate("df", nets.three_node(), x0, eps_conv=0.0, max_steps=200)
        assert traj.total_steps == 200
        # one call per block: blocks of 8, 16, 32, 64, 80 steps
        assert len(calls) <= 10

    @pytest.mark.parametrize(
        "make, start",
        [
            (nets.reducible_star_ten, "vertex:10"),
            (nets.reducible_star_ten, "interior"),
            (nets.three_node, "interior"),
            (nets.two_sink_six, "interior"),
            (nets.transient_cycle_six, "vertex:6"),
        ],
    )
    def test_simulate_matches_one_shot_steps(self, make, start):
        C = make()
        if start == "interior":
            x = nets.random_interior(np.random.default_rng(43), C.n)
        else:
            x = np.zeros(C.n)
            x[int(start.split(":")[1]) - 1] = 1.0
        traj = pf.simulate("df", C, x, eps_conv=0.0, max_steps=60)
        assert traj.total_steps == 60
        for t in range(1, 61):
            x = pf.df_step(C, x)
            assert np.max(np.abs(traj.states[t] - x)) < 1e-15

    def test_simulate_builds_structure_once(self, monkeypatch):
        from powerflow import dynamics, netcore

        C = nets.reducible_star_ten()
        structure = pf.classify(C)
        calls = {"condensation": 0, "eigvec": 0}
        condensation = netcore._condensation
        eigvec = dynamics.dominant_left_eigenvector

        def counted_condensation(*args, **kwargs):
            calls["condensation"] += 1
            return condensation(*args, **kwargs)

        def counted_eigvec(*args, **kwargs):
            calls["eigvec"] += 1
            return eigvec(*args, **kwargs)

        # every SCC pass, classify's included, goes through netcore._condensation
        monkeypatch.setattr(netcore, "_condensation", counted_condensation)
        monkeypatch.setattr(dynamics, "dominant_left_eigenvector", counted_eigvec)
        e10 = np.zeros(10)
        e10[9] = 1.0
        traj = pf.simulate("df", C, e10, max_steps=500, structure=structure)
        assert traj.total_steps == 500
        # no SCC pass with the structure given; one plan for interior
        # states, one per step taken at the vertex
        assert calls["condensation"] == 0
        assert calls["eigvec"] <= 3
        pf.simulate("df", C, e10, max_steps=500)
        assert calls["condensation"] == 1


def _closed_classes_reference(C, absorbing):
    """Closed classes of W(x) for the states whose exact vertex coordinates
    are `absorbing`, the way df plans once found them: the condensation
    sinks of W(indicator of that set), whose pattern every such W(x) has."""
    indicator = np.zeros(C.n)
    indicator[list(absorbing)] = 1.0
    components, closed = _condensation(pf.influence_matrix(C, indicator))
    return {frozenset(v - 1 for v in components[k]) for k in closed}


def _transient_patterns(rng, count):
    """`count` random advice patterns with transient nodes: every node of
    4 to 8 asks one or two others."""
    found = []
    while len(found) < count:
        n = int(rng.integers(4, 9))
        entries = np.zeros((n, n))
        for i in range(n):
            asked = rng.choice(np.delete(np.arange(n), i), size=int(rng.integers(1, 3)), replace=False)
            entries[i, asked] = 1.0 / asked.size
        C = pf.validate_matrix(entries)
        if not isinstance(pf.classify(C), pf.Irreducible):
            found.append(C)
    return found


class TestClosedClassRule:
    """A df plan takes the closed classes of W(x) from C's classified
    structure: each exact vertex coordinate alone, plus every closed class
    of C that holds none of them.  Checked against the condensation of
    W(x) for every set of at most three such coordinates."""

    @staticmethod
    def _check(C):
        structure = pf.classify(C)
        for size in range(4):
            for absorbing in itertools.combinations(range(C.n), size):
                plan = dynamics._df_plan(C, structure, absorbing)
                classes = {frozenset(s.tolist()) for s in plan.classes}
                assert len(classes) == len(plan.classes)
                assert classes == _closed_classes_reference(C, absorbing), absorbing

    @pytest.mark.parametrize(
        "make",
        [
            nets.reachable_pair,
            nets.two_sink_five,
            nets.two_sink_six,
            nets.star_sink_seven,
            nets.transient_cycle_six,
            nets.reducible_star_ten,
        ],
    )
    def test_fixtures(self, make):
        self._check(make())

    def test_random_patterns_with_transient_nodes(self):
        for C in _transient_patterns(np.random.default_rng(47), 100):
            self._check(C)


class TestSinkPower:
    def test_uniform_state(self):
        C = nets.two_sink_five()
        structure = pf.classify(C)
        assert np.allclose(pf.sink_power(structure, np.full(5, 0.2)), [0.4, 0.4])

    def test_mass_on_transient_node(self):
        structure = pf.classify(nets.two_sink_five())
        e5 = np.zeros(5)
        e5[4] = 1.0
        assert np.array_equal(pf.sink_power(structure, e5), [0.0, 0.0])

    def test_after_one_step(self):
        C = nets.two_sink_five()
        structure = pf.classify(C)
        x1 = pf.st_df_step(C, np.full(5, 0.2))
        assert np.allclose(x1, [0.24, 0.24, 0.24, 0.24, 0.04], atol=1e-15)
        assert np.allclose(pf.sink_power(structure, x1), [0.48, 0.48], atol=1e-15)

    def test_rejects_wrong_structure(self):
        structure = pf.classify(nets.ring3())
        with pytest.raises(StructureMismatchError):
            pf.sink_power(structure, np.full(3, 1.0 / 3.0))


class TestSimulate:
    def test_rejects_bad_initial(self):
        C = nets.ring3()
        with pytest.raises(InvalidInitialError):
            pf.simulate("st", C, [0.5, 0.2, 0.1])
        with pytest.raises(InvalidInitialError):
            pf.simulate("st", C, [0.5, 0.5])

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            pf.simulate("both", nets.ring3(), np.full(3, 1.0 / 3.0))

    @pytest.mark.parametrize("record_every", [0, -2, 0.5])
    def test_rejects_record_every_below_one(self, record_every):
        with pytest.raises(ValueError, match="record_every must be at least 1"):
            pf.simulate("st", nets.ring3(), np.full(3, 1.0 / 3.0), record_every=record_every)

    @pytest.mark.parametrize("record_every", [2.7, 1.5, float("inf"), float("nan")])
    def test_rejects_fractional_record_every(self, record_every):
        with pytest.raises(ValueError, match="record_every must be a whole number"):
            pf.simulate("st", nets.ring3(), np.full(3, 1.0 / 3.0), record_every=record_every)

    @pytest.mark.parametrize("max_steps", [-3, -1, 2.5, float("inf"), float("nan")])
    def test_rejects_bad_max_steps(self, max_steps):
        with pytest.raises(ValueError, match=f"max_steps must be .*, got {max_steps!r}"):
            pf.simulate("st", nets.ring3(), np.full(3, 1.0 / 3.0), max_steps=max_steps)

    def test_zero_max_steps_and_numpy_ints_accepted(self):
        C = pf.build_star(4)
        x0 = np.full(4, 0.25)
        traj = pf.simulate("st", C, x0, max_steps=0)
        assert traj.status == pf.MaxStepsReached(steps=0)
        assert traj.states.shape == (1, 4)
        thinned = pf.simulate("st", C, x0, max_steps=np.int64(7), record_every=np.int64(3))
        again = pf.simulate("st", C, x0, max_steps=7, record_every=3)
        assert np.array_equal(thinned.steps, again.steps)
        assert np.array_equal(thinned.states, again.states)
        assert thinned.status == again.status

    @pytest.mark.parametrize("eps_conv", [-1e-3, float("nan"), float("-inf")])
    def test_rejects_bad_eps_conv(self, eps_conv):
        with pytest.raises(ValueError, match=f"eps_conv must be at least 0, got {eps_conv!r}"):
            pf.simulate("st", nets.ring3(), np.full(3, 1.0 / 3.0), eps_conv=eps_conv)

    def test_zero_eps_conv_runs_to_max_steps(self):
        x0 = np.array([0.2, 0.3, 0.5])
        traj = pf.simulate("st", nets.three_node(), x0, eps_conv=0.0, max_steps=50)
        assert traj.status == pf.MaxStepsReached(steps=50)

    def test_vertex_start_absorbs_immediately(self):
        C = nets.three_node()
        e3 = np.array([0.0, 0.0, 1.0])
        traj = pf.simulate("st", C, e3)
        assert traj.status == pf.VertexAbsorbed(vertex=3, at=0)
        assert traj.total_steps == 0

    def test_star_run_approaches_center_vertex(self):
        C = pf.build_star(10)
        traj = pf.simulate("st", C, np.full(10, 0.1), max_steps=50_000)
        e1 = np.zeros(10)
        e1[0] = 1.0
        assert np.max(np.abs(traj.final_state - e1)) < 1e-3

    def test_reachable_pair_limit_family(self):
        C = nets.reachable_pair()
        traj = pf.simulate("st", C, np.array([0.2, 0.2, 0.6]))
        assert isinstance(traj.status, pf.Converged)
        limit = traj.final_state
        assert abs(limit[2]) < 1e-10
        assert limit[0] + limit[1] == pytest.approx(1.0, abs=1e-12)
        other = pf.simulate("st", C, np.array([0.6, 0.2, 0.2])).final_state
        assert abs(other[0] - limit[0]) > 1e-4  # split depends on the start

    def test_irreducible_limit_independent_of_start(self):
        C = nets.three_node()
        a = pf.simulate("st", C, np.array([0.2, 0.3, 0.5])).final_state
        b = pf.simulate("st", C, np.array([0.7, 0.1, 0.2])).final_state
        assert np.max(np.abs(a - b)) < 1e-8

    def test_degenerate_pair_converges_at_zero(self):
        C = pf.validate_matrix([[0, 1], [1, 0]])
        traj = pf.simulate("st", C, np.array([0.3, 0.7]))
        assert isinstance(traj.status, pf.Converged)
        assert traj.status.at == 0
        assert np.array_equal(traj.final_state, [0.3, 0.7])
        df = pf.simulate("df", C, np.array([0.3, 0.7]))
        assert np.array_equal(df.final_state, [0.3, 0.7])

    def test_mass_conserved_along_trajectory(self):
        C = nets.two_sink_six()
        traj = pf.simulate("st", C, nets.random_interior(np.random.default_rng(2), 6))
        sums = traj.states.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_states_stay_in_simplex(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            C = nets.random_binary_pattern(rng, 5)
            traj = pf.simulate("st", C, nets.random_interior(rng, 5), max_steps=500)
            assert np.all(traj.states >= -1e-15)
            assert np.all(traj.states <= 1.0 + 1e-15)

    def test_record_every_thins_but_keeps_final(self):
        C = nets.three_node()
        traj = pf.simulate("st", C, np.array([0.2, 0.3, 0.5]), record_every=7)
        assert traj.steps[0] == 0
        assert np.all(np.diff(traj.steps[:-1]) == 7)
        assert traj.steps[-1] == traj.total_steps
        assert len(traj.step_deltas) == traj.total_steps
        full = pf.simulate("st", C, np.array([0.2, 0.3, 0.5]))
        assert np.allclose(traj.final_state, full.final_state, atol=1e-12)

    def test_sink_power_recorded_per_step(self):
        C = nets.two_sink_five()
        traj = pf.simulate("st", C, np.full(5, 0.2), record_every=10)
        assert traj.sink_power is not None
        assert traj.sink_power.shape == (traj.total_steps + 1, 2)
        assert np.allclose(traj.sink_power[0], [0.4, 0.4])
        assert np.all(np.diff(traj.sink_power, axis=0) >= -1e-14)

    def test_max_steps_reached(self):
        C = pf.build_star(10)
        traj = pf.simulate("st", C, np.full(10, 0.1), max_steps=100)
        assert traj.status == pf.MaxStepsReached(steps=100)
        assert traj.total_steps == 100


def test_recorded_states_are_held_once():
    # a star approaches its centre slowly: 31 860 states, every step recorded
    C = pf.build_star(60)
    x0 = np.full(60, 1.0 / 60.0)
    structure = pf.classify(C)
    tracemalloc.start()
    try:
        traj = pf.simulate("st", C, x0, eps_conv=1e-9, structure=structure)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.states) == traj.total_steps + 1 > 30_000
    # the states, their spare capacity, the block buffer, deltas and steps;
    # a second copy of the states would double the peak
    assert peak < 1.3 * traj.states.nbytes + (1 << 20)


def _stepwise_st(C, x, max_steps, record_every=1, eps_conv=pf.EPS_CONV, eps_simplex=pf.EPS_SIMPLEX):
    """Reference run: one st_df_step call per step, with the documented
    termination rules checked after every step."""
    states, steps, deltas = [x], [0], []
    t = 0
    status = ("VertexAbsorbed", 0)
    if pf.vertex_index(x, eps_simplex) is None or (
        np.max(np.abs(pf.st_df_step(C, x) - x)) > eps_simplex
    ):
        status = ("MaxStepsReached", max_steps)
        while t < max_steps:
            nxt = pf.st_df_step(C, x)
            t += 1
            delta = np.max(np.abs(nxt - x))
            deltas.append(delta)
            x = nxt
            if t % record_every == 0:
                states.append(x)
                steps.append(t)
            fixed_dev = np.max(np.abs(pf.st_df_step(C, x) - x))
            if pf.vertex_index(x, eps_simplex) is not None and fixed_dev <= eps_simplex:
                status = ("VertexAbsorbed", t)
                break
            if delta < eps_conv:
                status = ("Converged", t)
                break
    if steps[-1] != t:
        states.append(x)
        steps.append(t)
    return np.array(states), np.array(steps), np.array(deltas), status


def _status_key(status):
    if isinstance(status, pf.MaxStepsReached):
        return ("MaxStepsReached", status.steps)
    return (type(status).__name__, status.at)


def _e(n, i):
    x = np.zeros(n)
    x[i - 1] = 1.0
    return x


def _two_large_sinks(rng, size=10, transient=3):
    """Two dense sinks of `size` nodes plus `transient` nodes feeding both,
    so sink totals sum more than eight terms."""
    n = 2 * size + transient
    entries = np.zeros((n, n))
    for lo in (0, size):
        block = rng.uniform(0.1, 1.0, (size, size))
        np.fill_diagonal(block, 0.0)
        entries[lo : lo + size, lo : lo + size] = block
    entries[2 * size :, :] = rng.uniform(0.1, 1.0, (transient, n))
    np.fill_diagonal(entries, 0.0)
    return pf.validate_matrix(entries / entries.sum(axis=1, keepdims=True))


# (first block, largest block) of the engine; None keeps the defaults.  Tiny
# blocks put block boundaries on every step.
BLOCK_SIZES = [None, (1, 1), (3, 3), (64, 64)]


@pytest.fixture(params=BLOCK_SIZES, ids=lambda b: "default" if b is None else f"{b[0]}-{b[1]}")
def block_sizes(request, monkeypatch):
    from powerflow import dynamics

    if request.param is not None:
        monkeypatch.setattr(dynamics, "_FIRST_BLOCK", request.param[0])
        monkeypatch.setattr(dynamics, "_MAX_BLOCK", request.param[1])
    return request.param


class TestBlockedEngine:
    @pytest.mark.parametrize(
        "make, x0, max_steps, record_every, eps_simplex",
        [
            (nets.three_node, np.array([0.2, 0.3, 0.5]), pf.DEFAULT_MAX_STEPS, 1, pf.EPS_SIMPLEX),
            (nets.three_node, np.array([0.2, 0.3, 0.5]), pf.DEFAULT_MAX_STEPS, 3, pf.EPS_SIMPLEX),
            (nets.reachable_pair, np.array([0.2, 0.2, 0.6]), pf.DEFAULT_MAX_STEPS, 1, pf.EPS_SIMPLEX),
            (lambda: pf.build_star(10), np.full(10, 0.1), 1, 1, pf.EPS_SIMPLEX),
            (lambda: pf.build_star(10), np.full(10, 0.1), 7, 1, pf.EPS_SIMPLEX),
            (lambda: pf.build_star(10), np.full(10, 0.1), 1003, 1, pf.EPS_SIMPLEX),
            (lambda: pf.build_star(10), np.full(10, 0.1), 1003, 7, pf.EPS_SIMPLEX),
            # absorbed at the centre mid-run, within 1e-3 of e_1 at step 1115
            (lambda: pf.build_star(10), np.full(10, 0.1), pf.DEFAULT_MAX_STEPS, 1, 1e-3),
            (nets.three_node, _e(3, 3), pf.DEFAULT_MAX_STEPS, 1, pf.EPS_SIMPLEX),
            (nets.transient_cycle_six, _e(6, 6), pf.DEFAULT_MAX_STEPS, 1, pf.EPS_SIMPLEX),
            (nets.two_sink_six, None, pf.DEFAULT_MAX_STEPS, 1, pf.EPS_SIMPLEX),
            (lambda: nets.random_valid(np.random.default_rng(5), 9), None, 300, 1, pf.EPS_SIMPLEX),
            (lambda: nets.random_valid(np.random.default_rng(6), 40), None, pf.DEFAULT_MAX_STEPS, 5, pf.EPS_SIMPLEX),
            (lambda: nets.random_valid(np.random.default_rng(7), 300), None, pf.DEFAULT_MAX_STEPS, 1, pf.EPS_SIMPLEX),
        ],
    )
    def test_st_matches_one_shot_steps(self, block_sizes, make, x0, max_steps, record_every, eps_simplex):
        C = make()
        if x0 is None:
            x0 = nets.random_interior(np.random.default_rng(2), C.n)
        traj = pf.simulate(
            "st", C, x0, max_steps=max_steps, record_every=record_every, eps_simplex=eps_simplex
        )
        states, steps, deltas, status = _stepwise_st(
            C, x0, max_steps, record_every, eps_simplex=eps_simplex
        )
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.steps, steps)
        assert np.array_equal(traj.step_deltas, deltas)
        assert _status_key(traj.status) == status

    @pytest.mark.parametrize(
        "make", [nets.two_sink_six, lambda: _two_large_sinks(np.random.default_rng(3))]
    )
    def test_multi_sink_power_rows_match_sink_power(self, block_sizes, make):
        C = make()
        structure = pf.classify(C)
        x0 = nets.random_interior(np.random.default_rng(2), C.n)
        traj = pf.simulate("st", C, x0)
        assert isinstance(traj.status, pf.Converged)
        assert traj.sink_power.shape == (traj.total_steps + 1, structure.num_sinks)
        for t, x in enumerate(traj.states):
            assert np.array_equal(traj.sink_power[t], pf.sink_power(structure, x))
        assert np.all(np.diff(traj.sink_power, axis=0) >= -1e-14)

    @pytest.mark.parametrize(
        "make, max_steps, record_every",
        [
            (lambda: pf.build_star(10), 0, 1),
            (lambda: pf.build_star(10), "full", 1),
            (lambda: pf.build_star(10), 1003, 7),
            (nets.two_sink_six, pf.DEFAULT_MAX_STEPS, 3),
        ],
    )
    def test_recordings_are_owned_and_trimmed(self, block_sizes, make, max_steps, record_every):
        from powerflow import dynamics

        if max_steps == "full":
            # as many states as the capacity after one growth
            max_steps = dynamics._GROWTH * (dynamics._MAX_BLOCK + 1) - 1
        C = make()
        x0 = nets.random_interior(np.random.default_rng(2), C.n)
        traj = pf.simulate("st", C, x0, max_steps=max_steps, record_every=record_every)
        states, steps, deltas, status = _stepwise_st(C, x0, max_steps, record_every)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.steps, steps)
        assert np.array_equal(traj.step_deltas, deltas)
        assert len(traj.states) == len(traj.steps)
        recorded = [traj.states, traj.step_deltas]
        if traj.sink_power is not None:
            assert len(traj.sink_power) == traj.total_steps + 1
            recorded.append(traj.sink_power)
        for array in recorded:
            assert array.flags.c_contiguous and array.flags.owndata and array.base is None

    def test_degenerate_pair_takes_no_step(self):
        C = pf.validate_matrix([[0, 1], [1, 0]])
        x0 = np.array([0.3, 0.7])
        traj = pf.simulate("st", C, x0)
        assert traj.status.at == 0 and isinstance(traj.status, pf.Converged)
        assert np.array_equal(traj.states, x0[None, :])
        assert np.array_equal(traj.steps, [0])
        assert traj.step_deltas.size == 0
        # every point is fixed, up to rounding
        assert np.max(np.abs(pf.st_df_step(C, x0) - x0)) < 1e-15

    @pytest.mark.parametrize("max_steps", [pf.DEFAULT_MAX_STEPS, 512, 600])
    def test_drift_monitor_raises_at_first_check(self, block_sizes, max_steps):
        # rows sum to 1 + 1e-8, so every step adds mass; validate_matrix
        # would reject the matrix, so it is built directly
        entries = (np.ones((3, 3)) - np.eye(3)) * 0.5 * (1.0 + 1e-8)
        C = RelativeInteractionMatrix(entries)
        with pytest.raises(
            MassDriftError, match=r"^total self-weight drifted by 3\.41e-06 after 512 steps$"
        ):
            pf.simulate("st", C, np.array([0.2, 0.3, 0.5]), max_steps=max_steps)

    def test_drift_check_reads_the_state_of_its_step(self, block_sizes):
        # this excess takes the drift from 0.999e-9 at step 511 to 1.001e-9
        # at step 512, just over the 1e-9 limit
        entries = (np.ones((3, 3)) - np.eye(3)) * 0.5 * (1.0 + 2.9331e-12)
        C = RelativeInteractionMatrix(entries)
        x0 = np.array([0.2, 0.3, 0.5])
        traj = pf.simulate("st", C, x0, eps_conv=0.0, max_steps=511)
        assert traj.total_steps == 511
        with pytest.raises(MassDriftError, match=r"after 512 steps$"):
            pf.simulate("st", C, x0, eps_conv=0.0, max_steps=600)

    @pytest.mark.parametrize("leaf_mass, vertex_step", [(20e-17, 1), (28e-17, 2)])
    def test_df_state_reaching_a_vertex_coordinate_mid_block(self, block_sizes, leaf_mass, vertex_step):
        # rounding puts x_1 at exactly 1.0 after `vertex_step` steps; the next
        # step needs the plan of that vertex coordinate and lands on e_1
        C = pf.build_star(10)
        x = np.full(10, leaf_mass / 9)
        x[0] = 1.0 - x[1:].sum()
        states = [x]
        for _ in range(vertex_step + 1):
            states.append(pf.df_step(C, states[-1]))
        assert states[vertex_step][0] == 1.0 and np.array_equal(states[-1], _e(10, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = pf.simulate("df", C, x, eps_conv=0.0, eps_simplex=0.0, max_steps=50)
        assert np.array_equal(traj.states, np.array(states))
        assert _status_key(traj.status) == ("VertexAbsorbed", vertex_step + 1)

    @pytest.mark.parametrize("model", ["st", "df"])
    def test_zero_tolerances_run_to_max_steps(self, model):
        # no step or vertex target: the block lengths come from the cap alone
        C = pf.build_ring(5)
        x0 = np.array([0.3, 0.2, 0.2, 0.2, 0.1])
        traj = pf.simulate(model, C, x0, eps_conv=0.0, eps_simplex=0.0, max_steps=40)
        assert _status_key(traj.status) == ("MaxStepsReached", 40)
        assert traj.total_steps == 40
        if model == "st":
            states, _, _, _ = _stepwise_st(C, x0, 40, eps_conv=0.0, eps_simplex=0.0)
            assert np.array_equal(traj.states, states)

    def test_error_state_unchanged_after_simulate(self, block_sizes):
        before = np.geterr()
        x0 = np.array([0.2, 0.3, 0.5])
        for model in ("st", "df"):
            pf.simulate(model, nets.three_node(), x0)
            assert np.geterr() == before
        # x_1 reaches exactly 1.0 mid-block; the dropped steps past it divide by 0
        x = np.full(10, 20e-17 / 9)
        x[0] = 1.0 - x[1:].sum()
        pf.simulate("df", pf.build_star(10), x, eps_conv=0.0, eps_simplex=0.0, max_steps=50)
        assert np.geterr() == before
        # the first df step normalizes the excess mass away: drift at step 512
        heavy = np.array([0.2, 0.3, 0.5 + 5e-7])
        with pytest.raises(MassDriftError, match=r"after 512 steps$"):
            pf.simulate("df", nets.three_node(), heavy, eps_conv=0.0, max_steps=600, eps_simplex=1e-6)
        assert np.geterr() == before
        gaining = RelativeInteractionMatrix((np.ones((3, 3)) - np.eye(3)) * 0.5 * (1.0 + 1e-8))
        with pytest.raises(MassDriftError, match=r"after 512 steps$"):
            pf.simulate("st", gaining, x0, max_steps=600)
        assert np.geterr() == before

    def test_st_floating_point_error_warns(self):
        # weights of 1e308 overflow the state in the second step's x * x
        C = RelativeInteractionMatrix((np.ones((3, 3)) - np.eye(3)) * 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow encountered in multiply"):
                pf.simulate("st", C, np.array([0.2, 0.3, 0.5]), eps_conv=0.0, max_steps=3)

    def test_debug_line_per_block(self, caplog):
        caplog.set_level(logging.DEBUG, logger="powerflow.dynamics")
        C = nets.three_node()
        traj = pf.simulate("st", C, np.array([0.2, 0.3, 0.5]))
        pattern = re.compile(
            r"simulate block: steps=(\d+) block=(\d+) delta=(\S+) rate=(\S+)$"
        )
        blocks = [
            pattern.match(r.getMessage())
            for r in caplog.records
            if r.getMessage().startswith("simulate block")
        ]
        assert len(blocks) >= 2 and all(blocks)
        steps = [int(m.group(1)) for m in blocks]
        lengths = [int(m.group(2)) for m in blocks]
        assert steps == sorted(steps) and steps[-1] == traj.total_steps
        assert float(blocks[-1].group(3)) == pytest.approx(traj.step_deltas[-1], rel=1e-2)
        assert 0.0 < float(blocks[-1].group(4)) < 1.0
        # the last block ran past the converged step; those steps are dropped
        assert sum(lengths) > traj.total_steps


class TestReducibleDecay:
    def test_zero_pattern_constant_after_transient(self):
        C = nets.two_sink_five()
        x0 = np.array([0.3, 0.3, 0.1, 0.1, 0.2])
        # node 5 squares every step, so it underflows to exact zero at t = 9;
        # the settled support claim is checked on the window before that
        traj = pf.simulate("st", C, x0, eps_conv=0.0, max_steps=8, record_every=1)
        support = traj.states[:, 4] > 0
        assert np.all(support[5:] == support[5])
        assert support[5]

    def test_transient_mass_ratio_bound(self):
        C = nets.transient_cycle_six()
        x0 = nets.random_interior(np.random.default_rng(6), 6)
        traj = pf.simulate("st", C, x0, eps_conv=0.0, max_steps=80, record_every=1)
        transient_max = traj.states[:, 4:].max(axis=1)
        window = transient_max[20:60]
        assert np.all(window[1:] <= 0.9 * window[:-1])
        assert window[-1] < window[0] * 0.9**39


@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(3, 10))
@settings(max_examples=60, deadline=None)
def test_step_conserves_mass_and_simplex(seed, n):
    rng = np.random.default_rng(seed)
    C = nets.random_valid(rng, n)
    x = nets.random_interior(rng, n)
    nxt = pf.st_df_step(C, x)
    assert abs(nxt.sum() - x.sum()) <= n * n * 2.0**-50
    assert np.all(nxt >= 0.0)
    assert np.all(nxt <= 1.0)
