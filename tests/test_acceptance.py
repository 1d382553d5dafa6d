"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import functools

import numpy as np

import powerflow as pf

import nets


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} [{name}]: FAIL")
                raise
            print(f"criterion {num:2d} [{name}]: PASS")

        return wrapper

    return decorate


@criterion(1, "vertex fixedness")
def test_c01_vertices_exactly_fixed():
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = 3 + trial % 8
        C = nets.random_valid(rng, n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            assert np.max(np.abs(pf.st_df_step(C, e) - e)) == 0.0


@criterion(2, "mass conservation")
def test_c02_single_step_mass_conservation():
    rng = np.random.default_rng(102)
    pairs = 0
    while pairs < 10_000:
        n = 3 + pairs % 8
        C = nets.random_valid(rng, n)
        for _ in range(40):
            x = nets.random_interior(rng, n)
            nxt = pf.st_df_step(C, x)
            assert abs(float(nxt.sum()) - float(x.sum())) <= n * n * 2.0**-50
            pairs += 1


@criterion(3, "star convergence with monotone center")
def test_c03_star_convergence():
    C = pf.build_star(10)
    traj = pf.simulate("st", C, np.full(10, 0.1), max_steps=10**6, record_every=1)
    e1 = np.zeros(10)
    e1[0] = 1.0
    assert np.max(np.abs(traj.final_state - e1)) < 1e-3
    assert np.all(traj.states > 0)  # uniform start keeps the whole path interior
    center = traj.states[:, 0]
    assert np.all(np.diff(center) >= 0.0)


@criterion(4, "irreducible uniqueness and start independence")
def test_c04_three_node_limits():
    C = nets.three_node()
    c = nets.THREE_NODE_CENTRALITY
    rng = np.random.default_rng(104)
    limits = []
    for _ in range(20):
        traj = pf.simulate("st", C, nets.random_interior(rng, 3))
        limit = traj.final_state
        assert pf.fixed_point_residual(C, limit) < 1e-10
        assert limit[0] > limit[1] > limit[2]
        ratios = limit / c
        assert ratios[0] > ratios[1] > ratios[2]
        limits.append(limit)
    for other in limits[1:]:
        assert np.max(np.abs(other - limits[0])) < 1e-8


@criterion(5, "solver and simulation agree")
def test_c05_solver_simulation_equivalence():
    rng = np.random.default_rng(105)
    for trial in range(100):
        n = 3 + trial % 6
        C = nets.random_irreducible_nonstar(rng, n)
        c = pf.dominant_left_eigenvector(C.entries)
        solved = pf.solve_interior_equilibrium(c, 1.0)
        limit = pf.simulate("st", C, nets.random_interior(rng, n)).final_state
        assert np.max(np.abs(limit - solved)) < 1e-6


@criterion(6, "democratic limit of doubly stochastic networks")
def test_c06_doubly_stochastic_democratic():
    rng = np.random.default_rng(106)
    for trial in range(20):
        n = 3 + trial % 6
        C = pf.build_doubly_stochastic_random(n, seed=int(rng.integers(10**6)))
        limit = pf.simulate("st", C, nets.random_interior(rng, n)).final_state
        assert np.max(np.abs(limit - 1.0 / n)) < 1e-8


@criterion(7, "reachable pair limit family")
def test_c07_reachable_pair_family():
    C = nets.reachable_pair()
    traj = pf.simulate("st", C, np.array([0.2, 0.2, 0.6]))
    limit = traj.final_state
    assert abs(limit[2]) < 1e-10
    assert abs(limit[0] + limit[1] - 1.0) < 1e-10
    rng = np.random.default_rng(107)
    alphas = []
    for _ in range(10):
        final = pf.simulate("st", C, nets.random_interior(rng, 3)).final_state
        assert abs(final[2]) < 1e-10
        alphas.append(final[0])
    assert max(alphas) - min(alphas) > 1e-4


@criterion(8, "reducible star: interior agrees, transient vertex splits")
def test_c08_reducible_star_regimes():
    C = nets.reducible_star_ten()
    e1 = np.zeros(10)
    e1[0] = 1.0
    x0 = np.full(10, 0.1)
    st_run = pf.simulate("st", C, x0, max_steps=20_000)
    df_run = pf.simulate("df", C, x0, max_steps=4_000)
    assert np.max(np.abs(st_run.final_state - e1)) < 1e-3
    assert np.max(np.abs(df_run.final_state - e1)) < 1e-3
    e10 = np.zeros(10)
    e10[9] = 1.0
    st_vertex = pf.simulate("st", C, e10)
    assert st_vertex.status == pf.VertexAbsorbed(vertex=10, at=0)
    assert np.array_equal(st_vertex.final_state, e10)
    df_vertex = pf.simulate("df", C, e10, max_steps=4_000)
    assert np.max(np.abs(df_vertex.final_state - e1)) < 1e-3


@criterion(9, "sink power monotonicity and split family")
def test_c09_multi_sink_monotone_family():
    C = nets.two_sink_five()
    rng = np.random.default_rng(109)
    for _ in range(50):
        traj = pf.simulate("st", C, nets.random_interior(rng, 5), max_steps=5_000)
        assert np.all(np.diff(traj.sink_power, axis=0) >= -1e-14)
    even = pf.simulate("st", C, np.full(5, 0.2)).final_state
    assert np.max(np.abs(even - [0.25, 0.25, 0.25, 0.25, 0.0])) < 1e-8
    lopsided = pf.simulate("st", C, np.array([0.4, 0.4, 0.05, 0.05, 0.1]))
    mirrored = pf.simulate("st", C, np.array([0.05, 0.05, 0.4, 0.4, 0.1]))
    assert np.max(np.abs(lopsided.sink_power[-1] - mirrored.sink_power[-1])) > 1e-3


@criterion(10, "transient mass vanishes")
def test_c10_transient_decay():
    C = nets.two_sink_five()
    rng = np.random.default_rng(110)
    for x0 in (np.full(5, 0.2), nets.random_interior(rng, 5)):
        traj = pf.simulate("st", C, x0, eps_conv=0.0, max_steps=200, record_every=200)
        assert traj.steps[-1] == 200
        assert traj.final_state[4] < 1e-20


@criterion(11, "per-sink equilibrium formula")
def test_c11_assembled_equilibrium_matches_simulation():
    C = nets.two_sink_six()
    structure = pf.classify(C)
    profile = pf.centrality_profile(C, structure)
    assert tuple(map(len, structure.sinks)) == (2, 3)
    big_sink_c = profile.per_sink[1]
    assert np.min(np.abs(np.subtract.outer(big_sink_c, big_sink_c))[~np.eye(3, dtype=bool)]) > 1e-3
    traj = pf.simulate("st", C, nets.random_interior(np.random.default_rng(111), 6))
    zeta = traj.sink_power[-1]
    assembled = pf.assemble_multisink_equilibrium(structure, profile, zeta)
    assert np.max(np.abs(assembled - traj.final_state)) < 1e-6
    members = np.asarray(structure.sinks[1], dtype=int) - 1
    alphas = assembled[members] * (1.0 - assembled[members]) / big_sink_c
    assert alphas.max() - alphas.min() < 1e-10


@criterion(12, "stand-in pipelines report the stated structure")
def test_c12_standin_structural_facts(tmp_path):
    kr_path = nets.write_lines(tmp_path / "advice.txt", nets.synthetic_krackhardt_lines())
    full = pf.load_network(kr_path)
    full_structure = pf.classify(full)
    assert isinstance(full_structure, pf.ReducibleReachable)
    outside = tuple(sorted(set(range(1, 22)) - set(full_structure.reachable)))
    assert outside == (6, 13, 16, 17)

    sm_path = nets.write_lines(tmp_path / "esteem.txt", nets.synthetic_sampson_lines())
    sampson = pf.load_network(sm_path)
    sampson_structure = pf.classify(sampson)
    assert isinstance(sampson_structure, pf.MultiSink)
    assert tuple(map(len, sampson_structure.sinks)) == (2, 13)
    assert len(sampson_structure.non_sink_nodes) == 3

    core = np.asarray(full_structure.reachable, dtype=int) - 1
    reduced = pf.validate_matrix(full.entries[np.ix_(core, core)])
    assert isinstance(pf.classify(reduced), pf.Irreducible)
    x0 = nets.random_interior(np.random.default_rng(112), 17)
    report = pf.compare_models(reduced, x0, record_every=50)
    assert report.limit_distance < 1e-6
