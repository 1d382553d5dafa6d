"""One table of the seven structural regimes and a near-star, checked
through the library (`classify`, `centrality_profile`, `predict_limit`) and
the `classify` and `equilibrium` commands, plus the closed classes every
structure carries as `sink_index`."""

import dataclasses

import numpy as np
import pytest

import powerflow as pf
from powerflow.defaults import EPS_EQUILIBRIUM
from powerflow.equilibria import fixed_point_residual, solve_interior_equilibrium
from powerflow.errors import InvalidInitialError, StructureMismatchError
from powerflow.netcore import _condensation
from powerflow.spectral import CentralityProfile, dominant_left_eigenvector

import nets
from nets import run_cli

TWO_NODE = [[0.0, 1.0], [1.0, 0.0]]
# a transient node 1 ahead of the three-node network of nets.THREE_NODE
REACHABLE_INTERIOR = [
    [0.0, 0.25, 0.25, 0.5],
    [0.0, 0.0, 0.5, 0.5],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.5, 0.5, 0.0],
]
# the swap {2, 3} with two nodes outside it: 1 asks 2 and 3, 4 asks 1
REACHABLE_PAIR_TWO_OUTSIDE = [
    [0.0, 0.5, 0.5, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
]

# the three-node equilibrium is (15, 5, 3) / 23, with x_i (1 - x_i) / c_i = 270/529
INTERIOR_LINES = [
    f"alpha: {format(270 / 529, '.12g')}",
    "RESIDUAL",
    "ordering check: PASS",
]


@dataclasses.dataclass
class Regime:
    name: str
    matrix: object
    kind: str
    center: object
    support: object
    # the stdout of `powerflow equilibrium`; RESIDUAL stands for the line
    # rendering fixed_point_residual of the predicted point, X_STAR and ALPHA
    # for the lines rendering that point and its alpha
    lines: list
    # the stdout of `powerflow classify`
    classify: list


REGIMES = [
    Regime(
        "irreducible-pair", TWO_NODE, "two_node_family", None, (1, 2),
        ["regime: irreducible-pair",
         "interior equilibria: every interior point (two-node network)"],
        classify=["nodes: 2", "structure: irreducible",
                  "note: two-node network, every interior point is fixed",
                  "centrality: [0.5, 0.5]"],
    ),
    Regime(
        "irreducible-star", nets.STAR3, "star_autocrat", 1, None,
        ["regime: irreducible-star(center=1)",
         "autocrat at node 1; interior equilibria: none"],
        classify=["nodes: 3", "structure: irreducible", "star center: 1",
                  "centrality: [0.5, 0.25, 0.25]"],
    ),
    Regime(
        "irreducible-interior", nets.THREE_NODE, "unique_interior", None, (1, 2, 3),
        ["regime: irreducible",
         "interior equilibrium: [0.652173913043, 0.217391304348, 0.130434782609]",
         *INTERIOR_LINES],
        classify=["nodes: 3", "structure: irreducible",
                  "centrality: [0.444444444444, 0.333333333333, 0.222222222222]"],
    ),
    # leaves give 1 - 1e-10 to node 1: no star, so the interior point.  Its
    # small powers move by some 1e-6 relative per ulp of c_top, so they are
    # rendered from the library rather than pinned
    Regime(
        "irreducible-near-star", nets.near_star(5, 1e-10), "unique_interior", None, (1, 2, 3, 4, 5),
        ["regime: irreducible", "X_STAR", "ALPHA", "RESIDUAL", "ordering check: PASS"],
        classify=["nodes: 5", "structure: irreducible",
                  "centrality: [0.499999999975" + ", 0.125000000006" * 4 + "]"],
    ),
    Regime(
        "reachable-pair", nets.REACHABLE_PAIR, "two_node_family", None, (1, 2),
        ["regime: reachable-pair",
         "equilibrium family: (alpha, 1-alpha) on nodes 1, 2, zero elsewhere; "
         "alpha depends on the trajectory"],
        classify=["nodes: 3", "structure: reducible, globally reachable set of size 2",
                  "reachable set: {1, 2}", "outside reachable set: {3}",
                  "centrality: [0.5, 0.5, 0]"],
    ),
    Regime(
        "reachable-pair-two-outside", REACHABLE_PAIR_TWO_OUTSIDE, "two_node_family", None, (2, 3),
        ["regime: reachable-pair",
         "equilibrium family: (alpha, 1-alpha) on nodes 2, 3, zero elsewhere; "
         "alpha depends on the trajectory"],
        classify=["nodes: 4", "structure: reducible, globally reachable set of size 2",
                  "reachable set: {2, 3}", "outside reachable set: {1, 4}",
                  "centrality: [0, 0.5, 0.5, 0]"],
    ),
    Regime(
        "reachable-star", nets.reducible_star_ten().entries, "star_autocrat", 1, None,
        ["regime: reachable-star(center=1)",
         "autocrat at node 1; interior equilibria: none"],
        classify=["nodes: 10", "structure: reducible, globally reachable set of size 9",
                  "reachable set: {1, 2, 3, 4, 5, 6, 7, 8, 9}",
                  "outside reachable set: {10}",
                  "star center of reachable subgraph: 1",
                  "centrality: [0.5" + ", 0.0625" * 8 + ", 0]"],
    ),
    Regime(
        "reachable-interior", REACHABLE_INTERIOR, "unique_interior", None, (2, 3, 4),
        ["regime: reachable(r=3)",
         "interior equilibrium: [0, 0.652173913043, 0.217391304348, 0.130434782609]",
         *INTERIOR_LINES],
        classify=["nodes: 4", "structure: reducible, globally reachable set of size 3",
                  "reachable set: {2, 3, 4}", "outside reachable set: {1}",
                  "centrality: [0, 0.444444444444, 0.333333333333, 0.222222222222]"],
    ),
    Regime(
        "multi-sink", nets.two_sink_six().entries, "multi_sink_family", None, (1, 2, 3, 4, 5),
        ["regime: multi-sink(K=2)",
         "equilibrium family: one equilibrium per split of power among the 2 "
         "sinks; pass --zeta to assemble one",
         "sink 1 centrality: [0.5, 0.5]",
         "sink 2 centrality: [0.444444444444, 0.333333333333, 0.222222222222]"],
        classify=["nodes: 6", "structure: multi-sink, K=2 sinks",
                  "sink 1: {1, 2} (size 2)", "sink 2: {3, 4, 5} (size 3)",
                  "non-sink nodes: {6} (m=1)", "sink 1 centrality: [0.5, 0.5]",
                  "sink 2 centrality: [0.444444444444, 0.333333333333, 0.222222222222]"],
    ),
    Regime(
        "multi-sink-pairs", nets.two_pair_five().entries, "multi_sink_family", None, (1, 2, 3, 4),
        ["regime: multi-sink(K=2)",
         "equilibrium family: one equilibrium per split of power among the 2 "
         "sinks; pass --zeta to assemble one",
         "sink 1 centrality: [0.5, 0.5]", "sink 2 centrality: [0.5, 0.5]"],
        classify=["nodes: 5", "structure: multi-sink, K=2 sinks",
                  "sink 1: {1, 2} (size 2)", "sink 2: {3, 4} (size 2)",
                  "non-sink nodes: {5} (m=1)",
                  "sink 1 centrality: [0.5, 0.5]", "sink 2 centrality: [0.5, 0.5]"],
    ),
]

IDS = [r.name for r in REGIMES]


def reference_x_star(C, structure, profile):
    """The interior point as the per-variant branches used to build it."""
    if isinstance(structure, pf.Irreducible):
        return solve_interior_equilibrium(profile.global_c, 1.0)
    idx = np.asarray(structure.reachable, dtype=int) - 1
    x_star = np.zeros(structure.n)
    x_star[idx] = solve_interior_equilibrium(profile.per_sink[0], 1.0)
    return x_star


def equilibrium_stdout(capsys, path, *flags):
    code, out, err = run_cli(capsys, "equilibrium", "--network", str(path), *flags)
    assert code == 0
    assert err == ""
    return out.splitlines()


@pytest.mark.parametrize("regime", REGIMES, ids=IDS)
def test_predict_limit_fields(regime):
    C = pf.validate_matrix(regime.matrix)
    structure = pf.classify(C)
    profile = pf.centrality_profile(C, structure)
    prediction = pf.predict_limit(C, structure, profile, np.full(C.n, 1.0 / C.n))
    assert prediction.kind == regime.kind
    # the centre and the family support are read from the structure
    assert structure.centers[0] == regime.center
    if regime.kind == "unique_interior":
        expected = reference_x_star(C, structure, profile)
        assert prediction.x_star.tobytes() == expected.tobytes()
        assert tuple((np.flatnonzero(prediction.x_star) + 1).tolist()) == regime.support
    elif regime.kind == "star_autocrat":
        assert np.flatnonzero(prediction.x_star).tolist() == [regime.center - 1]
    else:
        assert prediction.x_star is None
        assert tuple(v for nodes in structure.sinks for v in nodes) == regime.support


@pytest.mark.parametrize("regime", REGIMES, ids=IDS)
def test_prediction_ignores_the_interior_start(regime):
    C = pf.validate_matrix(regime.matrix)
    structure = pf.classify(C)
    profile = pf.centrality_profile(C, structure)
    uniform = pf.predict_limit(C, structure, profile, np.full(C.n, 1.0 / C.n))
    other = pf.predict_limit(
        C, structure, profile, nets.random_interior(np.random.default_rng(3), C.n)
    )
    assert other.kind == uniform.kind
    if uniform.x_star is not None:
        assert other.x_star.tobytes() == uniform.x_star.tobytes()


@pytest.mark.parametrize("start", ["uniform", "vertex:n"])
@pytest.mark.parametrize("regime", REGIMES, ids=IDS)
def test_prediction_point_is_a_fixed_simplex_point(regime, start):
    C = pf.validate_matrix(regime.matrix)
    structure = pf.classify(C)
    profile = pf.centrality_profile(C, structure)
    x0 = np.full(C.n, 1.0 / C.n)
    if start == "vertex:n":
        x0 = np.zeros(C.n)
        x0[-1] = 1.0
    prediction = pf.predict_limit(C, structure, profile, x0)
    assert [f.name for f in dataclasses.fields(prediction)] == ["kind", "x_star"]
    pointwise = ("vertex", "star_autocrat", "unique_interior")
    assert (prediction.x_star is not None) == (prediction.kind in pointwise)
    if prediction.x_star is None:
        return
    x = prediction.x_star
    assert x.shape == (C.n,)
    assert np.all(x >= 0.0) and abs(float(x.sum()) - 1.0) <= 1e-12
    assert fixed_point_residual(C, x) <= 10 * EPS_EQUILIBRIUM
    if prediction.kind != "unique_interior":
        # a vertex, the start's or the star centre's, bit for bit
        v = C.n if prediction.kind == "vertex" else structure.centers[0]
        vertex = np.zeros(C.n)
        vertex[v - 1] = 1.0
        assert x.tobytes() == vertex.tobytes()


@pytest.mark.parametrize("regime", REGIMES, ids=IDS)
def test_equilibrium_command_stdout(regime, capsys, tmp_path):
    C = pf.validate_matrix(regime.matrix)
    path = tmp_path / "net.txt"
    pf.write_matrix(C, path)
    expected = [regime.lines[0], "fixed points: every autocratic vertex e_i", *regime.lines[1:]]
    if "RESIDUAL" in expected:
        structure = pf.classify(C)
        profile = pf.centrality_profile(C, structure)
        x_star = reference_x_star(C, structure, profile)
        check = pf.check_interior(C, x_star, structure.sink_index[0], profile.per_sink[0])
        rendered = {
            "X_STAR": "interior equilibrium: ["
            + ", ".join(format(v, ".12g") for v in x_star) + "]",
            "ALPHA": f"alpha: {format(check.alpha, '.12g')}",
            "RESIDUAL": f"residual: {format(check.residual, '.12g')}",
        }
        expected = [rendered.get(line, line) for line in expected]
    assert equilibrium_stdout(capsys, path) == expected


@pytest.mark.parametrize("regime", REGIMES, ids=IDS)
def test_classify_command_stdout(regime, capsys, tmp_path):
    path = tmp_path / "net.txt"
    pf.write_matrix(pf.validate_matrix(regime.matrix), path)
    code, out, err = run_cli(capsys, "classify", "--network", str(path))
    assert code == 0
    assert err == ""
    assert out.splitlines() == regime.classify


def multi_sink_file(tmp_path):
    path = tmp_path / "two_sink_six.txt"
    pf.write_matrix(nets.two_sink_six(), path)
    return path


def test_equilibrium_zeta_all_power_on_two_node_sink(capsys, tmp_path):
    lines = equilibrium_stdout(capsys, multi_sink_file(tmp_path), "--zeta", "1,0")
    assert lines == [
        "regime: multi-sink(K=2)",
        "fixed points: every autocratic vertex e_i",
        "equilibrium family: sink 1 holds all power: its equilibria are the "
        "family (a, 1-a); pass alpha to pick one",
    ]


def test_equilibrium_zeta_assembles_a_member(capsys, tmp_path):
    lines = equilibrium_stdout(capsys, multi_sink_file(tmp_path), "--zeta", "0.5,0.5")
    C = nets.two_sink_six()
    structure = pf.classify(C)
    x_star = pf.assemble_multisink_equilibrium(
        structure, pf.centrality_profile(C, structure), [0.5, 0.5]
    )
    residual = format(fixed_point_residual(C, x_star), ".12g")
    assert lines == [
        "regime: multi-sink(K=2)",
        "fixed points: every autocratic vertex e_i",
        "sink power: [0.5, 0.5]",
        "assembled equilibrium: [0.25, 0.25, 0.23735386779, 0.162009995601, "
        "0.100636136609, 0]",
        f"residual: {residual}",
    ]


@pytest.mark.parametrize(
    "zeta, tail",
    [
        ("0.5,0.5", ["sink power: [0.5, 0.5]",
                     "assembled equilibrium: [0.25, 0.25, 0.25, 0.25, 0]",
                     "residual: 0"]),
        ("1,0", ["equilibrium family: sink 1 holds all power: its equilibria are "
                 "the family (a, 1-a); pass alpha to pick one"]),
    ],
    ids=["even-split", "all-power-on-sink-1"],
)
def test_equilibrium_zeta_on_two_pair_sinks(capsys, tmp_path, zeta, tail):
    path = tmp_path / "two_pair.txt"
    path.write_text(nets.TWO_PAIR_ADJACENCY)
    lines = equilibrium_stdout(capsys, path, "--zeta", zeta)
    assert lines == ["regime: multi-sink(K=2)", "fixed points: every autocratic vertex e_i", *tail]


def test_equilibrium_zeta_all_power_on_a_star_sink(capsys, tmp_path):
    # sink 1 is a star centred on node 1: its vertex is the equilibrium
    path = tmp_path / "star_sink.txt"
    path.write_text(nets.STAR_SINK_ADJACENCY)
    lines = equilibrium_stdout(capsys, path, "--zeta", "1,0")
    assert lines == [
        "regime: multi-sink(K=2)",
        "fixed points: every autocratic vertex e_i",
        "sink power: [1, 0]",
        "assembled equilibrium: [1, 0, 0, 0, 0, 0, 0]",
        "residual: 0",
    ]


# --------------------------------------------------------------- sink_index


def structures():
    matrices = (TWO_NODE, nets.THREE_NODE, REACHABLE_INTERIOR, nets.REACHABLE_PAIR, nets.STAR3)
    return [pf.classify(pf.validate_matrix(m)) for m in matrices] + [
        pf.classify(C)
        for C in (nets.two_sink_six(), nets.transient_cycle_six(), nets.reducible_star_ten())
    ]


@pytest.mark.parametrize("structure", structures(), ids=lambda s: pf.regime_name(s))
def test_sink_index_is_the_closed_classes(structure):
    if isinstance(structure, pf.Irreducible):
        classes = [tuple(range(1, structure.n + 1))]
    elif isinstance(structure, pf.ReducibleReachable):
        classes = [structure.reachable]
    else:
        classes = list(structure.sinks)
    assert [tuple((idx + 1).tolist()) for idx in structure.sink_index] == classes
    for idx in structure.sink_index:
        assert idx.dtype.kind == "i"
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0


@pytest.mark.parametrize("structure", structures(), ids=lambda s: pf.regime_name(s))
def test_sink_index_outside_equality_and_repr(structure):
    twin = dataclasses.replace(structure)
    assert twin.sink_index is not structure.sink_index
    assert twin == structure
    assert hash(twin) == hash(structure)
    assert "sink_index" not in repr(structure)
    field = {f.name: f for f in dataclasses.fields(structure)}["sink_index"]
    assert not field.init and not field.compare and not field.repr


def test_sink_index_matches_the_condensation_sinks():
    rng = np.random.default_rng(11)
    for _ in range(40):
        C = nets.random_binary_pattern(rng, int(rng.integers(2, 12)))
        components, closed = _condensation(C.entries)
        sinks = sorted(components[k] for k in closed)
        structure = pf.classify(C)
        assert sorted(tuple((idx + 1).tolist()) for idx in structure.sink_index) == sinks
        # the class is the one the record implies
        whole = len(sinks) == 1 and len(sinks[0]) == C.n
        assert isinstance(structure, pf.Irreducible) == whole
        assert isinstance(structure, pf.ReducibleReachable) == (len(sinks) == 1 and not whole)
        assert isinstance(structure, pf.MultiSink) == (len(sinks) >= 2)


UNIFORM4 = np.full(4, 0.25)
MISMATCHED_CALLS = {
    "centrality_profile": lambda C, other: pf.centrality_profile(C, other),
    "simulate-st": lambda C, other: pf.simulate("st", C, UNIFORM4, structure=other),
    "simulate-df": lambda C, other: pf.simulate("df", C, UNIFORM4, structure=other),
    "predict_limit": lambda C, other: pf.predict_limit(
        C, other, pf.centrality_profile(C, pf.classify(C)), UNIFORM4
    ),
    "sink_power": lambda C, other: pf.sink_power(other, UNIFORM4),
    "assemble_multisink_equilibrium": lambda C, other: pf.assemble_multisink_equilibrium(
        other, pf.centrality_profile(C, pf.classify(C)), [0.5, 0.5]
    ),
}


@pytest.mark.parametrize("call", MISMATCHED_CALLS.values(), ids=MISMATCHED_CALLS.keys())
def test_structure_of_another_network_is_rejected(call):
    # a strongly connected 4-ring against the structure of a 5-node two-sink network
    with pytest.raises(StructureMismatchError, match=r"5-node .* 4-node"):
        call(pf.build_ring(4), pf.classify(nets.two_sink_five()))


def _predict_three_node(x0):
    C = nets.three_node()
    structure = pf.classify(C)
    return pf.predict_limit(C, structure, pf.centrality_profile(C, structure), x0)


def _two_sink_five_sink_power(x):
    return pf.sink_power(pf.classify(nets.two_sink_five()), x)


BAD_VECTOR_CALLS = {
    "sink_power-longer": (
        lambda: _two_sink_five_sink_power(np.full(7, 1 / 7)),
        StructureMismatchError, r"5-node .* 7-node",
    ),
    "sink_power-off-simplex": (
        lambda: _two_sink_five_sink_power([2.0, -1.0, 0.0, 0.0, 0.0]),
        InvalidInitialError, r"components must lie in \[0, 1\]",
    ),
    "predict_limit-longer": (
        lambda: _predict_three_node(np.full(5, 0.2)),
        InvalidInitialError, "initial vector has 5 components for a 3-node network",
    ),
    "predict_limit-shorter": (
        lambda: _predict_three_node(np.full(2, 0.5)),
        InvalidInitialError, "initial vector has 2 components for a 3-node network",
    ),
    "predict_limit-vertex": (
        lambda: _predict_three_node(np.eye(5)[4]),
        InvalidInitialError, "initial vector has 5 components for a 3-node network",
    ),
    "assemble-profile-of-another-network": (
        lambda: pf.assemble_multisink_equilibrium(
            pf.classify(nets.two_sink_five()),
            pf.centrality_profile(nets.two_sink_six(), pf.classify(nets.two_sink_six())),
            [0.5, 0.5],
        ),
        StructureMismatchError, r"sink sizes \(2, 2\), not the 6-node .* sizes \(2, 3\)",
    ),
}


@pytest.mark.parametrize(
    "call, error, message", BAD_VECTOR_CALLS.values(), ids=BAD_VECTOR_CALLS.keys()
)
def test_vector_or_profile_that_does_not_fit_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ------------------------------------------------------- centrality_profile


def reference_profile(C, structure):
    """centrality_profile as one branch per structure variant."""
    if isinstance(structure, pf.Irreducible):
        c = dominant_left_eigenvector(C.entries)
        return CentralityProfile(per_sink=(c,), lifted=(c,))
    if isinstance(structure, pf.ReducibleReachable):
        idx = np.asarray(structure.reachable, dtype=int) - 1
        c_sink = dominant_left_eigenvector(C.entries[np.ix_(idx, idx)])
        lifted = np.zeros(C.n)
        lifted[idx] = c_sink
        return CentralityProfile(per_sink=(c_sink,), lifted=(lifted,))
    per_sink, lifted = [], []
    for idx in structure.sink_index:
        c_k = dominant_left_eigenvector(C.entries[np.ix_(idx, idx)])
        vec = np.zeros(C.n)
        vec[idx] = c_k
        per_sink.append(c_k)
        lifted.append(vec)
    return CentralityProfile(per_sink=tuple(per_sink), lifted=tuple(lifted))


def profile_networks():
    rng = np.random.default_rng(5)
    fixed = [pf.validate_matrix(r.matrix) for r in REGIMES] + [
        nets.ring3(), nets.two_sink_five(), nets.transient_cycle_six(),
        nets.synthetic_krackhardt_matrix(), nets.synthetic_reduced_krackhardt(),
        pf.build_star(7), pf.build_doubly_stochastic_random(40, 2),
    ]
    drawn = [nets.random_binary_pattern(rng, int(rng.integers(2, 30))) for _ in range(60)]
    return fixed + drawn + [nets.random_valid(rng, 60)]


def test_centrality_profile_matches_the_per_variant_reference():
    kinds = set()
    for C in profile_networks():
        structure = pf.classify(C)
        kinds.add(type(structure).__name__)
        got = pf.centrality_profile(C, structure)
        want = reference_profile(C, structure)
        assert (got.global_c is None) == (want.global_c is None)
        if want.global_c is not None:
            assert got.global_c.tobytes() == want.global_c.tobytes()
            assert got.global_c is got.lifted[0]
        for name in ("per_sink", "lifted"):
            got_vecs, want_vecs = getattr(got, name), getattr(want, name)
            assert len(got_vecs) == len(want_vecs)
            for g, w in zip(got_vecs, want_vecs):
                assert g.tobytes() == w.tobytes()
                assert not g.flags.writeable
    assert kinds == {"Irreducible", "ReducibleReachable", "MultiSink"}
