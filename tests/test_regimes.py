"""One table of the seven structural regimes, checked through the library
(`classify`, `centrality_profile`, `predict_limit`) and the `equilibrium`
command, plus the closed classes every structure carries as `sink_index`."""

import dataclasses

import numpy as np
import pytest

import powerflow as pf
from powerflow.cli import main
from powerflow.equilibria import fixed_point_residual, solve_interior_equilibrium
from powerflow.spectral import CentralityProfile, dominant_left_eigenvector

import nets

TWO_NODE = [[0.0, 1.0], [1.0, 0.0]]
# a transient node 1 ahead of the three-node network of nets.THREE_NODE
REACHABLE_INTERIOR = [
    [0.0, 0.25, 0.25, 0.5],
    [0.0, 0.0, 0.5, 0.5],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.5, 0.5, 0.0],
]

IRREDUCIBLE_NOTE = (
    "strongly connected non-star: unique interior equilibrium, independent "
    "of the start"
)
REACHABLE_NOTE = "reachable set absorbs all power; unique equilibrium supported there"
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
    provenance: str
    center: object
    support: object
    # the stdout of `powerflow equilibrium`; RESIDUAL stands for the line
    # rendering fixed_point_residual of the predicted point
    lines: list


REGIMES = [
    Regime(
        "irreducible-pair", TWO_NODE, "two_node_family",
        "two-member group: every interior point is fixed", None, (1, 2),
        ["regime: irreducible-pair",
         "interior equilibria: every interior point (two-node network)"],
    ),
    Regime(
        "irreducible-star", nets.STAR3, "star_autocrat",
        "star pattern: power concentrates on the center", 1, None,
        ["regime: irreducible-star(center=1)",
         "autocrat at node 1; interior equilibria: none"],
    ),
    Regime(
        "irreducible-interior", nets.THREE_NODE, "unique_interior",
        IRREDUCIBLE_NOTE, None, (1, 2, 3),
        ["regime: irreducible",
         "interior equilibrium: [0.652173913043, 0.217391304348, 0.130434782609]",
         *INTERIOR_LINES],
    ),
    Regime(
        "reachable-pair", nets.REACHABLE_PAIR, "two_node_family",
        "two reachable nodes absorb all power; their split depends on the transient",
        None, (1, 2),
        ["regime: reachable-pair",
         "equilibrium family: (alpha, 1-alpha) on nodes 1, 2, zero elsewhere; "
         "alpha depends on the trajectory"],
    ),
    Regime(
        "reachable-star", nets.reducible_star_ten().entries, "star_autocrat",
        "star pattern on the reachable set: power concentrates on its center", 1, None,
        ["regime: reachable-star(center=1)",
         "autocrat at node 1; interior equilibria: none"],
    ),
    Regime(
        "reachable-interior", REACHABLE_INTERIOR, "unique_interior",
        REACHABLE_NOTE, None, (2, 3, 4),
        ["regime: reachable(r=3)",
         "interior equilibrium: [0, 0.652173913043, 0.217391304348, 0.130434782609]",
         *INTERIOR_LINES],
    ),
    Regime(
        "multi-sink", nets.two_sink_six().entries, "multi_sink_family",
        "multiple sinks: any split of power among the sinks can be an "
        "equilibrium; the realized split comes from simulation",
        None, (1, 2, 3, 4, 5),
        ["regime: multi-sink(K=2)",
         "equilibrium family: one equilibrium per split of power among the 2 "
         "sinks; pass --zeta to assemble one",
         "sink 1 centrality: [0.5, 0.5]",
         "sink 2 centrality: [0.444444444444, 0.333333333333, 0.222222222222]"],
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
    code = main(["equilibrium", "--network", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    return captured.out.splitlines()


@pytest.mark.parametrize("regime", REGIMES, ids=IDS)
def test_predict_limit_fields(regime):
    C = pf.validate_matrix(regime.matrix)
    structure = pf.classify(C)
    profile = pf.centrality_profile(C, structure)
    prediction = pf.predict_limit(C, structure, profile, np.full(C.n, 1.0 / C.n))
    assert prediction.kind == regime.kind
    assert prediction.provenance == regime.provenance
    assert prediction.center == regime.center
    assert prediction.support == regime.support
    assert prediction.vertex is None
    if regime.kind == "unique_interior":
        expected = reference_x_star(C, structure, profile)
        assert prediction.x_star.tobytes() == expected.tobytes()
    else:
        assert prediction.x_star is None


@pytest.mark.parametrize("regime", REGIMES, ids=IDS)
def test_prediction_ignores_the_interior_start(regime):
    C = pf.validate_matrix(regime.matrix)
    structure = pf.classify(C)
    profile = pf.centrality_profile(C, structure)
    uniform = pf.predict_limit(C, structure, profile, np.full(C.n, 1.0 / C.n))
    other = pf.predict_limit(
        C, structure, profile, nets.random_interior(np.random.default_rng(3), C.n)
    )
    assert other.kind == uniform.kind and other.support == uniform.support
    if uniform.x_star is not None:
        assert other.x_star.tobytes() == uniform.x_star.tobytes()


@pytest.mark.parametrize("regime", REGIMES, ids=IDS)
def test_equilibrium_command_stdout(regime, capsys, tmp_path):
    C = pf.validate_matrix(regime.matrix)
    path = tmp_path / "net.txt"
    pf.write_matrix(C, path)
    expected = [regime.lines[0], "fixed points: every autocratic vertex e_i", *regime.lines[1:]]
    if "RESIDUAL" in expected:
        structure = pf.classify(C)
        x_star = reference_x_star(C, structure, pf.centrality_profile(C, structure))
        residual = format(fixed_point_residual(C, x_star), ".12g")
        expected[expected.index("RESIDUAL")] = f"residual: {residual}"
    assert equilibrium_stdout(capsys, path) == expected


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


# --------------------------------------------------------------- sink_index


def structures():
    return [
        pf.classify(pf.validate_matrix(m))
        for m in (TWO_NODE, nets.THREE_NODE, REACHABLE_INTERIOR, nets.REACHABLE_PAIR)
    ] + [pf.classify(nets.two_sink_six()), pf.classify(nets.transient_cycle_six())]


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
        condensation = pf.strongly_connected_components(C)
        sinks = sorted(condensation.components[k] for k in condensation.sinks)
        index = pf.classify(C).sink_index
        assert sorted(tuple((idx + 1).tolist()) for idx in index) == sinks


# ------------------------------------------------------- centrality_profile


def reference_profile(C, structure):
    """centrality_profile as one branch per structure variant."""
    if isinstance(structure, pf.Irreducible):
        c = dominant_left_eigenvector(C.entries)
        return CentralityProfile(global_c=c, per_sink=(c,), lifted=(c,))
    if isinstance(structure, pf.ReducibleReachable):
        idx = np.asarray(structure.reachable, dtype=int) - 1
        c_sink = dominant_left_eigenvector(C.entries[np.ix_(idx, idx)])
        lifted = np.zeros(C.n)
        lifted[idx] = c_sink
        return CentralityProfile(global_c=lifted, per_sink=(c_sink,), lifted=(lifted,))
    per_sink, lifted = [], []
    for idx in structure.sink_index:
        c_k = dominant_left_eigenvector(C.entries[np.ix_(idx, idx)])
        vec = np.zeros(C.n)
        vec[idx] = c_k
        per_sink.append(c_k)
        lifted.append(vec)
    return CentralityProfile(global_c=None, per_sink=tuple(per_sink), lifted=tuple(lifted))


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
