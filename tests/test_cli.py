import dataclasses
from typing import ClassVar

import numpy as np

import powerflow as pf
import powerflow.dynamics
import powerflow.equilibria
from powerflow.equilibria import _ordering_consistent

import nets
from nets import run_cli


class TestClassifyCommand:
    def test_star_builder(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--builder", "star:10")
        assert code == 0
        assert "structure: irreducible" in out
        assert "star center: 1" in out
        assert "centrality" in out

    def test_two_sink_file(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.two_sink_five(), path)
        code, out, _ = run_cli(capsys, "classify", "--network", str(path))
        assert code == 0
        assert "K=2 sinks" in out
        assert "sink 1: {1, 2}" in out
        assert "sink 2: {3, 4}" in out
        assert "(m=1)" in out

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\noops 0\n")
        code, _, err = run_cli(capsys, "classify", "--network", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_nonzero(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "classify", "--network", str(tmp_path / "no.txt"))
        assert code != 0

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "classify")
        assert code == 2
        code, _, err = run_cli(
            capsys, "classify", "--builder", "star:4", "--network", "x"
        )
        assert code == 2


class TestCentralityCommand:
    def test_ring_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "centrality", "--builder", "ring:4")
        assert code == 0
        assert "0.25, 0.25, 0.25, 0.25" in out

    def test_multi_sink_per_sink(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.two_sink_five(), path)
        code, out, _ = run_cli(capsys, "centrality", "--network", str(path))
        assert code == 0
        assert "sink 1 centrality" in out
        assert "sink 2 centrality" in out


class TestSimulateCommand:
    def test_star_reaches_autocrat(self, capsys, tmp_path):
        out_file = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--builder", "star:10", "--x0", "uniform",
            "--model", "st", "--max-steps", "20000", "--out", str(out_file),
        )
        assert code == 0
        assert "status:" in out
        assert out_file.exists()
        last = [
            line for line in out_file.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("t,")
        ][-1]
        x1 = float(last.split(",")[1])
        assert x1 > 0.999

    def test_vertex_start_immediate(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--builder", "star:10", "--x0", "vertex:3", "--quiet"
        )
        assert code == 0
        assert "vertex absorbed at node 3 (step 0)" in out

    def test_stdout_rows_unless_quiet(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--builder", "ring:3", "--x0", "list:0.2,0.3,0.5",
            "--max-steps", "3",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("0,")
        code, out_quiet, _ = run_cli(
            capsys, "simulate", "--builder", "ring:3", "--x0", "list:0.2,0.3,0.5",
            "--max-steps", "3", "--quiet",
        )
        assert code == 0
        assert not out_quiet.splitlines()[0].startswith("0,")

    def test_deterministic_random_x0(self, capsys):
        args = (
            "simulate", "--builder", "ds:5:7", "--x0", "random:99", "--quiet",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_bad_x0_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--builder", "ring:3", "--x0", "list:0.9,0.9,0.9"
        )
        assert code == 2

    def test_bad_builder_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--builder", "cube:3")
        assert code == 2


class TestEquilibriumCommand:
    def test_star_reports_autocrat(self, capsys):
        code, out, _ = run_cli(capsys, "equilibrium", "--builder", "star:10")
        assert code == 0
        assert "autocrat at node 1; interior equilibria: none" in out.splitlines()

    def test_interior_with_ordering_check(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.three_node(), path)
        code, out, _ = run_cli(capsys, "equilibrium", "--network", str(path))
        assert code == 0
        assert "interior equilibrium" in out
        assert "alpha:" in out
        assert "ordering check: PASS" in out

    def test_multi_sink_with_zeta(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.two_sink_five(), path)
        code, out, _ = run_cli(
            capsys, "equilibrium", "--network", str(path), "--zeta", "0.5,0.5"
        )
        assert code == 0
        assert "assembled equilibrium" in out
        assert "0.25, 0.25, 0.25, 0.25, 0" in out

    def test_star_sink_just_below_all_power(self, capsys, tmp_path):
        path = tmp_path / "star_sink.txt"
        path.write_text(nets.STAR_SINK_ADJACENCY)
        code, out, _ = run_cli(
            capsys, "equilibrium", "--network", str(path), "--zeta", "0.9999999999995,5e-13"
        )
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assembled = lines["assembled equilibrium"]
        assert not assembled.startswith("[0.999999999999, 0, 0, 0,")
        assert float(assembled[1:].split(",")[0]) < 1.0 - 1e-7
        assert float(lines["residual"]) < 1e-17

    def test_pair_sinks_just_below_all_power(self, capsys, tmp_path):
        path = tmp_path / "two_pair.txt"
        path.write_text(nets.TWO_PAIR_ADJACENCY)
        code, out, _ = run_cli(
            capsys, "equilibrium", "--network", str(path), "--zeta", "0.9999999999995,5e-13"
        )
        assert code == 0
        assert "equilibrium family" not in out
        assert "assembled equilibrium: [0.5, 0.5, 2.5e-13, 2.5e-13, 0]" in out.splitlines()

    def test_multi_sink_without_zeta_describes_family(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.two_sink_five(), path)
        code, out, _ = run_cli(capsys, "equilibrium", "--network", str(path))
        assert code == 0
        assert "equilibrium family" in out
        assert "--zeta" in out

    def test_reachable_pair_family(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.reachable_pair(), path)
        code, out, _ = run_cli(capsys, "equilibrium", "--network", str(path))
        assert code == 0
        assert "(alpha, 1-alpha)" in out


class TestCompareCommand:
    def test_irreducible_limits_agree(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.three_node(), path)
        code, out, _ = run_cli(
            capsys, "compare", "--network", str(path), "--x0", "list:0.2,0.3,0.5"
        )
        assert code == 0
        assert "limits agree" in out

    def test_reducible_star_vertex_disagrees(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.reducible_star_ten(), path)
        code, out, _ = run_cli(
            capsys, "compare", "--network", str(path), "--x0", "vertex:10",
            "--max-steps", "4000",
        )
        assert code == 0
        assert "limits differ" in out
        assert "e_10 vs e_1" in out

    def test_multi_sink_zeta_table_and_csv(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.two_sink_six(), path)
        base = tmp_path / "cmp"
        code, out, _ = run_cli(
            capsys, "compare", "--network", str(path), "--x0", "random:5",
            "--out", str(base),
        )
        assert code == 0
        assert "sink power st:" in out
        assert "sink power df:" in out
        assert (tmp_path / "cmp.st.csv").exists()
        assert (tmp_path / "cmp.df.csv").exists()


# stdout of `compare --network <two_sink_six> --x0 random:5 --record-every 3
# --out {base}`
COMPARE_TWO_SINK_SIX = """\
regime: multi-sink(K=2)
steps: st=17 df=21
status st: converged at step 17
status df: converged at step 21
limits differ (dist 0.0893): [0.293520234592, 0.293520234592, 0.19289306727, \
0.134984930314, 0.0850815332318, 0] vs [0.208333333333, 0.208333333333, \
0.2821706702, 0.186811218765, 0.114351444368, 0]
limit st: [0.293520234592, 0.293520234592, 0.19289306727, 0.134984930314, 0.0850815332318, 0]
limit df: [0.208333333333, 0.208333333333, 0.2821706702, 0.186811218765, 0.114351444368, 0]
sink power st: [0.587040469185, 0.412959530815]
sink power df: [0.416666666667, 0.583333333333]
wrote trajectories: {base}.st.csv {base}.df.csv
"""

# stdout of `compare --network <reducible_star_ten> --x0 vertex:10 --max-steps 4000`
COMPARE_REDUCIBLE_STAR = """\
regime: reachable-star(center=1)
steps: st=0 df=4000
status st: vertex absorbed at node 10 (step 0)
status df: max steps reached (4000)
limits differ (dist 1): e_10 vs e_1
limit st: [0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
limit df: [0.999714364542""" + ", 3.57044322168e-05" * 8 + """, 0]
"""


# stdout of `simulate --network <TWO_PAIR_ADJACENCY> --x0 random:7 --quiet`
# but its residual, which is rendered from the library's run
SIMULATE_TWO_PAIR = """\
status: converged at step 12
steps: 12
limit: [0.269767859396, 0.269767859396, 0.230232140604, 0.230232140604, 0]
residual: {residual}
sink power: [0.539535718792, 0.460464281208]
"""


class TestOutputBytes:
    """Byte-exact stdout of `compare` and of `simulate`'s rows on fixed
    inputs.  The 17-digit CSV bodies are checked against the library's own
    run instead of pinned, as the st kernel's BLAS product may round
    differently on another CPU."""

    def test_compare_multi_sink_with_out(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        C = nets.two_sink_six()
        pf.write_matrix(C, path)
        base = tmp_path / "P"
        code, out, err = run_cli(
            capsys, "compare", "--network", str(path), "--x0", "random:5",
            "--record-every", "3", "--out", str(base),
        )
        assert (code, err) == (0, "")
        assert out == COMPARE_TWO_SINK_SIX.format(base=base)
        x0 = np.random.default_rng(5).exponential(1.0, 6)
        report = pf.compare_models(C, x0 / x0.sum(), record_every=3)
        for model, trajectory, last in (
            ("st", report.trajectory_st, 17), ("df", report.trajectory_df, 21)
        ):
            pf.write_trajectory_csv(trajectory, tmp_path / "ref.csv")
            written = (tmp_path / f"P.{model}.csv").read_text()
            assert written == (tmp_path / "ref.csv").read_text()
            lines = written.splitlines()
            assert lines[0] == "t,x_1,x_2,x_3,x_4,x_5,x_6,zeta_1,zeta_2"
            steps = [*range(0, last, 3), last]
            assert [line.split(",")[0] for line in lines[1:-1]] == [str(t) for t in steps]
            assert lines[-1] == f"# status=converged at={last}"

    def test_compare_reducible_star(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        pf.write_matrix(nets.reducible_star_ten(), path)
        code, out, err = run_cli(
            capsys, "compare", "--network", str(path), "--x0", "vertex:10",
            "--max-steps", "4000",
        )
        assert (code, out, err) == (0, COMPARE_REDUCIBLE_STAR, "")

    def test_compare_reports_each_runs_status(self, capsys, tmp_path):
        # both runs cut at --max-steps: the limits are no limits, and say so
        path = tmp_path / "twosink.txt"
        path.write_text(nets.TWO_PAIR_ADJACENCY, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "compare", "--network", str(path), "--x0", "random:7",
            "--max-steps", "3",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1:4] == [
            "steps: st=3 df=3",
            "status st: max steps reached (3)",
            "status df: max steps reached (3)",
        ]

    def test_simulate_multi_sink_summary(self, capsys, tmp_path):
        path = tmp_path / "twosink.txt"
        path.write_text(nets.TWO_PAIR_ADJACENCY, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "simulate", "--network", str(path), "--x0", "random:7", "--quiet"
        )
        assert (code, err) == (0, "")
        C = nets.two_pair_five()
        x0 = np.random.default_rng(7).exponential(1.0, 5)
        limit = pf.simulate("st", C, x0 / x0.sum()).final_state
        residual = format(pf.fixed_point_residual(C, limit), ".12g")
        assert out == SIMULATE_TWO_PAIR.format(residual=residual)

    def test_simulate_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--builder", "ds:6:42", "--record-every", "2",
            "--max-steps", "300",
        )
        assert (code, err) == (0, "")
        # uniform is the fixed point of a doubly stochastic network
        assert out.splitlines()[:3] == [
            "0" + ",0.166666666667" * 6,
            "1" + ",0.166666666667" * 6,
            "status: converged at step 1",
        ]


@dataclasses.dataclass(frozen=True)
class _Stalled:
    """A status that the library does not have."""

    tag: ClassVar[str] = "stalled"
    text: ClassVar[str] = "stalled at step {at} (error {error})"
    at: int
    error: float


def test_a_new_status_needs_only_its_class(capsys, monkeypatch, tmp_path):
    # the CLI prints a status's text and the CSV its tag, whatever its class
    real = powerflow.dynamics.simulate

    def run(*args, **kwargs):
        trajectory = real(*args, **kwargs)
        return dataclasses.replace(trajectory, status=_Stalled(trajectory.total_steps, 0.5))

    monkeypatch.setattr(powerflow.dynamics, "simulate", run)
    monkeypatch.setattr(powerflow.equilibria, "simulate", run)
    path = tmp_path / "traj.csv"
    code, out, err = run_cli(
        capsys, "simulate", "--builder", "star:5", "--max-steps", "5", "--out", str(path)
    )
    assert (code, err) == (0, "")
    assert "status: stalled at step 5 (error 0.5)" in out.splitlines()
    assert path.read_text().splitlines()[-1] == "# status=stalled at=5 error=0.5"
    code, out, err = run_cli(capsys, "compare", "--builder", "star:5", "--max-steps", "5")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:4] == [
        "status st: stalled at step 5 (error 0.5)",
        "status df: stalled at step 5 (error 0.5)",
    ]


def test_log_env_variable_accepted(capsys, monkeypatch):
    monkeypatch.setenv("POWERFLOW_LOG", "debug")
    code, out, _ = run_cli(capsys, "classify", "--builder", "ring:3")
    assert code == 0
    monkeypatch.setenv("POWERFLOW_LOG", "nonsense")
    code, _, err = run_cli(capsys, "classify", "--builder", "ring:3")
    assert code == 0
    assert "POWERFLOW_LOG" in err


def _ordering_reference(x_star, c, eps_tie=pf.EPS_TIE):
    for i in range(len(c)):
        for j in range(len(c)):
            if c[i] > c[j] + eps_tie and x_star[i] <= x_star[j]:
                return False
            if abs(c[i] - c[j]) < eps_tie and abs(x_star[i] - x_star[j]) > 10 * eps_tie:
                return False
    return True


class TestOrderingCheck:
    def test_pass_on_solved_equilibria(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            c = nets.random_interior(rng, int(rng.integers(3, 12)))
            c = 0.4 * c + 0.6 / c.size  # keep every score below 1/2
            x = pf.solve_interior_equilibrium(c, 1.0)
            assert _ordering_consistent(x, c) is True
            assert _ordering_reference(x, c) is True

    def test_fail_on_inverted_pair(self):
        c = np.array([0.5, 0.3, 0.2])
        x = np.array([0.3, 0.5, 0.2])
        assert _ordering_consistent(x, c) is False
        assert _ordering_reference(x, c) is False

    def test_tied_scores(self):
        c = np.array([0.25, 0.25, 0.25 + 1e-10, 0.25 - 1e-10])
        even = np.full(4, 0.25)
        split = np.array([0.25, 0.25 + 1e-7, 0.25 - 1e-7, 0.25])
        near = np.array([0.25, 0.25 + 5e-9, 0.25 - 5e-9, 0.25])
        for x in (even, split, near):
            assert _ordering_consistent(x, c) == _ordering_reference(x, c)
        assert _ordering_consistent(even, c) is True
        assert _ordering_consistent(split, c) is False

    def test_matches_reference_on_random_inputs(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            # coarse grids make exact ties, near ties and inversions common
            c = rng.integers(0, 4, n) * 1e-9 + 0.1
            x = rng.integers(0, 4, n) * 4e-9 + 0.1
            if rng.random() < 0.5:
                x = c + rng.integers(-1, 2, n) * 1e-9
            assert _ordering_consistent(x, c) == _ordering_reference(x, c)

    def test_matches_reference_at_n_1000_with_ties(self):
        # n = 1000 spans several row blocks of the check; the reference
        # runs on Python floats, which round exactly as float64 does
        rng = np.random.default_rng(33)
        n = 1000
        outcomes = []
        for case in range(6):
            levels = np.sort(rng.random(60))
            c = levels[rng.integers(0, levels.size, n)]
            c[rng.random(n) < 0.2] += 4e-10  # near ties inside eps_tie
            x = 0.5 * c + rng.integers(-1, 2, n) * 3e-9  # tied powers within 10 eps
            if case % 2:
                i, j = rng.choice(n, 2, replace=False)
                if case % 4 == 1:
                    x[i], x[j] = x[j], x[i]  # an inversion, or a split tie
                else:
                    x[int(np.argmax(c == c[i]))] += 1e-7  # a split tie
            expected = _ordering_reference(x.tolist(), c.tolist())
            assert _ordering_consistent(x, c) == expected
            outcomes.append(expected)
        assert True in outcomes and False in outcomes
