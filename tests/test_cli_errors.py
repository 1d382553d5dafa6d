"""Bad --x0, --builder, --zeta, --max-steps, --record-every and --tol values,
unreadable network files and malformed networks end as input errors (exit 2, a
one-line message on stderr, nothing on stdout), an --out that cannot be
written as a runtime error found before the run (exit 1, nothing on stdout),
and a failed solve as a runtime error with nothing on stdout.  A reader that
closes stdout early ends the command with exit 0 and nothing on stderr.

Each case runs cli.main in-process through nets.run_cli, so an exception
that escapes main, which would print a traceback, fails the test.  The
`python -m powerflow.cli` entry point is run in a fresh interpreter in
tests/test_lazy_imports.py."""

import io
import os
import sys

import pytest

import powerflow as pf
import powerflow.dynamics
import powerflow.equilibria
from powerflow.errors import NoConvergenceError

import nets
from nets import run_cli


@pytest.fixture
def two_sink_file(tmp_path):
    path = tmp_path / "two_sink.txt"
    pf.write_matrix(nets.two_sink_five(), path)
    return str(path)


@pytest.mark.parametrize(
    "zeta, message",
    [
        ("a,b", "could not convert string to float: 'a'"),
        ("0.5", "expected 2 sink totals, got 1"),
        ("0.7,0.7", "sink totals must lie in [0, 1] and sum to 1"),
        ("nan,1", "sink totals must lie in [0, 1] and sum to 1"),
    ],
    ids=["unparsable", "wrong-count", "bad-sum", "nan"],
)
def test_bad_zeta_exits_2(two_sink_file, zeta, message, capsys):
    code, out, err = run_cli(capsys, "equilibrium", "--network", two_sink_file, "--zeta", zeta)
    assert code == 2
    assert out == ""
    assert err == f"error: bad zeta spec {zeta!r}: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_negative_max_steps_exits_2(command, capsys):
    code, out, err = run_cli(capsys, command, "--builder", "star:5", "--max-steps", "-1")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"powerflow {command}: error: argument --max-steps: must be non-negative, got -1"
    )


def test_non_integer_max_steps_keeps_the_int_message(capsys):
    code, _, err = run_cli(capsys, "simulate", "--builder", "star:5", "--max-steps", "1.5")
    assert code == 2
    assert err.splitlines()[-1] == (
        "powerflow simulate: error: argument --max-steps: invalid int value: '1.5'"
    )


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_zero_max_steps_stays_valid(command, capsys):
    code, out, _ = run_cli(capsys, command, "--builder", "star:5", "--max-steps", "0")
    assert code == 0
    expected = "steps: 0" if command == "simulate" else "steps: st=0 df=0"
    assert expected in out.splitlines()


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_record_every_below_one_exits_2(command, value, capsys):
    code, out, err = run_cli(
        capsys, command, "--builder", "star:5", "--record-every", value, "--max-steps", "10"
    )
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"powerflow {command}: error: argument --record-every: must be positive, got {value}"
    )


def test_non_integer_record_every_keeps_the_int_message(capsys):
    code, _, err = run_cli(capsys, "compare", "--builder", "star:5", "--record-every", "2.5")
    assert code == 2
    assert err.splitlines()[-1] == (
        "powerflow compare: error: argument --record-every: invalid int value: '2.5'"
    )


@pytest.mark.parametrize(
    "make",
    [lambda: pf.build_star(3), nets.ring3, nets.three_node, nets.reachable_pair],
    ids=["star", "ring", "irreducible", "reachable"],
)
def test_zeta_on_a_single_sink_network_exits_2(tmp_path, make, capsys):
    path = tmp_path / "single_sink.txt"
    pf.write_matrix(make(), path)
    code, out, err = run_cli(capsys, "equilibrium", "--network", str(path), "--zeta", "1")
    assert code == 2
    assert out == ""
    assert err == (
        "error: --zeta applies only to multi-sink networks; this network has one sink\n"
    )


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_bad_step_tolerance_exits_2(command, value, capsys):
    code, out, err = run_cli(capsys, command, "--builder", "ds:6:42", "--tol", value)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"powerflow {command}: error: argument --tol: must be finite and non-negative, got {value}"
    )


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_residual_tolerance_exits_2(value, capsys):
    code, out, err = run_cli(capsys, "equilibrium", "--builder", "ds:6:42", "--tol", value)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"powerflow equilibrium: error: argument --tol: must be finite and positive, got {value}"
    )


@pytest.mark.parametrize("command", ["simulate", "compare", "equilibrium"])
def test_unparsable_tolerance_keeps_the_float_message(command, capsys):
    code, _, err = run_cli(capsys, command, "--builder", "star:5", "--tol", "abc")
    assert code == 2
    assert err.splitlines()[-1] == (
        f"powerflow {command}: error: argument --tol: invalid float value: 'abc'"
    )


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_zero_step_tolerance_runs_to_max_steps(command, capsys):
    code, out, _ = run_cli(
        capsys, command, "--builder", "ds:6:42", "--tol", "0", "--max-steps", "40"
    )
    assert code == 0
    out = out.splitlines()
    if command == "simulate":
        assert "status: max steps reached (40)" in out
    else:
        assert "steps: st=40 df=40" in out


@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-nan"])
@pytest.mark.parametrize("spelling", ["separate", "joined"])
@pytest.mark.parametrize(
    "command, rule",
    [("simulate", "non-negative"), ("compare", "non-negative"), ("equilibrium", "positive")],
)
def test_tolerance_with_minus_and_exponent_reaches_the_range_message(
    command, rule, spelling, value, capsys
):
    # argparse's own pattern reads "-1e-3" or "-inf" as an option, not as the value of --tol
    tol = ["--tol", value] if spelling == "separate" else [f"--tol={value}"]
    code, _, err = run_cli(capsys, command, "--builder", "ds:6:42", *tol)
    assert code == 2
    assert err.splitlines()[-1] == (
        f"powerflow {command}: error: argument --tol: must be finite and {rule}, got {value}"
    )


def test_zeta_tolerance_on_a_star_sink(tmp_path, capsys):
    # a total above 1 fails the split's own range check; one just below
    # 1 beside a tiny total is a valid split
    path = tmp_path / "star_sink.txt"
    path.write_text(nets.STAR_SINK_ADJACENCY)
    code, out, err = run_cli(
        capsys, "equilibrium", "--network", str(path), "--zeta", "1.0000000001,0"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: bad zeta spec '1.0000000001,0': sink totals must lie in [0, 1] and sum to 1\n"
    )
    code, out, _ = run_cli(
        capsys, "equilibrium", "--network", str(path), "--zeta", "0.9999999999,1e-10"
    )
    assert code == 0
    assert "sink power: [0.9999999999, 1e-10]" in out.splitlines()


@pytest.mark.parametrize("spelling", ["separate", "joined"])
@pytest.mark.parametrize("zeta", ["-1e-3,1", "-.5,1.5"])
def test_zeta_with_minus_reaches_the_range_message(two_sink_file, zeta, spelling, capsys):
    option = ["--zeta", zeta] if spelling == "separate" else [f"--zeta={zeta}"]
    code, _, err = run_cli(capsys, "equilibrium", "--network", two_sink_file, *option)
    assert code == 2
    assert err == (
        f"error: bad zeta spec {zeta!r}: sink totals must lie in [0, 1] and sum to 1\n"
    )


@pytest.mark.parametrize("command", ["classify", "equilibrium", "simulate"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_network_file_exits_2(tmp_path, command, kind, capsys):
    if kind == "missing":
        path, message = tmp_path / "no.txt", "error: cannot read network file: [Errno 2] "
    elif kind == "directory":
        path, message = tmp_path, "error: cannot read network file: [Errno 21] "
    else:
        path, message = tmp_path / "bom.txt", "error: line 1: not UTF-8 text"
        path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, command, "--network", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(message)


@pytest.mark.parametrize("command", ["classify", "equilibrium", "simulate"])
def test_empty_dense_field_exits_2(tmp_path, command, capsys):
    path = tmp_path / "empty-field.txt"
    path.write_text("0,,1\n1,0\n")
    code, out, err = run_cli(capsys, command, "--network", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 1: empty field: every comma must stand between two values\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "simulate --builder ring:3 --x0 vertex:9",
            "bad x0 spec 'vertex:9': vertex index 9 outside 1..3",
        ),
        (
            "simulate --builder ring:3 --x0 vertex:x",
            "bad x0 spec 'vertex:x': invalid literal for int() with base 10: 'x'",
        ),
        (
            "simulate --builder ring:3 --x0 bogus",
            "bad x0 spec 'bogus'; expected uniform, vertex:I, random:SEED or list:a,b,...",
        ),
        (
            "simulate --builder ring:3 --x0 list:a,b",
            "bad x0 spec 'list:a,b': could not convert string to float: 'a'",
        ),
        (
            "classify --builder star:2",
            "bad builder spec 'star:2': a star needs at least 3 nodes, got 2",
        ),
        (
            "classify --builder star:x",
            "bad builder spec 'star:x': invalid literal for int() with base 10: 'x'",
        ),
        ("classify --builder ds:2:1", "bad builder spec 'ds:2:1': need at least 3 nodes, got 2"),
    ],
    ids=[
        "x0-vertex-outside", "x0-vertex-not-a-number", "x0-unknown-kind", "x0-list-not-numbers",
        "builder-star-too-small", "builder-star-not-a-number", "builder-ds-too-small",
    ],
)
def test_bad_x0_or_builder_spec_exits_2(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "1: 1\n2: 1\n",
            "node 1 lists nobody to take advice from; its row would be all zero "
            "and could not be made row-stochastic",
        ),
        ("0 1\n0.5 0\n", "row of node 2 sums to 0.5, expected 1"),
        ("0 1 0\n1 0 0\n", "matrix must be square, got shape (2, 3)"),
        ("1: 2\n2 1\n", "line 2: expected 'node: advisor advisor ...'"),
        ("1: 2\nx: 1\n", "line 2: not a node id: 'x'"),
        ("1: 2\n0: 1\n", "line 2: node ids are 1-based, got 0"),
        ("1: a\n", "line 1: advisor ids must be integers"),
        ("1: 0\n", "line 1: node ids are 1-based"),
        ("0 inf\n1 0\n", "entries must be finite numbers"),
        ("0 nan\n1 0\n", "entries must be finite numbers"),
    ],
    ids=[
        "empty-advice", "row-sum", "non-square", "adjacency-line-without-colon",
        "adjacency-node-not-a-number", "adjacency-node-0", "adjacency-advisor-not-a-number",
        "adjacency-advisor-0", "dense-inf", "dense-nan",
    ],
)
def test_malformed_network_exits_2(tmp_path, text, message, capsys):
    path = tmp_path / "malformed.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "classify", "--network", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_failed_out_write_exits_1(tmp_path, command, capsys):
    # the files are written before the first line of output, so none is printed
    prefix = tmp_path / "no-such-dir" / "traj"
    code, out, err = run_cli(
        capsys, command, "--builder", "star:5", "--max-steps", "5", "--out", str(prefix)
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: [Errno 2] No such file or directory: '{prefix}")


def _stub_runs(monkeypatch, run):
    monkeypatch.setattr(powerflow.dynamics, "simulate", run)
    monkeypatch.setattr(powerflow.equilibria, "compare_models", run)


def _run_never_starts(*args, **kwargs):
    raise AssertionError("the run started")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_unwritable_out_fails_before_the_run(tmp_path, command, capsys, monkeypatch):
    _stub_runs(monkeypatch, _run_never_starts)
    prefix = tmp_path / "no-such-dir" / "traj"
    code, out, err = run_cli(capsys, command, "--builder", "star:5", "--out", str(prefix))
    assert (code, out) == (1, "")
    first = f"{prefix}.st.csv" if command == "compare" else str(prefix)
    assert err == f"error: [Errno 2] No such file or directory: '{first}'\n"


@pytest.mark.parametrize(
    "command, kept, created",
    [("simulate", [], ["traj"]), ("compare", ["traj.st.csv"], ["traj.df.csv"])],
)
def test_failed_run_removes_the_out_files_it_created(
    tmp_path, command, kept, created, capsys, monkeypatch
):
    # every path exists during the run; one that existed before keeps its bytes
    for name in kept:
        (tmp_path / name).write_text("earlier run\n")
    seen = []

    def run(*args, **kwargs):
        seen.append(sorted(p.name for p in tmp_path.iterdir()))
        raise NoConvergenceError(residual=1.0)

    _stub_runs(monkeypatch, run)
    code, out, err = run_cli(
        capsys, command, "--builder", "star:5", "--out", str(tmp_path / "traj")
    )
    assert (code, out) == (1, "")
    assert err == "error: solve missed its residual target (residual 1)\n"
    assert seen == [sorted(kept + created)]
    assert sorted(p.name for p in tmp_path.iterdir()) == kept
    assert all((tmp_path / name).read_text() == "earlier run\n" for name in kept)


@pytest.mark.parametrize("kept", [[], ["cmp.st.csv"]], ids=["new", "existing"])
def test_compare_with_an_unwritable_df_out_writes_no_st_out(tmp_path, kept, capsys, monkeypatch):
    _stub_runs(monkeypatch, _run_never_starts)
    for name in kept:
        (tmp_path / name).write_text("earlier run\n")
    (tmp_path / "cmp.df.csv").mkdir()
    prefix = tmp_path / "cmp"
    code, out, err = run_cli(capsys, "compare", "--builder", "star:5", "--out", str(prefix))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: '{prefix}.df.csv'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cmp.df.csv", *kept]
    assert all((tmp_path / name).read_text() == "earlier run\n" for name in kept)


def test_failed_solve_prints_nothing_on_stdout(capsys):
    # the interior solve cannot meet a residual target of 1e-300
    code, out, err = run_cli(capsys, "equilibrium", "--builder", "ds:6:42", "--tol", "1e-300")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: solve missed its residual target")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    ["classify --builder star:5", "simulate --builder star:50 --max-steps 50"],
    ids=["lines", "streamed-rows"],
)
def test_closed_stdout_exits_0(argv, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code, _, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    # with no file descriptor to redirect, stdout itself is now os.devnull
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
