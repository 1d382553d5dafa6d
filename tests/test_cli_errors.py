"""Bad --zeta, --max-steps, --record-every and --tol values and unreadable
network files end as input errors (exit 2, a one-line message on stderr, no
traceback), and an --out that cannot be written as a runtime error (exit 1,
nothing on stdout), checked in fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import powerflow as pf
from powerflow.cli import main

import nets

SRC = str(Path(pf.__file__).resolve().parent.parent)


def run_powerflow(*argv):
    return subprocess.run(
        [sys.executable, "-m", "powerflow.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )


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
def test_bad_zeta_exits_2(two_sink_file, zeta, message):
    result = run_powerflow("equilibrium", "--network", two_sink_file, "--zeta", zeta)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: bad zeta spec {zeta!r}: {message}\n"
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_negative_max_steps_exits_2(command):
    result = run_powerflow(command, "--builder", "star:5", "--max-steps", "-1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        f"powerflow {command}: error: argument --max-steps: must be non-negative, got -1"
    )
    assert "Traceback" not in result.stderr


def test_non_integer_max_steps_keeps_the_int_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--builder", "star:5", "--max-steps", "1.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "powerflow simulate: error: argument --max-steps: invalid int value: '1.5'"
    )


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_zero_max_steps_stays_valid(command, capsys):
    assert main([command, "--builder", "star:5", "--max-steps", "0"]) == 0
    out = capsys.readouterr().out
    expected = "steps: 0" if command == "simulate" else "steps: st=0 df=0"
    assert expected in out.splitlines()


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_record_every_below_one_exits_2(command, value):
    result = run_powerflow(
        command, "--builder", "star:5", "--record-every", value, "--max-steps", "10"
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        f"powerflow {command}: error: argument --record-every: must be positive, got {value}"
    )
    assert "Traceback" not in result.stderr


def test_non_integer_record_every_keeps_the_int_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--builder", "star:5", "--record-every", "2.5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "powerflow compare: error: argument --record-every: invalid int value: '2.5'"
    )


@pytest.mark.parametrize(
    "make",
    [lambda: pf.build_star(3), nets.ring3, nets.three_node, nets.reachable_pair],
    ids=["star", "ring", "irreducible", "reachable"],
)
def test_zeta_on_a_single_sink_network_exits_2(tmp_path, make):
    path = tmp_path / "single_sink.txt"
    pf.write_matrix(make(), path)
    result = run_powerflow("equilibrium", "--network", str(path), "--zeta", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: --zeta applies only to multi-sink networks; this network has one sink\n"
    )


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_bad_step_tolerance_exits_2(command, value):
    result = run_powerflow(command, "--builder", "ds:6:42", "--tol", value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        f"powerflow {command}: error: argument --tol: must be finite and non-negative, got {value}"
    )
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_residual_tolerance_exits_2(value):
    result = run_powerflow("equilibrium", "--builder", "ds:6:42", "--tol", value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        f"powerflow equilibrium: error: argument --tol: must be finite and positive, got {value}"
    )
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["simulate", "compare", "equilibrium"])
def test_unparsable_tolerance_keeps_the_float_message(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--builder", "star:5", "--tol", "abc"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"powerflow {command}: error: argument --tol: invalid float value: 'abc'"
    )


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_zero_step_tolerance_runs_to_max_steps(command, capsys):
    argv = [command, "--builder", "ds:6:42", "--tol", "0", "--max-steps", "40"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
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
    with pytest.raises(SystemExit) as exc:
        main([command, "--builder", "ds:6:42", *tol])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"powerflow {command}: error: argument --tol: must be finite and {rule}, got {value}"
    )


def test_zeta_tolerance_on_a_star_sink(tmp_path, capsys):
    # a total above 1 fails the split's own range check; one just below
    # 1 beside a tiny total is a valid split
    path = tmp_path / "star_sink.txt"
    path.write_text(nets.STAR_SINK_ADJACENCY)
    assert main(["equilibrium", "--network", str(path), "--zeta", "1.0000000001,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bad zeta spec '1.0000000001,0': sink totals must lie in [0, 1] and sum to 1\n"
    )
    assert main(["equilibrium", "--network", str(path), "--zeta", "0.9999999999,1e-10"]) == 0
    assert "sink power: [0.9999999999, 1e-10]" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("spelling", ["separate", "joined"])
@pytest.mark.parametrize("zeta", ["-1e-3,1", "-.5,1.5"])
def test_zeta_with_minus_reaches_the_range_message(two_sink_file, zeta, spelling, capsys):
    option = ["--zeta", zeta] if spelling == "separate" else [f"--zeta={zeta}"]
    assert main(["equilibrium", "--network", two_sink_file, *option]) == 2
    assert capsys.readouterr().err == (
        f"error: bad zeta spec {zeta!r}: sink totals must lie in [0, 1] and sum to 1\n"
    )


@pytest.mark.parametrize("command", ["classify", "equilibrium", "simulate"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_network_file_exits_2(tmp_path, command, kind):
    if kind == "missing":
        path, message = tmp_path / "no.txt", "error: cannot read network file: [Errno 2] "
    elif kind == "directory":
        path, message = tmp_path, "error: cannot read network file: [Errno 21] "
    else:
        path, message = tmp_path / "bom.txt", "error: line 1: not UTF-8 text"
        path.write_bytes(b"\xff\xfe")
    result = run_powerflow(command, "--network", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(message)
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["classify", "equilibrium", "simulate"])
def test_empty_dense_field_exits_2(tmp_path, command):
    path = tmp_path / "empty-field.txt"
    path.write_text("0,,1\n1,0\n")
    result = run_powerflow(command, "--network", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: line 1: empty field: every comma must stand between two values\n"
    )


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_failed_out_write_exits_1(tmp_path, command):
    # the files are written before the first line of output, so none is printed
    out = tmp_path / "no-such-dir" / "traj"
    result = run_powerflow(command, "--builder", "star:5", "--max-steps", "5", "--out", str(out))
    assert result.returncode == 1
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: [Errno 2] No such file or directory: '{out}")
    assert "Traceback" not in result.stderr
