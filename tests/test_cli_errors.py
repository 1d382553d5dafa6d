"""Bad --zeta, --max-steps, --record-every and --tol values end as input errors
(exit 2, a one-line message on stderr, no traceback), checked in fresh
interpreters."""

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
        ("0.7,0.7", "sink totals must be non-negative and sum to 1"),
        ("nan,1", "sink totals must be non-negative and sum to 1"),
    ],
    ids=["unparsable", "wrong-count", "bad-sum", "nan"],
)
def test_bad_zeta_exits_2(two_sink_file, zeta, message):
    result = run_powerflow("equilibrium", "--network", two_sink_file, "--zeta", zeta)
    assert result.returncode == 2
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
