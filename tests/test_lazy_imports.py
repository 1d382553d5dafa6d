import os
import subprocess
import sys
from pathlib import Path

import pytest

import powerflow as pf
import powerflow.cli

SRC = str(Path(pf.__file__).resolve().parent.parent)


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
    )


def loaded_modules_after(code):
    """powerflow modules loaded by `code` in a fresh interpreter."""
    probe = (
        code
        + "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('powerflow'))))"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.mark.parametrize("code", ["import powerflow", "import powerflow.cli"])
def test_import_loads_no_solver_module(code):
    loaded = loaded_modules_after(code)
    assert "powerflow.dynamics" not in loaded
    assert "powerflow.equilibria" not in loaded


@pytest.mark.parametrize("command", ["classify", "centrality"])
def test_read_commands_load_no_solver_module(command):
    code = (
        "import contextlib, io, powerflow.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert powerflow.cli.main(['{command}', '--builder', 'star:5']) == 0"
    )
    loaded = loaded_modules_after(code)
    assert "powerflow.dynamics" not in loaded
    assert "powerflow.equilibria" not in loaded


def test_simulate_command_loads_no_equilibria_module():
    code = (
        "import contextlib, io, powerflow.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert powerflow.cli.main(['simulate', '--builder', 'star:5', '--max-steps', '5']) == 0"
    )
    loaded = loaded_modules_after(code)
    assert "powerflow.dynamics" in loaded
    assert "powerflow.equilibria" not in loaded


def test_equilibrium_command_loads_the_solvers():
    code = (
        "import contextlib, io, powerflow.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert powerflow.cli.main(['equilibrium', '--builder', 'ring:5']) == 0"
    )
    assert "powerflow.equilibria" in loaded_modules_after(code)


def test_every_exported_name_resolves():
    for name in pf.__all__:
        assert getattr(pf, name) is not None, name
    namespace = {}
    exec("from powerflow import *", namespace)
    assert set(pf.__all__) <= set(namespace)
    assert namespace["simulate"] is pf.dynamics.simulate
    assert namespace["EPS_CONV"] == pf.dynamics.EPS_CONV


def test_exports_are_the_defining_modules_objects():
    assert pf.EPS_TIE is pf.defaults.EPS_TIE
    assert pf.MODELS is pf.dynamics.MODELS
    assert pf.EPS_EQUILIBRIUM is pf.equilibria.EPS_EQUILIBRIUM
    assert pf.load_network is pf.io.load_network
    assert pf.errors.ParseError.__module__ == "powerflow.errors"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        pf.no_such_name
    with pytest.raises(AttributeError):
        powerflow.cli.no_such_name


def test_dir_lists_all():
    assert set(pf.__all__) <= set(dir(pf))
    # and in a fresh interpreter, before any export has been resolved
    code = (
        "import powerflow\n"
        "names = set(dir(powerflow))\n"
        "assert set(powerflow.__all__) <= names, set(powerflow.__all__) - names\n"
        "assert '__version__' in names"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr


def test_cli_keeps_deferred_names_as_attributes():
    # the names perfbench's tracer wraps on the module stay reachable there
    assert powerflow.cli.simulate is pf.dynamics.simulate
    for name in ("solve_interior_equilibrium", "compare_models"):
        assert getattr(powerflow.cli, name) is getattr(pf.equilibria, name)
    assert powerflow.cli.classify is pf.netcore.classify
    assert powerflow.cli.centrality_profile is pf.spectral.centrality_profile


@pytest.mark.parametrize("code", [0, 2, 1])
def test_module_entry_point_runs(tmp_path, code):
    # one command per exit code: success, an input error, a failed write
    argv = {
        0: ["classify", "--builder", "star:5"],
        2: ["classify", "--builder", "bogus:1"],
        1: [
            "compare", "--builder", "star:5", "--max-steps", "5",
            "--out", str(tmp_path / "no-such-dir" / "cmp"),
        ],
    }[code]
    result = run_python("-m", "powerflow.cli", *argv)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    if code == 0:
        assert "star center: 1" in result.stdout
    else:
        assert result.stdout == ""


@pytest.mark.parametrize(
    "argv, rows_read",
    [
        (["simulate", "--builder", "star:50", "--max-steps", "5000"], 1),
        (["classify", "--builder", "star:5"], 0),
    ],
    ids=["streamed-rows", "lines"],
)
def test_module_entry_point_with_a_closed_stdout_exits_0(argv, rows_read):
    # the reader takes `rows_read` lines and closes the pipe, as `| head` does.
    # stdout is block-buffered, as a pipe is by default, so that a write
    # left in the buffer would meet the closed pipe at the interpreter's exit
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "powerflow.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        for _ in range(rows_read):
            assert proc.stdout.readline().startswith("0,0.02,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, err
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""
