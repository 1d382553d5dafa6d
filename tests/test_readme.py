"""The README's library tour runs and gives the values its comments state,
and each of its CLI examples exits 0 and writes the files it names."""

import ast
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import nets
from nets import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _run_tour():
    """Run the README's one ```python block statement by statement, as a
    reader would at a prompt; return its namespace and the values of its
    bare expressions in order."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    return namespace, values


def test_library_tour():
    namespace, (limit, solved, prediction, distance) = _run_tour()
    # c = (4/9, 1/3, 2/9)
    assert np.max(np.abs(namespace["profile"].global_c - (4 / 9, 1 / 3, 2 / 9))) <= 1e-15
    # the simulated limit and the solved point are the same point
    assert np.max(np.abs(limit - solved)) <= 1e-11
    assert prediction.kind == "unique_interior"
    # both rules agree here
    assert distance < 1e-11


def _cli_examples():
    """The argument lists of the commands in the block after "Examples:"."""
    (block,) = re.findall(r"^Examples:\n\n```\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert all(argv[0] == "powerflow" for argv in commands)
    return [argv[1:] for argv in commands]


def _written_files(argv):
    if "--out" not in argv:
        return []
    out = argv[argv.index("--out") + 1]
    return [f"{out}.st.csv", f"{out}.df.csv"] if argv[0] == "compare" else [out]


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_cli_example(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    nets.write_lines(tmp_path / "advice.txt", nets.synthetic_krackhardt_lines())
    (tmp_path / "twosink.txt").write_text(nets.TWO_PAIR_ADJACENCY, encoding="utf-8")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(["advice.txt", "twosink.txt", *_written_files(argv)])
