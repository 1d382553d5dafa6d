"""The README's library tour runs and gives the values its comments state."""

import ast
import re
from pathlib import Path

import numpy as np

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
