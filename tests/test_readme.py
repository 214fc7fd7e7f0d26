"""The README's Python tour, run as written, against the values its
comments give."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_tour():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace, shown = {}, []
    for stmt in ast.parse(blocks[0]).body:
        if isinstance(stmt, ast.Expr):  # a line whose value the comment gives
            shown.append(eval(compile(ast.Expression(stmt.value), README.name, "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
    assert namespace["n1"] == 4
    assert namespace["alpha"].coeffs == (1, 2, 2)
    assert namespace["alpha"].roots[-1] == -1 + 1j
    assert shown == [4224, (1, 2, 2), (1, 2, 2), 25]
