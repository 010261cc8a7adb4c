"""The README's library example runs and gives the values its comments state."""

import ast
import math
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The python code block of the README section ``## Library``."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_matches_its_comments():
    source = library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if comment.endswith("..."):
            assert repr(value).startswith(comment[:-3]), (comment, value)
        else:
            try:
                expected = ast.literal_eval(comment)
            except (SyntaxError, ValueError):
                continue  # a description such as (phi_min, overlap_min), not a value
            if isinstance(expected, float):
                assert math.isclose(value, expected, rel_tol=1e-9), (comment, value)
            else:
                assert value == expected, (comment, value)
        checked.append(comment)
    assert checked == ["0.86334...", "'MixedMixedOptimal'", "1.4"]
