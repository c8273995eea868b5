import ast
from pathlib import Path

import cycle_integrals


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise
    # typed errors instead
    offenders = []
    for path in sorted(Path(cycle_integrals.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not offenders, offenders
