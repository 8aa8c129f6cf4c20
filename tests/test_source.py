import ast
import pathlib

import omq


def test_library_has_no_assert_statements():
    # python -O strips asserts, so runtime checks must raise explicitly
    found = []
    for path in sorted(pathlib.Path(omq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found
