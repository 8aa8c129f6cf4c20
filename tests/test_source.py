import ast
import pathlib

import omq

MODULES = sorted(pathlib.Path(omq.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips asserts, so runtime checks must raise explicitly
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def _imports_by_scope(node, scope, out):
    """Each import statement under ``node`` with its scope: the innermost
    function holding it, or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            out.append((child, scope))
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        _imports_by_scope(child, child if inner else scope, out)
    return out


def _unused_imports(tree):
    """The names an import binds that its scope never reads."""
    unused = []
    for node, scope in _imports_by_scope(tree, tree, []):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_library_imports_only_what_it_uses():
    # the package's __init__ re-exports names, which is their use
    found = []
    for path in MODULES:
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), str(path))
            found += [f"{path.name}:{u}" for u in _unused_imports(tree)]
    assert not found


MUTABLE_CALLS = frozenset({"dict", "list", "set", "defaultdict"})


def _is_mutable_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        f = value.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        return name in MUTABLE_CALLS
    return False


def test_library_keeps_no_process_global_state():
    # state shared by every caller in the process lets one call (or test)
    # change the next: no global statement, no module-level mutable container
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}: global" for node in ast.walk(tree)
                  if isinstance(node, ast.Global)]
        found += [f"{path.name}:{node.lineno}: mutable container" for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and node.value is not None and _is_mutable_container(node.value)]
    assert not found
