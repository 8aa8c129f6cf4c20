import ast
import pathlib
from collections import Counter

import omq

MODULES = sorted(pathlib.Path(omq.__file__).parent.glob("*.py"))
BENCH_SCRIPTS = sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))


def test_library_parses_as_python_3_10():
    # pyproject.toml promises Python 3.10: no except* or other later syntax
    for path in MODULES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


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


MUTABLE_CALLS = frozenset({"dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
                           "deque", "WeakKeyDictionary", "WeakValueDictionary"})
CACHES = frozenset({"cache", "lru_cache"})


def _callee(f):
    """The name a call or decorator calls: ``lru_cache`` for both
    ``functools.lru_cache(maxsize=8)`` and ``lru_cache``."""
    if isinstance(f, ast.Call):
        f = f.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _is_mutable_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return isinstance(value, ast.Call) and _callee(value.func) in MUTABLE_CALLS | CACHES


def _process_global_state(tree):
    """Global statements, module-level mutable containers and caches, and
    cache decorators on module-level functions and their classes' methods."""
    found = [f"{node.lineno}: global" for node in ast.walk(tree)
             if isinstance(node, ast.Global)]
    found += [f"{node.lineno}: mutable container or cache" for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              and node.value is not None and _is_mutable_container(node.value)]
    defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    defs += [m for n in tree.body if isinstance(n, ast.ClassDef) for m in n.body
             if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found += [f"{node.lineno}: cache decorator" for node in defs
              if any(_callee(d) in CACHES for d in node.decorator_list)]
    return found


def test_library_keeps_no_process_global_state():
    # state shared by every caller in the process lets one call (or test)
    # change the next: no global statement, no module-level mutable
    # container or cache
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{f}" for f in _process_global_state(tree)]
    assert not found


def test_global_state_check_flags_each_form():
    source = """
import collections, functools, weakref
from collections import Counter, OrderedDict, deque
from functools import cache, lru_cache
a = OrderedDict()
b = Counter()
c = deque()
d = weakref.WeakKeyDictionary()
e = weakref.WeakValueDictionary()
f = collections.defaultdict(list)
g = lru_cache(maxsize=None)(len)
@cache
def h(x): return x
@functools.lru_cache(maxsize=8)
def i(x): return x
class J:
    @lru_cache
    def k(self): return self
def m():
    global a
    n = {}
    return n
"""
    found = _process_global_state(ast.parse(source))
    # a function is flagged at its def line, after its decorators
    assert [int(f.split(":")[0]) for f in found] == [20, 5, 6, 7, 8, 9, 10, 11, 13, 15, 18]


# Public library names that no code outside the tests calls, kept on purpose.
TESTS_ONLY = (
    # the CSP-to-TBox encoding, a construction of the paper checked by the tests
    "tbox_from_template", "template_entails_marker", "admits_trivial_models",
    "AbstractionMap.hiding_concept",
    # the CSP certain answer at an individual, the exact ALC/ALCI oracle of
    # the differential tests
    "certain_answer_eliq_csp",
)


def _named(tree):
    """How often the tree reads each name: identifiers, attributes,
    imported names, and the dotted parts of string constants (the
    benchmark names the functions it traces as strings); and each
    ``Class.name``, read as an attribute of a bare name or as two
    neighbouring parts of a dotted string."""
    found = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found[n.attr] += 1
            if isinstance(n.value, ast.Name):
                found[f"{n.value.id}.{n.attr}"] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = [p if p.isidentifier() else None for p in n.value.split(".")]
            found.update(p for p in parts if p)
            found.update(f"{a}.{b}" for a, b in zip(parts, parts[1:]) if a and b)
    return found


def _public_definitions(tree):
    """(qualified name, node) for each public module-level function, class
    and constant, and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name) and not n.id.startswith("_"))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_library_names_have_a_caller_outside_tests():
    # a public name must be read by library code (its own definition
    # aside), by the package's __init__ or by the benchmark scripts;
    # an instance method counts as read when any code reads an attribute
    # of its name, a static or class method only through ``Class.name``
    trees = {path: ast.parse(path.read_text(), str(path)) for path in MODULES}
    named = sum((_named(t) for t in trees.values()), Counter())
    for path in BENCH_SCRIPTS:
        named += _named(ast.parse(path.read_text(), str(path)))
    unread = set()
    for tree in trees.values():
        for qualified, node in _public_definitions(tree):
            static = any(_callee(d) in ("staticmethod", "classmethod")
                         for d in getattr(node, "decorator_list", ()))
            name = qualified if static else qualified.rpartition(".")[2]
            if named[name] <= _named(node)[name]:
                unread.add(qualified)
    assert sorted(unread - set(TESTS_ONLY)) == [], "only the tests reach these names"
    assert sorted(set(TESTS_ONLY) - unread) == [], "a kept name has a caller now"
