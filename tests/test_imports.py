"""Every name a library module imports is used, no private helper is
orphaned, and the int8 output stage is written once.

Stdlib-only guards: each module under ``src/inferbench`` is parsed with
``ast``.  Every name bound by an import must appear as a name in the
module's code or be re-exported through ``__all__``.  Every module-level
function or class whose name starts with ``_`` must be referenced
somewhere in the package, as a name, an attribute or an import.
``requantize`` and the int8 cap check have a fixed number of callers.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "inferbench"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _imported(tree):
    """name -> line of every name bound by an import statement."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})"
              for name, line in sorted(_imported(tree).items())
              if name not in used]
    assert not unused, f"unused imports: {', '.join(unused)}"


def _private_definitions(tree):
    """name -> line of each module-level private function or class."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _references(tree):
    """Every name, attribute and imported name the module's code mentions."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def test_every_private_helper_is_referenced():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in MODULES}
    referenced = set().union(*map(_references, trees.values()))
    orphans = [f"{path.relative_to(PACKAGE)}:{line} {name}"
               for path, tree in trees.items()
               for name, line in sorted(_private_definitions(tree).items())
               if name not in referenced]
    assert not orphans, f"unreferenced private helpers: {', '.join(orphans)}"


# The one int8 epilogue calls both; ``validate`` checks the caps too.  A
# backend that requantizes on its own adds a caller and fails here.
_CALLERS = {"requantize": 1, "check_q_config": 2}


def _calls(tree, name):
    return sum(isinstance(n, ast.Call)
               and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
               for n in ast.walk(tree))


@pytest.mark.parametrize("name", sorted(_CALLERS))
def test_the_int8_output_stage_has_one_home(name):
    calls = sum(_calls(ast.parse(path.read_text(), str(path)), name)
                for path in MODULES)
    assert calls == _CALLERS[name]
