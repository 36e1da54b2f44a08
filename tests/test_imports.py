"""Every name a library module imports is used in that module.

A stdlib-only guard: each module under ``src/inferbench`` is parsed with
``ast``, and every name bound by an import must appear as a name in the
module's code or be re-exported through ``__all__``.
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
