"""Every name a module or test imports is used in it, every private
module-level definition of the package is read somewhere in the package,
and every public function, class and method of the package is read
outside the tests: in the package, the benchmark's ``perfbench/pcbench``
or the README; a method only as an attribute (``x.method``) or as a
``Class.method`` mention in the README.

The package's ``__init__.py`` re-exports its imports and is left out of
the import check.  A name read only inside a string annotation does not
count as used: no module needs a ``TYPE_CHECKING`` import.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "peerchain").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench" / "pcbench").glob("*.py"))
README = ROOT / "README.md"
FILES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``__future__`` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, as a name, an attribute or an import."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    return read


def test_every_private_definition_is_read_in_the_package():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    read = set().union(*map(_read, trees.values()))
    dead = [f"{path.name}:{line} {name}" for path, tree in trees.items()
            for name, line in _definitions(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not dead, f"private definitions nothing in the package reads: {dead}"


def _public_definitions(tree: ast.Module):
    """(name, line) of each public module-level function and class and of
    each public method of those classes; dunders are not public."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m.lineno) for m in node.body
                            if isinstance(m, defs) and not m.name.startswith("_"))


def test_every_public_definition_is_read_outside_the_tests():
    # library code that only tests use is deleted or wired into an output
    # a re-export from the package's __init__ is not a use
    readers = [ast.parse(path.read_text(), filename=str(path))
               for path in [*PACKAGE, *BENCHMARK] if path.name != "__init__.py"]
    read = set().union(*map(_read, readers))
    readme = README.read_text(encoding="utf-8")
    read |= set(re.findall(r"\w+", readme))
    # a method counts as read only through an attribute read (``x.name``)
    # or a ``Class.method`` mention in the README, not through a local or
    # a word that happens to share its name
    methods = {node.attr for tree in readers for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    mentioned = set(re.findall(r"(?=\b(\w+\.\w+))", readme))

    def is_read(name):
        if "." not in name:
            return name in read
        return name.rsplit(".", 1)[1] in methods or name in mentioned

    unread = [f"{path.name}:{line} {name}" for path in PACKAGE
              for name, line in _public_definitions(ast.parse(path.read_text(), filename=str(path)))
              if not is_read(name)]
    assert not unread, f"public definitions only the tests read: {unread}"
