"""Every name a module or test imports is used in it, every private
module-level definition of the package is read somewhere in the package,
and every public function, class and method of the package is read by the
program: the package or the benchmark's ``perfbench/pcbench``.

A public module-level function or class counts as read only through a
loaded bare name, an import from peerchain, an attribute of a peerchain
module (``cmt.decode_slots``, not ``args.pack``) or one of perfbench's
string references: the tracer's ``BOUNDARIES`` attribute names and
``mc_block``'s estimator names.  A method counts as read only through an
attribute read (``x.method``) or those strings.  README words, comments
and re-exports from the package's ``__init__`` do not count.  The names
kept only as test oracles are listed in ``TEST_ORACLES`` with their reason.

The package's ``__init__.py`` re-exports its imports and is left out of
the import check.  A name read only inside a string annotation does not
count as used: no module needs a ``TYPE_CHECKING`` import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "peerchain").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench" / "pcbench").glob("*.py"))
MODULES = {p.stem for p in PACKAGE} - {"__init__"}
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


# names the program keeps though only the tests read them, with the reason
TEST_ORACLES = {
    "rewards_naive": "the plain-Python oracle that every fast reward path must equal",
}


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names a file binds to a peerchain module: ``from . import ledger``,
    ``from peerchain import incentives as inc``, ``import peerchain.sim as s``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "peerchain" or node.level and not node.module):
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name in MODULES}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names
                        if alias.asname and alias.name in {f"peerchain.{m}" for m in MODULES}}
    return aliases


def _assigns(node: ast.AST, name: str) -> bool:
    """Whether ``node`` assigns (or augments) the bare name ``name``."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AugAssign) else []
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _perfbench_strings(tree: ast.Module) -> set[str]:
    """The names perfbench reaches only by string: the attribute names of the
    tracer's ``BOUNDARIES`` rows and the estimator names of ``mc_block``."""
    found = set()
    for node in ast.walk(tree):
        if _assigns(node, "BOUNDARIES"):
            found |= {row.elts[1].value for row in node.value.elts}
        elif isinstance(node, ast.FunctionDef) and node.name == "mc_block":
            found |= {c.value for sub in ast.walk(node) if _assigns(sub, "estimators")
                      for c in ast.walk(sub.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return found


def surface_reads(package: list[str], benchmark: list[str]) -> tuple[set[str], set[str]]:
    """(names, attributes) that the package's and perfbench's sources read.

    A name is read as a loaded bare name, an import from peerchain, an
    attribute of a peerchain module (``cmt.decode_slots``) or a perfbench
    string reference; an attribute is any ``x.attr`` read, or a perfbench
    string reference.
    """
    names, attributes = set(), set()
    for source in [*package, *benchmark]:
        tree = ast.parse(source)
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("peerchain")):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    names.add(node.attr)
    for source in benchmark:
        strings = _perfbench_strings(ast.parse(source))
        names |= strings
        attributes |= strings
    return names, attributes


def is_read(name: str, reads: tuple[set[str], set[str]]) -> bool:
    """Whether a public module-level definition (``name``) or method
    (``Class.name``) is read; a method counts only as an attribute."""
    names, attributes = reads
    if "." in name:
        return name.rsplit(".", 1)[1] in attributes
    return name in names or name in TEST_ORACLES


@pytest.mark.parametrize("reader, perfbench, name, expected", [
    ("def main(args):\n    return args.pack\n", "", "pack", False),
    ('"""`pack(answers, order)` and `GasLedger.total`, as README words."""\n', "", "pack", False),
    ('"""`pack(answers, order)` and `GasLedger.total`, as README words."""\n', "", "GasLedger.total", False),
    ("import json\njson.loads('1')\n", "", "loads", False),
    ("from dataclasses import replace\n", "", "replace", False),
    ("def f(x):\n    return x\n", "", "f", False),
    ("def f(x):\n    return x\nf(1)\n", "", "f", True),
    ("from . import commitment as cmt\ncmt.decode_slots([], [])\n", "", "decode_slots", True),
    ("", "from peerchain import incentives as inc\ninc.payment_mc(1)\n", "payment_mc", True),
    ("", "import peerchain.sim as s\ns.binarize(1)\n", "binarize", True),
    ("", "from peerchain.mechanisms import peers_for_cell\n", "peers_for_cell", True),
    ("from .gas_model import GasTable\n", "", "GasTable", True),
    ("", "BOUNDARIES = ((ledger, 'compute_rewards', 'mechanisms.compute_rewards', None),)\n",
     "compute_rewards", True),
    ("", "def mc_block(self):\n    estimators = [('payment_mc', ())]\n"
         "    estimators += [('equilibrium_check', (d,)) for d in D]\n", "equilibrium_check", True),
    ("", "def other(self):\n    estimators = [('payment_mc', ())]\n", "payment_mc", False),
    ("gas = ledger.gas\n", "", "GasLedger.total", False),
    ("gas = ledger.gas.total\n", "", "GasLedger.total", True),
    ("", "", "rewards_naive", True),
], ids=["argparse-attribute", "prose-word", "prose-method", "unrelated-module", "stdlib-import", "defined-only", "bare-call",
        "package-module-attribute", "perfbench-module-attribute", "module-import-alias", "perfbench-import",
        "package-import", "tracer-boundary", "mc-block-estimator", "other-function-string",
        "method-unread", "method-attribute", "test-oracle"])
def test_is_read_counts_only_real_reads(reader, perfbench, name, expected):
    assert is_read(name, surface_reads([reader], [perfbench])) is expected


def test_every_public_definition_is_read_outside_the_tests():
    # library code that only tests use is deleted or wired into an output;
    # a re-export from the package's __init__ is not a use, and neither is
    # a README word
    reads = surface_reads([p.read_text() for p in PACKAGE if p.name != "__init__.py"],
                          [p.read_text() for p in BENCHMARK])
    unread = [f"{path.name}:{line} {name}" for path in PACKAGE
              for name, line in _public_definitions(ast.parse(path.read_text(), filename=str(path)))
              if not is_read(name, reads)]
    assert not unread, f"public definitions only the tests read: {unread}"
