"""Every name a package module or test file imports is used in that file,
each package module imports only the package modules of the layers below
it, importing the command line loads no heavy standard module, only
``eval`` loads mpmath, ``numeric`` holds no floating point, and a test
class that subclasses a package class overrides only names its base has.

No linter ships with the test environment, so this walks each module's
syntax tree with the standard library.  ``__init__.py`` imports nothing, so
every name has one import path, its module's; the checks below skip it.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "assoclab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line) for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_name():
    assert unused_imports("import os\nfrom math import comb, factorial\nfactorial(3)\n") == [
        "os (line 1)",
        "comb (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source: str) -> tuple[set[str], set[str]]:
    """The names a module loads or imports, and the attributes it reads."""
    names: set[str] = set()
    attributes: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes


def dead_definitions(source: str, names: set[str], attributes: set[str]) -> list[str]:
    """Top-level functions and classes never referenced, module-level
    constants never loaded, and non-dunder methods never read as an
    attribute: a bare name of the same spelling, such as a parameter, does
    not reach a method."""
    dead = []
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in names and node.name not in attributes):
            dead.append(node.name)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            dead += [t.id for t in targets if isinstance(t, ast.Name) and t.id not in names]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                        and item.name not in attributes):
                    dead.append("%s.%s" % (node.name, item.name))
    return dead


def test_checker_flags_a_dead_definition():
    source = ("LIMIT = 3\nSPARE = 4\nIDLE: int = 5\n"
              "def used(shadowed):\n    return K().called(), shadowed(LIMIT)\n"
              "def unused():\n    pass\n"
              "class K:\n    def called(self):\n        pass\n"
              "    def idle(self):\n        pass\n"
              "    def shadowed(self):\n        pass\n"
              "    def __repr__(self):\n        return ''\n"
              "used(print)\n")
    assert dead_definitions(source, *referenced_names(source)) == [
        "SPARE", "IDLE", "unused", "K.idle", "K.shadowed"]


def references(paths) -> tuple[set[str], set[str]]:
    names, attributes = set(), set()
    for p in paths:
        n, a = referenced_names(p.read_text())
        names |= n
        attributes |= a
    return names, attributes


def test_package_root_imports_nothing():
    # one import path per name: from assoclab.relations import Span
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_definitions(path):
    # __init__ imports nothing, so only the modules' references keep a definition alive
    assert dead_definitions(path.read_text(), *references(MODULES)) == []


def test_every_oracle_has_a_caller():
    # an oracle no test reads any more checks nothing
    oracles = Path(__file__).resolve().parent / "oracle_utils.py"
    assert dead_definitions(oracles.read_text(), *references(TESTS)) == []


def package_subclasses(source: str):
    """(class node, package base class) for each class whose base is a name
    imported from an assoclab module."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: (node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("assoclab.")
                for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for b in node.bases:
                if isinstance(b, ast.Name) and b.id in imported:
                    module, name = imported[b.id]
                    yield node, getattr(importlib.import_module(module), name)


def overrides_without_base(source: str) -> list[str]:
    """The non-dunder names a package subclass defines in its body that
    its package base lacks."""
    missing = []
    for node, base in package_subclasses(source):
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            missing += ["%s.%s" % (node.name, n) for n in names
                        if not n.startswith("__") and not hasattr(base, n)]
    return missing


def test_checker_flags_an_override_the_base_lacks():
    source = ("from assoclab.relations import Span as Base\n"
              "class S(Base):\n    'doc'\n    _eliminate = None\n    _gone = None\n"
              "    def _sweep(self):\n        pass\n    def _lost(self):\n        pass\n"
              "    def __repr__(self):\n        return ''\n"
              "class T(dict):\n    _other = None\n")
    assert overrides_without_base(source) == ["S._gone", "S._lost"]


def test_oracle_overrides_name_package_attributes():
    # an override of a name the package no longer has would go on passing, unread
    found = {(p.name, node.name) for p in TESTS for node, _ in package_subclasses(p.read_text())}
    assert ("oracle_utils.py", "StepNormalisedSpan") in found
    assert [m for p in TESTS for m in overrides_without_base(p.read_text())] == []


def sort_key_subscripts(source: str) -> list[int]:
    """Lines that index into the result of a ``sort_key()`` call."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Attribute) and node.value.func.attr == "sort_key")


def test_checker_flags_a_sort_key_subscript():
    source = ("lead = m.sort_key()[1][:1]\nkey = m.sort_key()\nfirst = key[0]\n"
              "top = sorted(ms, key=lambda t: t.sort_key()[0])\n")
    assert sort_key_subscripts(source) == [1, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "symring"], ids=lambda p: p.name)
def test_only_symring_reads_the_layout_of_a_sort_key(path):
    # the monomial order's tuple layout is symring's to change
    assert sort_key_subscripts(path.read_text()) == []


FLOAT_CALLS = {"log", "log2", "log10", "ceil", "float"}


def floating_point(source: str) -> list[int]:
    """Lines that call a float logarithm, ``ceil`` or ``float``, by name or
    as an attribute, or that hold a float literal."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) in FLOAT_CALLS:
                lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_floating_point():
    source = ("import math\nbits = math.ceil(t * math.log2(10))\nx = float(n)\n"
              "M = max(32, int(t * 3.33))\nok = comb(M, 2) * 10**t < 1 << M\ntext = '0.0'\n")
    assert floating_point(source) == [2, 2, 3, 4]


def test_numeric_sizes_its_passes_without_floating_point():
    # the module docstring's claim: integers from the delta pass to the verdict
    assert floating_point((SRC / "numeric.py").read_text()) == []


SERIES = {"symring", "freealg", "mzv_side", "delta_side"}

# allowed assoclab imports per module
LAYERS = {
    "symring": set(),
    "freealg": {"symring"},
    "mzv_side": {"symring", "freealg"},
    "delta_side": {"symring", "freealg"},
    "relations": SERIES,
    "numeric": {"symring"},
    "cli": SERIES | {"relations", "numeric"},
}


def package_imports(source: str) -> set[str]:
    """Names of the assoclab modules a source file imports, at any depth."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("assoclab."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "assoclab":
                    continue
                module = module[len("assoclab."):]
            if module:
                out.add(module.split(".")[0])
            else:  # from . import x, or from assoclab import x
                out.update(alias.name for alias in node.names)
    return out


def test_layer_checker_reads_every_import_form():
    source = ("from .symring import zeta\nfrom . import numeric\nimport assoclab.freealg\n"
              "from assoclab import relations\nimport os\n"
              "def f():\n    from assoclab.cli import main\n")
    assert package_imports(source) == {"symring", "numeric", "freealg", "relations", "cli"}


def test_every_module_has_a_layer():
    assert {p.stem for p in MODULES} == set(LAYERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_lower_layers(path):
    assert package_imports(path.read_text()) <= LAYERS[path.stem]


def test_cli_import_loads_no_heavy_module():
    # start-up cost: no dataclasses (with inspect behind it), and mpmath
    # only on first evaluation; a fresh interpreter, so nothing is preloaded
    src = str(SRC.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import assoclab.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600, check=True)
    added = set(proc.stdout.split())
    assert "assoclab.cli" in added
    assert not {m.split(".")[0] for m in added} & {"dataclasses", "inspect", "mpmath"}


def test_only_eval_loads_mpmath():
    # verify certifies and prints its residuals in integers, and expand and
    # relations evaluate nothing; eval returns an mpf, so it loads mpmath
    src = str(SRC.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = ("import sys, assoclab.cli\n"
              "for argv in (['verify', '--order', '3', '--digits', '40'],\n"
              "             ['relations', '--order', '4', '--aux', 'all', '--reduce'],\n"
              "             ['expand', '--order', '4']):\n"
              "    assert assoclab.cli.main(argv) == 0\n"
              "    assert 'mpmath' not in sys.modules, argv\n"
              "assert assoclab.cli.main(['eval', '--zeta', '3']) == 0\n"
              "assert 'mpmath' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verified ")
