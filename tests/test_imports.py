"""Every name a ttkrylov module imports is used in it, every name in its
``__all__`` is bound in it, and every private module-level function and
every module-level UPPER_CASE constant is referenced somewhere in the
package.

Only the standard library's ``ast`` is used, so the check runs wherever the
tests do.  A module's ``__all__`` entries count as uses, and ``__init__.py``
is exempt from the first check: its imports are the package's re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ttkrylov"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nos.sep\n"
    assert unused_imports(src) == ["pi (line 2)"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []



def unbound_public_names(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level statement of the module binds."""
    tree = ast.parse(source)
    bound, public = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound |= names
            if "__all__" in names:
                public = ast.literal_eval(node.value)
    return [name for name in public if name not in bound]


def test_detects_an_unbound_public_name():
    src = "from math import pi\ndef f(): pass\n__all__ = ['pi', 'f', 'g']\n"
    assert unbound_public_names(src) == ["g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_all_names_are_bound(path):
    assert unbound_public_names(path.read_text()) == []


def unreferenced_helpers(sources) -> list[str]:
    """Module-level private functions that no module of `sources` refers to.

    `sources` are the texts of the package's modules.  A reference is a
    name, an attribute or an imported name anywhere but in the function's
    own definition, so a helper that only calls itself is unreferenced.
    """
    helpers, refs = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if own and own.startswith("_") and not own.startswith("__"):
                helpers.add(own)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if name != own:
                    refs.add(name)
    return sorted(helpers - refs)


def test_detects_an_unreferenced_helper():
    a = ("def _called(): pass\n"
         "def _imported(): pass\n"
         "def _as_attribute(): pass\n"
         "def _recursive(n): return _recursive(n - 1)\n"
         "def f(): return _called()\n")
    b = "from . import a\nfrom .a import _imported\na._as_attribute()\n"
    assert unreferenced_helpers([a, b]) == ["_recursive"]


def test_every_private_function_is_referenced():
    # A helper the package no longer calls is deleted, not kept for tests.
    assert unreferenced_helpers(p.read_text() for p in SRC.glob("*.py")) \
        == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unreferenced_constants(sources) -> list[str]:
    """Module-level UPPER_CASE constants that no module of `sources` names.

    A constant is a name bound by a module-level assignment; a reference
    is a name, an attribute or an imported name anywhere but in the
    targets of that assignment (its value counts, so a constant defined
    from another refers to it).  Strings, such as ``__all__`` entries, do
    not count.
    """
    constants, refs = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            walked = [stmt]
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                constants |= {t.id for t in targets if isinstance(t, ast.Name)
                              and CONSTANT.fullmatch(t.id)}
                walked = [n for n in (stmt.value, getattr(stmt, "annotation",
                                                          None)) if n]
            for node in (n for top in walked for n in ast.walk(top)):
                refs.add(node.id if isinstance(node, ast.Name)
                         else node.attr if isinstance(node, ast.Attribute)
                         else node.name if isinstance(node, ast.alias)
                         else None)
    return sorted(constants - refs)


def test_detects_an_unreferenced_constant():
    a = ("LIMIT = 1 << 16\n"
         "SCALE: float = 2.0\n"
         "_DERIVED = SCALE * 3\n"
         "IMPORTED = 4\n"
         "AS_ATTRIBUTE = 5\n"
         "EXPORTED_ONLY = 6\n"
         "lower_case = 7\n"
         "__all__ = ['EXPORTED_ONLY']\n"
         "def f(): return _DERIVED\n")
    b = "from . import a\nfrom .a import IMPORTED\na.AS_ATTRIBUTE\n"
    assert unreferenced_constants([a, b]) == ["EXPORTED_ONLY", "LIMIT"]


def test_every_constant_is_referenced():
    # A constant the package no longer reads is deleted, not kept for tests.
    assert unreferenced_constants(p.read_text() for p in SRC.glob("*.py")) \
        == []
