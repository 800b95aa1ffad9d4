"""Import hygiene: every name a package module imports is used there.

Each module of ``src/freenormal`` is parsed with :mod:`ast`; a name bound by
an ``import`` or ``from ... import`` statement must be read somewhere in the
module or listed in its ``__all__``.  A leftover import, such as an error
class no handler catches any more, fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "freenormal"
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The imported names that ``source`` never reads and does not export."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # "import a.b" binds a
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_every_module_is_found():
    assert {"curve", "levy", "scaled", "transforms"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = (
        "from .curve import _newton_confined, in_omega\n"
        "from .errors import DomainError, PoleProximity\n"
        "import math, os.path as osp\n"
        "__all__ = ['in_omega']\n"
        "def f(z):\n"
        "    if not math.isfinite(z):\n"
        "        raise DomainError(z)\n"
        "    return _newton_confined(z, z)\n"
    )
    assert _unused_imports(source) == ["PoleProximity (line 2)", "osp (line 3)"]
