"""No module under ``src/repro`` imports a name it never reads.

An unused import is not free here: every ``repro.*`` module it names is
loaded when the importing module is, and it widens the static import
closure that the result cache fingerprints (docs/CACHING.md). The scan
is static (``ast``; nothing is imported). It checks the module-level
imports, those nested in module-level ``if``/``try`` blocks included,
and skips ``from __future__`` imports, ``if TYPE_CHECKING:`` blocks and
names re-exported through ``__all__`` or ``_LAZY_EXPORTS``.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))
EXPORT_TABLES = ("__all__", "_LAZY_EXPORTS")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(body):
    """(bound name, line) of every import in ``body`` outside TYPE_CHECKING."""
    for node in body:
        if isinstance(node, ast.If):
            if not _is_type_checking(node.test):
                yield from _imports(node.body)
            yield from _imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _imports(block)
            for handler in node.handlers:
                yield from _imports(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _exported(tree: ast.Module) -> set:
    """Every string in the module's ``__all__`` and ``_LAZY_EXPORTS``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id in EXPORT_TABLES for t in targets):
            names |= {
                c.value
                for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return names


def _loads(tree: ast.AST) -> set:
    return {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _read(tree: ast.Module) -> set:
    """Every name the module reads, string annotations included."""
    names = _loads(tree)
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for c in ast.walk(annotation) if annotation is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    names |= _loads(ast.parse(c.value, mode="eval"))
    return names


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _read(tree) | _exported(tree)
    return [
        f"{name} (line {line})" for name, line in _imports(tree.body) if name not in used
    ]


def test_scan_sees_every_module():
    # an empty parametrization below would pass vacuously
    assert len(MODULES) > 100 and SRC / "cli.py" in MODULES


def test_scan_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from repro.resilience.budget import Budget\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "from repro import lazy_getattr\n"
        "__all__ = ['lazy_getattr']\n"
        "def f(x: Optional['Budget']) -> 'List[int]':\n"
        "    return x\n"
    )
    assert unused_imports(probe) == ["math (line 2)", "json (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path) == []
