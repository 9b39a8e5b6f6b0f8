"""The layers above ``repro.db`` call the backend contract; they never
probe for it and never reach into an engine's private state.

``StorageBackend`` / ``StorageTable`` declare every capability a caller
uses, with a concrete default (DESIGN.md §17), so ``getattr(db, ...)``
/ ``hasattr(table, ...)`` — each one a silent two-way fork on "is this
the memory engine?" — and ``db._anything`` have no reason to exist
outside ``src/repro/db/``.  The same goes for objects the code itself
declares: a ``Query``, a ``DeploymentConfig``, a ``MoiraServer``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LAYERS = ("queries", "server", "dcm", "replication", "workload", "client",
          "core")

# what a variable holding one of these objects is called in this tree
STORAGE = {"db", "extract_db", "target_db", "view", "snapshot", "snap",
           "table", "users", "source"}
DECLARED = STORAGE | {"query", "config", "server"}

FILES = sorted(path for layer in LAYERS
               for path in (SRC / layer).rglob("*.py"))


def terminal_name(node: ast.AST) -> str:
    """``db`` for ``db``, ``self.db`` and ``ctx.db``; "" otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and node.args
                and terminal_name(node.args[0]) in DECLARED):
            found.append(f"line {node.lineno}: {node.func.id}("
                         f"{ast.unparse(node.args[0])}, ...) probe")
        elif (isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and terminal_name(node.value) in STORAGE):
            found.append(f"line {node.lineno}: private read "
                         f"{ast.unparse(node)}")
    return found


def test_the_walk_covers_the_layers():
    assert {path.parent.name for path in FILES} >= set(LAYERS)


@pytest.mark.parametrize(
    "path", FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_probe_and_no_private_read(path):
    assert violations(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_checker_catches_what_it_forbids():
    bad = ast.parse(
        "a = getattr(self.db, 'mvcc_stats', None)\n"
        "b = hasattr(table, 'changes_since')\n"
        "c = getattr(query, 'shard_key', None)\n"
        "d = ctx.db._sys_latch\n"
        "e = db._shard_of.get(name)\n")
    assert len(violations(bad)) == 5
    fine = ast.parse(
        "a = getattr(self, name)\n"
        "b = self.db.mvcc_stats()\n"
        "c = self._db\n"
        "d = type(db).__name__\n")
    assert violations(fine) == []
