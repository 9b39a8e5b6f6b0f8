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
        "c = getattr(query, 'tables', None)\n"
        "d = ctx.db._sys_latch\n"
        "e = db._shard_of.get(name)\n")
    assert len(violations(bad)) == 5
    fine = ast.parse(
        "a = getattr(self, name)\n"
        "b = self.db.mvcc_stats()\n"
        "c = self._db\n"
        "d = type(db).__name__\n")
    assert violations(fine) == []


# -- one propagation engine ----------------------------------------------------
#
# Cron and CDC are policy over one mechanism (DESIGN.md §7): under
# ``src/repro/dcm/`` a payload is tarred, scripted, pushed and — on a
# hard failure — mailed about from exactly one place each, and a
# generator runs only inside the guarded generate step.

ENGINE_CALLS = ("push_update", "build_payload", "default_script",
                "mail_notify")
GENERATOR_CALLS = ("generate", "generate_incremental")
GENERATE_STEP = "_generate"


def engine_call_sites(trees: dict[str, ast.AST]) -> dict[str, list[str]]:
    """callee name -> ``file:line in function`` for every call of an
    engine primitive or a generator entry point."""
    sites: dict[str, list[str]] = {
        name: [] for name in ENGINE_CALLS + GENERATOR_CALLS}

    def visit(node: ast.AST, where: str, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = terminal_name(node.func)
            wanted = (GENERATOR_CALLS
                      if isinstance(node.func, ast.Attribute)
                      else ()) + ENGINE_CALLS
            if callee in wanted:
                sites[callee].append(
                    f"{where}:{node.lineno} in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, function)

    for where, tree in trees.items():
        visit(tree, where, "<module>")
    return sites


def test_one_push_loop_and_one_generate_step():
    sites = engine_call_sites({
        str(path.relative_to(SRC)): ast.parse(
            path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "dcm").rglob("*.py"))})
    for name in ENGINE_CALLS:
        assert len(sites[name]) == 1, (name, sites[name])
    for name in GENERATOR_CALLS:
        assert sites[name], name
        assert all(site.startswith("dcm/dcm.py:")
                   and site.endswith(f" in {GENERATE_STEP}")
                   for site in sites[name]), (name, sites[name])


def test_the_engine_guard_counts_what_it_should():
    sites = engine_call_sites({"x.py": ast.parse(
        "def a(self):\n"
        "    push_update(payload=build_payload(files))\n"
        "    self.mail_notify('who', 'what')\n"
        "def b(self):\n"
        "    def inner():\n"
        "        return update.push_update()\n"
        "    generator.generate(ctx)\n"
        "    generate(ctx)\n")})
    assert sites["push_update"] == ["x.py:2 in a", "x.py:6 in inner"]
    assert sites["build_payload"] == ["x.py:2 in a"]
    assert sites["mail_notify"] == ["x.py:3 in a"]
    assert sites["generate"] == ["x.py:7 in b"]
