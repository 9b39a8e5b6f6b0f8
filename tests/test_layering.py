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
STORAGE = {"db", "target_db", "view", "snapshot", "snap",
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
# one convergence policy: method -> the only DCM functions calling it
POLICY_CALLERS = {
    "_generate": {"_classify"},
    "_plan": {"_classify", "_deliver"},
    "payload_for": {"_plan"},
    "delta_for": {"_plan"},
    "_push_plan": {"_deliver"},
}
METHOD_CALLS = GENERATOR_CALLS + tuple(POLICY_CALLERS)


def engine_call_sites(trees: dict[str, ast.AST]) -> dict[str, list[str]]:
    """callee name -> ``file:line in function`` for every call of an
    engine primitive, a generator entry point or a policy step."""
    sites: dict[str, list[str]] = {
        name: [] for name in ENGINE_CALLS + METHOD_CALLS}

    def visit(node: ast.AST, where: str, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = terminal_name(node.func)
            wanted = (METHOD_CALLS
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


def dcm_call_sites() -> dict[str, list[str]]:
    return engine_call_sites({
        str(path.relative_to(SRC)): ast.parse(
            path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "dcm").rglob("*.py"))})


def test_one_push_loop_and_one_generate_step():
    sites = dcm_call_sites()
    for name in ENGINE_CALLS:
        assert len(sites[name]) == 1, (name, sites[name])
    for name in GENERATOR_CALLS:
        assert sites[name], name
        assert all(site.startswith("dcm/dcm.py:")
                   and site.endswith(f" in {GENERATE_STEP}")
                   for site in sites[name]), (name, sites[name])


def test_one_classify_step_and_one_deliver_step():
    """Cron and CDC share one policy: a generation starts only in
    ``_classify``, which files a host receives is decided only in
    ``_plan``, and a push round starts only in ``_deliver`` (the
    generators' result type builds a delta from its own payloads)."""
    sites = dcm_call_sites()
    for name, callers in POLICY_CALLERS.items():
        found = [site for site in sites[name]
                 if not site.startswith("dcm/generators/")]
        assert found, name
        assert {site.rsplit(" in ", 1)[1] for site in found} <= callers, \
            (name, found)


def test_dcm_reads_one_stream():
    """The DCM extracts from the one database and tails the one
    journal: nothing under ``dcm/`` imports the replication tier, and a
    replica's apply loop offers no tap to consume."""
    for path in sorted((SRC / "dcm").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.startswith("repro.replication")
                           for m in modules), (path.name, node.lineno)
    tree = ast.parse((SRC / "replication" / "replica.py").read_text(
        encoding="utf-8"))
    replica = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "ReplicaServer")
    names = {node.name for node in ast.walk(replica)
             if isinstance(node, ast.FunctionDef)}
    names |= {node.attr for node in ast.walk(replica)
              if isinstance(node, ast.Attribute)}
    assert not [name for name in names if "listener" in name]


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


# -- threads only where something waits ------------------------------------------
#
# Simulated hosts, the network and the update daemon are in-process calls
# under one interpreter lock, so a pool around them overlaps nothing.  A
# thread is started only by what blocks: a TCP transport's selector loop
# and a replica's pull loop.

THREAD_OWNERS = {"protocol/transport.py", "replication/replica.py"}


def thread_sites(tree: ast.AST) -> list[str]:
    """Each ``Thread(...)`` construction and each ``concurrent``
    import in *tree*."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "threading.Thread", "Thread"):
            found.append(f"line {node.lineno}: Thread(...)")
        elif isinstance(node, ast.Import):
            found.extend(f"line {node.lineno}: import {alias.name}"
                         for alias in node.names
                         if alias.name.split(".")[0] == "concurrent")
        elif (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "concurrent"):
            found.append(f"line {node.lineno}: import {node.module}")
    return found


def test_threads_only_where_something_waits():
    starters = {}
    for path in sorted(SRC.rglob("*.py")):
        sites = thread_sites(ast.parse(path.read_text(encoding="utf-8")))
        if sites:
            starters[str(path.relative_to(SRC))] = sites
    assert not any("concurrent" in site
                   for sites in starters.values() for site in sites), \
        starters
    assert set(starters) == THREAD_OWNERS, starters


def test_the_thread_walk_catches_what_it_forbids():
    bad = ast.parse(
        "import concurrent.futures\n"
        "from concurrent.futures import wait\n"
        "t = threading.Thread(target=run)\n"
        "u = Thread(target=run)\n")
    assert len(thread_sites(bad)) == 4
    fine = ast.parse(
        "import threading\n"
        "lock = threading.Lock()\n"
        "done = threading.Event()\n")
    assert thread_sites(fine) == []


# -- a reply is framed only where there is a wire ----------------------------------
#
# Handlers, pseudo-queries and the replication feed yield runs of rows;
# the TCP transport frames them.  In the server only the byte adapters
# ``handle_frame`` / ``submit_frame`` encode, for byte-level callers.

REPLY_ENCODERS = {"encode_reply", "encode_replies"}
RUN_LAYERS = ("queries", "replication", "dcm")
BYTE_ADAPTERS = {"handle_frame", "submit_frame"}


def encoder_sites(tree: ast.AST) -> list[tuple[str, str]]:
    """``(site, enclosing function)`` for each import of a reply
    encoder from ``repro.protocol`` and each call of one."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("repro.protocol")):
            found.extend((f"line {node.lineno}: import {alias.name}",
                          function) for alias in node.names
                         if alias.name in REPLY_ENCODERS)
        elif (isinstance(node, ast.Call)
                and terminal_name(node.func) in REPLY_ENCODERS):
            found.append((f"line {node.lineno}: "
                          f"{ast.unparse(node.func)}(...)", function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_handlers_and_the_feed_yield_rows_not_frames():
    for layer in RUN_LAYERS:
        for path in sorted((SRC / layer).rglob("*.py")):
            sites = encoder_sites(ast.parse(path.read_text(encoding="utf-8")))
            assert sites == [], (str(path.relative_to(SRC)), sites)


def test_only_the_byte_adapters_encode_in_the_server():
    calls = {}
    for path in sorted((SRC / "server").rglob("*.py")):
        for site, function in encoder_sites(
                ast.parse(path.read_text(encoding="utf-8"))):
            if "import" not in site:
                calls.setdefault(function, []).append(site)
    assert set(calls) == BYTE_ADAPTERS, calls


def test_the_encoder_walk_catches_what_it_forbids():
    bad = ast.parse(
        "from repro.protocol.wire import encode_reply, final\n"
        "from repro.protocol import encode_replies\n"
        "def _do_query(self):\n"
        "    yield encode_replies(rows)\n"
        "    yield wire.encode_reply(0)\n")
    assert encoder_sites(bad) == [
        ("line 1: import encode_reply", "<module>"),
        ("line 2: import encode_replies", "<module>"),
        ("line 4: encode_replies(...)", "_do_query"),
        ("line 5: wire.encode_reply(...)", "_do_query")]
    fine = ast.parse(
        "from repro.protocol.wire import final, str_row\n"
        "def _do_query(self):\n"
        "    yield MR_MORE_DATA, rows\n"
        "    yield final(0)\n")
    assert encoder_sites(fine) == []


# -- one durability point ------------------------------------------------------
#
# A write becomes durable at ``Journal.sync()``, the one group-commit
# point every reply waits for (docs/WRITE_PATH.md).  A second place that
# fsyncs would be a second commit point nobody batches; the only other
# file allowed one is the CDC cursor's own tmp + rename.

FSYNC_OWNERS = {"db/journal.py", "dcm/cdc.py"}


def fsync_sites(tree: ast.AST) -> list[str]:
    """Each ``os.fsync`` call or ``fsync`` import in *tree*."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "os.fsync", "fsync"):
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}()")
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name == "fsync" for alias in node.names)):
            found.append(f"line {node.lineno}: from os import fsync")
    return found


def test_fsync_only_at_the_durability_points():
    owners = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "fsync" in text and fsync_sites(ast.parse(text)):
            owners.add(str(path.relative_to(SRC)))
    assert owners == FSYNC_OWNERS, owners


def test_the_fsync_walk_catches_what_it_forbids():
    bad = ast.parse(
        "from os import fsync\n"
        "os.fsync(fh.fileno())\n"
        "fsync(fd)\n")
    assert len(fsync_sites(bad)) == 3
    fine = ast.parse(
        "self.host.fsync()\n"
        "fs.fsync()\n"
        "journal.sync()\n")
    assert fsync_sites(fine) == []
