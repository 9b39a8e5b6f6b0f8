"""E11 — the membership-closure index vs the recursive walk.

An ACL-heavy mixed-handle workload against a 10,000-user world whose
``moira-admins`` capability list fans out into a department *tree* of
nested lists (fanout ``E11_TREE_FANOUT``, depth ``E11_TREE_DEPTH``)
with ``E11_TREE_USERS`` users on the leaves.  Every capability-gated
handle then forces a recursive membership question: the walk answers
by expanding the whole tree per call; the closure index answers in
O(caller's direct lists).

The workload cycles capability-checked retrievals (``get_machine``,
``get_filesys_by_label``) with the recursive R-typed retrievals
(``get_lists_of_member``, ``get_ace_use``), issued through the real
server dispatch path with the access cache *disabled* on the built
server — every request pays its access check.

Both modes run on the SAME world (read-only workload) — ``walk`` with
``db.closure_enabled = False`` (the recursive walk the SQLite backend
always runs), ``closure`` with the index.  Compiled plans and
composite indexes serve both: they are the engine's only select path.
Reply streams are hashed per connection and must be byte-identical
across modes.

Gate: closure throughput must be ``E11_MIN_SPEEDUP`` (default 3x) the
walk's.  The record lands in ``benchmarks/results/E11.json``.

Env knobs (CI smoke uses tiny values): E11_USERS, E11_TREE_FANOUT,
E11_TREE_DEPTH, E11_TREE_USERS, E11_OPS, E11_CALLERS,
E11_MIN_SPEEDUP.
"""

from __future__ import annotations

import hashlib
import os
import time

from benchmarks.conftest import record
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.engine import _PATTERN_LRU
from repro.protocol.wire import MajorRequest, encode_request
from repro.workload import PopulationSpec

USERS = int(os.environ.get("E11_USERS", "10000"))
TREE_FANOUT = int(os.environ.get("E11_TREE_FANOUT", "3"))
TREE_DEPTH = int(os.environ.get("E11_TREE_DEPTH", "6"))
TREE_USERS = int(os.environ.get("E11_TREE_USERS", "2000"))
OPS = int(os.environ.get("E11_OPS", "2400"))
CALLERS = int(os.environ.get("E11_CALLERS", "8"))
MIN_SPEEDUP = float(os.environ.get("E11_MIN_SPEEDUP", "3.0"))

BENCH_MACHINES = 64


def _build_world() -> tuple[AthenaDeployment, list[str]]:
    """The 10k-user world plus the admin department tree.

    Returns (deployment, caller logins) — the callers are leaf users of
    the tree, i.e. admins only through ``TREE_DEPTH`` levels of list
    nesting.
    """
    d = AthenaDeployment(DeploymentConfig(
        population=PopulationSpec(users=USERS, unregistered_users=0)))
    d.server.access_cache.enabled = False  # every request pays its check
    direct = d.direct_client()
    for k in range(BENCH_MACHINES):
        direct.query("add_machine", f"BENCH{k}.MIT.EDU", "VAX")

    # the department tree: dept0 is the root, on moira-admins; each
    # dept{i} contains its children dept{i*F+1}..dept{i*F+F}
    n_lists = sum(TREE_FANOUT ** level for level in range(TREE_DEPTH))
    for i in range(n_lists):
        direct.query("add_list", f"dept{i}", 1, 1, 0, 0, 0, 0,
                     "LIST", f"dept{i}", "E11 department tree")
    direct.query("add_member_to_list", "moira-admins", "LIST", "dept0")
    first_leaf = n_lists
    for i in range(n_lists):
        for f in range(TREE_FANOUT):
            child = i * TREE_FANOUT + 1 + f
            if child < n_lists:
                direct.query("add_member_to_list", f"dept{i}", "LIST",
                             f"dept{child}")
            else:
                first_leaf = min(first_leaf, i)
    # spread users across the leaf departments
    leaves = [f"dept{i}" for i in range(first_leaf, n_lists)]
    logins = d.handles.logins
    tree_users = [logins[i % len(logins)]
                  for i in range(min(TREE_USERS, len(logins)))]
    for j, login in enumerate(tree_users):
        direct.query("add_member_to_list", leaves[j % len(leaves)],
                     "USER", login)
    callers = tree_users[:: max(1, len(tree_users) // CALLERS)][:CALLERS]
    return d, callers


def _request_plan(d: AthenaDeployment, caller: str,
                  index: int) -> list[bytes]:
    """The deterministic frame sequence for one caller connection."""
    frames = []
    for j in range(OPS // CALLERS):
        kind = (index + j) % 8
        if kind < 4:
            name = f"BENCH{(index * 7 + j * 3) % BENCH_MACHINES}.MIT.EDU"
            req = ["get_machine", name]
        elif kind < 6:
            req = ["get_lists_of_member", "RUSER", caller]
        elif kind == 6:
            req = ["get_filesys_by_label", caller]
        else:
            req = ["get_ace_use", "RUSER", caller]
        frames.append(encode_request(MajorRequest.QUERY, req))
    return frames


def _run_mode(d: AthenaDeployment, callers: list[str],
              closure: bool) -> tuple[float, list[str]]:
    """One measurement pass over the shared world.

    Returns (requests/sec, per-connection reply-stream digests)."""
    d.db.closure_enabled = closure
    conn_ids = []
    for i, caller in enumerate(callers):
        conn_id = d.server.open_connection(f"e11-{i}")
        # bench shortcut: bind the principal directly instead of
        # replaying the Kerberos handshake per connection
        d.server._connections[conn_id].principal = caller
        conn_ids.append(conn_id)
    plans = [_request_plan(d, caller, i)
             for i, caller in enumerate(callers)]
    digests = [hashlib.sha256() for _ in callers]
    total = sum(len(p) for p in plans)
    start = time.perf_counter()
    for i, frames in enumerate(plans):
        for frame in frames:
            for reply in d.server.handle_frame(conn_ids[i], frame[4:]):
                digests[i].update(reply)
    elapsed = time.perf_counter() - start
    for conn_id in conn_ids:
        d.server.close_connection(conn_id)
    return total / elapsed, [digest.hexdigest() for digest in digests]


def test_e11_query_engine_fast_path():
    d, callers = _build_world()
    base_rps, base_digests = _run_mode(d, callers, closure=False)
    fast_rps, fast_digests = _run_mode(d, callers, closure=True)
    # identical world, read-only workload: the closure must produce
    # byte-identical reply streams, connection by connection
    assert fast_digests == base_digests, "reply drift between modes"
    speedup = fast_rps / base_rps

    closure = d.db.membership_closure()
    n_lists = sum(TREE_FANOUT ** level for level in range(TREE_DEPTH))
    lines = [
        "E11: membership-closure index vs recursive walk "
        f"({USERS} users, {n_lists}-list admin tree "
        f"(fanout {TREE_FANOUT}, depth {TREE_DEPTH}, "
        f"{TREE_USERS} leaf users), {OPS} ops over {CALLERS} callers, "
        "access cache off)",
        f"{'mode':<10}{'rps':>10}",
        f"{'walk':<10}{base_rps:>10.0f}",
        f"{'closure':<10}{fast_rps:>10.0f}",
        f"speedup {speedup:.2f}x (required >= {MIN_SPEEDUP}x), "
        "byte-identical replies",
    ]
    record("E11", {
        "users": USERS,
        "tree_lists": n_lists,
        "tree_fanout": TREE_FANOUT,
        "tree_depth": TREE_DEPTH,
        "tree_users": TREE_USERS,
        "ops": OPS,
        "callers": CALLERS,
        "baseline_rps": round(base_rps, 1),
        "fast_rps": round(fast_rps, 1),
        "speedup": round(speedup, 2),
        "min_speedup_required": MIN_SPEEDUP,
        "byte_identical_replies": True,
        "closure": closure.stats() if closure is not None else None,
        "pattern_lru": {"hits": _PATTERN_LRU.hits,
                        "misses": _PATTERN_LRU.misses},
    }, lines)
    assert speedup >= MIN_SPEEDUP, (
        f"closure speedup {speedup:.2f}x < required {MIN_SPEEDUP}x")
