"""Primary-side replication feed: the `_repl_*` streaming pseudo-queries.

Replicas bootstrap and stay fresh over the *existing* counted-byte-string
protocol — no side channel, no new wire format.  Three pseudo-queries,
dispatched by :meth:`MoiraServer._do_query` ahead of the registry lookup
(the same slot the ``_list_users`` / ``_query_stats`` diagnostics use):

``_repl_status``
    One tuple ``(role, current_seq, versions_json, epoch)``: the WAL
    high-water mark paired with the per-table data-version vector
    (PR 1's ``Database.versions()``), captured atomically under the
    shared lock, plus the cluster epoch (WAL ownership).  Clients use
    ``current_seq`` as the read-your-writes session token and
    ``role``/``epoch`` to find the current primary after a failover;
    replicas compare version vectors for freshness accounting.  After
    the status tuple come ``(_endpoint, name, address, role)`` rows —
    the feed topology as this node knows it — so an operator can see
    cluster state from any node, then ``(_cursor, name, seq)`` rows
    for every registered CDC consumer cursor (compaction pins).

``_repl_snapshot``
    The bootstrap: ``(_meta, watermark_seq, versions_json, epoch)``
    followed by
    one ``(table, row_line)`` tuple per row, the row encoded exactly as
    an :func:`repro.db.backup.mrbackup` dump line (checkpoint format).
    The whole stream is produced under one shared-lock hold, so the
    snapshot is a consistent cut at *watermark_seq* — the replica tails
    strictly after it.

``_repl_tail <after_seq> [limit]``
    The incremental feed: ``(_meta, current_seq, epoch)`` then one
    tuple per
    journal entry with ``seq > after_seq``.  When *after_seq* predates
    the retained log (a checkpoint truncated past a slow replica) the
    reply is a single ``(_resync, oldest, current)`` tuple instead —
    the replica must fall back to ``_repl_snapshot``.

``_repl_status`` is an open freshness probe, like ``_query_stats``.
The *data-bearing* feed pulls — ``_repl_snapshot`` and ``_repl_tail``
— are behind the simulated Kerberos whenever the server has a KDC:
the caller must have authenticated as the ``repl`` service principal
(``REPL_SERVICE_PRINCIPAL``; replicas kinit from its srvtab), and an
unauthenticated or wrong-principal pull answers ``MR_PERM``.  A server
built without a KDC (unit-test enclaves) leaves the feed open.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.db.backup import escape_field
from repro.db.journal import JournalEntry
from repro.errors import (
    MoiraError,
    MR_ARGS,
    MR_MORE_DATA,
    MR_NO_HANDLE,
    MR_PERM,
)
from repro.protocol.wire import Run, final

if TYPE_CHECKING:    # pragma: no cover
    from repro.server.moira_server import MoiraServer

__all__ = ["REPL_QUERIES", "META_ROW", "RESYNC_ROW", "ENDPOINT_ROW",
           "CURSOR_ROW", "REPL_SERVICE_PRINCIPAL", "serve_repl_query",
           "entry_to_tuple", "entry_from_tuple"]

REPL_QUERIES = ("_repl_status", "_repl_snapshot", "_repl_tail")

# the service principal the feed authenticates as — every replica
# kinits from this principal's srvtab before pulling
REPL_SERVICE_PRINCIPAL = "repl"

# sentinel first-field values inside the feed streams
META_ROW = "_meta"
RESYNC_ROW = "_resync"
ENDPOINT_ROW = "_endpoint"
CURSOR_ROW = "_cursor"


def entry_to_tuple(entry: JournalEntry) -> tuple[str, ...]:
    """Encode one journal entry as a wire tuple.

    Two trailing fields carry the write transaction's metadata: the
    MVCC commit seq (replay-order oracle) and the id/intern bindings
    (system-table trajectory, including aborted writers').
    """
    return (str(entry.seq), str(entry.when), entry.who, entry.client,
            entry.query,
            json.dumps(list(entry.args), separators=(",", ":")),
            str(entry.commit_seq),
            json.dumps(entry.bindings, separators=(",", ":"))
            if entry.bindings else "")


def entry_from_tuple(fields: Sequence[str]) -> JournalEntry:
    """Invert :func:`entry_to_tuple`; raises ``ValueError`` if mangled."""
    if len(fields) != 8:
        raise ValueError(f"journal tuple wants 8 fields, got {len(fields)}")
    seq, when, who, client, query, args, commit_seq, bindings = fields
    parsed = json.loads(args)
    if not isinstance(parsed, list):
        raise ValueError("journal tuple args not a list")
    bindings = json.loads(bindings) if bindings else None
    if bindings is not None and not isinstance(bindings, dict):
        raise ValueError("journal tuple bindings not an object")
    return JournalEntry(seq=int(seq), when=int(when), who=who,
                        client=client, query=query,
                        args=tuple(str(a) for a in parsed),
                        commit_seq=int(commit_seq) if commit_seq else 0,
                        bindings=bindings)


def versions_json(versions: dict) -> str:
    return json.dumps(versions, sort_keys=True, separators=(",", ":"))


def serve_repl_query(server: "MoiraServer", name: str,
                     args: Sequence[str],
                     principal: str = "") -> Iterator[Run]:
    """Serve one `_repl_*` pseudo-query; yields runs of replies.

    *principal* is the connection's authenticated Kerberos identity
    ("" = unauthenticated).  On a server with a KDC, the data-bearing
    pulls (`_repl_snapshot`/`_repl_tail`) require the ``repl`` service
    principal and answer ``MR_PERM`` to anyone else; `_repl_status`
    stays open (a freshness/topology probe, like `_query_stats`).
    """
    if name == "_repl_status":
        return _status(server)
    if name in ("_repl_snapshot", "_repl_tail"):
        if server.kdc is not None:
            wanted = server.repl_principal
            if principal != wanted:
                raise MoiraError(
                    MR_PERM,
                    f"{name} requires the {wanted!r} service principal "
                    f"(got {principal or 'unauthenticated'!r})")
        if name == "_repl_snapshot":
            return _snapshot(server)
        return _tail(server, args)
    raise MoiraError(MR_NO_HANDLE, name)


def _status(server: "MoiraServer") -> Iterator[Run]:
    with server.db.read_locked():
        seq = server.journal.current_seq()
        versions = server.db.versions()
    rows = [(server.role, str(seq), versions_json(versions),
             str(server.journal.epoch))]
    rows.extend((ENDPOINT_ROW, name, address, role) for name, (address, role)
                in sorted(server.repl_endpoints.items()))
    # registered CDC consumer cursors: how far each extractor has
    # durably processed the WAL (compaction pins, like replica seqs)
    rows.extend((CURSOR_ROW, name, str(cursor_seq)) for name, cursor_seq
                in sorted(server.journal.cursors().items()))
    yield MR_MORE_DATA, rows
    yield final(0)


def _snapshot(server: "MoiraServer") -> Iterator[Run]:
    db = server.db
    # one shared-lock hold across the whole stream: the dump is a
    # consistent cut at the watermark (writers take the lock exclusively
    # and journal inside it, so the journal is quiescent here too)
    with db.read_locked():
        watermark = server.journal.current_seq()
        yield MR_MORE_DATA, [(META_ROW, str(watermark),
                              versions_json(db.versions()),
                              str(server.journal.epoch))]
        for name in sorted(db.tables):
            table = db.tables[name]
            yield MR_MORE_DATA, [
                (name, ":".join(escape_field(str(row[col]))
                                for col in table.columns))
                for row in table.rows]
    yield final(0)


def _tail(server: "MoiraServer", args: Sequence[str]) -> Iterator[Run]:
    if not args:
        raise MoiraError(MR_ARGS, "_repl_tail wants after_seq [limit]")
    try:
        after = int(args[0])
        limit = int(args[1]) if len(args) > 1 else 0
    except ValueError:
        raise MoiraError(MR_ARGS,
                         "_repl_tail after_seq/limit must be integers"
                         ) from None
    oldest, current, entries = server.journal.tail(after)
    if entries is None:
        # the checkpoint truncated past the replica: snapshot required
        yield MR_MORE_DATA, [(RESYNC_ROW, str(oldest), str(current))]
        yield final(0)
        return
    if limit > 0:
        entries = entries[:limit]
    yield MR_MORE_DATA, [(META_ROW, str(current), str(server.journal.epoch)),
                         *map(entry_to_tuple, entries)]
    yield final(0)
