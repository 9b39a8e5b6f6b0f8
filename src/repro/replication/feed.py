"""Primary-side replication feed: the `_repl_*` streaming pseudo-queries.

Replicas bootstrap and stay fresh over the *existing* counted-byte-string
protocol — no side channel, no new wire format.  Three pseudo-queries,
dispatched by :meth:`MoiraServer._do_query` ahead of the registry lookup
(the same slot the ``_list_users`` / ``_query_stats`` diagnostics use):

``_repl_status``
    One tuple ``(role, current_seq, versions_json, epoch)``: the WAL
    high-water mark paired with the per-table data-version vector
    (``Database.versions()``), both read from one
    :func:`~repro.db.recovery.consistent_cut`, plus the cluster epoch
    (WAL ownership).  Clients use ``current_seq`` as the
    read-your-writes session token and ``role``/``epoch`` to find the
    current primary after a failover; the vector is only reported.
    After the status tuple come ``(_endpoint, name, address, role)``
    rows — the feed topology as this node knows it — so an operator can
    see cluster state from any node.

``_repl_snapshot``
    The bootstrap: ``(_meta, watermark_seq, versions_json, epoch)``
    followed by
    one ``(table, row_line)`` tuple per row, each line made by the dump
    loop :func:`repro.db.backup.mrbackup` writes its files with
    (checkpoint format).  The whole stream reads one
    :func:`~repro.db.recovery.consistent_cut`, the one a checkpoint
    dumps, so the snapshot is the committed state at *watermark_seq*
    — the replica tails strictly after it — and writers commit past
    it while it streams.

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

from repro.db.backup import dump_relations
from repro.db.journal import JournalEntry, stamp_from_json
from repro.db.recovery import consistent_cut
from repro.errors import (
    MoiraError,
    MR_ARGS,
    MR_MORE_DATA,
    MR_NO_HANDLE,
    MR_PERM,
)
from repro.protocol.wire import Run, final, str_row

if TYPE_CHECKING:    # pragma: no cover
    from repro.server.moira_server import MoiraServer

__all__ = ["REPL_QUERIES", "META_ROW", "RESYNC_ROW", "ENDPOINT_ROW",
           "REPL_SERVICE_PRINCIPAL", "serve_repl_query",
           "entry_to_tuple", "entry_from_tuple"]

REPL_QUERIES = ("_repl_status", "_repl_snapshot", "_repl_tail")

# the service principal the feed authenticates as — every replica
# kinits from this principal's srvtab before pulling
REPL_SERVICE_PRINCIPAL = "repl"

# sentinel first-field values inside the feed streams
META_ROW = "_meta"
RESYNC_ROW = "_resync"
ENDPOINT_ROW = "_endpoint"


def entry_to_tuple(entry: JournalEntry) -> tuple[str, ...]:
    """Encode one journal entry as a wire tuple.

    The last two fields carry the MVCC commit seq (the replay-order
    oracle) and the entry's footprint, ``changed`` (``""`` when it has
    none), which tells the replica whether to poke its membership
    closure.
    """
    return (str(entry.seq), str(entry.when), entry.who, entry.client,
            entry.query,
            json.dumps(list(entry.args), separators=(",", ":")),
            str(entry.commit_seq),
            "" if entry.changed is None else json.dumps(
                dict(entry.changed), separators=(",", ":")))


def entry_from_tuple(fields: Sequence[str]) -> JournalEntry:
    """Invert :func:`entry_to_tuple`; raises ``ValueError`` if mangled."""
    if len(fields) != 8:
        raise ValueError(f"journal tuple wants 8 fields, got {len(fields)}")
    seq, when, who, client, query, args, commit_seq, changed = fields
    parsed = json.loads(args)
    if not isinstance(parsed, list):
        raise ValueError("journal tuple args not a list")
    return JournalEntry(seq=int(seq), when=int(when), who=who,
                        client=client, query=query,
                        args=tuple(str(a) for a in parsed),
                        commit_seq=int(commit_seq) if commit_seq else 0,
                        changed=stamp_from_json(json.loads(changed))
                        if changed else None)


def parse_seq(value: str, what: str) -> int:
    """The integer a ``_repl_*`` argument carries (a sequence number or
    a count), or ``MR_ARGS`` naming *what* it should have been."""
    try:
        return int(value)
    except ValueError:
        raise MoiraError(MR_ARGS, f"{what} must be an integer") from None


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
    with consistent_cut(server.db, server.journal) as (_, seq, versions):
        rows = [(server.role, str(seq), versions_json(versions),
                 str(server.journal.epoch))]
    rows.extend((ENDPOINT_ROW, name, address, role) for name, (address, role)
                in sorted(server.repl_endpoints.items()))
    yield MR_MORE_DATA, list(map(str_row, rows))
    yield final(0)


def _snapshot(server: "MoiraServer") -> Iterator[Run]:
    journal = server.journal
    with consistent_cut(server.db, journal) as (view, watermark, versions):
        yield MR_MORE_DATA, [(META_ROW, str(watermark),
                              versions_json(versions), str(journal.epoch))]
        for name, lines in dump_relations(view):
            yield MR_MORE_DATA, [(name, line) for line in lines]
    yield final(0)


def _tail(server: "MoiraServer", args: Sequence[str]) -> Iterator[Run]:
    if not args:
        raise MoiraError(MR_ARGS, "_repl_tail wants after_seq [limit]")
    after = parse_seq(args[0], "_repl_tail after_seq")
    limit = parse_seq(args[1], "_repl_tail limit") if len(args) > 1 else 0
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
