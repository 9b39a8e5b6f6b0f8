"""A replica's bootstrap snapshot is one consistent cut that writers
commit past, like a checkpoint's dump.

``_repl_snapshot`` streamed the primary's live tables under the shared
side of the writer lock, so every write waited for the whole bootstrap
to drain.  The stream now reads a pinned ``consistent_cut``: on the
memory engine a write from another thread commits while the stream is
still open, and the stream still holds the state from before it; on
SQLite the view holds the lock and the write waits, as before.  Either
way the replica tails the write from the watermark and ends identical
to the primary."""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.db.backend import available_backends, create_backend
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.errors import MR_MORE_DATA
from repro.protocol.transport import connect_inproc
from repro.queries.base import QueryContext, execute_query
from repro.replication.feed import META_ROW, serve_repl_query
from repro.replication.replica import ReplicaServer
from repro.server.moira_server import MoiraServer
from repro.sim.clock import DEFAULT_EPOCH, Clock


def _write(primary, n: int) -> None:
    primary.clock.set(DEFAULT_EPOCH + n)
    ctx = QueryContext(db=primary.db, clock=primary.clock, caller="root",
                       client="test", privileged=True,
                       journal=primary.journal)
    execute_query(ctx, "add_machine", [f"RACE{n}.MIT.EDU", "VAX"])


def _dump(db, directory):
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("name", available_backends())
def test_a_write_after_the_meta_row_is_tailed_not_streamed(name, tmp_path,
                                                           monkeypatch):
    db, clock, journal = create_backend(name), Clock(), Journal()
    primary = SimpleNamespace(db=db, clock=clock, journal=journal,
                              server=MoiraServer(db, clock, journal=journal))
    for n in range(1, 4):
        _write(primary, n)
    seq_before, versions_before = journal.current_seq(), db.versions()

    stream = serve_repl_query(primary.server, "_repl_snapshot", ())
    code, meta = next(stream)
    assert code == MR_MORE_DATA and meta[0][0] == META_ROW
    writer = threading.Thread(target=_write, args=(primary, 4))
    writer.start()
    # a pinned view lets the write commit now; a view holding the
    # writer lock makes it wait for the stream to drain
    writer.join(timeout=10 if name == "memory" else 0.5)
    committed_while_open = not writer.is_alive()
    rows = [*meta]
    for code, run in stream:
        if code == MR_MORE_DATA:
            rows.extend(run)
    writer.join(timeout=30)
    assert not writer.is_alive()

    assert not any("RACE4.MIT.EDU" in line for _, line in rows[1:])
    _, watermark, vector, _ = meta[0]
    assert int(watermark) == seq_before
    assert journal.current_seq() == seq_before + 1
    replica = ReplicaServer(
        clock, feed_factory=lambda: connect_inproc(primary.server))
    pull = replica._feed_call
    monkeypatch.setattr(replica, "_feed_call", lambda *args: (
        rows if args == ("_repl_snapshot",) else pull(*args)))
    assert replica.sync_snapshot() == seq_before
    assert replica.primary_versions == versions_before
    assert replica.step() == 1
    assert _dump(replica.db, tmp_path / "replica") == _dump(
        db, tmp_path / "primary")
    if name == "memory":
        assert committed_while_open, "the write waited for the snapshot"
