"""One WAL-entry applier, two callers (DESIGN.md §17).

``repro.db.recovery.apply_entries`` is the only loop that turns journal
entries back into database state; ``replay_wal`` (crash recovery) and
``ReplicaServer._apply`` (the replication feed and promotion salvage)
are thin consumers of it.  The same entry list must therefore leave a
recovered database and a replica byte-identical under the ``mrbackup``
oracle, and both must refuse the same bad entry at the same point.
"""

from __future__ import annotations

import pytest

from repro.db.backend import available_backends, create_backend
from repro.db.journal import Journal
from repro.db.recovery import apply_entries, replay_wal
from repro.errors import (
    MoiraError,
    MR_INTERNAL,
    MR_NO_HANDLE,
    MR_NOT_UNIQUE,
)
from repro.replication.replica import ReplicaServer
from repro.sim.clock import DEFAULT_EPOCH, Clock

from tests.test_wal_recovery import dump

BASE = DEFAULT_EPOCH + 1000


def user(login, uid):
    return ("add_user", (login, str(uid), "/bin/sh", "L", "F", "", "1",
                         f"m{uid}", "1990"))


# (query, args): a committed write, one that allocates an id, a write
# the target already holds (tolerated conflict), another committed write
GOOD = [
    user("ap1", 7401),
    ("add_machine", ("AP0.MIT.EDU", "VAX")),
    user("ap1", 7401),
    ("add_machine", ("AP1.MIT.EDU", "VAX")),
]


def write_wal(path, script, commit_seqs=None):
    journal = Journal(path=path)
    for i, (query, args) in enumerate(script):
        journal.record(BASE + i, "root", query, args, client="test",
                       commit_seq=(commit_seqs or range(1, 99))[i])
    journal.close()
    return path


def replica_over(path):
    """A replica fed straight from a WAL file (the promotion-salvage
    entry point), so both callers see the very same entries."""
    replica = ReplicaServer(Clock(), feed_factory=lambda: None)
    return replica, lambda: replica.catch_up_from_wal(path)


@pytest.mark.parametrize("name", available_backends())
def test_replay_and_replica_agree_byte_for_byte(name, tmp_path):
    wal = write_wal(tmp_path / "wal", GOOD)
    db = create_backend(name)
    result = replay_wal(db, Journal.load(wal))
    assert (result.replayed, result.skipped_conflicts) == (3, 1)
    assert "tolerated MR_NOT_UNIQUE" in result.log[0]

    replica, feed = replica_over(wal)
    assert feed() == 4
    assert (replica.entries_applied, replica.apply_conflicts,
            replica.applied_seq) == (4, 1, 4)
    # both allocated the same ids, naturally
    assert db.get_value("mach_id") == replica.db.get_value("mach_id")
    assert dump(db, tmp_path / "replayed") == \
        dump(replica.db, tmp_path / "replica")


def test_strict_turns_the_tolerated_conflict_into_a_raise(tmp_path):
    wal = write_wal(tmp_path / "wal", GOOD)
    db = create_backend("memory")
    with pytest.raises(MoiraError) as caught:
        replay_wal(db, Journal.load(wal), strict=True)
    assert caught.value.code == MR_NOT_UNIQUE
    # everything before the conflict was applied, nothing after
    lenient = create_backend("memory")
    done = [entry.seq for entry, _ in apply_entries(
        lenient, Journal.load(wal).entries[:2], clock=Clock(0))]
    assert done == [1, 2]
    assert dump(db, tmp_path / "strict") == \
        dump(lenient, tmp_path / "prefix")


BAD = {
    # WAL order must equal commit-seq order
    "out_of_commit_order": (
        [user("ap1", 7401), user("ap2", 7402), user("ap3", 7403)],
        [1, 3, 2], ValueError, "out of commit order"),
    # an error replay does not tolerate
    "untolerated_error": (
        [user("ap1", 7401), user("ap2", 7402), ("no_such_query", ())],
        None, MoiraError, "no_such_query"),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_both_callers_refuse_the_same_entry(case, tmp_path):
    script, commit_seqs, raised, match = BAD[case]
    wal = write_wal(tmp_path / "wal", script, commit_seqs)
    db = create_backend("memory")
    with pytest.raises(raised, match=match) as replay_error:
        replay_wal(db, Journal.load(wal))

    replica, feed = replica_over(wal)
    # the replica reports a feed error as a MoiraError (its pump
    # retries those), carrying the applier's own message
    with pytest.raises(MoiraError, match=match) as feed_error:
        feed()
    if raised is ValueError:
        assert feed_error.value.code == MR_INTERNAL
        assert str(replay_error.value) in str(feed_error.value)
    else:
        assert feed_error.value.code == replay_error.value.code \
            == MR_NO_HANDLE
    # both stopped after the second entry, in the same state
    assert replica.applied_seq == 2
    assert dump(db, tmp_path / "replayed") == \
        dump(replica.db, tmp_path / "replica")


def test_only_the_order_violation_is_relabelled_a_feed_error(
        tmp_path, monkeypatch):
    """A ``ValueError`` that is not the commit-order oracle (a handler
    choking on its arguments) surfaces as itself from both callers."""
    from repro.queries import base as queries_base

    def choke(ctx, name, args):
        raise ValueError("invalid literal for int()")

    monkeypatch.setattr(queries_base, "execute_query", choke)
    wal = write_wal(tmp_path / "wal", GOOD[:1])
    with pytest.raises(ValueError, match="invalid literal"):
        replay_wal(create_backend("memory"), Journal.load(wal))
    replica, feed = replica_over(wal)
    with pytest.raises(ValueError, match="invalid literal"):
        feed()
    assert replica.applied_seq == 0
