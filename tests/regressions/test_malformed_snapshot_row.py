"""A malformed replica snapshot row is refused, and nothing is loaded.

``ReplicaServer.sync_snapshot`` zipped each row's fields onto its
relation's columns without counting them: ``B.MIT.EDU:8`` loaded as a
``machine`` row with ``type=''``.  A bad escape raised
``parse_line``'s bare ``ValueError``, which the pump thread does not
catch, so the pump died.  And each relation was cleared just before it
reloaded, so after a bad row ``machine`` was left empty beside the
old rows of the relations before it, and the replica served reads from
that state.  The snapshot now loads through ``db.load``: a malformed
row is ``MR_INTERNAL`` "malformed snapshot row", every relation is left
as it was, and the pump keeps pulling."""

from __future__ import annotations

import time

import pytest

from repro.errors import MoiraError, MR_INTERNAL
from tests.test_replication import add_machine, make_primary, make_replica
from tests.test_wal_recovery import dump

BAD_LINES = ["B.MIT.EDU:8", "B\\9zz.MIT.EDU"]


def feed_appending(replica, line: str) -> list:
    """Make every snapshot *replica* pulls end with ``machine`` row
    *line*; returns the list each pull appends a mark to."""
    pulls, real = [], replica._feed_call

    def feed(*args):
        rows = real(*args)
        if args[0] == "_repl_snapshot":
            pulls.append(args)
            rows.append(("machine", line))
        return rows
    replica._feed_call = feed
    return pulls


@pytest.mark.parametrize("line", BAD_LINES)
def test_a_resync_with_a_malformed_row_changes_nothing(line, tmp_path):
    primary = make_primary()
    add_machine(primary)
    replica = make_replica(primary)
    replica.step()
    before = dump(replica.db, tmp_path / "before")
    add_machine(primary, "FRAME1.MIT.EDU", at=501)
    feed_appending(replica, line)
    with pytest.raises(MoiraError) as caught:
        replica.sync_snapshot()
    assert caught.value.code == MR_INTERNAL
    assert "malformed snapshot row" in str(caught.value)
    assert dump(replica.db, tmp_path / "after") == before


@pytest.mark.parametrize("line", BAD_LINES)
def test_the_pump_survives_a_malformed_snapshot(line, tmp_path):
    primary = make_primary()
    add_machine(primary)
    replica = make_replica(primary)
    before = dump(replica.db, tmp_path / "before")
    pulls = feed_appending(replica, line)
    replica.start(0.001)
    try:
        deadline = time.monotonic() + 10
        while len(pulls) < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(pulls) >= 3
        assert replica._thread.is_alive()
    finally:
        replica.stop()
    assert dump(replica.db, tmp_path / "after") == before
