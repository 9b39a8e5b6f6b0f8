"""A malformed watermark, versions or epoch field in a replica feed's
meta row is a feed error, and the pump keeps pulling.

``ReplicaServer.sync_snapshot`` parsed the snapshot's meta row with a
bare ``int`` and ``json.loads``, and ``_pull`` the tail's watermark
with a bare ``int``, as ``_note_epoch`` did the epoch.  Their
``ValueError`` escaped the pump's ``_run``, which catches only
``MoiraError`` and ``OSError``: a feed that sent ``x`` as the watermark
killed the pump thread after one tick.  Each is now ``MR_INTERNAL``,
as a malformed snapshot row is."""

from __future__ import annotations

import time

import pytest

from repro.errors import MoiraError, MR_INTERNAL
from tests.test_replication import add_machine, make_primary, make_replica

# (feed call, meta field, value sent in its place)
MANGLED = [
    ("_repl_snapshot", 1, "x"),         # the snapshot's watermark
    ("_repl_snapshot", 2, "{"),         # its data versions
    ("_repl_snapshot", 3, "x"),         # its epoch
    ("_repl_tail", 1, "x"),             # the tail's watermark
    ("_repl_tail", 2, "x"),             # its epoch
]


def mangle(replica, call: str, field: int, value: str) -> list:
    """Make every *call* reply *replica* pulls carry *value* as meta
    field *field*; returns the list each such pull appends a mark to."""
    pulls, real = [], replica._feed_call

    def feed(*args):
        rows = real(*args)
        if args[0] == call:
            pulls.append(args)
            meta = list(rows[0])
            meta[field] = value
            rows[0] = tuple(meta)
        return rows
    replica._feed_call = feed
    return pulls


@pytest.mark.parametrize("call, field, value", MANGLED)
def test_the_pump_survives_a_malformed_meta_row(call, field, value):
    primary = make_primary()
    add_machine(primary)
    replica = make_replica(primary)
    if call == "_repl_tail":
        replica.step()                  # synced: every pull is a tail
    pulls = mangle(replica, call, field, value)
    with pytest.raises(MoiraError) as caught:
        replica.step()
    assert caught.value.code == MR_INTERNAL
    replica.start(0.001)
    try:
        deadline = time.monotonic() + 10
        while len(pulls) < 4 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(pulls) >= 4
        assert replica._thread.is_alive()
    finally:
        replica.stop()
