"""MVCC snapshot-isolation tests: consistent cuts under concurrent
writers, read-your-writes, closure/plan-cache correctness against
pinned snapshots, version GC, and the observability counters."""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.engine import Database
from repro.db.mvcc import SnapshotTable
from repro.db.schema import build_database
from repro.queries.base import RUN_ROWS
from repro.workload import PopulationSpec
from tests.test_query_plans import (
    KINDS,
    NAMES,
    TAGS,
    brute_force,
    fill,
    make_table,
    row_ids,
)

CHURN = ("insert", "update", "delete")

# one strategy per probe-table column; every WHERE shape the plans
# distinguish is reachable: exact (id), covered composite (kind +
# owner), wildcard, literal prefix and case-folded (name)
_VALUES = {
    "id": st.integers(0, 45),
    "kind": st.sampled_from(KINDS + ["US*", "*", "L?ST"]),
    "owner": st.integers(0, 28),
    "name": st.sampled_from(NAMES + ["Al*", "alph*", "*a*", "??ta",
                                     "ALPHA", "zzz*"]),
    "tag": st.sampled_from(TAGS + ["h*"]),
}
WHERE = st.one_of(
    st.just({}),
    st.lists(st.sampled_from(sorted(_VALUES)), min_size=1, max_size=4,
             unique=True).flatmap(lambda columns: st.fixed_dictionaries(
                 {name: _VALUES[name] for name in columns})))


@pytest.fixture(scope="module")
def world():
    d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(
        users=30, unregistered_users=0, nfs_servers=2, maillists=6,
        clusters=1, machines_per_cluster=2, printers=2,
        network_services=4)))
    admin = d.handles.logins[0]
    d.make_admin(admin)
    client = d.client_for(admin, "adminpw", "mvcc-test")
    return d, client


class TestConsistentCut:
    def test_every_relation_is_served_from_its_version_store(self):
        """No relation is read live: the allocator relations
        (``values``, ``strings``) version like the rest, so a snapshot
        never sees an id or a string drawn after its pin."""
        db = build_database()
        with db.read_view() as view:
            for name, live in db.tables.items():
                served = view.table(name)
                assert isinstance(served, SnapshotTable), name
                assert served._store is live._mv, name
            hint = view.get_value("gid")
            db.next_id("gid")
            db.intern_string("after-the-pin")
            assert view.get_value("gid") == hint
            assert not view.table("strings").select(
                {"string": "after-the-pin"})
        assert db.get_value("gid") == hint + 1

    def test_streamed_read_ignores_later_mutations(self):
        """A pinned snapshot drained *after* inserts, updates, and
        deletes still returns exactly the rows visible at pin time."""
        db = build_database()
        t = db.table("machine")
        for i in range(20):
            t.insert({"name": f"CUT{i}.MIT.EDU", "mach_id": 500 + i,
                      "type": "VAX"})
        expected = [dict(r) for r in t.select({"type": "VAX"})]

        snap = db.pin_snapshot()
        st = snap.table("machine")
        stream = st.iter_select({"type": "VAX"})
        drained = [dict(next(stream)) for _ in range(5)]  # partial drain

        # a writer churns the same table mid-stream
        t.update_rows(t.select({"name": "CUT3.MIT.EDU"}),
                      {"type": "RT"})
        t.delete_rows(t.select({"name": "CUT7.MIT.EDU"}))
        t.insert({"name": "CUTNEW.MIT.EDU", "mach_id": 990,
                  "type": "VAX"})

        drained.extend(dict(r) for r in stream)
        assert drained == expected
        db.unpin_snapshot(snap)

        # a fresh read sees the post-mutation world
        after = {r["name"] for r in t.select({"type": "VAX"})}
        assert "CUT3.MIT.EDU" not in after
        assert "CUT7.MIT.EDU" not in after
        assert "CUTNEW.MIT.EDU" in after

    def test_invariant_reads_under_writer_threads(self):
        """Lock-free readers must never observe a torn transfer:
        writers move quota between two rows keeping the sum constant,
        and every snapshot read of the pair sums to the invariant."""
        db = build_database()
        t = db.table("nfsphys")
        a = t.insert({"nfsphys_id": 1, "mach_id": 1, "dir": "/a",
                      "allocated": 5000, "size": 10_000})
        b = t.insert({"nfsphys_id": 2, "mach_id": 1, "dir": "/b",
                      "allocated": 5000, "size": 10_000})
        total = a["allocated"] + b["allocated"]
        stop = threading.Event()
        torn: list[int] = []
        failed: list[Exception] = []

        def writer():
            delta = 1
            try:
                while not stop.is_set():
                    with db.lock:
                        # an update publishes a new row: select the heads
                        a, b = (t.select({"nfsphys_id": i})[0]
                                for i in (1, 2))
                        t.update_rows([a],
                                      {"allocated": a["allocated"] - delta})
                        t.update_rows([b],
                                      {"allocated": b["allocated"] + delta})
                    delta = -delta
            except Exception as exc:    # a dead writer tests nothing
                failed.append(exc)

        def reader():
            for _ in range(400):
                snap = db.pin_snapshot()
                try:
                    rows = snap.table("nfsphys").select({"mach_id": 1})
                    seen = sum(r["allocated"] for r in rows)
                    if seen != total:
                        torn.append(seen)
                finally:
                    db.unpin_snapshot(snap)

        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        w.start()
        for r in readers:
            r.start()
        for r in readers:
            r.join(timeout=60)
        stop.set()
        w.join(timeout=60)
        assert not torn, f"torn reads observed: {torn[:5]}"
        assert not failed and not w.is_alive(), failed
        assert sum(r["allocated"] for r in t.select({"mach_id": 1})) \
            == total

    def test_server_stream_vs_concurrent_writer(self, world):
        """A streamed server read drained alongside a committed write
        on another connection returns the pre-write row set."""
        d, client = world
        direct = d.direct_client()
        count = RUN_ROWS + 6    # more than one run of the lazy retrieve
        for k in range(count):
            direct.query("add_machine", f"STREAM{k}.MIT.EDU", "RT")
        from repro.protocol.wire import (MajorRequest, encode_replies,
                                         encode_request)
        from tests.frames import split_frames
        conn_id = d.server.open_connection("mvcc-stream")
        d.server._connections[conn_id].principal = d.handles.logins[0]
        frame = encode_request(MajorRequest.QUERY,
                               ["get_machine", "STREAM*.MIT.EDU"])[4:]
        stream = (encode_replies(rows, code) for code, rows
                  in d.server.handle_frame_stream(conn_id, frame))
        first = next(stream)  # the read has pinned its snapshot
        direct.query("add_machine", "STREAMX.MIT.EDU", "RT")
        rest = list(stream)
        replies = split_frames(b"".join([first] + rest))
        # the tuples + final status; the mid-stream commit is invisible
        assert len(split_frames(first)) == RUN_ROWS
        assert len(replies) == count + 1
        assert not any(b"STREAMX" in r for r in replies)
        rows = client.query("get_machine", "STREAM*.MIT.EDU")
        assert len(rows) == count + 1  # a fresh read sees the new one
        d.server.close_connection(conn_id)


class TestReadYourWrites:
    def test_same_connection_sees_own_mutation(self, world):
        d, client = world
        client.query("add_machine", "RYW1.MIT.EDU", "VAX")
        rows = client.query("get_machine", "RYW1.MIT.EDU")
        assert rows[0][0] == "RYW1.MIT.EDU"

    def test_direct_library_sees_own_mutation(self, world):
        d, _ = world
        direct = d.direct_client()
        direct.query("add_machine", "RYW2.MIT.EDU", "RT")
        rows = direct.query("get_machine", "RYW2.MIT.EDU")
        assert rows[0][0] == "RYW2.MIT.EDU"


class TestClosureAndPlansUnderSnapshots:
    def test_closure_mutation_invisible_to_pinned_snapshot(self, world):
        """members changes after the pin must not leak into snapshot
        membership answers (the closure index is newer than the
        snapshot, so it falls back to walking the snapshot's rows)."""
        d, client = world
        direct = d.direct_client()
        login = d.handles.logins[3]
        direct.query("add_list", "mvccl", "1", "1", "0", "0", "0",
                     "901", "NONE", "NONE", "mvcc closure list")
        snap = d.db.pin_snapshot()
        try:
            direct.query("add_member_to_list", "mvccl", "USER", login)
            # live: membership present
            live = {tuple(r) for r in
                    client.query("get_members_of_list", "mvccl")}
            assert ("USER", login) in live
            # snapshot: still empty
            st = snap.table("members")
            lists = snap.table("list").select({"name": "mvccl"})
            members = st.select({"list_id": lists[0]["list_id"]})
            assert members == []
        finally:
            d.db.unpin_snapshot(snap)

    def test_lists_of_user_consistent_during_membership_churn(self, world):
        """get_lists_of_member through the server while members churn:
        every reply is internally consistent (the closure either
        answers at the snapshot seq or the walk fallback does)."""
        d, client = world
        direct = d.direct_client()
        login = d.handles.logins[4]
        direct.query("add_list", "churn", "1", "1", "0", "0", "0",
                     "902", "NONE", "NONE", "churn list")
        errors: list[Exception] = []
        stop = threading.Event()

        def churn():
            flip = True
            while not stop.is_set():
                try:
                    if flip:
                        direct.query("add_member_to_list", "churn",
                                     "USER", login)
                    else:
                        direct.query("delete_member_from_list", "churn",
                                     "USER", login)
                    flip = not flip
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        w = threading.Thread(target=churn)
        w.start()
        try:
            for _ in range(60):
                rows = client.query_maybe("get_lists_of_member",
                                          "USER", login)
                names = {r[0] for r in (rows or [])}
                # the user's personal group is a permanent membership;
                # 'churn' may or may not be present, never garbage
                assert login in names
        finally:
            stop.set()
            w.join(timeout=60)
        assert not errors, errors[:2]

    def test_index_added_while_snapshot_pinned(self):
        """add_index backfills historical windows: a snapshot pinned
        before the index was created still answers correctly through
        the new index structures."""
        db = build_database()
        t = db.table("machine")
        for i in range(8):
            t.insert({"name": f"IDX{i}.MIT.EDU", "mach_id": 700 + i,
                      "type": "VAX" if i % 2 else "RT"})
        snap = db.pin_snapshot()
        before = [dict(r) for r in
                  snap.table("machine").select({"type": "VAX"})]
        t.add_index("type")
        t.insert({"name": "IDXNEW.MIT.EDU", "mach_id": 790,
                  "type": "VAX"})
        again = [dict(r) for r in
                 snap.table("machine").select({"type": "VAX"})]
        assert again == before
        db.unpin_snapshot(snap)
        live = {r["name"] for r in t.select({"type": "VAX"})}
        assert "IDXNEW.MIT.EDU" in live

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.sampled_from(CHURN),
                              st.integers(0, 2 ** 16)), max_size=30),
           st.lists(WHERE, min_size=1, max_size=8))
    def test_snapshot_selects_match_brute_force(self, churn, wheres):
        """Churn after a pin: the snapshot still holds the pinned rows,
        and its plans (exact, covered composite, wildcard, literal
        prefix, case-folded) answer as a scan of those rows does."""
        db = Database()
        table = db.create_table(make_table())
        fill(table, random.Random(7), n=60)
        with db.read_view() as snap:
            pinned = [dict(row) for row in table.rows]
            for op, seed in churn:
                rng = random.Random(seed)
                if op == "insert" or not table.rows:
                    fill(table, rng, n=2)
                elif op == "update":
                    table.update_rows(
                        [rng.choice(list(table.rows))],
                        {"kind": rng.choice(KINDS),
                         "owner": rng.randrange(25),
                         "name": rng.choice(NAMES)})
                else:
                    table.delete_rows([rng.choice(list(table.rows))])
            view = snap.table("probe")
            assert [dict(row) for row in view.rows] == pinned
            for where in wheres:
                expected = row_ids(brute_force(view, where))
                assert row_ids(view.select(where)) == expected, where
                assert view.count(where) == len(expected), where

    def test_an_update_rebuckets_a_row_only_when_its_key_moves(self):
        """An update that keeps a row's indexed values keeps its place
        in their buckets; one that changes a key appends the row to its
        new bucket — on the live table and in a snapshot alike."""
        db = Database()
        table = db.create_table(make_table())
        first, *_ = (table.insert({"id": i, "kind": "USER", "owner": 1,
                                   "name": f"n{i}", "tag": ""})
                     for i in range(3))

        def order(view, where):
            return [row["id"] for row in view.select(where)]

        def head():
            return table.select({"id": 0})

        table.update_rows([first], {"kind": "USER", "owner": 1, "tag": "x"})
        with db.read_view() as snap:
            for view in (table, snap.table("probe")):
                assert order(view, {"kind": "USER"}) == [0, 1, 2]
                assert order(view, {"kind": "USER", "owner": 1}) == [0, 1, 2]
        table.update_rows(head(), {"kind": "LIST"})
        table.update_rows(head(), {"kind": "USER"})
        with db.read_view() as snap:
            for view in (table, snap.table("probe")):
                assert order(view, {"kind": "USER"}) == [1, 2, 0]
                assert order(view, {"kind": "USER", "owner": 1}) == [1, 2, 0]


class TestVersionGC:
    def test_gc_respects_oldest_pin(self):
        db = build_database()
        t = db.table("machine")
        t.insert({"name": "GC1.MIT.EDU", "mach_id": 900, "type": "VAX"})
        snap = db.pin_snapshot()
        for i in range(10):
            t.update_rows(t.select({"mach_id": 900}),
                          {"type": "RT" if i % 2 else "VAX"})
        report = db.gc_versions()
        # the pin holds the horizon back: history since the pin stays
        assert snap.table("machine").select(
            {"name": "GC1.MIT.EDU"})[0]["type"] == "VAX"
        db.unpin_snapshot(snap)
        freed = db.gc_versions()
        assert freed["versions"] > 0
        # live state is untouched by GC
        assert t.select({"name": "GC1.MIT.EDU"})[0]["type"] == "RT"
        assert report["horizon"] <= freed["horizon"]

    def test_collections_beside_lock_free_readers(self):
        """A collection swaps only the buckets it touches, in place,
        while readers iterate without the lock: a writer moves quota
        between two rows, flips a third row between two buckets (one
        of which empties) and collects after every step; no reader
        ever sees a torn sum or the flipping row twice."""
        import sys
        db = build_database()
        t = db.table("nfsphys")
        for i in (1, 2, 3):
            t.insert({"nfsphys_id": i, "mach_id": 1, "dir": f"/{i}",
                      "allocated": 5000, "size": 10_000})
        stop = threading.Event()
        bad: list = []
        failed: list[Exception] = []

        def writer():
            delta = 1
            try:
                while not stop.is_set():
                    with db.lock:
                        # an update publishes a new row: select the heads
                        a, b, flip = (t.select({"nfsphys_id": i})[0]
                                      for i in (1, 2, 3))
                        t.update_rows([a],
                                      {"allocated": a["allocated"] - delta})
                        t.update_rows([b],
                                      {"allocated": b["allocated"] + delta})
                        t.update_rows([flip],
                                      {"mach_id": 4 - flip["mach_id"]})
                    db.gc_versions()
                    delta = -delta
            except Exception as exc:    # a dead writer tests nothing
                failed.append(exc)

        def reader():
            for _ in range(300):
                with db.read_view() as snap:
                    view = snap.table("nfsphys")
                    rows = view.select({"mach_id": 1})
                    ids = [r["nfsphys_id"] for r in rows]
                    moved = view.select({"mach_id": 3})
                    total = sum(r["allocated"] for r in rows
                                if r["nfsphys_id"] < 3)
                    if total != 10_000 or ids.count(3) + len(moved) != 1:
                        bad.append((total, ids, len(moved)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            w = threading.Thread(target=writer)
            readers = [threading.Thread(target=reader) for _ in range(4)]
            w.start()
            for r in readers:
                r.start()
            for r in readers:
                r.join(timeout=60)
            stop.set()
            w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(r.is_alive() for r in readers) and not w.is_alive()
        assert not failed, failed
        assert not bad, bad[:5]
        assert db.mvcc_stats()["versions_reclaimed"] > 0

    def test_checkpoint_triggers_gc(self, tmp_path):
        from repro.db.journal import Journal
        from repro.db.recovery import checkpoint
        db = build_database()
        t = db.table("machine")
        t.insert({"name": "GC2.MIT.EDU", "mach_id": 901, "type": "VAX"})
        for i in range(6):
            t.update_rows(t.select({"mach_id": 901}),
                          {"type": "RT" if i % 2 else "VAX"})
        journal = Journal()
        before = db.mvcc_stats()["versions_reclaimed"]
        checkpoint(db, journal, tmp_path / "snap")
        assert db.mvcc_stats()["versions_reclaimed"] > before


class TestObservability:
    def test_query_stats_reports_mvcc_rows(self, world):
        d, client = world
        client.query("get_machine", "RYW1.MIT.EDU")
        rows = client.query("_query_stats")
        by_name = {r[0]: r for r in rows}
        assert "_mvcc.commits" in by_name
        assert int(by_name["_mvcc.snapshots_pinned"][1]) > 0
        assert int(by_name["_mvcc.pins_active"][1]) == 0
        handle = by_name["get_machine"]
        # 12-column row: rows_scanned/returned and snap-age quantiles
        assert len(handle) == 12
        assert int(handle[8]) >= int(handle[9]) > 0
        # MVCC reads never touch the lock: writer-only histogram
        assert int(by_name["get_machine"][5]) == 0

