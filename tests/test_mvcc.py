"""MVCC snapshot-isolation tests: consistent cuts under concurrent
writers, read-your-writes, closure/plan-cache correctness against
pinned snapshots, version GC, and the observability counters."""

from __future__ import annotations

import threading

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.schema import build_database
from repro.workload import PopulationSpec


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

        def writer():
            delta = 1
            while not stop.is_set():
                with db.lock:
                    t.update_rows([a],
                                  {"allocated": a["allocated"] - delta})
                    t.update_rows([b],
                                  {"allocated": b["allocated"] + delta})
                delta = -delta

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

    def test_server_stream_vs_concurrent_writer(self, world):
        """A streamed server read drained alongside a committed write
        on another connection returns the pre-write row set."""
        d, client = world
        direct = d.direct_client()
        for k in range(6):
            direct.query("add_machine", f"STREAM{k}.MIT.EDU", "RT")
        from repro.protocol.wire import MajorRequest, encode_request
        conn_id = d.server.open_connection("mvcc-stream")
        d.server._connections[conn_id].principal = d.handles.logins[0]
        frame = encode_request(MajorRequest.QUERY,
                               ["get_machine", "STREAM*.MIT.EDU"])[4:]
        stream = d.server.handle_frame_stream(conn_id, frame)
        first = next(stream)  # the read has pinned its snapshot
        direct.query("add_machine", "STREAM9.MIT.EDU", "RT")
        rest = list(stream)
        replies = [first] + rest
        # 6 tuples + final status; the mid-stream commit is invisible
        assert len(replies) == 7
        assert not any(b"STREAM9" in r for r in replies)
        rows = client.query("get_machine", "STREAM*.MIT.EDU")
        assert len(rows) == 7  # a fresh read sees the new machine
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

    def test_fast_path_and_legacy_agree_on_snapshots(self):
        """set_fast_path(False) oracle: snapshot reads answer the same
        with compiled plans and with the per-call legacy path."""
        db = build_database()
        t = db.table("machine")
        for i in range(12):
            t.insert({"name": f"ORA{i}.MIT.EDU", "mach_id": 800 + i,
                      "type": "VAX" if i % 3 else "RT"})
        snap = db.pin_snapshot()
        t.update_rows(t.select({"name": "ORA4.MIT.EDU"}),
                      {"type": "RT"})
        st = snap.table("machine")
        queries = [{"type": "VAX"}, {"name": "ORA*.MIT.EDU"},
                   {"name": "ora1.mit.edu"}, None]
        fast = [st.select(q) for q in queries]
        db.set_fast_path(False)
        try:
            legacy = [st.select(q) for q in queries]
        finally:
            db.set_fast_path(True)
        assert fast == legacy
        db.unpin_snapshot(snap)


class TestVersionGC:
    def test_gc_respects_oldest_pin(self):
        db = build_database()
        t = db.table("machine")
        row = t.insert({"name": "GC1.MIT.EDU", "mach_id": 900,
                        "type": "VAX"})
        snap = db.pin_snapshot()
        for i in range(10):
            t.update_rows([row], {"type": "RT" if i % 2 else "VAX"})
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

    def test_checkpoint_triggers_gc(self, tmp_path):
        from repro.db.journal import Journal
        from repro.db.recovery import checkpoint
        db = build_database()
        t = db.table("machine")
        row = t.insert({"name": "GC2.MIT.EDU", "mach_id": 901,
                        "type": "VAX"})
        for i in range(6):
            t.update_rows([row], {"type": "RT" if i % 2 else "VAX"})
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

