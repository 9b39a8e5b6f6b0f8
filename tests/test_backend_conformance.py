"""The StorageBackend conformance suite.

One behavioural contract, two backends: every factory registered in
:mod:`repro.db.backend` must agree with the pure-Python engine on
CRUD semantics, uniqueness, wildcard matching, case folding, the
values helpers, and TBLSTATS accounting — plus survive the
checkpoint/recover crash-boundary discipline and serve the
replication snapshot/tail feed.  The in-memory engine is the oracle;
running it through the same suite keeps the contract honest.
"""

from __future__ import annotations

import threading

import pytest

from repro.db.backend import (
    StorageBackend,
    StorageTable,
    available_backends,
    create_backend,
)
from repro.db.backup import mrbackup
from repro.db.journal import Journal
from repro.db.recovery import checkpoint, recover
from repro.errors import MoiraError, MR_EXISTS, MR_NO_ID, MR_NO_MATCH
from repro.queries.base import (
    QueryContext,
    execute_query,
    get_query,
    run_read,
)
from repro.sim.clock import DEFAULT_EPOCH, Clock
from repro.sim.faults import FaultInjector, ServerCrash

BACKENDS = available_backends()
BASE = DEFAULT_EPOCH + 1000


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    if request.param == "sqlite":
        db = create_backend("sqlite", str(tmp_path / "conf.sqlite"))
    else:
        db = create_backend(request.param)
    yield db
    close = getattr(db, "close", None)
    if callable(close):
        close()


class TestInterfaceContract:
    def test_registry_names(self):
        assert {"memory", "sqlite"} <= set(BACKENDS)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            create_backend("ingres")

    def test_isinstance_contract(self, backend):
        assert isinstance(backend, StorageBackend)
        assert isinstance(backend.table("users"), StorageTable)


class TestCrudConformance:
    def test_insert_defaults_and_coercion(self, backend):
        t = backend.table("machine")
        row = t.insert({"name": "CONF1.MIT.EDU", "mach_id": "41",
                        "type": "VAX"}, now=BASE)
        assert row["mach_id"] == 41  # coerced to int
        assert row["modby"] == ""    # default filled
        assert t.count({"name": "CONF1.MIT.EDU"}) == 1

    def test_update_and_delete(self, backend):
        t = backend.table("machine")
        t.insert({"name": "CONF2.MIT.EDU", "mach_id": 42,
                  "type": "VAX"}, now=BASE)
        rows = t.select({"name": "CONF2.MIT.EDU"})
        assert t.update_rows(rows, {"type": "RT"}, now=BASE + 1) == 1
        assert t.select({"name": "CONF2.MIT.EDU"})[0]["type"] == "RT"
        assert t.delete_rows(rows, now=BASE + 2) == 1
        assert t.count({"name": "CONF2.MIT.EDU"}) == 0

    def test_empty_update_and_delete_semantics(self, backend):
        """The divergences the conformance suite exists to catch: an
        empty *changes* dict still counts the rows as updated; an
        empty *rows* list is a no-op that leaves stats alone."""
        t = backend.table("machine")
        t.insert({"name": "CONF3.MIT.EDU", "mach_id": 43,
                  "type": "VAX"}, now=BASE)
        rows = t.select({"name": "CONF3.MIT.EDU"})
        updates = t.stats.updates
        assert t.update_rows(rows, {}, now=BASE + 1) == 1
        assert t.stats.updates == updates + 1
        deletes, modtime = t.stats.deletes, t.stats.modtime
        assert t.delete_rows([], now=BASE + 99) == 0
        assert t.stats.deletes == deletes
        assert t.stats.modtime == modtime

    def test_uniqueness_enforced(self, backend):
        t = backend.table("machine")
        t.insert({"name": "CONF4.MIT.EDU", "mach_id": 44,
                  "type": "VAX"}, now=BASE)
        with pytest.raises(MoiraError) as err:
            t.insert({"name": "CONF4.MIT.EDU", "mach_id": 45,
                      "type": "RT"}, now=BASE)
        assert err.value.code == MR_EXISTS

    def test_uniqueness_folds_case(self, backend):
        t = backend.table("machine")
        t.insert({"name": "CONF5.MIT.EDU", "mach_id": 46,
                  "type": "VAX"}, now=BASE)
        with pytest.raises(MoiraError):
            t.insert({"name": "conf5.mit.edu", "mach_id": 47,
                      "type": "RT"}, now=BASE)


class TestMatchingConformance:
    @pytest.fixture(autouse=True)
    def seed(self, backend):
        t = backend.table("machine")
        for i, kind in enumerate(("VAX", "VAX", "RT")):
            t.insert({"name": f"WILD{i}.MIT.EDU", "mach_id": 60 + i,
                      "type": kind}, now=BASE)
        self.t = t

    def test_star_wildcard(self):
        assert {r["name"] for r in self.t.select(
            {"name": "WILD*.MIT.EDU"})} == {
            "WILD0.MIT.EDU", "WILD1.MIT.EDU", "WILD2.MIT.EDU"}

    def test_question_wildcard(self):
        assert self.t.count({"name": "WILD?.MIT.EDU"}) == 3
        assert self.t.count({"name": "WILD??.MIT.EDU"}) == 0

    def test_exact_match_folds_case(self):
        assert self.t.count({"name": "wild0.mit.edu"}) == 1

    def test_combined_where_and_predicate(self):
        got = self.t.select({"type": "VAX"},
                            predicate=lambda r: r["mach_id"] > 60)
        assert [r["name"] for r in got] == ["WILD1.MIT.EDU"]


class TestValuesHelpers:
    def test_get_set_next(self, backend):
        backend.set_value("conf_hint", 100, now=BASE)
        assert backend.get_value("conf_hint") == 100
        assert backend.next_id("conf_hint", now=BASE) == 100
        assert backend.get_value("conf_hint") == 101

    def test_unknown_value_raises(self, backend):
        with pytest.raises(MoiraError) as err:
            backend.get_value("no_such_hint")
        assert err.value.code == MR_NO_ID


class TestStatsConformance:
    def test_tblstats_accounting(self, backend):
        t = backend.table("machine")
        t.insert({"name": "STAT1.MIT.EDU", "mach_id": 70,
                  "type": "VAX"}, now=BASE)
        rows = t.select({"name": "STAT1.MIT.EDU"})
        t.update_rows(rows, {"type": "RT"}, now=BASE + 1)
        t.delete_rows(rows, now=BASE + 2)
        assert (t.stats.appends, t.stats.updates, t.stats.deletes) == \
            (1, 1, 1)
        assert t.stats.modtime == BASE + 2
        stats_rows = {row[0]: row for row in backend.table_stats()}
        assert "machine" in stats_rows

    def test_versions_vector_moves(self, backend):
        v0 = backend.versions()["machine"]
        backend.table("machine").insert(
            {"name": "STAT2.MIT.EDU", "mach_id": 71, "type": "VAX"},
            now=BASE)
        assert backend.versions()["machine"] > v0


class TestVerbsContract:
    """``read_view`` / ``write_txn``: the two verbs every request goes
    through (DESIGN.md §17)."""

    def test_backend_missing_a_verb_cannot_exist(self):
        class NoWriteTxn(StorageBackend):
            table = get_value = set_value = next_id = None
            table_stats = versions = read_view = None

        with pytest.raises(TypeError):
            NoWriteTxn()

    def test_commit_hook_runs_once_before_the_lock_drops(self, backend):
        calls = []
        entered = threading.Event()

        def rival():
            with backend.write_txn():
                entered.set()

        thread = threading.Thread(target=rival)

        def commit_hook(txn):
            calls.append(("commit", txn.seq, txn.bindings))
            thread.start()
            assert not entered.wait(0.2)    # still excluded

        with backend.write_txn(commit_hook=commit_hook,
                               abort_hook=calls.append) as txn:
            backend.table("machine").insert(
                {"name": "VERB1.MIT.EDU", "mach_id": 71, "type": "VAX"},
                now=BASE)
        thread.join(5)
        assert entered.is_set()
        assert calls == [("commit", txn.seq, txn.bindings)]

    def test_exception_fires_abort_hook_never_commit_hook(self, backend):
        commits, aborts = [], []
        with pytest.raises(KeyError):
            with backend.write_txn(commit_hook=commits.append,
                                   abort_hook=aborts.append) as txn:
                raise KeyError("handler failed")
        assert commits == []
        assert aborts == [txn]

    def test_mutated_names_the_tables_whose_versions_moved(self, backend):
        before = backend.versions()
        with backend.write_txn() as txn:
            backend.table("machine").insert(
                {"name": "VERB2.MIT.EDU", "mach_id": 72, "type": "VAX"},
                now=BASE)
            backend.table("cluster").insert(
                {"name": "verb-clu", "clu_id": 73}, now=BASE)
        moved = {name for name, version in backend.versions().items()
                 if before[name] != version}
        assert txn.mutated == moved == {"machine", "cluster"}

    def test_memory_view_is_one_cut_and_unpins_on_generator_exit(self):
        db = create_backend("memory")
        machine = db.table("machine")
        for i in range(3):
            machine.insert({"name": f"VIEW{i}.MIT.EDU", "mach_id": 80 + i,
                            "type": "VAX"}, now=BASE)
        with db.read_view() as view:
            machine.insert({"name": "LATER.MIT.EDU", "mach_id": 89,
                            "type": "VAX"}, now=BASE)
            assert view.table("machine").count({"type": "VAX"}) == 3
        assert machine.count({"type": "VAX"}) == 4
        assert db.mvcc_stats()["pins_active"] == 0
        # a lazy handler streams under the view; abandoning the stream
        # must release it
        ctx = QueryContext(db=db, clock=Clock(BASE), caller="root",
                           privileged=True)
        stream = run_read(ctx, get_query("get_machine"), ["*"])
        assert next(stream)
        assert db.mvcc_stats()["pins_active"] == 1
        stream.close()
        assert db.mvcc_stats()["pins_active"] == 0


class TestCapabilityDefaults:
    """Every capability a layer above ``db/`` calls is declared on the
    ABC (DESIGN.md §17): the default describes a backend with one
    writer lock and no row history (sqlite inherits each one), the
    memory engine overrides it.  Callers call; nobody probes."""

    @pytest.fixture
    def is_memory(self, backend):
        return backend.shards is not None

    def test_lock_and_read_locked(self, backend, is_memory):
        with backend.lock:
            backend.table("machine").insert(
                {"name": "CAP0.MIT.EDU", "mach_id": 60, "type": "VAX"},
                now=BASE)
        with backend.read_locked():
            assert backend.table("machine").count() == 1
        # default: the one lock; memory: its shared side
        assert (backend.read_locked() is backend.lock) != is_memory

    def test_system_latch(self, backend, is_memory):
        with backend.system_latch():
            backend.set_value("cap_hint", 5, now=BASE)
        assert backend.get_value("cap_hint") == 5
        # default: the one lock; memory: a leaf latch below the shards
        assert (backend.system_latch() is backend.lock) != is_memory

    def test_intern_string_allocates_once_and_binds(self, backend,
                                                    is_memory):
        hint = backend.get_value("strings_id")
        with backend.write_txn() as txn:
            first = backend.intern_string("cap-string", now=BASE)
            again = backend.intern_string("cap-string", now=BASE)
        assert first == again == hint
        assert backend.get_value("strings_id") == hint + 1
        rows = backend.table("strings").select({"string": "cap-string"})
        assert [r["string_id"] for r in rows] == [first]
        if is_memory:
            assert txn.bindings["intern"] == {"cap-string": first}
        else:
            assert txn.bindings is None

    def test_read_view_interns_by_lookup(self, backend, is_memory):
        """A retrieval resolving a STRING member asks the view."""
        known = backend.intern_string("cap-known", now=BASE)
        hint = backend.get_value("strings_id")
        with backend.read_view() as view:
            assert view.intern_string("cap-known", now=BASE) == known
            if is_memory:
                # a pinned snapshot cannot allocate
                with pytest.raises(MoiraError) as caught:
                    view.intern_string("cap-unknown", now=BASE)
                assert caught.value.code == MR_NO_MATCH
        assert backend.get_value("strings_id") == hint

    def test_scripted_ids(self, backend, is_memory):
        natural = backend.get_value("gid")
        with backend.scripted_ids({"id": {"gid": [natural + 7]}}):
            got = backend.next_id("gid", now=BASE)
        # default: one writer allocates in commit order — natural ids
        assert got == (natural + 7 if is_memory else natural)
        assert backend.next_id("gid", now=BASE) == got + 1

    def test_shards_for(self, backend, is_memory):
        routed = backend.shards_for(("users", "strings"))
        assert routed == (frozenset({"users"}) if is_memory else None)
        assert backend.shards_for(("no_such_table",)) is None

    def test_hold_shards_wraps_a_commit_window(self, backend, is_memory):
        waits = []
        shards = backend.shards_for(("machine",)) or frozenset()
        with backend.hold_shards(shards,
                                 lambda name, s: waits.append(name)):
            for i in range(2):
                with backend.write_txn(shards):
                    backend.table("machine").insert(
                        {"name": f"CAP{i}.MIT.EDU", "mach_id": 61 + i,
                         "type": "VAX"}, now=BASE)
        assert waits == (sorted(shards) if is_memory else [])
        assert backend.table("machine").count() == 2
        # released: total exclusion is available again
        with backend.lock:
            pass

    def test_membership_closure(self, backend, is_memory):
        closure = backend.membership_closure()
        assert (closure is not None) == is_memory
        with backend.read_view() as view:
            assert (view.membership_closure() is not None) == is_memory
        if is_memory:
            backend.closure_enabled = False
            assert backend.membership_closure() is None
            with backend.read_view() as view:
                assert view.membership_closure() is None

    def test_mvcc_stats_and_gc_versions(self, backend, is_memory):
        if is_memory:
            assert backend.mvcc_stats()["pins_active"] == 0
            assert "horizon" in backend.gc_versions()
            assert backend.mvcc_stats()["gc_runs"] == 1
        else:
            assert backend.mvcc_stats() == {}
            assert backend.gc_versions() == {}

    def test_supports_bulk_load(self, backend, is_memory):
        assert backend.supports_bulk_load is is_memory

    def test_table_version_and_changes_since(self, backend, is_memory):
        table = backend.table("machine")
        start = table.version
        # no changed-row log (yet): the consumer extracts in full
        assert table.changes_since(start) is None
        if is_memory:
            table.enable_changelog()
        table.insert({"name": "CAP9.MIT.EDU", "mach_id": 69,
                      "type": "VAX"}, now=BASE)
        assert table.version == start + 1
        with backend.read_view() as view:
            assert view.table("machine").version == table.version
        changes = table.changes_since(start)
        if is_memory:
            assert [c.op for c in changes] == ["insert"]
        else:
            assert changes is None


def mutations(n):
    """Deterministic query-layer mutation schedule (E12 discipline)."""
    muts = []
    for i in range(n):
        if i % 3 == 2:
            muts.append(("add_list",
                         [f"cl{i}", "1", "1", "0", "1", "0",
                          str(900 + i), "NONE", "NONE", f"list {i}"]))
        else:
            muts.append(("add_user",
                         [f"cuser{i}", str(7000 + i), "/bin/csh",
                          f"Last{i}", "First", "", "1", f"mid{i}",
                          "1990"]))
    return muts


def apply_one(db, journal, clock, when, name, args):
    clock.set(when)
    ctx = QueryContext(db=db, clock=clock, caller="root", client="conf",
                       privileged=True, journal=journal)
    execute_query(ctx, name, args)


def dump(db, directory):
    mrbackup(db, directory)
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def fresh_backend(name, tmp_path, tag):
    if name == "sqlite":
        return create_backend("sqlite",
                              str(tmp_path / f"{tag}.sqlite"))
    return create_backend(name)


CRASH_KINDS = ("record", "torn", "appended")


def arm(faults, kind, boundary):
    if kind == "record":
        faults.crash_server("journal.record", at_call=boundary)
    elif kind == "torn":
        faults.tear_write("journal.write", at_call=boundary)
    else:
        faults.crash_server("journal.appended", at_call=boundary)


class TestCheckpointRecoverOnEveryBackend:
    """`recover(..., db=<fresh backend>)` replays the WAL through the
    query layer, so snapshot+WAL recovery is backend-agnostic — run
    the crash-boundary discipline against each backend."""

    N = 12

    def oracle(self, name, tmp_path):
        db = fresh_backend(name, tmp_path, "oracle")
        journal = Journal(path=tmp_path / "oracle-wal")
        clock = Clock()
        for i, (qname, args) in enumerate(mutations(self.N)):
            apply_one(db, journal, clock, BASE + i * 10, qname, args)
        journal.close()
        return dump(db, tmp_path / "oracle-dump")

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("kind", CRASH_KINDS)
    def test_crash_boundary_sweep(self, name, kind, tmp_path):
        oracle_dump = self.oracle(name, tmp_path)
        muts = mutations(self.N)
        boundaries = (1, self.N // 2, self.N)
        for boundary in boundaries:
            workdir = tmp_path / f"{kind}-{boundary}"
            workdir.mkdir()
            wal_path = workdir / "wal"
            faults = FaultInjector()
            arm(faults, kind, boundary)
            db = fresh_backend(name, workdir, "run")
            journal = Journal(path=wal_path, faults=faults)
            checkpoint(db, journal, workdir / "snap")
            clock = Clock()
            crashed_at = None
            for i, (qname, args) in enumerate(muts):
                try:
                    apply_one(db, journal, clock, BASE + i * 10,
                              qname, args)
                except ServerCrash:
                    crashed_at = i
                    break
            journal.close()
            if crashed_at is not None:
                # dead process: recover into a FRESH backend instance
                db = fresh_backend(name, workdir, "recovered")
                rec = recover(workdir / "snap", wal_path=wal_path,
                              db=db)
                db = rec.db
                journal = Journal.load(wal_path)
                clock = Clock()
                for j in range(crashed_at, len(muts)):
                    qname, args = muts[j]
                    try:
                        apply_one(db, journal, clock, BASE + j * 10,
                                  qname, args)
                    except MoiraError:
                        pass  # WAL already made it durable
                journal.close()
            got = dump(db, workdir / "dump")
            assert got == oracle_dump, (
                f"{name}: divergence after {kind} crash "
                f"at boundary {boundary}")


class TestReplicationFeedOnSqlite:
    """The replica feed (snapshot cut + WAL tail) must serve from any
    backend; ROADMAP flagged SQLite as never having been under it."""

    def _server_on(self, name, tmp_path):
        from repro.kerberos.kdc import KDC
        from repro.server import MoiraServer

        db = fresh_backend(name, tmp_path, "repl")
        clock = Clock()
        journal = Journal(path=tmp_path / "repl-wal")
        server = MoiraServer(db, clock, KDC(clock), journal=journal)
        for i, (qname, args) in enumerate(mutations(6)):
            apply_one(db, journal, clock, BASE + i * 10, qname, args)
        return server, db, journal

    def _drain(self, server, query):
        from repro.protocol.wire import MajorRequest, encode_request
        conn = server.open_connection("repl-test")
        # feed pulls now require the repl service principal (the
        # primary was built with a KDC, so the auth gate is armed)
        server._connections[conn].principal = "repl"
        frame = encode_request(MajorRequest.QUERY, query)[4:]
        replies = server.handle_frame(conn, frame)
        server.close_connection(conn)
        return replies

    @pytest.mark.parametrize("name", ["memory", "sqlite"])
    def test_snapshot_and_tail_agree_across_backends(self, name,
                                                     tmp_path):
        server, db, journal = self._server_on(name, tmp_path)
        snap = self._drain(server, ["_repl_snapshot"])
        assert len(snap) > 2  # meta row + table rows + status
        tail = self._drain(server, ["_repl_tail", "0"])
        # 6 journaled mutations + meta + final status
        assert len(tail) == 8
        journal.close()

    def test_sqlite_snapshot_matches_memory(self, tmp_path):
        """Same mutation history → byte-identical data rows in the
        feed snapshot, modulo backend-private rowid bookkeeping."""
        streams = {}
        for name in ("memory", "sqlite"):
            server, db, journal = self._server_on(name, tmp_path)
            replies = self._drain(server, ["_repl_snapshot"])
            streams[name] = replies[1:]  # drop watermark meta row
            journal.close()
        assert streams["memory"] == streams["sqlite"]
