"""Concurrency tests: simultaneous clients, competing DCMs, threaded
TCP traffic against the single-process server, the reader–writer
database lock, transport backpressure, and the thread-safe access
cache."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.client import MoiraClient
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.locks import LockManager, LockMode
from repro.db.rwlock import RWLock
from repro.dcm.dcm import DCM
from repro.protocol.transport import TcpServerTransport
from repro.server import AccessCache
from repro.workload import PopulationSpec


@pytest.fixture
def deployment():
    return AthenaDeployment(DeploymentConfig(population=PopulationSpec(
        users=50, unregistered_users=0, nfs_servers=2, maillists=5,
        clusters=1, machines_per_cluster=2, printers=2,
        network_services=5)))


class TestConcurrentClients:
    def test_threaded_tcp_clients(self, deployment):
        """Many threads hammer the server over real sockets; every
        query gets a correct, uncorrupted answer."""
        d = deployment
        tcp = TcpServerTransport(d.server).start()
        errors: list[Exception] = []

        def worker(index: int):
            try:
                host, port = tcp.address
                client = MoiraClient(tcp_address=(host, port))
                client.connect()
                for i in range(20):
                    login = d.handles.logins[
                        (index * 7 + i) % len(d.handles.logins)]
                    rows = client.query("get_filesys_by_label", login)
                    assert rows[0][0] == login
                client.close()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            tcp.stop()
        assert not errors

    def test_interleaved_mutations_stay_consistent(self, deployment):
        """Concurrent writers through the server never corrupt the
        database (the engine serialises on its lock)."""
        from repro.apps import MrCheck

        d = deployment
        errors: list[Exception] = []

        def writer(index: int):
            try:
                client = MoiraClient(dispatcher=d.server)
                client.connect()
                # use the privileged direct path for the ACL-free writes
                direct = d.direct_client()
                for i in range(15):
                    direct.query("add_machine",
                                 f"T{index}-{i}.MIT.EDU", "VAX")
                client.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(d.db.table("machine").select({"name": "T*"})) == 90
        assert MrCheck(d.db).run() == []


class TestCompetingDCMs:
    def test_two_dcms_share_locks(self, deployment):
        """Two DCM processes with a shared lock manager never update the
        same service concurrently; one skips what the other holds."""
        d = deployment
        shared_locks = LockManager()
        dcm_a = DCM(d.db, d.clock, network=d.network,
                    lock_manager=shared_locks)
        dcm_b = DCM(d.db, d.clock, network=d.network,
                    lock_manager=shared_locks)
        for (svc, machine), binding in d.dcm._bindings.items():
            dcm_a.bind_host(svc, machine, binding)
            dcm_b.bind_host(svc, machine, binding)

        d.clock.advance(7 * 3600)
        # b grabs the hesiod lock as if mid-update
        token = shared_locks.acquire("service:HESIOD",
                                     LockMode.EXCLUSIVE)
        report_a = dcm_a.run_once()
        assert report_a.skipped_locked >= 1
        hesiod = d.db.table("servers").select({"name": "HESIOD"})[0]
        assert hesiod["dfgen"] == 0  # a did not generate
        shared_locks.release("service:HESIOD", token)
        report_a2 = dcm_a.run_once()
        assert d.db.table("servers").select(
            {"name": "HESIOD"})[0]["dfgen"] > 0

    def test_shared_lock_allows_parallel_host_scans(self, deployment):
        """A UNIQUE service takes a shared lock for its host scan, so a
        second DCM can scan concurrently; EXCLUSIVE (replicated) cannot."""
        locks = LockManager()
        t1 = locks.try_acquire("service:NFS", LockMode.SHARED)
        t2 = locks.try_acquire("service:NFS", LockMode.SHARED)
        assert t1 and t2
        assert locks.try_acquire("service:ZEPHYR",
                                 LockMode.EXCLUSIVE)
        assert locks.try_acquire("service:ZEPHYR",
                                 LockMode.EXCLUSIVE) is None

    def test_inprogress_flag_is_advisory_not_locking(self, deployment):
        """§5.7.1: InProgress "is NOT relied upon for locking" — a
        stale flag (crashed DCM) does not wedge future updates."""
        d = deployment
        client = d.direct_client()
        client.query("set_server_internal_flags", "HESIOD", 0, 0, 1, 0,
                     "")  # stale inprogress, as after a DCM crash
        d.run_hours(7)
        row = d.db.table("servers").select({"name": "HESIOD"})[0]
        assert row["dfgen"] > 0  # updated anyway
        assert row["inprogress"] == 0


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.shared():
                inside.wait()  # both threads inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert lock.readers == 0

    def test_writer_excludes_readers(self):
        lock = RWLock()
        observed = []
        lock.acquire_exclusive()
        done = threading.Event()

        def reader():
            with lock.shared():
                observed.append(lock.write_locked)
            done.set()

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        assert not done.is_set()  # reader parked behind the writer
        lock.release_exclusive()
        assert done.wait(timeout=5)
        t.join(timeout=5)
        assert observed == [False]

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: once a writer queues, fresh readers wait
        behind it instead of starving it."""
        lock = RWLock()
        lock.acquire_shared()
        writer_got_it = threading.Event()
        reader_got_it = threading.Event()

        def writer():
            with lock.exclusive():
                writer_got_it.set()

        def late_reader():
            with lock.shared():
                reader_got_it.set()

        wt = threading.Thread(target=writer)
        wt.start()
        time.sleep(0.05)  # writer is now waiting on the held shared lock
        rt = threading.Thread(target=late_reader)
        rt.start()
        time.sleep(0.05)
        assert not reader_got_it.is_set()  # queued behind the writer
        assert not writer_got_it.is_set()
        lock.release_shared()
        assert writer_got_it.wait(timeout=5)
        assert reader_got_it.wait(timeout=5)
        wt.join(timeout=5)
        rt.join(timeout=5)

    def test_exclusive_is_reentrant(self):
        lock = RWLock()
        with lock.exclusive():
            with lock.exclusive():  # Database.next_id under a mutation
                assert lock.write_locked
            assert lock.write_locked
        assert not lock.write_locked

    def test_shared_reentry_and_shared_under_exclusive(self):
        lock = RWLock()
        with lock.shared():
            with lock.shared():
                assert lock.readers == 1
        with lock.exclusive():
            with lock.shared():  # read helper inside a mutation: no-op
                assert lock.write_locked
        assert lock.readers == 0

    def test_upgrade_raises(self):
        lock = RWLock()
        with lock.shared():
            with pytest.raises(RuntimeError):
                lock.acquire_exclusive()

    def test_plain_with_is_exclusive(self):
        """``with lock:`` keeps the old coarse-mutex contract."""
        lock = RWLock()
        with lock:
            assert lock.write_locked


class TestAccessCacheEviction:
    def test_fifo_eviction_keeps_newest(self):
        cache = AccessCache(max_entries=4)
        for i in range(4):
            cache.store("p", f"q{i}", (), True)
        cache.store("p", "q4", (), True)  # evicts q0 only, not the lot
        assert len(cache._cache) == 4
        assert cache.lookup("p", "q0", ()) is None
        for i in range(1, 5):
            assert cache.lookup("p", f"q{i}", ()) is True

    def test_store_never_exceeds_max(self):
        cache = AccessCache(max_entries=8)
        for i in range(50):
            cache.store("p", f"q{i}", (), bool(i % 2))
        assert len(cache._cache) <= 8

    def test_scoped_invalidation(self):
        cache = AccessCache()
        cache.store("p", "q", (), True)
        gen = cache.generation
        # a mutation that touched no ACL-relevant relation: cache survives
        assert cache.invalidate({"cluster", "numvalues"}) is False
        assert cache.generation == gen
        assert cache.lookup("p", "q", ()) is True
        # membership moved: everything goes
        assert cache.invalidate({"members"}) is True
        assert cache.generation == gen + 1
        assert cache.lookup("p", "q", ()) is None

    def test_unscoped_invalidation_still_clears(self):
        cache = AccessCache()
        cache.store("p", "q", (), True)
        assert cache.invalidate() is True
        assert cache.lookup("p", "q", ()) is None

    def test_server_skips_invalidation_for_non_acl_mutations(
            self, deployment):
        """End to end: a cluster add (no ACL-relevant table touched)
        keeps the access cache; a machine add clears it."""
        d = deployment
        client = MoiraClient(dispatcher=d.server)
        client.connect()
        client.query("get_machine", "*")  # warm a cache entry
        login = d.handles.logins[0]
        d.make_admin(login)
        ac = d.client_for(login, "pw")
        gen = d.server.access_cache.generation
        ac.query("add_cluster", "cache-test", "d", "l")
        assert d.server.access_cache.generation == gen
        ac.query("add_machine", "CACHETEST.MIT.EDU", "VAX")
        assert d.server.access_cache.generation > gen
        ac.close()
        client.close()


class TestAccessCacheTOCTOU:
    def test_store_with_stale_generation_is_discarded(self):
        """An invalidation landing between check and store must not let
        the pre-mutation decision into the new generation."""
        cache = AccessCache()
        gen = cache.generation_now()
        assert cache.invalidate({"members"}) is True  # mid-check bump
        cache.store("p", "q", (), True, generation=gen)
        assert cache.lookup("p", "q", ()) is None  # discarded

    def test_store_with_current_generation_lands(self):
        cache = AccessCache()
        cache.store("p", "q", (), True, generation=cache.generation_now())
        assert cache.lookup("p", "q", ()) is True


class TestJournalOrdering:
    def test_server_journals_inside_exclusive_lock(self, deployment):
        """Journal.record must run while the writer still holds the
        exclusive lock, so journal order always matches mutation order
        (replay after a restore converges)."""
        d = deployment
        login = d.handles.logins[0]
        d.make_admin(login)
        client = d.client_for(login, "pw")
        seen: list[bool] = []
        original = d.server.journal.record

        def spying_record(when, who, query, args, **kw):
            seen.append(d.db.lock.write_locked)
            return original(when, who, query, args, **kw)

        d.server.journal.record = spying_record
        try:
            client.query("add_machine", "JORDER.MIT.EDU", "VAX")
        finally:
            d.server.journal.record = original
            client.close()
        assert seen == [True]

    def test_direct_library_journals_inside_exclusive_lock(
            self, deployment):
        """Same invariant on the execute_query (glue library) path."""
        d = deployment
        direct = d.direct_client()
        seen: list[bool] = []
        original = d.server.journal.record

        def spying_record(when, who, query, args, **kw):
            seen.append(d.db.lock.write_locked)
            return original(when, who, query, args, **kw)

        d.server.journal.record = spying_record
        try:
            direct.query("add_machine", "JDIRECT.MIT.EDU", "VAX")
        finally:
            d.server.journal.record = original
        assert seen == [True]


class _BigReply:
    """A dispatcher whose every request is answered by one *size*-byte
    frame, larger than every socket buffer on the path."""

    def __init__(self, size: int):
        # one row of one field: with the reply head (8 bytes) and the
        # field's count (4), a *size*-byte frame body
        self.reply = (0, ((bytes(size - 12),),))
        self.closed = threading.Event()

    def open_connection(self, peer):
        return 1

    def handle_frame_stream(self, conn_id, frame):
        yield self.reply

    def sync(self):
        pass

    def close_connection(self, conn_id):
        self.closed.set()


class TestBackpressureStall:
    """On the one selector thread: a connection over high water is not
    read; one that then makes no drain progress for stall_timeout is
    dropped, while one that drains slowly survives."""

    def test_stalled_connection_is_dropped(self):
        dispatcher = _BigReply(16 << 20)
        tcp = TcpServerTransport(dispatcher, high_water=64 << 10,
                                 low_water=16 << 10,
                                 stall_timeout=0.2).start()
        try:
            with socket.create_connection(tcp.address) as sock:
                sock.sendall(b"\x00\x00\x00\x01x")
                start = time.monotonic()
                assert dispatcher.closed.wait(timeout=10)  # never read
                assert time.monotonic() - start >= 0.2
        finally:
            tcp.stop()

    def test_draining_connection_survives_past_timeout(self):
        """Progress resets the stall clock: a client pausing under the
        timeout between reads gets the whole reply."""
        size = 2 << 20
        dispatcher = _BigReply(size)
        tcp = TcpServerTransport(dispatcher, high_water=64 << 10,
                                 low_water=16 << 10,
                                 stall_timeout=0.3).start()
        try:
            with socket.create_connection(tcp.address) as sock:
                sock.sendall(b"\x00\x00\x00\x01x")
                start = time.monotonic()
                got = 0
                while got < 4 + size:
                    time.sleep(0.15)
                    chunk = sock.recv(256 << 10)
                    assert chunk, "dropped mid-drain"
                    got += len(chunk)
                assert time.monotonic() - start > 0.3
            assert got == 4 + size
        finally:
            tcp.stop()

    def test_stalled_reader_releases_shared_lock_for_writers(
            self, deployment):
        """A retrieve runs to completion before the loop moves on, so a
        client that never reads its reply holds no read view or lock:
        a writer gets the exclusive lock while the reply sits unread."""
        d = deployment
        tcp = TcpServerTransport(d.server).start()
        from repro.protocol.wire import MajorRequest, encode_request
        try:
            with socket.create_connection(tcp.address) as sock:
                handled = d.server.stats.requests_handled
                sock.sendall(encode_request(
                    MajorRequest.QUERY, ["get_machine", "*"]))
                deadline = time.monotonic() + 10
                while d.server.stats.requests_handled == handled:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                got_exclusive = threading.Event()

                def writer():
                    with d.db.lock:
                        got_exclusive.set()

                t = threading.Thread(target=writer)
                t.start()
                assert got_exclusive.wait(timeout=5)
                t.join(timeout=5)
        finally:
            tcp.stop()
