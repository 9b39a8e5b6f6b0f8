"""The memory engine's row store.

A table's rows live once, as entries in its version store's scan list
and index buckets — one entry per record, shared by every structure
until an update moves one of its keys — so a delete costs the rows it
removes (it closes their entries) and so does the abort of one (it
reopens them where they stand).  Three kinds of test hold it there:

* a complexity pin — deleting from a 50,000-row table, or aborting an
  insert into or a delete from it, never walks or removes from its
  scan list or any bucket, and collecting after one update never
  iterates a bucket the update did not touch;
* a count — a bulk load makes one entry per row, and an update that
  moves a key adds two;
* a stateful model test — inserts, updates, deletes and bulk loads,
  each in a ``write_txn`` that commits or aborts, against a plain-list
  reference model, with the scan order, each pinned snapshot's scan
  and index reads and every index bucket checked after each step, and
  after each collection nothing dead at its horizon left in the
  version store.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.db.engine import Column, Database, Table
from repro.db.mvcc import INF_SEQ, _Entry, entries_of
from repro.errors import MoiraError

KINDS = ("alpha", "Beta", "gamma")
# a kind no row is loaded with, for a row to move to and back from
AWAY = "delta"


def probe_table() -> Table:
    """key is unique (so no two live rows are ever equal), kind is
    indexed and case-folded, note is unindexed; (kind, key) is a
    composite index."""
    return Table(
        "probe",
        [Column("key", int), Column("kind", str, fold_case=True),
         Column("note", str)],
        unique=[("key",)],
        indexes=["kind"],
        composite_indexes=[("kind", "key")])


class _Abort(Exception):
    """Raised inside a write_txn to roll it back."""


# -- the complexity pin ---------------------------------------------------------


class _Recorded(list):
    """A scan list or bucket that records each walk and ``remove``; a
    lone-entry bucket is wrapped as a list of one, the other form a
    bucket takes."""

    log: list = []

    def __iter__(self):
        self.log.append(("walk", len(self)))
        return super().__iter__()

    def remove(self, item):
        self.log.append(("remove", len(self)))
        super().remove(item)


class TestDeleteCost:
    ROWS = 50_000

    @pytest.fixture
    def loaded(self):
        db = Database()
        table = db.create_table(probe_table())
        with db.write_txn():
            table.bulk_load([{"key": i, "kind": KINDS[i % 3], "note": ""}
                             for i in range(self.ROWS)])
        store = table._mv
        for structure in [*store.indexes.values(),
                          *store.composites.values()]:
            for key, bucket in list(structure.buckets.items()):
                structure.buckets[key] = _Recorded(entries_of(bucket))
        store.entries = _Recorded(store.entries)
        return db, table

    @staticmethod
    def record() -> list:
        log = _Recorded.log = []
        return log

    def test_delete_never_iterates_the_store(self, loaded):
        """A delete touches no bucket: it closes the rows' entries."""
        db, table = loaded
        victims = table.select({"key": 25_000}) + table.select({"key": 7})
        eighth = table.select({"key": 8})
        log = self.record()
        with db.write_txn():
            assert table.delete_rows(victims) == 2
        table.delete_rows(eighth)                       # auto-commit
        assert log == []
        assert len(table) == self.ROWS - 3
        assert table.select({"key": 7}) == []

    def test_insert_abort_never_iterates_the_store(self, loaded):
        db, table = loaded
        log = self.record()
        with pytest.raises(_Abort):
            with db.write_txn():
                table.insert({"key": -1, "kind": "alpha"})
                raise _Abort
        assert log == []
        assert len(table) == self.ROWS
        assert table.select({"key": -1}) == []

    def test_delete_abort_restores_scan_position(self, loaded):
        """The abort of a delete walks no scan list: each row's entries
        reopen where they stand, in the scan list and in its buckets."""
        db, table = loaded
        before = [row["key"] for row in list(table.rows)[24_990:25_010]]
        bucket = [row["key"] for row in table.select({"kind": "beta"})]
        victims = table.select({"key": 25_000})
        log = self.record()
        with pytest.raises(_Abort):
            with db.write_txn():
                table.delete_rows(victims)
                raise _Abort
        assert log == []
        after = [row["key"] for row in list(table.rows)[24_990:25_010]]
        assert after == before
        assert [row["key"] for row in table.select({"kind": "beta"})] \
            == bucket


class _CountedBucket(list):
    """A bucket that records each iteration of itself (a lone entry is
    wrapped as a list of one)."""

    walks: list = []

    def __iter__(self):
        self.walks.append(self)
        return super().__iter__()


class TestCollectCost:
    ROWS = 10_000

    def test_collect_visits_only_what_one_update_retired(self):
        db = Database()
        table = db.create_table(probe_table())
        table.bulk_load([{"key": i, "kind": KINDS[i % 3], "note": ""}
                         for i in range(self.ROWS)])
        store = table._mv
        # a small kind bucket, so the one touched bucket stays cheap
        table.update_rows(table.select({"key": 4_321}), {"kind": "delta"})
        walks = _CountedBucket.walks = []
        for structure in [*store.indexes.values(),
                          *store.composites.values()]:
            for key, bucket in list(structure.buckets.items()):
                structure.buckets[key] = _CountedBucket(entries_of(bucket))
        store.entries = _CountedBucket(store.entries)
        before = db.mvcc_stats()["gc_visited"]

        report = db.gc_versions()

        # the update retired one version, the old "kind" entry and the
        # old (kind, key) entry: only their two buckets are walked
        assert report["versions"] == 1 and report["entries"] == 2
        assert sorted(map(len, walks)) == [1, self.ROWS // 3]
        visited = db.mvcc_stats()["gc_visited"]
        assert visited - before < self.ROWS // 3 + 10
        assert table.select({"kind": "delta"})[0]["key"] == 4_321
        # the queue drained: with nothing retired, nothing is visited
        assert db.gc_versions()["versions"] == 0
        assert db.mvcc_stats()["gc_visited"] == visited


def dead_at(store, horizon: int) -> list:
    """Every scan, index or composite entry and every version in
    *store* whose window closed at or before *horizon*, and every empty
    bucket: what a collection at *horizon* must leave none of."""
    buckets = [bucket for structure in [*store.indexes.values(),
                                        *store.composites.values()]
               for bucket in structure.buckets.values()]
    found: list = [bucket for bucket in buckets if not bucket]
    for entries in [store.entries, *map(entries_of, buckets)]:
        for entry in entries:
            if entry.end <= horizon:
                found.append(entry)
            version = entry.record.current
            while version is not None:
                if version.end <= horizon:
                    found.append(version)
                version = version.older
    return found


def entry_count() -> int:
    """Every :class:`_Entry` alive in the process."""
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is _Entry)


def test_one_entry_per_row_until_a_key_moves():
    """A bulk load makes one entry per row, shared by the scan list and
    every bucket; an update that first moves a row's key adds a closed
    copy in the old bucket and an open entry in the new one, a second
    move of that key one entry more, and a change of no key none."""
    rows = 10_000
    before = entry_count()
    table = Table("count", [Column("key", int),
                            Column("kind", str, fold_case=True),
                            Column("note", str)],
                  unique=[("key",)], indexes=["kind"])
    table.bulk_load([{"key": i, "kind": KINDS[i % 3], "note": ""}
                     for i in range(rows)])
    assert entry_count() - before == len(table._mv.records) == rows
    table.update_rows(table.select({"key": 7}), {"kind": AWAY})
    assert entry_count() - before == rows + 2
    table.update_rows(table.select({"key": 7}), {"kind": "alpha"})
    assert entry_count() - before == rows + 3
    table.update_rows(table.select({"key": 8}), {"note": "n"})
    assert entry_count() - before == rows + 3
    assert [row["key"] for row in table.select({"kind": "alpha"})][-1] == 7


def test_collections_under_a_seeded_history_leave_nothing_dead():
    """The model test's postcondition over a longer history than its
    examples reach: writes that commit or abort, pins taken and
    released out of order, a collection every few steps.  Every pinned
    snapshot still reads what it read when it was taken."""
    rng = random.Random(38)
    db = Database()
    table = db.create_table(probe_table())
    table.bulk_load([{"key": i, "kind": KINDS[i % 3], "note": ""}
                     for i in range(40)])
    next_key, pins, reclaimed = 40, [], 0
    for step in range(400):
        op = rng.random()
        if op < 0.1:
            pins.append((db.pin_snapshot(),
                         [dict(row) for row in table.rows]))
        elif op < 0.2 and pins:
            db.unpin_snapshot(pins.pop(rng.randrange(len(pins)))[0])
        elif op < 0.35:
            report = db.gc_versions()
            reclaimed += report["versions"]
            assert dead_at(table._mv, report["horizon"]) == [], step
            for snap, rows in pins:
                view = snap.table("probe")
                assert view.rows == rows, step
                for kind in KINDS:
                    found = view.select({"kind": kind})
                    assert sorted(row["key"] for row in found) == [
                        row["key"] for row in sorted(
                            rows, key=lambda row: row["key"])
                        if row["kind"].lower() == kind.lower()], step
        else:
            try:
                with db.write_txn():
                    for _ in range(rng.randint(1, 3)):
                        rows = list(table.rows)
                        kind = rng.random()
                        if kind < 0.3 or not rows:
                            table.insert({"key": next_key,
                                          "kind": rng.choice(KINDS)})
                            next_key += 1
                        elif kind < 0.75:
                            column = rng.choice(["kind", "note"])
                            table.update_rows(
                                rng.sample(rows, min(2, len(rows))),
                                {column: rng.choice(KINDS)})
                        else:
                            table.delete_rows([rng.choice(rows)])
                    if rng.random() < 0.25:
                        raise _Abort
            except _Abort:
                pass
    for snap, _ in pins:
        db.unpin_snapshot(snap)
    report = db.gc_versions()
    assert dead_at(table._mv, report["horizon"]) == []
    assert reclaimed + report["versions"] > 0


def test_a_loop_may_delete_from_and_insert_into_the_table_it_walks():
    """An iteration walks the rows as they were when it started."""
    table = probe_table()
    for key in range(10):
        table.insert({"key": key, "kind": "alpha"})
    seen = []
    for row in table.rows:
        seen.append(row["key"])
        if row["key"] % 2:
            table.delete_rows([row])
        table.insert({"key": 100 + row["key"], "kind": "gamma"})
    assert seen == list(range(10))
    assert [row["key"] for row in table.rows] == \
        [0, 2, 4, 6, 8] + list(range(100, 110))


# -- the model test ------------------------------------------------------------


statements = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 3)),
        st.tuples(st.just("update"), st.sampled_from(["kind", "note"]),
                  st.lists(st.integers(0, 10_000), min_size=1,
                           max_size=3)),
        st.tuples(st.just("delete"),
                  st.lists(st.integers(0, 10_000), min_size=1,
                           max_size=4)),
        st.tuples(st.just("bulk_load"), st.integers(1, 4)),
        st.tuples(st.just("duplicate"), st.integers(0, 10_000)),
    ),
    min_size=1, max_size=4)


class RowStoreMachine(RuleBasedStateMachine):
    """One versioned table against a plain list of ``(row, values)``.

    The model holds the live row objects themselves, so scan order and
    index buckets are compared by identity; the values beside each row
    are what an abort must put back.
    """

    @initialize()
    def open_table(self):
        self.db = Database()
        self.table = self.db.create_table(probe_table())
        self.model: list[tuple[dict, dict]] = []
        self.next_key = 0
        self.pinned: list[tuple[object, list[dict]]] = []

    def teardown(self):
        for snap, _ in getattr(self, "pinned", ()):
            self.db.unpin_snapshot(snap)

    # -- statements, run against the table and a scratch model ---------------

    def _fresh(self, n: int) -> list[dict]:
        rows = [{"key": self.next_key + i, "kind": KINDS[i % 3],
                 "note": f"n{self.next_key + i}"} for i in range(n)]
        self.next_key += n
        return rows

    def _apply(self, statement, model: list) -> None:
        table = self.table
        op = statement[0]
        if op == "insert":
            for values in self._fresh(statement[1]):
                row = table.insert(values)
                model.append((row, dict(row)))
        elif op == "bulk_load":
            rows = self._fresh(statement[1])
            table.bulk_load(rows)
            model.extend((row, dict(row)) for row in rows)
        elif op == "duplicate":
            if model:
                key = model[statement[1] % len(model)][0]["key"]
                with pytest.raises(MoiraError):
                    table.insert({"key": key, "kind": "alpha"})
        elif model:
            picks = dict.fromkeys(i % len(model) for i in statement[-1])
            chosen = [model[i][0] for i in picks]
            if op == "update":
                column = statement[1]
                value = ("BETA" if column == "kind"
                         else f"u{self.next_key}")
                self.next_key += 1
                table.update_rows(chosen, {column: value})
                for i in picks:
                    # the held row keeps its values; the update
                    # published a new head row, which the model follows
                    held, values = model[i]
                    assert held == values
                    head = table.select({"key": held["key"]})[0]
                    assert head is not held and head[column] == value
                    model[i] = (head, dict(head))
            else:
                table.delete_rows(chosen)
                doomed = {id(row) for row in chosen}
                model[:] = [(row, values) for row, values in model
                            if id(row) not in doomed]

    @rule(body=statements, commit=st.booleans())
    def transaction(self, body, commit):
        scratch = list(self.model)
        try:
            with self.db.write_txn():
                for statement in body:
                    self._apply(statement, scratch)
                if not commit:
                    raise _Abort
        except _Abort:
            return
        self.model = scratch

    @rule()
    def pin(self):
        snap = self.db.pin_snapshot()
        self.pinned.append((snap, [dict(values)
                                   for _, values in self.model]))

    @precondition(lambda self: self.pinned)
    @rule()
    def unpin(self):
        snap, _ = self.pinned.pop(0)
        self.db.unpin_snapshot(snap)

    @rule()
    def collect(self):
        self.db.gc_versions()

    @rule(pick=st.integers(0, 10_000))
    def move_away_and_back(self, pick):
        """Move a row's kind away and back in two commits, then
        collect: the row ends in its old bucket under an entry of its
        own."""
        if not self.model:
            return
        i = pick % len(self.model)
        row, values = self.model[i]
        for kind in (AWAY, values["kind"]):
            self.table.update_rows([row], {"kind": kind})
            row = self.table.select({"key": values["key"]})[0]
        assert row == values
        self.model[i] = (row, dict(row))
        self.db.gc_versions()

    @rule(pick=st.integers(0, 10_000))
    def abort_a_key_move(self, pick):
        """A key move that aborts leaves the row in its bucket."""
        if not self.model:
            return
        row = self.model[pick % len(self.model)][0]
        with pytest.raises(_Abort):
            with self.db.write_txn():
                self.table.update_rows([row], {"kind": AWAY})
                raise _Abort

    # -- invariants ---------------------------------------------------------------

    @invariant()
    def a_collection_leaves_nothing_dead(self):
        """Right after a collection, nothing closed at or before its
        horizon remains in the version store."""
        runs = self.db.mvcc_stats()["gc_runs"]
        if runs == getattr(self, "gc_runs_checked", 0):
            return
        self.gc_runs_checked = runs
        horizon = min([self.db._committed_seq]
                      + [snap.seq for snap, _ in self.pinned])
        assert dead_at(self.table._mv, horizon) == []

    @invariant()
    def scan_order_is_the_model(self):
        rows = list(self.table.rows)
        assert [id(row) for row in rows] == \
            [id(row) for row, _ in self.model]
        assert rows == [values for _, values in self.model]
        assert len(self.table) == len(self.model)

    @invariant()
    def each_head_row_is_its_head_version(self):
        """One row object per row: a live record's head row is its
        newest version's data, the store finds the record by it, every
        slot holds one open entry of the record — its shared entry, or
        its own where a key moved — in the bucket of the row's key, and
        a snapshot of the head hands out the same objects."""
        store = self.table._mv
        structures = {index.pos: (index, lambda row, index=index:
                                  index.key_of(row[index.column.name]))
                      for index in store.indexes.values()}
        structures.update((comp.pos, (comp, comp.key_of))
                          for comp in store.composites.values())
        assert sorted(structures) == list(range(1, len(store.slots)))
        assert len(store.records) == len(self.model)
        for row, _ in self.model:
            record = store.records[id(row)]
            assert record.row is row and record.current.data is row
            assert record.current.end == INF_SEQ
            moved = record.moved or {}
            assert set(moved) <= set(structures)
            for pos in range(len(store.slots)):
                entry = moved.get(pos, record.entry)
                assert entry.record is record and entry.end == INF_SEQ
                if pos:
                    structure, key_of = structures[pos]
                    assert any(found is entry for found in entries_of(
                        structure.buckets.get(key_of(row))))
        with self.db.read_view() as snap:
            assert [id(row) for row in snap.table("probe").rows] == \
                [id(row) for row, _ in self.model]

    @invariant()
    def snapshots_scan_in_live_order(self):
        with self.db.read_view() as snap:
            assert snap.table("probe").rows == \
                [values for _, values in self.model]
        for snap, expected in self.pinned:
            assert snap.table("probe").rows == expected

    @invariant()
    def snapshots_read_their_buckets(self):
        """Each pinned snapshot's index reads are its model's: a kind
        bucket holds the rows of that kind, and a (kind, key) probe
        finds its row under its kind alone."""
        kinds = (*KINDS, AWAY)
        with self.db.read_view() as head:
            views = [(head, [values for _, values in self.model])]
            views += self.pinned
            for snap, expected in views:
                view = snap.table("probe")
                for kind in kinds:
                    assert sorted(row["key"] for row in
                                  view.select({"kind": kind})) == sorted(
                        row["key"] for row in expected
                        if row["kind"].lower() == kind.lower())
                for row in expected:
                    for kind in kinds:
                        found = view.select({"kind": kind,
                                             "key": row["key"]})
                        assert found == ([row] if kind.lower()
                                         == row["kind"].lower() else [])

    @invariant()
    def buckets_hold_exactly_the_live_rows(self):
        """The open entries of every bucket are the model's rows under
        that key, each once."""
        store = self.table._mv
        structures = [(index, lambda row, index=index:
                       index.key_of(row[index.column.name]))
                      for index in store.indexes.values()]
        structures += [(comp, comp.key_of)
                       for comp in store.composites.values()]
        for structure, key_of in structures:
            expected: dict = {}
            for row, _ in self.model:
                expected.setdefault(key_of(row), []).append(id(row))
            found: dict = {}
            for key, bucket in structure.buckets.items():
                for entry in entries_of(bucket):
                    if entry.end == INF_SEQ:
                        found.setdefault(key, []).append(
                            id(entry.record.row))
            assert {key: sorted(ids) for key, ids in found.items()} == \
                {key: sorted(ids) for key, ids in expected.items()}


RowStoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None,
    derandomize=True)
TestRowStoreModel = RowStoreMachine.TestCase
