"""Tests for the relational engine (repro.db.engine)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.db.engine import Column, Database, Table, WildcardPattern
from repro.db.schema import build_database
from repro.errors import (
    MoiraError,
    MR_ARG_TOO_LONG,
    MR_BAD_CHAR,
    MR_EXISTS,
    MR_INTEGER,
    MR_NO_ID,
)


def people_table() -> Table:
    return Table(
        "people",
        [
            Column("name", str, max_len=16, checked=True),
            Column("uid", int),
            Column("host", str, fold_case=True),
        ],
        unique=[("name",)],
        indexes=["uid"],
    )


class TestColumnCoercion:
    def test_int_parse(self):
        col = Column("n", int)
        assert col.coerce("42") == 42
        assert col.coerce(" 7 ") == 7
        assert col.coerce(True) == 1

    def test_int_parse_failure(self):
        with pytest.raises(MoiraError) as exc:
            Column("n", int).coerce("seven")
        assert exc.value.code == MR_INTEGER

    def test_string_too_long(self):
        with pytest.raises(MoiraError) as exc:
            Column("s", str, max_len=3).coerce("abcd")
        assert exc.value.code == MR_ARG_TOO_LONG

    def test_bad_char_in_checked_column(self):
        with pytest.raises(MoiraError) as exc:
            Column("s", str, checked=True).coerce("a\x01b")
        assert exc.value.code == MR_BAD_CHAR

    def test_unchecked_column_allows_control_chars(self):
        assert Column("s", str).coerce("a\tb") == "a\tb"

    def test_defaults(self):
        assert Column("n", int).default == 0
        assert Column("s", str).default == ""


class TestWildcards:
    def test_star(self):
        assert WildcardPattern("bab*").matches("babette")
        assert not WildcardPattern("bab*").matches("abba")

    def test_question(self):
        assert WildcardPattern("e40-p?").matches("e40-po")
        assert not WildcardPattern("e40-p?").matches("e40-p")

    def test_fold_case(self):
        assert WildcardPattern("SUOMI*", fold_case=True).matches(
            "suomi.mit.edu")

    def test_is_wild(self):
        assert WildcardPattern.is_wild("a*b")
        assert WildcardPattern.is_wild("a?b")
        assert not WildcardPattern.is_wild("plain")

    def test_bracket_is_literal(self):
        assert WildcardPattern("a[b]c").matches("a[b]c")
        assert not WildcardPattern("a[b]c").matches("abc")

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                   max_size=20))
    def test_exact_text_matches_itself_when_not_wild(self, text):
        if not WildcardPattern.is_wild(text):
            assert WildcardPattern(text).matches(text)


class TestTable:
    def test_insert_and_select(self):
        t = people_table()
        t.insert({"name": "ann", "uid": 1, "host": "X.MIT.EDU"})
        t.insert({"name": "bob", "uid": 2, "host": "Y.MIT.EDU"})
        assert len(t) == 2
        assert t.select({"name": "ann"})[0]["uid"] == 1

    def test_insert_fills_defaults(self):
        t = people_table()
        row = t.insert({"name": "ann"})
        assert row["uid"] == 0
        assert row["host"] == ""

    def test_unique_violation(self):
        t = people_table()
        t.insert({"name": "ann", "uid": 1})
        with pytest.raises(MoiraError) as exc:
            t.insert({"name": "ann", "uid": 2})
        assert exc.value.code == MR_EXISTS

    def test_update_maintains_indexes(self):
        t = people_table()
        row = t.insert({"name": "ann", "uid": 1})
        t.update_rows([row], {"uid": 99})
        assert t.select({"uid": 99}) == [{**row, "uid": 99}]
        assert t.select({"uid": 1}) == []

    def test_update_unique_violation(self):
        t = people_table()
        t.insert({"name": "ann", "uid": 1})
        row = t.insert({"name": "bob", "uid": 2})
        with pytest.raises(MoiraError):
            t.update_rows([row], {"name": "ann"})
        # failed update leaves the row unchanged
        assert t.select({"name": "bob"}) == [row]

    def test_update_to_same_value_is_not_violation(self):
        t = people_table()
        row = t.insert({"name": "ann", "uid": 1})
        t.update_rows([row], {"name": "ann", "uid": 5})
        assert t.select({"name": "ann"})[0]["uid"] == 5
        assert row["uid"] == 1      # the held row is a read-only value

    def test_delete_maintains_indexes(self):
        t = people_table()
        row = t.insert({"name": "ann", "uid": 1})
        t.delete_rows([row])
        assert len(t) == 0
        assert t.select({"uid": 1}) == []
        # name can be reused after delete
        t.insert({"name": "ann", "uid": 3})

    def test_case_insensitive_column(self):
        t = people_table()
        t.insert({"name": "ann", "uid": 1, "host": "SUOMI.MIT.EDU"})
        assert len(t.select({"host": "suomi.mit.edu"})) == 1

    def test_wildcard_select(self):
        t = people_table()
        for i, name in enumerate(["babette", "barb", "carol"]):
            t.insert({"name": name, "uid": i})
        assert {r["name"] for r in t.select({"name": "ba*"})} == {
            "babette", "barb"}

    def test_predicate_select(self):
        t = people_table()
        for i in range(10):
            t.insert({"name": f"u{i}", "uid": i})
        rows = t.select(predicate=lambda r: r["uid"] % 2 == 0)
        assert len(rows) == 5

    def test_count(self):
        t = people_table()
        for i in range(4):
            t.insert({"name": f"u{i}", "uid": i % 2})
        assert t.count() == 4
        assert t.count({"uid": 0}) == 2

    def test_stats_track_mutations(self):
        t = people_table()
        row = t.insert({"name": "ann", "uid": 1}, now=100)
        assert t.stats.appends == 1
        assert t.stats.modtime == 100
        t.update_rows([row], {"uid": 2}, now=200)
        assert t.stats.updates == 1
        t.delete_rows(t.select({"uid": 2}), now=300)
        assert t.stats.deletes == 1
        assert t.stats.modtime == 300

    def test_unknown_column_rejected(self):
        t = people_table()
        with pytest.raises(MoiraError):
            t.insert({"name": "x", "bogus": 1})

    @staticmethod
    def two_serverhosts():
        db = build_database()
        hosts = db.table("serverhosts")
        return hosts, [hosts.insert({"service": "NFS", "mach_id": m})
                       for m in (7, 8)]

    def test_a_non_key_update_probes_no_unique_key(self, monkeypatch):
        """The DCM's host-flag writes set no column of (service,
        mach_id): nothing to re-prove unique."""
        hosts, (row, _) = self.two_serverhosts()

        def probe(*args, **kwargs):
            raise AssertionError("a non-key update probed a unique key")

        monkeypatch.setattr(hosts, "_violates_unique", probe)
        hosts.update_rows([row], {"success": 1, "inprogress": 0,
                                  "lts": 99}, touch_stats=False)
        assert hosts.select({"mach_id": 7})[0]["lts"] == 99

    def test_a_key_update_to_a_duplicate_changes_nothing(self):
        hosts, (first, second) = self.two_serverhosts()
        with pytest.raises(MoiraError) as exc:
            hosts.update_rows([second], {"mach_id": 7, "lts": 5})
        assert exc.value.code == MR_EXISTS
        assert second["mach_id"] == 8 and second["lts"] == 0
        assert hosts.select({"mach_id": 8}) == [second]
        assert hosts.select({"mach_id": 7}) == [first]
        assert hosts.select({"service": "NFS", "mach_id": 7}) == [first]

    def test_add_index_on_existing_rows(self):
        t = people_table()
        t.insert({"name": "ann", "uid": 1, "host": "H1"})
        t.add_index("host")
        assert len(t.select({"host": "h1"})) == 1


class TestDatabase:
    def test_values_and_next_id(self):
        db = Database()
        db.create_table(Table("values", [Column("name"),
                                         Column("value", int)],
                              unique=[("name",)]))
        db.set_value("users_id", 10)
        assert db.next_id("users_id") == 10
        assert db.next_id("users_id") == 11
        assert db.get_value("users_id") == 12

    def test_missing_hint_raises_no_id(self):
        db = Database()
        db.create_table(Table("values", [Column("name"),
                                         Column("value", int)],
                              unique=[("name",)]))
        with pytest.raises(MoiraError) as exc:
            db.next_id("nonexistent")
        assert exc.value.code == MR_NO_ID

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table(Table("t", [Column("a")]))
        with pytest.raises(ValueError):
            db.create_table(Table("t", [Column("a")]))

    def test_table_stats_listing(self):
        db = Database()
        t = db.create_table(Table("t", [Column("a")]))
        t.insert({"a": "x"}, now=5)
        stats = db.table_stats()
        assert stats == [("t", 0, 1, 0, 0, 5)]

    def test_bare_database_write_txn_rolls_back(self):
        """A bare database has the schema's transactions: a body that
        raises keeps none of its rows, and its seq publishes as an
        abort."""
        db = Database()
        t = db.create_table(people_table())
        t.insert({"name": "kept", "uid": 1, "host": "h"})
        before = db.mvcc_stats()
        with pytest.raises(KeyError):
            with db.write_txn() as txn:
                t.insert({"name": "ghost", "uid": 2, "host": "h"})
                raise KeyError("handler failed")
        assert [row["name"] for row in t.rows] == ["kept"]
        assert t.select({"uid": 2}) == []
        with db.read_view() as view:
            assert view.table("people").count() == 1
        after = db.mvcc_stats()
        assert after["aborts"] == before["aborts"] + 1
        assert after["committed_seq"] == txn.seq


class TestPropertyBased:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 1000)),
                    max_size=60))
    def test_index_agrees_with_scan(self, ops):
        """Hash-index lookups must always agree with a full scan."""
        t = Table("t", [Column("k", int), Column("v", int)], indexes=["k"])
        rows = []
        for key, value in ops:
            rows.append(t.insert({"k": key, "v": value}))
        for key in {k for k, _ in ops}:
            via_index = t.select({"k": key})
            via_scan = [r for r in t.rows if r["k"] == key]
            assert via_index == via_scan

    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8),
           st.lists(st.text(alphabet="abcdefgh*?", min_size=1, max_size=4),
                    min_size=1, max_size=5))
    def test_wildcard_select_equals_filter(self, names, patterns):
        t = Table("t", [Column("name")], indexes=["name"])
        for i, name in enumerate(names):
            try:
                t.insert({"name": name + str(i)})
            except MoiraError:
                pass
        for pattern in patterns:
            matcher = WildcardPattern(pattern)
            got = {r["name"] for r in t.select({"name": pattern})}
            expect = {r["name"] for r in t.rows
                      if matcher.matches(r["name"])}
            assert got == expect
