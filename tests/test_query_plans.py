"""Oracle and regression tests for the compiled query-plan layer:
composite indexes, the per-(table, WHERE-shape) plan cache, the pattern
LRU, and the covered ``count()`` fast path.

The oracle is a brute-force predicate scan over ``Table.rows`` — the
compiled plans must agree with it on every shape, including randomised
ones, as a *multiset* of row objects."""

from __future__ import annotations

import random

import pytest

from repro.db.engine import (
    _PLAN_CACHE_LIMIT,
    Column,
    Table,
    WildcardPattern,
)
from repro.db.schema import build_database
from repro.errors import MoiraError

NAMES = ["Alpha", "alpha", "ALPHA-7", "beta", "Gamma", "delta*lit",
         "churn-a", "churn-b", "churn-c", "other"]
TAGS = ["", "x", "hot", "cold"]
KINDS = ["USER", "LIST", "STRING"]


def make_table() -> Table:
    return Table(
        "probe",
        [
            Column("id", int),
            Column("kind", str, max_len=8),
            Column("owner", int),
            Column("name", str, max_len=32, fold_case=True),
            Column("tag", str, max_len=16),
        ],
        indexes=["id", "kind", "name"],
        composite_indexes=[("kind", "owner"), ("id", "kind", "owner")],
    )


def fill(table: Table, rng: random.Random, n: int = 400) -> None:
    for _ in range(n):
        table.insert({
            "id": rng.randrange(40),
            "kind": rng.choice(KINDS),
            "owner": rng.randrange(25),
            "name": rng.choice(NAMES),
            "tag": rng.choice(TAGS),
        })


def brute_force(table: Table, where: dict) -> list:
    """Scan-only oracle: no indexes, no plans, fresh patterns."""
    out = []
    for row in table.rows:
        ok = True
        for name, value in where.items():
            column = table.columns[name]
            if column.kind is str and WildcardPattern.is_wild(str(value)):
                pattern = WildcardPattern(str(value), column.fold_case)
                if not pattern.matches(str(row[name])):
                    ok = False
                    break
            elif not column.equal(row[name], column.coerce(value)):
                ok = False
                break
        if ok:
            out.append(row)
    return out


def row_ids(rows) -> list[int]:
    """Order-insensitive multiset of row object identities."""
    return sorted(id(r) for r in rows)


def assert_oracle_agreement(table: Table, where: dict) -> None:
    expected = row_ids(brute_force(table, where))
    assert row_ids(table.select(where)) == expected
    assert table.count(where) == len(expected)


SHAPES = [
    {},
    {"id": 7},
    {"id": "7"},                      # string-typed int argument
    {"kind": "USER"},
    {"kind": "USER", "owner": 3},     # covered by ("kind", "owner")
    {"id": 7, "kind": "LIST", "owner": 3},   # covered by the 3-column
    {"id": 7, "kind": "LIST", "owner": 3, "tag": "x"},  # residual filter
    {"name": "alpha"},                # fold_case exact
    {"name": "ALPHA"},
    {"name": "Alph*"},                # literal-prefix wildcard
    {"name": "*a*"},                  # scan wildcard
    {"name": "?lpha"},
    {"kind": "US*"},                  # wildcard on indexed column
    {"tag": "hot"},                   # unindexed exact
    {"tag": "h*", "kind": "USER"},    # mixed wildcard + covered-ish
    {"id": 999},                      # empty bucket
    {"kind": "USER", "owner": 9999},  # empty composite bucket
]


class TestPlanOracle:
    def test_fixed_shapes_match_scan_oracle(self):
        table = make_table()
        fill(table, random.Random(11))
        for where in SHAPES:
            assert_oracle_agreement(table, where)

    def test_randomised_shapes_match_scan_oracle(self):
        rng = random.Random(23)
        table = make_table()
        fill(table, rng)
        pools = {
            "id": lambda: rng.randrange(45),
            "kind": lambda: rng.choice(KINDS + ["US*", "*"]),
            "owner": lambda: rng.randrange(28),
            "name": lambda: rng.choice(NAMES + ["Al*", "*a*", "??ta",
                                                "zzz*"]),
            "tag": lambda: rng.choice(TAGS + ["h*"]),
        }
        for _ in range(300):
            cols = rng.sample(sorted(pools), rng.randrange(1, 5))
            where = {c: pools[c]() for c in cols}
            assert_oracle_agreement(table, where)

    def test_oracle_survives_update_delete_churn(self):
        rng = random.Random(37)
        table = make_table()
        fill(table, rng, n=200)
        for step in range(60):
            roll = rng.random()
            if roll < 0.4 or not table.rows:
                fill(table, rng, n=3)
            elif roll < 0.7:
                victim = rng.choice(list(table.rows))
                table.update_rows([victim],
                                  {"owner": rng.randrange(25),
                                   "kind": rng.choice(KINDS)})
            else:
                doomed = rng.sample(list(table.rows),
                                    min(3, len(table.rows)))
                table.delete_rows(doomed)
            for where in ({"kind": "USER", "owner": 3},
                          {"id": 7, "kind": "LIST", "owner": 3},
                          {"name": "Alph*"}):
                assert_oracle_agreement(table, where)

    def test_unknown_column_raises_both_paths(self):
        """The live table and a pinned snapshot bind the same plans."""
        table = make_table()
        with pytest.raises(MoiraError):
            table.select({"nope": 1})
        with build_database().read_view() as view:
            with pytest.raises(MoiraError):
                view.table("machine").select({"nope": 1})


class TestPlanCache:
    def test_plan_reused_across_calls(self):
        table = make_table()
        fill(table, random.Random(5), n=50)
        table.select({"kind": "USER", "owner": 3})
        plan_before = dict(table._plans)
        table.select({"owner": 9, "kind": "LIST"})  # same shape, any order
        assert dict(table._plans) == plan_before
        assert len(plan_before) == 1

    def test_add_index_invalidates_plans(self):
        table = make_table()
        fill(table, random.Random(5), n=80)
        table.select({"tag": "hot"})
        shape = next(iter(table._plans))
        stale = table._plans[shape]
        assert stale.single == ()  # tag had no index
        table.add_index("tag")
        assert_oracle_agreement(table, {"tag": "hot"})
        fresh = table._plans[shape]
        assert fresh is not stale
        assert fresh.covered  # single indexed column, whole WHERE

    def test_add_composite_index_backfills_and_invalidates(self):
        table = make_table()
        fill(table, random.Random(5), n=80)
        table.select({"name": "alpha", "kind": "USER"})
        table.add_composite_index(("name", "kind"))
        assert_oracle_agreement(table, {"name": "ALPHA", "kind": "USER"})
        plan, exact, wild = table._bind_plan(
            {"name": "ALPHA", "kind": "USER"})
        assert plan.covered and plan.composite is not None
        assert plan.composite.names == ("name", "kind")

    def test_cache_stays_bounded(self):
        table = make_table()
        for i in range(_PLAN_CACHE_LIMIT * 3):
            # distinct shapes: vary the wildcard-ness and column mix
            table.select({"tag": f"t{i}*" if i % 2 else "t",
                          "owner" if i % 3 else "id": i})
        assert len(table._plans) <= _PLAN_CACHE_LIMIT

    def test_composite_needs_two_columns(self):
        table = make_table()
        with pytest.raises(ValueError):
            table.add_composite_index(("id",))


class TestCoveredCount:
    def test_covered_count_never_iterates(self, monkeypatch):
        table = make_table()
        fill(table, random.Random(5), n=120)
        expected_pair = len(brute_force(table,
                                        {"kind": "USER", "owner": 3}))
        expected_single = len(brute_force(table, {"id": 7}))

        def boom(*a, **k):  # pragma: no cover - guard
            raise AssertionError("covered count() must not iterate")

        monkeypatch.setattr(table, "iter_select", boom)
        assert table.count({"kind": "USER", "owner": 3}) == expected_pair
        assert table.count({"id": 7}) == expected_single
        assert table.count() == len(table.rows)

    def test_uncovered_count_still_right(self):
        table = make_table()
        fill(table, random.Random(5), n=120)
        where = {"name": "Alph*"}
        assert table.count(where) == len(brute_force(table, where))


class TestIndexGuards:
    def test_prefix_lookup_skips_int_keys(self):
        """Regression: a prefix probe against an int-column index used
        to crash on ``int.startswith``; now it just matches nothing."""
        table = make_table()
        fill(table, random.Random(5), n=30)
        assert table._mv.indexes["id"].prefix_entries("1") == []

    def test_prefix_lookup_folds_case(self):
        table = make_table()
        table.insert({"id": 1, "kind": "USER", "owner": 1,
                      "name": "MixedCase", "tag": ""})
        found = table._mv.indexes["name"].prefix_entries("mixed")
        assert [e.record.row["name"] for e in found] == ["MixedCase"]


class TestPatternLRU:
    def test_compiled_patterns_are_shared(self):
        a = WildcardPattern.compile("zz-shared-*")
        b = WildcardPattern.compile("zz-shared-*")
        assert a is b
        folded = WildcardPattern.compile("zz-shared-*", fold_case=True)
        assert folded is not a
        assert folded.matches("ZZ-SHARED-thing")
        assert not a.matches("ZZ-SHARED-thing")

    def test_lru_semantics_match_fresh_compile(self):
        for pattern in ("a*b?c", "*", "??", "lit[eral]*"):
            cached = WildcardPattern.compile(pattern)
            fresh = WildcardPattern(pattern)
            for probe in ("axbyc", "a*b?c", "lit[eral]x", "literal",
                          "", "zz"):
                assert cached.matches(probe) == fresh.matches(probe)


class TestSchemaComposites:
    def test_members_probe_is_covered(self):
        db = build_database()
        members = db.table("members")
        plan, _, _ = members._bind_plan(
            {"list_id": 1, "member_type": "USER", "member_id": 2})
        assert plan.covered
        assert plan.composite is not None
        assert set(plan.composite.names) == {"list_id", "member_type",
                                             "member_id"}
        plan2, _, _ = members._bind_plan(
            {"member_type": "USER", "member_id": 2})
        assert plan2.covered

    def test_ace_and_alias_probes_are_covered(self):
        db = build_database()
        for table, where in (
            ("list", {"acl_type": "LIST", "acl_id": 3}),
            ("servers", {"acl_type": "USER", "acl_id": 3}),
            ("hostaccess", {"acl_type": "LIST", "acl_id": 3}),
            ("alias", {"name": "x", "type": "TYPE"}),
            ("nfsquota", {"users_id": 1, "filsys_id": 2}),
            ("mcmap", {"mach_id": 1, "clu_id": 2}),
        ):
            plan, _, _ = db.table(table)._bind_plan(where)
            assert plan.covered, f"{table} probe not covered"
