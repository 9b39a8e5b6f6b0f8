"""mrcheck — database consistency checker.

"What is important is that the database remain internally consistant"
(§5.2.2).  mrcheck audits what the query layer is supposed to keep
true; a clean run returns an empty list.  The test suite uses it as an
oracle after random query workloads.

Every reference the schema declares (``repro.db.schema.REFERENCES``)
is checked: a row naming a row that does not exist, or carrying a
type its declaration does not know, is a problem.  Two audits are not
references and are written out here: a quota sits on its filesystem's
partition and each partition's ``allocated`` equals the sum of the
quotas on it, and every key a reference names (and each uid) is
unique.
"""

from __future__ import annotations

from repro.db.engine import Database
from repro.db.schema import KEYS, REFERENCES

__all__ = ["MrCheck"]


class MrCheck:
    """Referential-integrity auditor over a database."""
    def __init__(self, db: Database):
        self.db = db

    def run(self) -> list[str]:
        """Audit every invariant; returns problem strings (empty=clean)."""
        self._read: dict[str, list] = {}
        return (self._check_references() + self._check_quota_allocation()
                + self._check_unique_ids())

    def _rows(self, table: str) -> list:
        """*table*'s rows, read once per run."""
        if table not in self._read:
            self._read[table] = self.db.table(table).rows
        return self._read[table]

    def _check_references(self) -> list[str]:
        problems = []
        keys: dict[tuple[str, str], set] = {}
        for ref in REFERENCES:
            for row in self._rows(ref.table):
                try:
                    target = ref.target(row)
                except KeyError:
                    problems.append(f"{ref.table}.{ref.type_column}: bad "
                                    f"type {row[ref.type_column]!r}")
                    continue
                if target is not None and target not in keys:
                    keys[target] = {r[target[1]]
                                    for r in self._rows(target[0])}
                if target is None or row[ref.column] in keys[target]:
                    continue
                what = (f"missing {target[0]}" if ref.type_column is None
                        else f"dangling {row[ref.type_column]} "
                             f"{ref.column.removesuffix('_id')}")
                problems.append(
                    f"{ref.table}.{ref.column}: {what} {row[ref.column]}")
        return problems

    def _check_quota_allocation(self) -> list[str]:
        """A quota sits on its filesystem's partition, and
        nfsphys.allocated equals the sum of the quotas on it."""
        problems = []
        sums: dict[int, int] = {}
        phys = {f["filsys_id"]: f["phys_id"]
                for f in self._rows("filesys")}
        for q in self._rows("nfsquota"):
            sums[q["phys_id"]] = sums.get(q["phys_id"], 0) + q["quota"]
            if phys.get(q["filsys_id"], q["phys_id"]) != q["phys_id"]:
                problems.append(f"nfsquota {q['users_id']}/{q['filsys_id']}"
                                f": not on its filesystem's partition")
        for p in self._rows("nfsphys"):
            expect = sums.get(p["nfsphys_id"], 0)
            if p["allocated"] != expect:
                problems.append(
                    f"nfsphys {p['nfsphys_id']}: allocated "
                    f"{p['allocated']} != quota sum {expect}")
        return problems

    def _check_unique_ids(self) -> list[str]:
        """Every key a reference names, and each uid, is unique."""
        problems = []
        for table, column in [*KEYS.items(), ("users", "uid")]:
            seen: dict[int, int] = {}
            for row in self._rows(table):
                value = row[column]
                seen[value] = seen.get(value, 0) + 1
            dupes = {v: c for v, c in seen.items() if c > 1}
            if dupes:
                problems.append(
                    f"{table}.{column}: duplicate values {sorted(dupes)}")
        return problems
