"""E4 — the ASCII backup system (§5.2.2).

"mrbackup copies each relation of the current Moira database into an
ASCII file ... the ascii files take up about 3.2 MB of space" for the
production database, and restore must be lossless (it was the only
trusted recovery path, since RTI Ingres checkpointing was "not
sufficiently reliable").

Shape expected: the paper-scale dump lands within a small factor of
3.2 MB, the users relation dominates, and backup -> restore is an
identity on every relation.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record
from repro.db.backup import mrbackup, mrrestore
from repro.db.schema import build_database

PAPER_DUMP_BYTES = 3_200_000


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("e4")


class TestBackup:
    def test_benchmark_mrbackup(self, paper_deployment, dump_dir,
                                benchmark):
        d = paper_deployment
        sizes = benchmark.pedantic(
            lambda: mrbackup(d.db, dump_dir / "bench"),
            rounds=3, iterations=1)
        assert sizes

    def test_benchmark_mrrestore(self, paper_deployment, dump_dir,
                                 benchmark):
        d = paper_deployment
        mrbackup(d.db, dump_dir / "restore-src")

        def restore():
            fresh = build_database()
            mrrestore(fresh, dump_dir / "restore-src")
            return fresh

        restored = benchmark.pedantic(restore, rounds=3, iterations=1)
        assert len(restored.table("users")) == len(d.db.table("users"))

    def test_shape_and_emit(self, paper_deployment, dump_dir, benchmark):
        d = paper_deployment
        sizes = mrbackup(d.db, dump_dir / "shape")
        total = sum(sizes.values())

        restored = build_database()
        counts = mrrestore(restored, dump_dir / "shape")
        lossless = all(
            list(restored.tables[name].rows) == list(table.rows)
            for name, table in d.db.tables.items()
        )

        top = sorted(sizes.items(), key=lambda kv: -kv[1])[:5]
        lines = ["E4: mrbackup of the paper-scale database",
                 f"  total dump size: {total} bytes "
                 f"(paper: ~{PAPER_DUMP_BYTES})",
                 f"  rows restored:   {sum(counts.values())}",
                 f"  lossless:        {lossless}",
                 "  largest relations:"]
        for name, size in top:
            lines.append(f"    {name:12s} {size:>9d} bytes")
        record("e4_backup", {
            "dump_bytes": total,
            "rows_restored": sum(counts.values()),
            "lossless": lossless,
            "largest_relations": dict(top),
        }, lines)

        assert lossless
        assert PAPER_DUMP_BYTES / 4 < total < PAPER_DUMP_BYTES * 4
        assert top[0][0] == "users"   # user data dominates the dump

        benchmark(lambda: None)
