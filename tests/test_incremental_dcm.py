"""The incremental DCM pipeline: data versions, changed-row logs, the
shared extraction cache, incremental generation, and the host-push
loop (the paper's serverhosts scan and its replicated poisoning)."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.engine import Column, Database, Table
from repro.dcm import dcm as dcm_module
from repro.dcm import update as update_module
from repro.dcm.generators.base import GenContext, get_generator
from repro.workload import PopulationSpec
from tests.test_cdc import MutationScript, installed_files

SMALL = PopulationSpec(users=40, unregistered_users=5, nfs_servers=3,
                       maillists=8, clusters=3, machines_per_cluster=2,
                       printers=5, network_services=12)


def make_deployment(**overrides) -> AthenaDeployment:
    return AthenaDeployment(DeploymentConfig(population=SMALL,
                                             **overrides))


@pytest.fixture
def deployment():
    return make_deployment()


def service_row(d, name):
    return d.db.table("servers").select({"name": name})[0]


def host_rows(d, name):
    return d.db.table("serverhosts").select({"service": name})


def simple_table(**kwargs) -> Table:
    return Table(
        "things",
        [Column("name", str, max_len=32), Column("value", int)],
        indexes=["name"],
        **kwargs)


# -- change tracking in the engine ---------------------------------------------


class TestDataVersions:
    def test_insert_update_delete_bump(self):
        t = simple_table()
        assert t.version == 0
        row = t.insert({"name": "a", "value": 1})
        assert t.version == 1
        t.update_rows([row], {"value": 2})
        assert t.version == 2
        t.delete_rows(t.select({"name": "a"}))
        assert t.version == 3

    def test_touch_stats_false_does_not_bump(self):
        """DCM bookkeeping writes are not data changes — the paper's
        modtimes "refer only to modification by a user, not by the
        DCM", and the version vector keeps that property."""
        t = simple_table()
        row = t.insert({"name": "a", "value": 1})
        before = t.version
        t.update_rows([row], {"value": 9}, touch_stats=False)
        assert t.version == before

    def test_bulk_delete_bumps_per_row(self):
        t = simple_table()
        rows = [t.insert({"name": f"n{i}", "value": i})
                for i in range(5)]
        before = t.version
        assert t.delete_rows(rows[1:4]) == 3
        assert t.version == before + 3
        assert [r["name"] for r in t.rows] == ["n0", "n4"]
        # indexes stay consistent after the one-pass delete
        assert t.select({"name": "n4"})[0]["value"] == 4
        assert t.select({"name": "n2"}) == []

    def test_database_versions_vector(self):
        db = Database()
        db.create_table(simple_table())
        assert db.versions()["things"] == 0
        db.table("things").insert({"name": "a", "value": 1})
        vec = db.versions()
        assert vec["things"] == 1


class TestChangelog:
    def test_changes_since_replays_ops(self):
        t = simple_table(changelog=16)
        row = t.insert({"name": "a", "value": 1})
        v1 = t.version
        t.update_rows([row], {"value": 2})
        t.delete_rows(t.select({"name": "a"}))
        log = t.changes_since(v1)
        assert [c.op for c in log] == ["update", "delete"]
        assert log[0].before["value"] == 1
        assert log[0].after["value"] == 2
        assert log[1].after is None

    def test_no_changes_is_empty_list(self):
        t = simple_table(changelog=16)
        t.insert({"name": "a", "value": 1})
        assert t.changes_since(t.version) == []

    def test_overflow_reports_gap(self):
        t = simple_table(changelog=4)
        for i in range(8):
            t.insert({"name": f"n{i}", "value": i})
        # version 1's successors have been evicted -> None, not a lie
        assert t.changes_since(1) is None
        # but the still-logged suffix replays fine
        assert len(t.changes_since(t.version - 3)) == 3

    def test_disabled_log_returns_none(self):
        t = simple_table()
        t.insert({"name": "a", "value": 1})
        assert t.changes_since(0) is None

    def test_clear_empties_log(self):
        t = simple_table(changelog=16)
        t.insert({"name": "a", "value": 1})
        v = t.version
        t.clear()
        assert t.version == v + 1
        assert t.changes_since(v) is None  # clear is not replayable


class TestPrefixFastPath:
    def test_prefix_wildcard_uses_index(self):
        t = simple_table()
        for i in range(50):
            t.insert({"name": f"churn{i:02d}", "value": i})
        t.insert({"name": "other", "value": 99})
        got = t.select({"name": "churn1*"})
        assert sorted(r["name"] for r in got) == \
            [f"churn1{i}" for i in range(10)]

    def test_fold_case_prefix(self):
        t = Table(
            "machines",
            [Column("name", str, max_len=32, fold_case=True)],
            indexes=["name"])
        t.insert({"name": "CHURN1.MIT.EDU"})
        t.insert({"name": "churn2.mit.edu"})
        t.insert({"name": "OTHER.MIT.EDU"})
        assert len(t.select({"name": "churn*"})) == 2
        assert len(t.select({"name": "CHURN*"})) == 2

    def test_non_prefix_wildcards_still_work(self):
        t = simple_table()
        t.insert({"name": "alpha", "value": 1})
        t.insert({"name": "beta", "value": 2})
        assert len(t.select({"name": "*a"})) == 2
        assert len(t.select({"name": "a*a"})) == 1

    def test_prefix_results_match_full_scan(self):
        t = simple_table()
        names = ["ab", "abc", "abd", "b", "a", "ab1"]
        for i, name in enumerate(names):
            t.insert({"name": name, "value": i})
        fast = {r["name"] for r in t.select({"name": "ab*"})}
        slow = {n for n in names if n.startswith("ab")}
        assert fast == slow


# -- the shared extraction cache ----------------------------------------------


class TestSharedGenContext:
    def test_for_service_shares_memo(self, deployment):
        d = deployment
        ctx = GenContext(d.db, d.clock.now())
        a = ctx.for_service(hosts=[])
        b = ctx.for_service(hosts=[])
        assert a.active_users is b.active_users
        assert a.members_by_list is b.members_by_list

    def test_cycle_extracts_users_once(self, deployment):
        """One cycle with all services due derives the active-user map
        exactly once, however many generators consume it."""
        d = deployment
        d.clock.advance(25 * 3600)  # every service is now due at once
        calls = {"n": 0}
        users = d.db.table("users")
        original = users.select

        def counting(*args, **kwargs):
            if args and args[0] == {"status": 1}:
                calls["n"] += 1
            return original(*args, **kwargs)

        users.select = counting
        try:
            report = d.dcm.run_once()
        finally:
            users.select = original
        assert report.generations == 4
        assert calls["n"] == 1


# -- version-vector change detection -------------------------------------------


class TestVectorNoChange:
    def test_quiet_cycle_reports_no_change(self, deployment):
        d = deployment
        d.run_hours(25)
        report = None
        d.clock.advance(7 * 3600)
        report = d.dcm.run_once()
        assert report.generations == 0
        assert "HESIOD" in report.no_change_services

    def test_machine_change_reruns_only_dependents(self, deployment):
        """A machine-only change regenerates HESIOD, MAIL and NFS (which
        declare ``machine``) and leaves ZEPHYR untouched; no file names
        the new machine, so nothing is rebuilt."""
        d = deployment
        d.run_hours(25)
        d.direct_client().query("add_machine", "NEWBOX.MIT.EDU", "VAX")
        d.clock.advance(25 * 3600)
        report = d.dcm.run_once()
        assert set(report.generated_services) == {"HESIOD", "MAIL", "NFS"}
        assert set(report.no_change_services) == {"ZEPHYR"}
        assert report.generations_incremental == 3
        assert not any(d.dcm._generated[service].meta["files_rebuilt"]
                       for service in ("HESIOD", "MAIL", "NFS"))

    def test_dcm_bookkeeping_does_not_dirty_vectors(self, deployment):
        """The host-scan's serverhosts flag writes must not make NFS
        (which declares ``serverhosts``) look changed next cycle."""
        d = deployment
        d.run_hours(13)  # NFS generated + propagated (flag writes)
        dfgen = service_row(d, "NFS")["dfgen"]
        d.run_hours(13)
        assert service_row(d, "NFS")["dfgen"] == dfgen


# -- incremental generation -----------------------------------------------------


class TestIncrementalHesiod:
    def test_user_change_patches_user_files(self, deployment):
        d = deployment
        d.run_hours(7)
        login = d.handles.logins[0]
        d.direct_client().query("update_user_shell", login, "/bin/tcsh")
        d.clock.advance(7 * 3600)
        report = d.dcm.run_once()
        assert "HESIOD" in report.generated_services
        assert report.generations_incremental == 1
        result = d.dcm._generated["HESIOD"]
        # a shell is read by passwd.db alone: one file patched, the
        # other ten (uid.db, pobox.db, grplist.db...) not even rebuilt
        assert result.meta["files_patched"] == ["passwd.db"]
        assert result.meta["files_rebuilt"] == []

    def test_incremental_bytes_match_full_generate(self, deployment):
        d = deployment
        d.run_hours(7)
        client = d.direct_client()
        logins = d.handles.logins
        client.query("update_user_shell", logins[0], "/bin/tcsh")
        client.query("update_user_status", logins[1], "0")  # deactivate
        d.clock.advance(7 * 3600)
        report = d.dcm.run_once()
        assert report.generations_incremental == 1
        patched = d.dcm._generated["HESIOD"]
        generator = get_generator("HESIOD")
        full = generator.generate(GenContext(d.db, d.clock.now()))
        assert patched.files == full.files

    def test_machine_change_rebuilds_without_patch(self, deployment):
        """A machine change rebuilds only the files with a row naming
        that machine: a new one reaches none, renaming a cluster
        workstation rebuilds cluster.db alone."""
        d = deployment
        d.run_hours(7)
        client = d.direct_client()
        client.query("add_machine", "NEWBOX.MIT.EDU", "VAX")
        d.clock.advance(7 * 3600)
        d.dcm.run_once()
        assert d.dcm._generated["HESIOD"].meta["files_rebuilt"] == []
        mcmap = list(d.db.table("mcmap").rows)[0]
        machine = d.db.table("machine").select(
            {"mach_id": mcmap["mach_id"]})[0]
        client.query("update_machine", machine["name"], "RENAMED.MIT.EDU",
                     machine["type"])
        d.clock.advance(7 * 3600)
        d.dcm.run_once()
        result = d.dcm._generated["HESIOD"]
        assert result.meta["files_patched"] == []
        assert result.meta["files_rebuilt"] == ["cluster.db"]
        full = get_generator("HESIOD").generate(
            GenContext(d.db, d.clock.now()))
        assert result.files == full.files
        assert b"RENAMED.MIT.EDU.cluster" in result.files[
            "/etc/hesiod/cluster.db"]


# -- the host-push loop ----------------------------------------------------------


class TestPushLoop:
    def test_full_cycle_counters(self):
        d = make_deployment()
        d.clock.advance(25 * 3600)
        report = d.dcm.run_once()
        # 1 hesiod + 3 nfs + 1 mailhub + 3 zephyr hosts
        total_hosts = sum(len(host_rows(d, s))
                          for s in ("HESIOD", "NFS", "MAIL", "ZEPHYR"))
        assert report.propagations_succeeded == total_hosts
        for s in ("HESIOD", "NFS", "MAIL", "ZEPHYR"):
            assert all(h["success"] == 1 for h in host_rows(d, s))

    def test_replicated_poisoning(self):
        """A replicated hard failure poisons the service; exactly one
        host records the hard error."""
        d = make_deployment()
        first_zephyr = d.handles.zephyr_machines[0]
        d.daemons[first_zephyr].register_command(
            "install_zephyr_acls", lambda: 1)
        d.run_hours(25)
        assert service_row(d, "ZEPHYR")["harderror"] != 0
        failed = [h for h in host_rows(d, "ZEPHYR")
                  if h["hosterror"] != 0]
        assert len(failed) == 1
        # zephyrgram + mail fired exactly once for the one hard failure
        assert sum(1 for n in d.notifications
                   if n[0] == "MOIRA" and n[1] == "DCM") == 1

    def test_poisoned_service_not_retried(self):
        d = make_deployment()
        first_zephyr = d.handles.zephyr_machines[0]
        d.daemons[first_zephyr].register_command(
            "install_zephyr_acls", lambda: 1)
        d.run_hours(25)
        tried = {h["mach_id"]: h["ltt"]
                 for h in host_rows(d, "ZEPHYR")}
        d.run_hours(25)
        assert {h["mach_id"]: h["ltt"]
                for h in host_rows(d, "ZEPHYR")} == tried

    def test_replicated_hard_failure_ends_the_scan(self):
        """§5.7.1 scans serverhosts in order: the hosts before a
        REPLICAT hard failure are updated, the failing one records the
        error, and no host after it is attempted."""
        d = make_deployment()
        hosts = d.dcm._live_hosts("ZEPHYR")
        assert len(hosts) == 3
        failing = hosts[1][1]
        d.daemons[failing].register_command("install_zephyr_acls",
                                            lambda: 1)
        d.clock.advance(25 * 3600)
        before = {h["mach_id"]: h["ltt"] for h in host_rows(d, "ZEPHYR")}
        report = d.dcm.run_once()
        after = {h["mach_id"]: h for h in host_rows(d, "ZEPHYR")}
        first, hit, rest = (after[row["mach_id"]] for row, _ in hosts)
        assert first["success"] == 1 and first["ltt"] == d.clock.now()
        assert hit["hosterror"] != 0 and hit["ltt"] == d.clock.now()
        assert rest["ltt"] == before[rest["mach_id"]]
        assert rest["success"] == 0 and rest["hosterror"] == 0
        assert [what for what, _ in report.hard_failure_origins] == \
            ["ZEPHYR/" + failing]
        assert service_row(d, "ZEPHYR")["harderror"] != 0

    def test_each_distinct_payload_is_hashed_once(self, monkeypatch):
        """A membership round pushes one credentials tar to all 20 NFS
        hosts: the DCM digests it once and hands that digest to every
        push, instead of rehashing the same bytes per host."""
        d = AthenaDeployment(DeploymentConfig(
            population=replace(SMALL, nfs_servers=20)))
        d.clock.advance(25 * 3600)
        d.dcm.run_once()                                 # cold cycle
        digests, pushes = [], []
        real_checksum, real_push = dcm_module.checksum, \
            dcm_module.push_update

        def counting_checksum(data):
            digests.append(data)
            return real_checksum(data)

        def recording_push(**kwargs):
            pushes.append(kwargs)
            return real_push(**kwargs)

        def no_rehash(data):
            raise AssertionError("push_update rehashed its payload")

        monkeypatch.setattr(dcm_module, "checksum", counting_checksum)
        monkeypatch.setattr(dcm_module, "push_update", recording_push)
        monkeypatch.setattr(update_module, "checksum", no_rehash)
        group = next(row["name"] for row in d.db.table("list").rows
                     if row["grouplist"])
        login = list(d.db.table("users").rows)[3]["login"]
        d.direct_client().query("add_member_to_list", group, "USER", login)
        d.clock.advance(25 * 3600)
        d.dcm.run_once()
        nfs = [p for p in pushes if p["target"] == service_row(
            d, "NFS")["target_file"]]
        assert len(nfs) == 20
        assert all(h["success"] == 1 for h in host_rows(d, "NFS"))
        distinct = {p["payload"] for p in pushes}
        assert len({p["payload"] for p in nfs}) == 1
        assert len(digests) == len(distinct)
        for p in pushes:
            assert p["digest"] == hashlib.sha256(p["payload"]).hexdigest()


class TestRegenerateOracle:
    def test_matches_always_regenerate_after_every_cycle(self):
        """The reference is E1's ablation: every due service built in
        full, no MR_NO_CHANGE, no patching.  The default pipeline —
        version vectors, patched keyed files, shared extracts — must
        leave every host's installed files byte-identical to it after
        each due cycle of one mutation stream."""
        worlds = [make_deployment(), make_deployment()]
        worlds[1].dcm.always_regenerate = True
        clients = [d.direct_client() for d in worlds]
        script = MutationScript(4)
        script.setup(clients)
        for _ in range(4):
            for _ in range(script.rng.randrange(1, 6)):
                script.step(clients)
            for d in worlds:
                d.clock.advance(25 * 3600)  # every service due
                d.dcm.run_once()
            assert installed_files(worlds[0]) == installed_files(worlds[1])
        for s in ("HESIOD", "NFS", "MAIL", "ZEPHYR"):
            assert all(h["success"] == 1 for h in host_rows(worlds[0], s))

    def test_always_regenerate_converges(self):
        """The oracle itself must reach every host: with no
        MR_NO_CHANGE short-cut, a day of cron cycles still leaves every
        host of every service marked successful."""
        d = make_deployment()
        d.dcm.always_regenerate = True
        d.run_hours(25)
        for s in ("HESIOD", "NFS", "MAIL", "ZEPHYR"):
            assert all(h["success"] == 1 for h in host_rows(d, s))
