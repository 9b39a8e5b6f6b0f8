"""The CDC push pipeline: WAL-as-change-stream extraction, durable
cursors (restart resume, the resync self-heal after a checkpoint
truncates past the cursor), debounce/coalescing windows, origin-seq attribution, the
``_cdc`` observability rows, and — the load-bearing property — byte
identity between CDC-converged host files and the cron ``run_once``
oracle under randomized mutation interleavings."""

from __future__ import annotations

import random

import pytest

from repro.client.lib import MoiraClient
from repro.core import AthenaDeployment, DeploymentConfig
from repro.db.recovery import checkpoint
from repro.dcm.cdc import CdcCursor, CdcExtractor
from repro.sim.clock import DEFAULT_EPOCH
from repro.workload import PopulationSpec

SMALL = PopulationSpec(users=40, unregistered_users=5, nfs_servers=3,
                       maillists=8, clusters=3, machines_per_cluster=2,
                       printers=5, network_services=12)

BASE = DEFAULT_EPOCH + 1000

# push residue that legitimately differs between delta and full pushes
# (staged tars, install scripts, .moira_old backups) and daemon pid
# files (restart counts track push counts, not content) — the oracle
# compares the *installed* files, the bytes the services actually serve
RESIDUE = (".moira_update", ".moira_old", ".pid")
SCRIPT_TEMP = "/tmp/moira_install_script"


def make_deployment(**overrides) -> AthenaDeployment:
    config = dict(population=SMALL, cdc=True)
    config.update(overrides)
    return AthenaDeployment(DeploymentConfig(**config))


@pytest.fixture
def deployment():
    d = make_deployment()
    d.run_hours(7)      # cron builds + pushes the initial generation
    return d


def service_row(d, name):
    return d.db.table("servers").select({"name": name})[0]


def host_rows(d, name):
    return d.db.table("serverhosts").select({"service": name})


def installed_files(d) -> dict[str, dict[str, bytes]]:
    """Every host's installed config files (push residue excluded)."""
    snapshot = {}
    for name, host in sorted(d.hosts.items()):
        files = {}
        for path in host.fs.listdir(""):
            if path.endswith(RESIDUE) or path == SCRIPT_TEMP:
                continue
            files[path] = host.fs.read(path)
        snapshot[name] = files
    return snapshot


def add_user(client, login, uid):
    client.query("add_user", login, str(uid), "/bin/csh", "User",
                 login.capitalize(), "X", "1", str(900000 + uid), "G")


# -- the durable cursor --------------------------------------------------------


class TestCursor:
    def test_memory_cursor(self):
        cursor = CdcCursor()
        assert cursor.seq == 0 and not cursor.loaded
        cursor.advance_to(5)
        cursor.advance_to(3)        # monotonic: no going back
        assert cursor.seq == 5
        cursor.reset(2)             # ...except by explicit reset
        assert cursor.seq == 2

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cursor.json"
        CdcCursor("cdc", path).advance_to(42)
        reloaded = CdcCursor("cdc", path)
        assert reloaded.loaded and reloaded.seq == 42

    def test_unreadable_token_starts_cold(self, tmp_path):
        path = tmp_path / "cursor.json"
        path.write_text("not json")
        cursor = CdcCursor("cdc", path)
        assert cursor.seq == 0 and not cursor.loaded

    def test_fresh_extractor_starts_at_stream_head(self, deployment):
        # no durable token: the extractor must not replay history it
        # cannot attribute (the initial cron push covered it)
        d = deployment
        assert d.cdc.cursor.seq == d.journal.current_seq()
        assert d.cdc.cursor_lag() == 0

    def test_restart_resumes_from_durable_token(self, tmp_path):
        d = make_deployment()
        d.cdc.cursor.path = tmp_path / "cursor.json"
        d.run_hours(7)
        d.pump_cdc()
        token = d.cdc.cursor.seq
        add_user(d.direct_client(), "restarted", 20950)
        # crash before the pump: the mutation is committed but not
        # converged, and the durable token still floors it
        d.cdc.close()
        revived = CdcExtractor(d.dcm, d.journal, d.clock,
                               cursor_path=tmp_path / "cursor.json")
        assert revived.cursor.loaded
        assert revived.cursor.seq == token
        summary = revived.pump()
        assert "HESIOD" in summary["converged"]
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        assert b"restarted" in hesiod.fs.read("/etc/hesiod/passwd.db")
        revived.close()


# -- the resync self-heal ------------------------------------------------------


class TestCheckpointResync:
    def test_checkpoint_past_the_cursor_self_heals(self, deployment,
                                                   tmp_path):
        """A checkpoint truncating the WAL past the unpumped cursor
        wipes the window the extractor was counting on; the next pump
        must detect it, reset the cursor, and reconverge *every*
        service from current state — and the result must still carry
        the missed mutation."""
        d = deployment
        client = d.direct_client()
        add_user(client, "healme", 20952)
        client.query("update_user_shell", "healme", "/bin/tcsh")
        checkpoint(d.db, d.journal, tmp_path / "snap")
        assert d.cdc.cursor.seq < d.journal.oldest_seq() - 1
        summary = d.pump_cdc()
        assert d.cdc.stats["resyncs"] == 1
        # the full-reconvergence cycle touched every pushable service
        assert set(summary["converged"]) >= {"HESIOD", "MAIL", "NFS",
                                             "ZEPHYR"}
        assert d.cdc.cursor.seq == d.journal.current_seq()
        assert d.cdc.cursor_lag() == 0
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        assert b"healme" in hesiod.fs.read("/etc/hesiod/passwd.db")
        # converged is converged: the next cron cycle stays a no-op
        before = installed_files(d)
        d.run_hours(25)
        assert installed_files(d) == before


class TestMappingAndCoalescing:
    def test_sub_second_convergence(self, deployment):
        """The headline: mutation to converged host within the same
        virtual second (the cron baseline is hours)."""
        d = deployment
        t0 = d.clock.now()
        add_user(d.direct_client(), "speedy", 20953)
        summary = d.pump_cdc()
        assert summary["now"] == t0     # zero virtual seconds elapsed
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        assert b"speedy" in hesiod.fs.read("/etc/hesiod/passwd.db")
        assert d.cdc.cursor_lag() == 0

    def test_footprint_maps_to_dependent_services_only(self, deployment):
        d = deployment
        d.direct_client().query("add_cluster", "cdcc", "test", "e40")
        d.cdc.poll()
        # the cluster relation feeds only the Hesiod generator
        assert sorted(d.cdc._pending) == ["HESIOD"]
        d.pump_cdc()

    def test_bookkeeping_writes_do_not_feed_back(self, deployment):
        d = deployment
        add_user(d.direct_client(), "fedback", 20954)
        d.pump_cdc()
        # the pushes journaled flag writes; they must not re-dirty
        pumped = d.cdc.stats["pumps"]
        summary = d.pump_cdc()
        assert summary["converged"] == []
        assert summary["pending"] == []
        assert d.cdc.stats["entries_ignored"] > 0
        assert d.cdc.stats["pumps"] == pumped + 1
        assert d.cdc.cursor_lag() == 0

    def test_idle_pump_probe_is_cheap(self, deployment):
        d = deployment
        add_user(d.direct_client(), "probed", 20955)
        assert d.cdc.has_work        # commit listener raised the flag
        d.pump_cdc()
        assert not d.cdc.has_work    # settled: cron ticks stay no-ops

    def test_debounce_window_holds_convergence(self):
        d = make_deployment()
        d.cdc.debounce_seconds = 300
        d.run_hours(7)
        add_user(d.direct_client(), "slowed", 20956)
        summary = d.pump_cdc()
        assert summary["converged"] == []
        assert summary["pending"]            # window open, not due
        assert d.cdc.debounce_occupancy() > 0
        # the open window floors the durable cursor below the mutation
        assert d.cdc.cursor.seq < d.journal.current_seq()
        d.clock.advance(300)
        summary = d.pump_cdc()
        assert "HESIOD" in summary["converged"]
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        assert b"slowed" in hesiod.fs.read("/etc/hesiod/passwd.db")
        assert d.cdc.cursor_lag() == 0

    def test_max_coalesce_forces_early_convergence(self):
        d = make_deployment()
        d.cdc.debounce_seconds, d.cdc.max_coalesce = 100000, 5
        d.run_hours(7)
        client = d.direct_client()
        for i in range(5):
            add_user(client, f"burst{i}", 20960 + i)
        summary = d.pump_cdc()
        assert "HESIOD" in summary["converged"]   # window overflowed
        assert d.cdc.stats["pushes_coalesced"] > 0

    def test_storm_coalesces_into_batched_pushes(self, deployment):
        """A registration storm rides a handful of pushes: mutations
        coalesce per service, and each service pushes each host once."""
        d = deployment
        client = d.direct_client()
        n = 50
        for i in range(n):
            add_user(client, f"storm{i:03d}", 21000 + i)
        summary = d.pump_cdc()
        assert "HESIOD" in summary["converged"]
        total_hosts = len(d.db.table("serverhosts").rows)
        assert d.cdc.stats["host_pushes"] <= total_hosts
        assert d.cdc.stats["pushes_coalesced"] >= (n - 1)
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        passwd = hesiod.fs.read("/etc/hesiod/passwd.db")
        for i in range(n):
            assert f"storm{i:03d}".encode() in passwd

    def test_fresh_hosts_get_delta_payloads(self, deployment):
        d = deployment
        add_user(d.direct_client(), "deltaed", 21100)
        d.pump_cdc()
        # the hesiod host was converged to the previous generation, so
        # it received only the files whose bytes changed
        assert d.cdc.stats["delta_pushes"] >= 1
        row = [h for h in host_rows(d, "HESIOD")][0]
        assert row["success"] == 1


# -- byte identity against the cron oracle (randomized interleavings) ---------


class MutationScript:
    """A seeded mutation stream applied identically to two worlds."""

    OPS = ("add_user", "shell", "status", "list_add", "list_del",
           "machine", "noop_round")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.next_uid = 22000 + seed * 500
        self.users: list[str] = []
        self.listed: list[str] = []

    def setup(self, clients):
        for c in clients:
            c.query("add_list", "cdcpool", 1, 1, 0, 1, 0, 0,
                    "LIST", "cdcpool", "cdc interleaving pool")

    def step(self, clients):
        op = self.rng.choice(self.OPS)
        if op == "add_user" or not self.users:
            login = f"mix{self.next_uid}"
            uid = self.next_uid
            self.next_uid += 1
            for c in clients:
                add_user(c, login, uid)
            self.users.append(login)
        elif op == "shell":
            login = self.rng.choice(self.users)
            sh = self.rng.choice(["/bin/sh", "/bin/csh", "/bin/tcsh"])
            for c in clients:
                c.query("update_user_shell", login, sh)
        elif op == "status":
            login = self.rng.choice(self.users)
            status = self.rng.choice(["1", "2"])
            for c in clients:
                c.query("update_user_status", login, status)
        elif op == "list_add":
            login = self.rng.choice(self.users)
            if login not in self.listed:
                for c in clients:
                    c.query("add_member_to_list", "cdcpool", "USER",
                            login)
                self.listed.append(login)
        elif op == "list_del":
            if self.listed:       # the delete-only shape
                login = self.listed.pop(
                    self.rng.randrange(len(self.listed)))
                for c in clients:
                    c.query("delete_member_from_list", "cdcpool",
                            "USER", login)
        elif op == "machine":
            name = f"CDCM{self.next_uid}"
            self.next_uid += 1
            for c in clients:
                c.query("add_machine", name, "VAX")
        elif op == "noop_round":
            # net no-op: two journaled writes, zero content change
            login = self.rng.choice(self.users)
            for c in clients:
                c.query("update_user_status", login, "2")
                c.query("update_user_status", login, "1")


class TestByteIdentityOracle:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_interleaving_matches_cron_oracle(self, seed):
        """CDC-converged host files must be byte-identical to what a
        from-scratch cron deployment builds from the same mutations."""
        cdc_world = make_deployment()
        cron_world = make_deployment(cdc=False)
        for d in (cdc_world, cron_world):
            d.run_hours(7)
        clients = [cdc_world.direct_client(), cron_world.direct_client()]
        script = MutationScript(seed)
        script.setup(clients)
        cdc_world.pump_cdc()
        for _ in range(4):
            for _ in range(script.rng.randrange(1, 6)):
                script.step(clients)
            cdc_world.pump_cdc()       # converge per batch, not per cycle
        assert cdc_world.cdc.cursor_lag() == 0
        # the oracle converges the slow way: full cron cycles
        cron_world.run_hours(25)
        assert installed_files(cdc_world) == installed_files(cron_world)

    def test_delete_only_round(self):
        cdc_world = make_deployment()
        cron_world = make_deployment(cdc=False)
        for d in (cdc_world, cron_world):
            d.run_hours(7)
        clients = [cdc_world.direct_client(), cron_world.direct_client()]
        lists = cdc_world.handles.maillist_names
        victim = cdc_world.db.table("members").select(
            {"list_id": cdc_world.db.table("list").select(
                {"name": lists[0]})[0]["list_id"],
             "member_type": "USER"})[0]
        login = cdc_world.db.table("users").select(
            {"users_id": victim["member_id"]})[0]["login"]
        for c in clients:
            c.query("delete_member_from_list", lists[0], "USER", login)
        summary = cdc_world.pump_cdc()
        assert summary["converged"]
        cron_world.run_hours(25)
        assert installed_files(cdc_world) == installed_files(cron_world)

    def test_no_change_mutation_keeps_hosts_converged(self, deployment):
        """A journaled write whose regenerated bytes are identical must
        not bump dfgen: converged hosts stay converged and cron stays a
        no-op."""
        d = deployment
        client = d.direct_client()
        login = d.handles.logins[0]
        dfgen = service_row(d, "HESIOD")["dfgen"]
        client.query("update_user_status", login, "2")
        client.query("update_user_status", login, "1")
        summary = d.pump_cdc()
        outcomes = {o["service"]: o["status"] for o in
                    summary["outcomes"]}
        assert outcomes["HESIOD"] == "no_change"
        assert service_row(d, "HESIOD")["dfgen"] == dfgen
        assert d.cdc.stats["converges_no_change"] >= 1

    def test_cron_noop_after_cdc_convergence(self, deployment):
        d = deployment
        add_user(d.direct_client(), "settled", 21200)
        d.pump_cdc()
        before = installed_files(d)
        report = d.dcm.run_once()
        assert report.propagations_attempted == 0
        assert installed_files(d) == before


# -- retries are the extractor's, not cron's ------------------------------------


class TestRetry:
    def test_healed_host_converges_on_the_extractors_schedule(self):
        """A host that missed a CDC push is retried by the extractor at
        the governor's not-before time — with cron's DCM removed — and
        ends byte-identical to a twin that never partitioned."""
        d, twin = make_deployment(), make_deployment()
        for world in (d, twin):
            world.run_hours(7)
            world.cron.remove("dcm")    # only the extractor pushes now
        victim = d.handles.nfs_machines[0]
        d.network.partition(victim)
        for world in (d, twin):
            add_user(world.direct_client(), "retried", 20970)
        twin.pump_cdc()
        nfs = {o["service"]: o for o in d.pump_cdc()["outcomes"]}["NFS"]
        hosts = len(d.handles.nfs_machines)
        assert (nfs["status"], nfs["pushes"], nfs["soft_failures"],
                nfs["retry"]) == ("converged", hosts - 1, 1, True)
        assert nfs["retry_at"] > d.clock.now()
        assert installed_files(d) != installed_files(twin)

        # inside the backoff the queued retry costs no pump at all
        pumps = d.cdc.stats["pumps"]
        d.cron.run_for(30)
        assert d.cdc.stats["pumps"] == pumps
        d.network.heal(victim)
        d.run_hours(1)
        dfgen = service_row(d, "NFS")["dfgen"]
        assert all(h["success"] and h["lts"] >= dfgen
                   for h in host_rows(d, "NFS"))
        assert d.cdc.debounce_occupancy() == 0
        assert installed_files(d) == installed_files(twin)

    def test_new_mutation_does_not_wait_on_a_retry(self):
        """A mutation landing in a retry window converges the healthy
        hosts on the next pump; only the dead host keeps waiting."""
        d = make_deployment()
        d.run_hours(7)
        victim = d.handles.nfs_machines[0]
        d.network.partition(victim)
        add_user(d.direct_client(), "first", 20971)
        d.pump_cdc()
        add_user(d.direct_client(), "second", 20972)
        d.pump_cdc()
        for name in d.handles.nfs_machines[1:]:
            creds = d.hosts[name.upper()].fs.read("/etc/nfs/credentials")
            assert b"second" in creds


class TestRestartedDcm:
    def test_no_delta_against_files_regenerated_in_place(self):
        """A restarted DCM's cron tick rebuilds HESIOD in place before
        the extractor pumps: those files already hold the pending
        change, so a delta against them would be empty and the change
        would reach no host.  Files remembered without their input
        vector are nobody's previous generation."""
        d = make_deployment()
        d.run_hours(7)
        d.clock.advance(60)
        d.direct_client().query("update_user_shell",
                                d.handles.logins[0], "/bin/pending")
        d.dcm._generated.clear()    # a new DCM process, same database
        d.dcm.run_once()            # HESIOD not due: rebuilt in place
        d.pump_cdc()
        hesiod = d.hosts[d.handles.hesiod_machine.upper()]
        assert b"/bin/pending" in hesiod.fs.read("/etc/hesiod/passwd.db")


# -- a replicated hard failure under CDC (mirrors test_incremental_dcm) ---------


class TestReplicatedPoisoning:
    def test_replicated_poisoning(self):
        """A replicated hard failure during a CDC convergence poisons
        the service: one hosterror, one zephyrgram, one mail."""
        d = make_deployment()
        d.run_hours(7)      # ZEPHYR (24 h) never generated: all stale
        first_zephyr = d.handles.zephyr_machines[0]
        d.daemons[first_zephyr].register_command(
            "install_zephyr_acls", lambda: 1)
        add_user(d.direct_client(), "poisoner", 21350)
        summary = d.pump_cdc()
        zephyr = [o for o in summary["outcomes"]
                  if o["service"] == "ZEPHYR"][0]
        assert zephyr["status"] == "harderror"
        assert zephyr["hard_failures"] == 1
        assert "install script exited" in zephyr["reason"]
        assert service_row(d, "ZEPHYR")["harderror"] != 0
        failed = [h for h in host_rows(d, "ZEPHYR")
                  if h["hosterror"] != 0]
        assert len(failed) == 1
        assert sum(1 for n in d.notifications
                   if n[0] == "MOIRA" and n[1] == "DCM") == 1
        assert len(d.mail_sent) == 1
        # poisoned is poisoned: the extractor leaves it to the operator
        add_user(d.direct_client(), "afterwards", 21351)
        later = [o for o in d.pump_cdc()["outcomes"]
                 if o["service"] == "ZEPHYR"][0]
        assert (later["status"], later["reason"]) == ("skipped",
                                                      "harderror")


# -- origin-seq attribution (stuck consumers name their commit) ----------------


class TestOriginAttribution:
    def test_hard_failure_carries_origin_seq(self, deployment):
        d = deployment
        daemon = d.daemons[d.handles.mailhub_machine]
        daemon.register_command("install_aliases", lambda: 1)
        add_user(d.direct_client(), "stuckon", 21300)
        origin = d.journal.current_seq()
        summary = d.pump_cdc()
        mail = [o for o in summary["outcomes"]
                if o["service"] == "MAIL"][0]
        assert mail["hard_failures"] == 1
        assert mail["origin_seq"] >= origin
        tagged = [n for n in d.notifications
                  if n[0] == "MOIRA" and "origin seq" in n[2]]
        assert tagged
        assert f"origin seq {mail['origin_seq']}" in tagged[0][2]
        assert any("origin seq" in m for _a, m in d.mail_sent)

    def test_cron_path_reports_origins_too(self, deployment):
        d = deployment
        daemon = d.daemons[d.handles.mailhub_machine]
        daemon.register_command("install_aliases", lambda: 1)
        add_user(d.direct_client(), "cronstuck", 21301)
        d.clock.advance(24 * 3600)      # MAIL due; cron path, no pump
        report = d.dcm.run_once()
        origins = report.hard_failure_origins
        assert any("MAIL" in what for what, _seq in origins)
        assert all(seq > 0 for _what, seq in origins)


# -- observability -------------------------------------------------------------


class TestObservability:
    def test_dcm_stats_exposes_cdc_rows(self, deployment):
        d = deployment
        add_user(d.direct_client(), "statrow", 21400)
        d.pump_cdc()
        client = MoiraClient(dispatcher=d.server).connect()
        rows = client.query("_dcm_stats")
        client.close()
        cdc = {r[1]: r[2] for r in rows if r[0] == "_cdc"}
        assert int(cdc["cursor"]) == d.journal.current_seq()
        assert int(cdc["cursor_lag"]) == 0
        assert int(cdc["debounce_occupancy"]) == 0
        assert int(cdc["converges"]) >= 1
        assert int(cdc["pumps"]) >= 1
        per_service = {r[1]: r for r in rows if r[0] == "_cdc.service"}
        assert "HESIOD" in per_service
        hesiod = per_service["HESIOD"]
        assert int(hesiod[2]) > 0      # last_converged_seq
        assert int(hesiod[3]) >= 1     # converges

    def test_dcm_totals_count_cdc_convergences(self, deployment):
        """``DCM.total_*`` (what ``python -m repro`` prints) are bumped
        where the work happens, so CDC-driven generations, no-change
        checks and pushes all count."""
        d = deployment
        dcm = d.dcm
        before = (dcm.total_generations, dcm.total_no_change,
                  dcm.total_propagations, dcm.total_bytes)
        add_user(d.direct_client(), "counted", 21401)
        outcomes = d.pump_cdc()["outcomes"]
        generated = sum(1 for o in outcomes if o["generated"])
        assert generated >= 1
        assert dcm.total_generations == before[0] + generated
        assert dcm.total_propagations == before[2] + sum(
            o["pushes"] for o in outcomes)
        assert dcm.total_bytes == before[3] + sum(
            o["bytes"] for o in outcomes)
        # same vector again: a no-change check, counted as one
        again = dcm.converge_service("HESIOD", d.clock.now())
        assert (again["status"], again["generated"]) == ("no_change",
                                                         False)
        assert dcm.total_no_change == before[1] + 1
        assert dcm.total_generations == before[0] + generated
