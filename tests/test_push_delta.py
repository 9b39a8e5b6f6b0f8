"""Pushes that cost their change: a host holding the previous generation
is sent the splices the generator made (a delta member), built into the
staged file only when the file on disk is the delta's base, and its
servers reload from those lines.  Covers the member format, the soft
base-mismatch rule, a crash between the delta step and the rename, the
bytes a one-line change costs, byte identity against the cron and
whole-file oracles, hosts bound by ``mach_id``, and the ``filesys``
reach of the passwd files."""

from __future__ import annotations

import io
import tarfile

import pytest

from repro.dcm.update import build_payload, default_script
from repro.hosts.update_daemon import FileDelta, checksum, splice
from repro.sim import FaultInjector
from repro.workload import PopulationSpec
from tests.test_cdc import (
    MutationScript,
    installed_files,
    make_deployment,
)

PASSWD_DB = "/etc/hesiod/passwd.db"


def outcome(summary: dict, service: str) -> dict:
    return next(o for o in summary["outcomes"] if o["service"] == service)


def host_row(d, service: str, machine: str) -> dict:
    mach_id = d.db.table("machine").select(
        {"name": machine.upper()})[0]["mach_id"]
    return d.db.table("serverhosts").select(
        {"service": service, "mach_id": mach_id})[0]


def move_home(client, label: str, mount: str) -> None:
    """update_filesys of *label* with only its mount point changed."""
    fs = client.query("get_filesys_by_label", label)[0]
    client.query("update_filesys", fs[0], fs[0], *fs[1:4], mount,
                 *fs[5:11])


def hesiod_host(d):
    return d.hosts[d.handles.hesiod_machine.upper()]


# -- the member format --------------------------------------------------------


class TestFileDelta:
    BASE = b"alpha\nbravo\ncharlie\n"

    def delta(self):
        new = splice(self.BASE, [(6, 12, b"BRAVO\nbeta\n"), (20, 20, b"d\n")])
        return new, FileDelta(checksum(self.BASE), checksum(new),
                              ((6, 12, b"BRAVO\nbeta\n"), (20, 20, b"d\n")))

    def test_round_trip_and_lines(self):
        new, delta = self.delta()
        assert new == b"alpha\nBRAVO\nbeta\ncharlie\nd\n"
        assert FileDelta.decode(delta.encode()) == delta
        assert delta.lines(self.BASE) == ([b"bravo"],
                                          [b"BRAVO", b"beta", b"d"])

    @pytest.mark.parametrize("cut", [1, 20, -1])
    def test_a_damaged_member_does_not_decode(self, cut):
        blob = self.delta()[1].encode()
        with pytest.raises(ValueError):
            FileDelta.decode(blob[:cut] if cut > 0 else blob + b"x")

    def test_splices_out_of_order_are_refused(self):
        with pytest.raises(ValueError):
            splice(self.BASE, [(6, 12, b""), (0, 1, b"")])

    def test_payload_is_a_plain_tar_with_a_patch_step(self):
        _, delta = self.delta()
        files = {"/etc/a": delta, "/etc/b": b"whole\n"}
        with tarfile.open(fileobj=io.BytesIO(build_payload(files)),
                          mode="r:") as tar:
            members = {info.name: tar.extractfile(info).read()
                       for info in tar}
        assert members == {"/etc/a": delta.encode(), "/etc/b": b"whole\n"}
        # every member is staged before any is renamed into place
        assert default_script(files, "cmd").steps == [
            ("patch", "/etc/a"), ("extract", "/etc/b"),
            ("install", "/etc/a"), ("install", "/etc/b"), ("exec", "cmd")]


# -- what a one-line change costs ---------------------------------------------


def test_one_shell_change_ships_under_8kb_and_matches_cron():
    spec = PopulationSpec(users=300, unregistered_users=5, nfs_servers=3,
                          maillists=8, clusters=3, machines_per_cluster=2,
                          printers=5, network_services=12)
    d = make_deployment(population=spec)
    twin = make_deployment(population=spec, cdc=False)
    for world in (d, twin):
        world.run_hours(7)
        world.direct_client().query("update_user_shell",
                                    world.handles.logins[7], "/bin/zsh")
    hesiod = outcome(d.pump_cdc(), "HESIOD")
    # the whole file would not fit: only the delta member can
    assert len(hesiod_host(d).fs.read(PASSWD_DB)) > 3 * 8192
    assert hesiod["delta_pushes"] == 1 and hesiod["bytes"] < 8192
    twin.run_hours(25)
    assert installed_files(d) == installed_files(twin)


# -- the base rule ------------------------------------------------------------


class TestBaseMismatch:
    def test_hand_edited_file_fails_soft_then_converges_whole(self):
        d = make_deployment()
        twin = make_deployment(cdc=False)
        for world in (d, twin):
            world.run_hours(7)
        host = hesiod_host(d)
        edited = host.fs.read(PASSWD_DB) + b"; edited by hand\n"
        host.fs.write(PASSWD_DB, edited)
        host.fs.fsync()
        login = d.handles.logins[2]
        for world in (d, twin):
            world.direct_client().query("update_user_shell", login,
                                        "/bin/zsh")
        hesiod = outcome(d.pump_cdc(), "HESIOD")
        assert hesiod["soft_failures"] == 1
        assert hesiod["hard_failures"] == 0
        row = host_row(d, "HESIOD", d.handles.hesiod_machine)
        assert row["hosterror"] == 0 and row["success"] == 0
        assert host.fs.read(PASSWD_DB) == edited      # nothing installed
        assert d.hesiod.getpwnam(login)["shell"] != "/bin/zsh"

        # the retry is a whole-file push, and the host converges
        d.clock.advance(3600)
        hesiod = outcome(d.pump_cdc(), "HESIOD")
        assert hesiod["full_pushes"] == 1 and hesiod["delta_pushes"] == 0
        assert d.hesiod.getpwnam(login)["shell"] == "/bin/zsh"
        twin.run_hours(25)
        assert installed_files(d) == installed_files(twin)

    def test_crash_between_delta_step_and_rename_keeps_old_file(self):
        faults = FaultInjector(seed=5)
        d = make_deployment(faults=faults)
        d.run_hours(7)
        host = hesiod_host(d)
        old = host.fs.read(PASSWD_DB)
        ops: list[str] = []
        faults.call("daemon.step", lambda ctx: ops.append(ctx["op"])
                    if ctx["host"] == host.name else None)
        faults.crash_host_at(
            "daemon.step", host,
            where=lambda ctx: ctx["host"] == host.name
            and ctx["op"] == "install")
        login = d.handles.logins[4]
        d.direct_client().query("update_user_shell", login, "/bin/zsh")
        hesiod = outcome(d.pump_cdc(), "HESIOD")
        assert ops[:2] == ["patch", "install"]        # staged, not renamed
        assert hesiod["soft_failures"] == 1 and not host.alive
        assert host.fs.read(PASSWD_DB) == old
        assert not host.fs.exists(PASSWD_DB + ".moira_update")

        host.reboot()
        d.clock.advance(3600)
        hesiod = outcome(d.pump_cdc(), "HESIOD")
        assert hesiod["pushes"] == 1 and hesiod["soft_failures"] == 0
        assert host.fs.read(PASSWD_DB) == \
            d.dcm._generated["HESIOD"].files[PASSWD_DB]
        assert d.hesiod.getpwnam(login)["shell"] == "/bin/zsh"


# -- byte identity with deltas in the stream ----------------------------------


class DeltaScript(MutationScript):
    """The CDC oracle's stream plus pobox moves and HOMEDIR moves of
    population users, with some batches a 20-mutation burst."""

    EXTRA = ("pobox", "home")

    def __init__(self, seed: int, logins: list[str]):
        super().__init__(seed)
        self.logins = logins
        self.homes = 0

    def step(self, clients):
        op = self.rng.choice(self.OPS + self.EXTRA)
        if op not in self.EXTRA:
            return super().step(clients)
        login = self.rng.choice(self.logins)
        self.homes += 1
        for c in clients:
            if op == "pobox":
                c.query("set_pobox", login, "SMTP",
                        f"{login}@mail{self.homes}.example.com")
            else:
                move_home(c, login, f"/mit/m{self.homes}/{login}")


@pytest.mark.parametrize("seed", [3, 4])
def test_delta_stream_matches_cron_and_whole_file_oracles(seed):
    cdc_world = make_deployment()
    cron_world = make_deployment(cdc=False)
    whole_world = make_deployment(cdc=False)
    whole_world.dcm.always_regenerate = True
    worlds = (cdc_world, cron_world, whole_world)
    for d in worlds:
        d.run_hours(25)
    clients = [d.direct_client() for d in worlds]
    script = DeltaScript(seed, cdc_world.handles.logins)
    script.setup(clients)
    cdc_world.pump_cdc()
    for batch in range(6):
        size = 20 if batch % 3 == 2 else script.rng.randrange(1, 6)
        for _ in range(size):
            script.step(clients)
        summary = cdc_world.pump_cdc()
        assert not any(o["soft_failures"] or o["hard_failures"]
                       for o in summary["outcomes"])
    assert cdc_world.cdc.stats["delta_pushes"] > 0
    cron_world.run_hours(25)
    whole_world.run_hours(25)
    assert installed_files(cdc_world) == installed_files(cron_world)
    assert installed_files(cdc_world) == installed_files(whole_world)


# -- the satellites -----------------------------------------------------------


def test_renamed_nfs_server_keeps_its_binding():
    d = make_deployment()
    d.run_hours(7)
    old_name = d.handles.nfs_machines[0]
    machine = d.db.table("machine").select({"name": old_name.upper()})[0]
    d.direct_client().query("update_machine", old_name, "RENAMED.MIT.EDU",
                            machine["type"])
    summary = d.pump_cdc()
    assert not any(o["soft_failures"] for o in summary["outcomes"])
    nfs = outcome(summary, "NFS")
    assert nfs["pushes"] >= 1
    row = host_row(d, "NFS", "RENAMED.MIT.EDU")
    assert row["success"] == 1 and row["hosterror"] == 0
    host = d.hosts[old_name.upper()]
    result = d.dcm._generated["NFS"]
    for path, data in result.payload_for("RENAMED.MIT.EDU").items():
        assert host.fs.read(path) == data


def test_homedir_move_patches_both_passwd_files():
    d = make_deployment()
    d.run_hours(25)     # every service built and pushed, MAIL too
    login = d.handles.logins[5]
    move_home(d.direct_client(), login, f"/mit/moved/{login}")
    summary = d.pump_cdc()
    hesiod = d.dcm._generated["HESIOD"]
    mail = d.dcm._generated["MAIL"]
    assert "passwd.db" in hesiod.meta["files_patched"]
    assert "passwd.db" not in hesiod.meta["files_rebuilt"]
    assert "passwd" in mail.meta["files_patched"]
    assert "passwd" not in mail.meta["files_rebuilt"]
    # ... and both travel as delta members
    assert PASSWD_DB in hesiod.deltas and "/etc/passwd" in mail.deltas
    assert outcome(summary, "MAIL")["delta_pushes"] == 1
    assert d.hesiod.getpwnam(login)["home"] == f"/mit/moved/{login}"
    assert d.mailhub.finger(login)["home"] == f"/mit/moved/{login}"

