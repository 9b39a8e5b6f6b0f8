"""Tests for simulated hosts: VFS crash semantics, processes, the
update daemon's install scripts (§5.9)."""

from __future__ import annotations

import io
import tarfile

import pytest

from repro.errors import MR_CHECKSUM, MR_OCONFIG, MR_SCRIPT_FAILED, \
    MR_TAR_FAIL, MoiraError
from repro.hosts.host import HostDown, SimulatedHost
from repro.hosts.update_daemon import BLOCK, InstallScript, UpdateDaemon, \
    checksum, make_tar, read_tar
from repro.hosts.vfs import VirtualFileSystem


class TestVfs:
    def test_write_read(self):
        fs = VirtualFileSystem()
        fs.write("/etc/passwd", b"root:0")
        assert fs.read("/etc/passwd") == b"root:0"

    def test_unsynced_writes_lost_on_crash(self):
        fs = VirtualFileSystem()
        fs.write("/durable", b"old")
        fs.fsync()
        fs.write("/durable", b"new")
        fs.write("/fresh", b"data")
        fs.crash()
        assert fs.read("/durable") == b"old"
        assert not fs.exists("/fresh")

    def test_synced_writes_survive_crash(self):
        fs = VirtualFileSystem()
        fs.write("/f", b"data")
        fs.fsync()
        fs.crash()
        assert fs.read("/f") == b"data"

    def test_unlink(self):
        fs = VirtualFileSystem()
        fs.write("/f", b"x")
        fs.fsync()
        fs.unlink("/f")
        assert not fs.exists("/f")
        # but the delete is itself not durable until sync
        fs.crash()
        assert fs.exists("/f")

    def test_rename_atomic_on_durable_data(self):
        fs = VirtualFileSystem()
        fs.write("/new", b"v2")
        fs.write("/cur", b"v1")
        fs.fsync()
        fs.rename("/new", "/cur")
        # even across a crash, we see exactly one version, never a tear
        fs.crash()
        assert fs.read("/cur") in (b"v1", b"v2")
        assert fs.read("/cur") == b"v2"  # durable rename committed

    def test_rename_of_unsynced_data_is_volatile(self):
        fs = VirtualFileSystem()
        fs.write("/cur", b"v1")
        fs.fsync()
        fs.write("/new", b"v2")   # not synced
        fs.rename("/new", "/cur")
        fs.crash()
        assert fs.read("/cur") == b"v1"

    def test_listdir_prefix(self):
        fs = VirtualFileSystem()
        fs.write("/etc/hesiod/passwd.db", b"")
        fs.write("/etc/hesiod/uid.db", b"")
        fs.write("/tmp/x", b"")
        fs.fsync()
        assert fs.listdir("/etc/hesiod/") == [
            "/etc/hesiod/passwd.db", "/etc/hesiod/uid.db"]

    def test_mkdir_and_meta(self):
        fs = VirtualFileSystem()
        fs.mkdir("/mit/user", owner_uid=6530, group_gid=101, mode=0o755)
        assert fs.isdir("/mit/user")
        assert fs.dir_meta("/mit/user")["uid"] == 6530
        fs.chown("/mit/user", 1, 2)
        assert fs.dir_meta("/mit/user")["uid"] == 1

    def test_read_missing(self):
        with pytest.raises(FileNotFoundError):
            VirtualFileSystem().read("/nothing")


class TestSimulatedHost:
    def test_crash_kills_processes(self):
        host = SimulatedHost("test.mit.edu")
        proc = host.spawn("daemon")
        host.crash()
        assert not proc.running
        with pytest.raises(HostDown):
            host.check_alive()

    def test_reboot_runs_boot_hooks(self):
        host = SimulatedHost("t")
        booted = []
        host.add_boot_hook(lambda h: booted.append(h.boot_count))
        host.crash()
        host.reboot()
        assert booted == [2]

    def test_signal_via_pid_file(self):
        host = SimulatedHost("t")
        got = []
        host.spawn("srv", on_signal=got.append, pid_file="/etc/srv.pid")
        host.signal_pid_file("/etc/srv.pid", 1)
        assert got == [1]

    def test_kill_removes_process(self):
        host = SimulatedHost("t")
        proc = host.spawn("srv")
        host.kill(proc.pid)
        assert host.find_process("srv") is None

    def test_crash_after_syncs_fault_injection(self):
        host = SimulatedHost("t")
        host.crash_after_syncs(2)
        host.fs.write("/a", b"1")
        host.fsync()
        host.fs.write("/b", b"2")
        with pytest.raises(HostDown):
            host.fsync()
        assert not host.alive


def staged_update(daemon, files, target="/tmp/out", post=None):
    """Run the transfer phase by hand."""
    payload = make_tar(files)
    daemon.authenticate("moira")
    daemon.receive_file(target, payload, checksum(payload))
    script = InstallScript()
    for name in sorted(files):
        script.extract(name).install(name)
    if post:
        script.execute(post)
    daemon.receive_script(script.serialize())
    daemon.flush()
    return target


class TestUpdateDaemon:
    def test_full_install(self):
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        target = staged_update(daemon, {"/etc/f1": b"one",
                                        "/etc/f2": b"two"})
        assert daemon.execute(target) == 0
        assert host.fs.read("/etc/f1") == b"one"
        assert host.fs.read("/etc/f2") == b"two"

    def test_checksum_mismatch_rejected(self):
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        daemon.authenticate("moira")
        with pytest.raises(MoiraError) as exc:
            daemon.receive_file("/tmp/out", b"damaged", checksum(b"good"))
        assert exc.value.code == MR_CHECKSUM

    def test_transfer_requires_authentication(self):
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        with pytest.raises(MoiraError) as exc:
            daemon.receive_file("/tmp/out", b"x", checksum(b"x"))
        assert exc.value.code == MR_OCONFIG

    def test_install_preserves_old_for_revert(self):
        host = SimulatedHost("t")
        host.fs.write("/etc/f", b"old")
        host.fs.fsync()
        daemon = UpdateDaemon(host)
        target = staged_update(daemon, {"/etc/f": b"new"})
        assert daemon.execute(target) == 0
        assert host.fs.read("/etc/f") == b"new"
        # revert puts the old file back
        daemon.receive_script(
            InstallScript().revert("/etc/f").serialize())
        daemon.flush()
        assert daemon.execute(target) == 0
        assert host.fs.read("/etc/f") == b"old"

    def test_missing_tar_member_fails(self):
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        payload = make_tar({"/etc/present": b"x"})
        daemon.authenticate("moira")
        daemon.receive_file("/tmp/out", payload, checksum(payload))
        daemon.receive_script(
            InstallScript().extract("/etc/absent").serialize())
        daemon.flush()
        assert daemon.execute("/tmp/out") == MR_TAR_FAIL

    def test_exec_command_dispatch(self):
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        ran = []
        daemon.register_command("restart", lambda: (ran.append(1), 0)[1])
        target = staged_update(daemon, {"/etc/f": b"x"}, post="restart")
        assert daemon.execute(target) == 0
        assert ran == [1]

    def test_failing_command_reports_script_failed(self):
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        daemon.register_command("bad", lambda: 1)
        target = staged_update(daemon, {"/etc/f": b"x"}, post="bad")
        assert daemon.execute(target) == MR_SCRIPT_FAILED

    def test_unknown_command_fails(self):
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        target = staged_update(daemon, {"/etc/f": b"x"}, post="nothere")
        assert daemon.execute(target) == MR_SCRIPT_FAILED

    def test_signal_step(self):
        host = SimulatedHost("t")
        got = []
        host.spawn("hesiod", on_signal=got.append,
                   pid_file="/etc/hesiod.pid")
        daemon = UpdateDaemon(host)
        daemon.authenticate("moira")
        daemon.receive_script(
            InstallScript().signal("/etc/hesiod.pid", 1).serialize())
        daemon.flush()
        assert daemon.execute("/tmp/none") == 0
        assert got == [1]

    def test_execute_without_script_is_oconfig(self):
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        assert daemon.execute("/tmp/out") == MR_OCONFIG

    def test_stale_update_cleanup(self):
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        host.fs.write("/tmp/out.moira_update", b"half-written")
        host.fs.fsync()
        assert daemon.cleanup_stale_update("/tmp/out")
        assert not host.fs.exists("/tmp/out.moira_update")
        assert not daemon.cleanup_stale_update("/tmp/out")

    def test_script_serialization_roundtrip(self):
        script = (InstallScript().extract("/a").install("/a")
                  .signal("/p.pid", 9).execute("cmd"))
        restored = InstallScript.deserialize(script.serialize())
        assert restored.steps == [("extract", "/a"), ("install", "/a"),
                                  ("signal", "/p.pid", "9"),
                                  ("exec", "cmd")]

    def test_crash_mid_install_leaves_consistent_state(self):
        """§5.9 B: "either the file will have been installed or it will
        not have been installed" — never a torn file."""
        host = SimulatedHost("t")
        host.fs.write("/etc/f", b"old")
        host.fs.fsync()
        daemon = UpdateDaemon(host)
        target = staged_update(daemon, {"/etc/f": b"new"})
        host.crash_after_syncs(1)  # dies at the end-of-install fsync
        with pytest.raises(HostDown):
            daemon.execute(target)
        host.reboot()
        assert host.fs.read("/etc/f") in (b"old", b"new")


# -- the payload's tar reader ---------------------------------------------------


def tarfile_reference(files: dict[str, bytes], mtime: int = 0) -> bytes:
    """What ``tarfile`` writes for *files*, members in name order and
    without the 10 kB record padding: the bytes make_tar must keep."""
    out = []
    for name in sorted(files):
        info = tarfile.TarInfo(name=name)
        info.size, info.mtime = len(files[name]), mtime
        out += (info.tobuf(tarfile.DEFAULT_FORMAT, "utf-8",
                           "surrogateescape"),
                files[name], bytes(-len(files[name]) % BLOCK))
    out.append(bytes(2 * BLOCK))
    return b"".join(out)


EDGES = {"/etc/empty": b"", "/etc/block": b"b" * BLOCK,
         "/etc/long": b"line\n" * 300, "/" + "n" * 99: b"x"}


class TestTarReader:
    @pytest.mark.parametrize("mtime", [0, 1_700_000_000, 8 ** 11 - 1])
    def test_make_tar_writes_what_tarfile_writes(self, mtime):
        assert make_tar(EDGES, mtime) == tarfile_reference(EDGES, mtime)

    def test_round_trip_with_an_empty_and_a_one_block_member(self):
        assert read_tar(make_tar(EDGES)) == EDGES
        assert read_tar(make_tar({})) == {}

    @pytest.mark.parametrize("name", ["", "/" + "n" * 100, "/etc/café",
                                      "/etc/a\0b"])
    def test_a_name_plain_ustar_cannot_hold_fails_at_make_tar(self, name):
        with pytest.raises(ValueError):
            make_tar({name: b"x"})

    @staticmethod
    def mend(header: bytes) -> bytes:
        """*header* with its checksum field recomputed."""
        header = header[:148] + b" " * 8 + header[156:]
        return header[:148] + b"%06o\0" % sum(header) + header[155:]

    @classmethod
    def damaged(cls) -> dict[str, bytes]:
        good = make_tar({"/etc/f": b"data\n" * 200})   # 2 data blocks
        pax = io.BytesIO()
        with tarfile.open(fileobj=pax, mode="w",
                          format=tarfile.PAX_FORMAT) as tar:
            info = tarfile.TarInfo("/etc/f")
            info.pax_headers = {"comment": "x"}
            tar.addfile(info, io.BytesIO(b""))
        return {
            "truncated header": good[:BLOCK - 1],
            "truncated member": good[:BLOCK + 700],
            "bad header checksum": good[:5] + b"g" + good[6:],
            "no end-of-archive block": good[:-BLOCK],
            "symlink": cls.mend(good[:156] + b"2" + good[157:BLOCK])
            + good[BLOCK:],
            "pax record": pax.getvalue(),
            "record padding": good + bytes(BLOCK),
        }

    @pytest.mark.parametrize("case, reason", [
        ("truncated header", "truncated header"),
        ("truncated member", "truncated member"),
        ("bad header checksum", "bad header checksum"),
        ("no end-of-archive block", "no end-of-archive block"),
        ("symlink", "not a ustar regular file"),
        ("pax record", "not a ustar regular file"),
        ("record padding", "no end-of-archive block")])
    def test_anything_else_is_a_tar_failure(self, case, reason):
        payload = self.damaged()[case]
        with pytest.raises(ValueError, match=reason):
            read_tar(payload)
        host = SimulatedHost("t")
        daemon = UpdateDaemon(host)
        daemon.authenticate("moira")
        daemon.receive_file("/tmp/out", payload, checksum(payload))
        daemon.receive_script(
            InstallScript().extract("/etc/f").install("/etc/f").serialize())
        daemon.flush()
        assert daemon.execute("/tmp/out") == MR_TAR_FAIL
        assert not host.fs.exists("/etc/f")
