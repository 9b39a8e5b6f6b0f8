"""Tests for the managed services: Hesiod, NFS, mail hub, Zephyr (§5.8)."""

from __future__ import annotations

import pytest

from repro.hosts.host import SimulatedHost
from repro.servers.hesiod import HesiodError, HesiodServer
from repro.servers.mailhub import MailHub
from repro.servers.nfs import NFSServer
from repro.servers.zephyrd import ZephyrServer


@pytest.fixture
def hesiod():
    host = SimulatedHost("suomi.mit.edu")
    server = HesiodServer(host)
    host.fs.write("/etc/hesiod/passwd.db", "\n".join([
        'babette.passwd HS UNSPECA "babette:*:6530:101:Harmon C '
        'Fowler,,,,:/mit/babette:/bin/csh"',
        'abarba.passwd HS UNSPECA "abarba:*:6531:101:Angela '
        'Barba,,,,:/mit/abarba:/bin/csh"',
    ]).encode())
    host.fs.write("/etc/hesiod/uid.db", "\n".join([
        "6530.uid HS CNAME babette.passwd",
        "6531.uid HS CNAME abarba.passwd",
    ]).encode())
    host.fs.write("/etc/hesiod/pobox.db",
                  b'babette.pobox HS UNSPECA '
                  b'"POP ATHENA-PO-2.MIT.EDU babette"')
    host.fs.write("/etc/hesiod/filsys.db",
                  b'aab.filsys HS UNSPECA "NFS /mit/aab charon w '
                  b'/mit/aab"')
    host.fs.fsync()
    server.start()
    return host, server


class TestHesiod:
    def test_resolve(self, hesiod):
        _, server = hesiod
        records = server.resolve("babette", "passwd")
        assert records[0].startswith("babette:*:6530")

    def test_cname_following(self, hesiod):
        _, server = hesiod
        assert server.resolve("6530", "uid") == \
            server.resolve("babette", "passwd")

    def test_getpwnam(self, hesiod):
        _, server = hesiod
        pw = server.getpwnam("babette")
        assert pw["uid"] == 6530
        assert pw["home"] == "/mit/babette"
        assert pw["shell"] == "/bin/csh"

    def test_getpwuid(self, hesiod):
        _, server = hesiod
        assert server.getpwuid(6531)["login"] == "abarba"

    def test_get_pobox(self, hesiod):
        _, server = hesiod
        box = server.get_pobox("babette")
        assert box == {"type": "POP", "machine": "ATHENA-PO-2.MIT.EDU",
                       "box": "babette"}

    def test_get_filsys(self, hesiod):
        _, server = hesiod
        fs = server.get_filsys("aab")
        assert fs["fstype"] == "NFS"
        assert fs["server"] == "charon"
        assert fs["mount"] == "/mit/aab"

    def test_unknown_name(self, hesiod):
        _, server = hesiod
        with pytest.raises(HesiodError):
            server.resolve("ghost", "passwd")

    def test_lookup_case_insensitive(self, hesiod):
        _, server = hesiod
        assert server.resolve("BABETTE", "PASSWD")

    def test_restart_reloads_files(self, hesiod):
        host, server = hesiod
        host.fs.write("/etc/hesiod/passwd.db",
                      b'newguy.passwd HS UNSPECA "newguy:*:1:1:N:/m:/s"')
        host.fs.fsync()
        # old data still served until restart
        assert server.resolve("babette", "passwd")
        assert server.restart() == 0
        assert server.resolve("newguy", "passwd")
        with pytest.raises(HesiodError):
            server.resolve("babette", "passwd")

    def test_boot_hook_restarts_server(self, hesiod):
        host, server = hesiod
        host.crash()
        with pytest.raises(Exception):
            server.resolve("babette", "passwd")
        host.reboot()
        assert server.resolve("babette", "passwd")

    def test_cname_loop_detected(self):
        host = SimulatedHost("h")
        server = HesiodServer(host)
        host.fs.write("/etc/hesiod/loop.db", b"\n".join([
            b"a.x HS CNAME b.x",
            b"b.x HS CNAME a.x",
        ]))
        host.fs.fsync()
        server.start()
        with pytest.raises(HesiodError):
            server.resolve("a", "x")

    def test_malformed_file_raises(self):
        host = SimulatedHost("h")
        server = HesiodServer(host)
        host.fs.write("/etc/hesiod/bad.db", b"not a record")
        host.fs.fsync()
        with pytest.raises(HesiodError):
            server.start()

    def test_comments_ignored(self):
        host = SimulatedHost("h")
        server = HesiodServer(host)
        host.fs.write("/etc/hesiod/c.db",
                      b'; comment line\nx.y HS UNSPECA "data"\n')
        host.fs.fsync()
        server.start()
        assert server.resolve("x", "y") == ["data"]


@pytest.fixture
def nfs():
    host = SimulatedHost("locker-1.mit.edu")
    server = NFSServer(host, ["/u1"])
    host.fs.write("/etc/nfs/credentials",
                  b"mtalford:14956:5904:689\nmstai:9296:5899\n")
    host.fs.write("/etc/nfs/quotas", b"14956 300\n9296 500\n")
    host.fs.write("/etc/nfs/directories",
                  b"/u1/mtalford 14956 5904 HOMEDIR\n"
                  b"/u1/proj 9296 5899 PROJECT\n")
    host.fs.fsync()
    return host, server


class TestNFS:
    def test_apply_update(self, nfs):
        host, server = nfs
        assert server.apply_update() == 0
        assert server.access_allowed("mtalford")
        assert not server.access_allowed("stranger")
        assert server.quota_for(14956) == 300
        assert server.locker_exists("/u1/mtalford")
        assert server.locker_exists("/u1/proj")

    def test_homedir_gets_init_files(self, nfs):
        host, server = nfs
        server.apply_update()
        assert host.fs.exists("/u1/mtalford/.cshrc")
        # PROJECT lockers do not get init files
        assert not host.fs.exists("/u1/proj/.cshrc")

    def test_directory_ownership(self, nfs):
        host, server = nfs
        server.apply_update()
        meta = host.fs.dir_meta("/u1/mtalford")
        assert meta["uid"] == 14956
        assert meta["gid"] == 5904

    def test_idempotent(self, nfs):
        """"extra installations are not harmful" (§5.9)."""
        host, server = nfs
        assert server.apply_update() == 0
        created = list(server.lockers_created)
        assert server.apply_update() == 0
        assert server.lockers_created == created

    def test_an_applied_directories_file_is_not_split_again(
            self, nfs, monkeypatch):
        """Reinstalling the directories file already applied returns
        before splitting either version: it can create no locker."""
        host, server = nfs
        assert server.apply_update() == 0
        created = list(server.lockers_created)
        splits = []

        class Counted(bytes):
            def splitlines(self, *args, **kwargs):
                splits.append(1)
                return super().splitlines(*args, **kwargs)

        real_read = host.fs.read

        def read(path):
            data = real_read(path)
            return Counted(data) if path.endswith("/directories") else data

        monkeypatch.setattr(host.fs, "read", read)
        host.fs.write("/etc/nfs/directories",
                      bytes(real_read("/etc/nfs/directories")))
        host.fs.fsync()
        assert server.apply_update() == 0
        assert server.lockers_created == created
        assert splits == []

    def test_credential_gid_list(self, nfs):
        _, server = nfs
        server.apply_update()
        assert server.credentials["mtalford"].gids == (5904, 689)


@pytest.fixture
def mailhub():
    host = SimulatedHost("athena.mit.edu")
    hub = MailHub(host)
    host.fs.write("/usr/lib/aliases", b"\n".join([
        b"# Video Users",
        b"owner-video-users: paul",
        b"video-users: smyser, paul, rubin@media-lab.mit.edu,",
        b"\tdanapple, agarvin",
        b"babette: babette@ATHENA-PO-2.LOCAL",
        b"paul: paul@ATHENA-PO-1.LOCAL",
        b"loop-a: loop-b",
        b"loop-b: loop-a",
    ]))
    host.fs.write("/etc/passwd",
                  b"babette:*:6530:101:Harmon C Fowler,,,:/mit/babette:"
                  b"/bin/csh\n")
    host.fs.fsync()
    hub.reload()
    return host, hub


class TestMailHub:
    def test_alias_expansion_with_continuation(self, mailhub):
        _, hub = mailhub
        resolved = hub.resolve("video-users")
        assert "rubin@media-lab.mit.edu" in resolved
        assert "danapple" not in hub.aliases  # continuation merged in
        assert "paul@athena-po-1.local" in resolved

    def test_pobox_alias(self, mailhub):
        _, hub = mailhub
        assert hub.resolve("babette") == ["babette@athena-po-2.local"]

    def test_external_address_passthrough(self, mailhub):
        _, hub = mailhub
        assert hub.resolve("x@y.edu") == ["x@y.edu"]

    def test_alias_loop_bounces(self, mailhub):
        _, hub = mailhub
        result = hub.deliver("loop-a")
        assert result.bounced

    def test_finger_knows_everybody(self, mailhub):
        _, hub = mailhub
        assert hub.finger("babette")["uid"] == 6530
        assert hub.finger("nobody") is None

    def test_spool_disabled_during_switchover(self, mailhub):
        host, hub = mailhub
        hub.spool_enabled = False
        with pytest.raises(RuntimeError):
            hub.resolve("babette")
        assert hub.install_aliases() == 0
        assert hub.spool_enabled
        assert hub.resolve("babette")


@pytest.fixture
def zephyr():
    host = SimulatedHost("zephyr-1.mit.edu")
    server = ZephyrServer(host)
    host.fs.write("/etc/zephyr/acl/MOIRA.xmt.acl", b"moira\noperator\n")
    host.fs.write("/etc/zephyr/acl/MOIRA.sub.acl", b"*.*@*\n")
    host.fs.write("/etc/zephyr/acl/secrets.xmt.acl", b"alice\n")
    host.fs.write("/etc/zephyr/acl/secrets.sub.acl", b"alice\nbob\n")
    host.fs.fsync()
    server.reload_acls()
    return host, server


class TestZephyr:
    def test_controlled_transmit(self, zephyr):
        _, server = zephyr
        assert server.authorized("moira", "MOIRA", "xmt")
        assert not server.authorized("randomuser", "MOIRA", "xmt")

    def test_wildcard_entry_allows_anyone(self, zephyr):
        _, server = zephyr
        assert server.authorized("anyone", "MOIRA", "sub")

    def test_uncontrolled_class_open(self, zephyr):
        _, server = zephyr
        assert server.authorized("anyone", "chatter", "xmt")

    def test_send_enforces_acl(self, zephyr):
        _, server = zephyr
        assert server.send("moira", "MOIRA", "DCM", "hesiod failed")
        assert not server.send("eve", "secrets", "i", "spam")
        notices = server.notices_for("MOIRA", "DCM")
        assert len(notices) == 1
        assert notices[0].message == "hesiod failed"

    def test_subscribe_enforces_acl(self, zephyr):
        _, server = zephyr
        assert server.subscribe("bob", "secrets")
        assert not server.subscribe("eve", "secrets")

    def test_reload_picks_up_new_acls(self, zephyr):
        host, server = zephyr
        host.fs.write("/etc/zephyr/acl/secrets.xmt.acl", b"alice\neve\n")
        host.fs.fsync()
        assert not server.authorized("eve", "secrets", "xmt")
        server.install_acls()
        assert server.authorized("eve", "secrets", "xmt")
