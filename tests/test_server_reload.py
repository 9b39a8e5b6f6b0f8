"""Servers reload what moved: the line-delta helper and every condition
under which a managed server falls back to the full parse.

Each fallback test installs a change the delta cannot describe, checks
the full parse ran, and checks the resulting tables equal what a fresh
server builds from the same files — the delta path is never allowed to
guess.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hosts.host import SimulatedHost
from repro.servers import nfs
from repro.servers.hesiod import HesiodServer
from repro.servers.mailhub import MailHub
from repro.servers.nfs import NFSServer
from repro.servers.reload import load_file, reload_file
from repro.servers.zephyrd import ZephyrServer

PASSWD = "/etc/hesiod/passwd.db"
FILSYS = "/etc/hesiod/filsys.db"


def passwd_line(login: str, uid: int, shell: str = "/bin/csh") -> bytes:
    return (f'{login}.passwd HS UNSPECA "{login}:*:{uid}:101:'
            f'{login.title()},,,,:/mit/{login}:{shell}"').encode()


def install(host: SimulatedHost, path: str, *lines: bytes) -> None:
    host.fs.write(path, b"".join(line + b"\n" for line in lines))
    host.fs.fsync()


def counting(monkeypatch, owner, name: str) -> list:
    """Count calls of ``owner.name`` (a full-parse entry point: a
    method, or a function a server module imported)."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


# -- the helper ---------------------------------------------------------------


def entry(table: dict):
    def parse(line: bytes):
        key, _, value = line.decode().partition("=")
        return (table, key, value) if key else None
    return parse


LINES = st.lists(st.tuples(st.sampled_from("abcdefgh"),
                           st.integers(0, 3)), max_size=12)


def keyed_file(pairs) -> bytes:
    return b"".join(f"{key}={value}\n".encode() for key, value in pairs)


class TestReloadFile:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(LINES, LINES)
    def test_an_accepted_delta_equals_a_full_parse(self, before, after):
        """Whatever two versions of a file, the delta either refuses or
        lands on exactly the full parse — and it never refuses when
        both versions define each key once."""
        old, new = keyed_file(before), keyed_file(after)
        loaded: dict = {}
        table = load_file(loaded, "f", old, entry({}))
        applied = reload_file(loaded, "f", new, entry(table))
        if applied:
            assert table == load_file({}, "f", new, entry({}))
        unique = (len({k for k, _ in before}) == len(before)
                  and len({k for k, _ in after}) == len(after))
        assert applied or not unique

    def test_only_the_middle_is_split(self):
        """The common prefix and suffix of whole lines are never
        parsed."""
        seen = []
        table = {"a": "1", "b": "2", "c": "3"}

        def spy(line):
            seen.append(line)
            return entry(table)(line)

        loaded = {"f": b"a=1\nb=2\nc=3\n"}
        assert reload_file(loaded, "f", b"a=1\nb=5\nc=3\n", spy)
        assert sorted(seen) == [b"b=2", b"b=5"]
        assert table == {"a": "1", "b": "5", "c": "3"}


    def test_applies_removed_and_added_lines(self):
        table = {"a": "1", "b": "2"}
        loaded = {"f": b"a=1\nb=2\n"}
        assert reload_file(loaded, "f", b"a=1\nb=3\nc=4\n", entry(table))
        assert table == {"a": "1", "b": "3", "c": "4"}
        assert loaded["f"] == b"a=1\nb=3\nc=4\n"

    def test_unchanged_bytes_parse_nothing(self):
        def refuse(line):
            raise AssertionError("parsed an unchanged file")
        data = b"a=1\n"
        assert reload_file({"f": data}, "f", data, refuse)

    def test_no_previous_bytes_refuses(self):
        assert not reload_file({}, "f", b"a=1\n", entry({}))

    def test_duplicate_line_refuses(self):
        loaded = {"f": b"a=1\n"}
        assert not reload_file(loaded, "f", b"a=1\nb=2\nb=2\n",
                               entry({"a": "1"}))
        assert "f" not in loaded

    def test_removed_line_must_hold_its_key(self):
        # the table holds a value the removed line did not define
        assert not reload_file({"f": b"a=1\n"}, "f", b"", entry({"a": "9"}))

    def test_added_key_must_be_new(self):
        table = {"a": "1", "b": "2"}
        assert not reload_file({"f": b"a=1\nb=2\n"}, "f",
                               b"a=1\nb=2\na=5\n", entry(table))

    def test_parse_error_forgets_the_file(self):
        def broken(line):
            raise ValueError(line)
        loaded = {"f": b"a=1\n"}
        with pytest.raises(ValueError):
            reload_file(loaded, "f", b"a=2\n", broken)
        assert "f" not in loaded


# -- Hesiod -------------------------------------------------------------------


@pytest.fixture
def hesiod():
    host = SimulatedHost("hes.mit.edu")
    server = HesiodServer(host)
    install(host, PASSWD, passwd_line("alice", 1), passwd_line("bob", 2))
    install(host, "/etc/hesiod/uid.db", b"1.uid HS CNAME alice.passwd",
            b"2.uid HS CNAME bob.passwd")
    install(host, FILSYS,
            b'proj.filsys HS UNSPECA "NFS /u1/proj a w /mit/proj"',
            b'proj.filsys HS UNSPECA "NFS /u2/proj b w /mit/proj"',
            b'solo.filsys HS UNSPECA "NFS /u1/solo a w /mit/solo"')
    server.start()
    return host, server


def fresh_hesiod(host: SimulatedHost):
    twin = SimulatedHost("twin")
    for path in host.fs.listdir(""):
        twin.fs.write(path, host.fs.read(path))
    twin.fs.fsync()
    fresh = HesiodServer(twin)
    fresh.start()
    return fresh._records, fresh._cnames


class TestHesiodReload:
    def test_one_changed_record_is_a_delta(self, hesiod, monkeypatch):
        host, server = hesiod
        full = counting(monkeypatch, HesiodServer, "_load_all")
        install(host, PASSWD, passwd_line("alice", 1, "/bin/sh"),
                passwd_line("bob", 2))
        assert server.restart() == 0
        assert full == []
        assert server.getpwnam("alice")["shell"] == "/bin/sh"
        assert (server._records, server._cnames) == fresh_hesiod(host)

    def test_duplicate_lines_full_parse(self, hesiod, monkeypatch):
        host, server = hesiod
        full = counting(monkeypatch, HesiodServer, "_load_all")
        install(host, PASSWD, passwd_line("alice", 1),
                passwd_line("carol", 3), passwd_line("carol", 3))
        assert server.restart() == 0
        assert full == ["_load_all"]
        assert len(server.resolve("carol", "passwd")) == 2
        assert (server._records, server._cnames) == fresh_hesiod(host)

    def test_a_name_with_several_records_full_parses(self, hesiod,
                                                     monkeypatch):
        host, server = hesiod
        full = counting(monkeypatch, HesiodServer, "_load_all")
        install(host, FILSYS,
                b'proj.filsys HS UNSPECA "NFS /u1/proj a w /mit/proj"',
                b'proj.filsys HS UNSPECA "NFS /u3/proj c w /mit/proj"',
                b'solo.filsys HS UNSPECA "NFS /u1/solo a w /mit/solo"')
        assert server.restart() == 0
        assert full == ["_load_all"]
        assert server.resolve("proj", "filsys")[1].startswith("NFS /u3")
        assert (server._records, server._cnames) == fresh_hesiod(host)

    @pytest.mark.parametrize("change", ["added", "removed"])
    def test_an_added_or_removed_file_full_parses(self, hesiod,
                                                  monkeypatch, change):
        host, server = hesiod
        full = counting(monkeypatch, HesiodServer, "_load_all")
        if change == "added":
            install(host, "/etc/hesiod/sloc.db",
                    b"HESIOD.sloc HS UNSPECA HES.MIT.EDU")
        else:
            host.fs.unlink("/etc/hesiod/uid.db")
            host.fs.fsync()
        assert server.restart() == 0
        assert full == ["_load_all"]
        assert (server._records, server._cnames) == fresh_hesiod(host)

    def test_crash_then_reboot_full_loads_and_deltas_resume(
            self, hesiod, monkeypatch):
        host, server = hesiod
        full = counting(monkeypatch, HesiodServer, "_load_all")
        host.crash()
        host.reboot()           # the boot hook parses every file
        assert full == ["_load_all"]
        install(host, PASSWD, passwd_line("alice", 1, "/bin/ksh"),
                passwd_line("bob", 2))
        assert server.restart() == 0
        assert full == ["_load_all"]            # the next install: a delta
        assert server.getpwnam("alice")["shell"] == "/bin/ksh"
        assert (server._records, server._cnames) == fresh_hesiod(host)

    def test_a_malformed_added_line_fails_then_full_parses(self, hesiod,
                                                           monkeypatch):
        host, server = hesiod
        install(host, PASSWD, passwd_line("alice", 1), b"not a record")
        assert server.restart() == 1
        full = counting(monkeypatch, HesiodServer, "_load_all")
        install(host, PASSWD, passwd_line("alice", 1), passwd_line("dan", 4))
        assert server.restart() == 0
        assert full == ["_load_all"]
        assert (server._records, server._cnames) == fresh_hesiod(host)


# -- the mail hub, NFS and Zephyr ---------------------------------------------


class TestMailHubReload:
    ALIASES = "/usr/lib/aliases"

    def hub(self, *lines: bytes):
        host = SimulatedHost("athena.mit.edu")
        hub = MailHub(host)
        install(host, self.ALIASES, *lines)
        install(host, "/etc/passwd", b"a:*:1:101:A,,,:/mit/a:/bin/csh")
        hub.reload()
        return host, hub

    def test_a_changed_alias_is_a_delta(self, monkeypatch):
        host, hub = self.hub(b"# list", b"l: a, b", b"a: a@po.LOCAL")
        full = counting(monkeypatch, MailHub, "_load")
        install(host, self.ALIASES, b"# list", b"l: a", b"a: a@po.LOCAL")
        assert hub.install_aliases() == 0
        assert full == []
        assert hub.aliases["l"] == ["a"]

    def test_a_continuation_line_full_parses(self, monkeypatch):
        host, hub = self.hub(b"l: a, b", b"a: a@po.LOCAL")
        full = counting(monkeypatch, MailHub, "_load")
        install(host, self.ALIASES, b"l: a,", b"\tb, c", b"a: a@po.LOCAL")
        assert hub.install_aliases() == 0
        assert full == ["_load"]
        assert hub.aliases["l"] == ["a", "b", "c"]
        # and, having seen one, the next install parses in full again
        install(host, self.ALIASES, b"l: a", b"a: a@po.LOCAL")
        assert hub.install_aliases() == 0
        assert full == ["_load", "_load"]
        assert hub.aliases["l"] == ["a"]


class TestNfsReload:
    def test_credentials_delta_and_added_lockers_only(self, monkeypatch):
        host = SimulatedHost("locker.mit.edu")
        server = NFSServer(host, ["/u1"])
        install(host, "/etc/nfs/credentials", b"a:1:10", b"b:2:20")
        install(host, "/etc/nfs/directories", b"/u1/a 1 10 HOMEDIR")
        assert server.apply_update() == 0
        full = counting(monkeypatch, nfs, "load_file")
        install(host, "/etc/nfs/credentials", b"a:1:10:30", b"c:3:40")
        install(host, "/etc/nfs/directories", b"/u1/a 1 10 HOMEDIR",
                b"/u1/c 3 40 HOMEDIR")
        assert server.apply_update() == 0
        assert full == []
        assert set(server.credentials) == {"a", "c"}
        assert server.credentials["a"].gids == (10, 30)
        assert server.lockers_created == ["/u1/a", "/u1/c"]

    def test_a_login_defined_twice_full_parses(self, monkeypatch):
        host = SimulatedHost("locker.mit.edu")
        server = NFSServer(host, ["/u1"])
        install(host, "/etc/nfs/credentials", b"a:1:10", b"a:1:99")
        assert server.apply_update() == 0
        full = counting(monkeypatch, nfs, "load_file")
        install(host, "/etc/nfs/credentials", b"a:1:10")
        assert server.apply_update() == 0
        assert full == ["load_file"]
        assert server.credentials["a"].gids == (10,)


class TestZephyrReload:
    def test_only_changed_acl_files_are_read(self):
        host = SimulatedHost("z.mit.edu")
        server = ZephyrServer(host)
        install(host, "/etc/zephyr/acl/c.xmt.acl", b"alice")
        install(host, "/etc/zephyr/acl/c.sub.acl", b"*.*@*")
        server.reload_acls()
        kept = server.acls["c"]["sub"]
        install(host, "/etc/zephyr/acl/c.xmt.acl", b"alice", b"eve")
        install(host, "/etc/zephyr/acl/d.xmt.acl", b"bob")
        assert server.install_acls() == 0
        assert server.acls["c"]["sub"] is kept
        assert server.acls["c"]["xmt"] == {"alice", "eve"}
        assert server.authorized("bob", "d")
