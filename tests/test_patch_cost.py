"""A patch costs what it changes on the host.

The update daemon checks a delta's base against the digest it recorded
when it staged the file, for as long as the VFS still holds that very
bytes object there, and hashes the file only on a miss.  Covers:

* the property the recorded digest rests on: every delta a generator
  emits in the incremental-equivalence scripts reproduces its file;
* the record's edges — a hand edit, a crash, a revert, a rewrite of
  the same content — each a miss and a hash, never a blind trust;
* the count: a membership change patches 20 NFS hosts that patched
  before with no base hash at all;
* every generator's file set travels through ``make_tar`` and the
  hosts' header reader unchanged.
"""

from __future__ import annotations

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.dcm.generators.base import (
    GenContext,
    GeneratorResult,
    get_generator,
)
from repro.dcm.update import build_payload, default_script
from repro.errors import MR_CHECKSUM
from repro.hosts import update_daemon
from repro.hosts.host import HostDown, SimulatedHost
from repro.hosts.update_daemon import (
    FileDelta,
    UpdateDaemon,
    checksum,
    make_tar,
    read_tar,
    splice,
)
from repro.sim import FaultInjector
from repro.workload import PopulationSpec
from tests import test_incremental_equivalence as equivalence

CREDENTIALS = "/etc/nfs/credentials"


def test_every_delta_reproduces_its_file(monkeypatch):
    """A host records a delta's digest for the file it spliced without
    hashing it: sound only if the splices turn the base into exactly
    the file the digest names.  Run the equivalence scripts (the same
    seeded examples) and check every delta as it is made."""
    checked = []
    build = GeneratorResult.from_parts.__func__

    def checking(cls, layout, parts, meta, previous=None):
        result = build(cls, layout, parts, meta, previous)
        for path, delta in result.deltas.items():
            old, new = previous.files[path], result.files[path]
            assert splice(old, delta.splices) == new, path
            assert checksum(new) == delta.digest, path
            assert checksum(old) == previous.digest(path) == delta.base
            checked.append(path)
        return result

    monkeypatch.setattr(GeneratorResult, "from_parts",
                        classmethod(checking))
    equivalence.test_patched_generations_and_reloaded_servers_match_full()
    assert len(checked) > 30


# -- the record's edges, one host -----------------------------------------------

PATH, TARGET = "/etc/f", "/tmp/out"


def delta(old: bytes, new: bytes) -> FileDelta:
    """*new* as one splice over the line *old* and *new* differ in."""
    start = old.rindex(b"\n", 0, len(old) - 1) + 1
    assert old[:start] == new[:start]
    return FileDelta(checksum(old), checksum(new),
                     ((start, len(old), new[start:]),))


def version(n: int) -> bytes:
    return b"".join(b"entry %d\n" % i for i in range(200)) + b"v%d\n" % n


class Rig:
    """A host and its daemon; counts the hashes of files on its disk
    (the transfer checksum of each payload is not one of them)."""

    def __init__(self, monkeypatch, faults=None):
        self.host = SimulatedHost("t")
        self.daemon = UpdateDaemon(self.host, faults=faults)
        self.hashed, self.payloads = [], []
        real = update_daemon.checksum

        def spy(data):
            self.hashed.append(data)
            return real(data)
        monkeypatch.setattr(update_daemon, "checksum", spy)

    def push(self, files: dict) -> int:
        payload = build_payload(files)
        self.payloads.append(payload)
        self.daemon.authenticate("moira")
        self.daemon.receive_file(TARGET, payload, checksum(payload))
        self.daemon.receive_script(default_script(files).serialize())
        self.daemon.flush()
        return self.daemon.execute(TARGET)

    def patch(self, old: int, new: int) -> int:
        return self.push({PATH: delta(version(old), version(new))})

    def base_hashes(self) -> int:
        """Hashes since the last call that were not a payload's."""
        count = sum(not any(data is p for p in self.payloads)
                    for data in self.hashed)
        self.hashed.clear()
        return count

    def holds(self, n: int) -> bool:
        return self.host.fs.read(PATH) == version(n)


@pytest.fixture
def rig(monkeypatch):
    rig = Rig(monkeypatch)
    assert rig.push({PATH: version(1)}) == 0
    return rig


def test_a_file_the_daemon_patched_is_not_hashed_again(rig):
    assert rig.patch(1, 2) == 0 and rig.base_hashes() == 1  # installed whole
    assert rig.patch(2, 3) == 0 and rig.base_hashes() == 0
    assert rig.patch(3, 4) == 0 and rig.base_hashes() == 0
    assert rig.holds(4)


def test_a_hand_edit_is_hashed_and_refused(rig):
    assert rig.patch(1, 2) == 0
    rig.host.fs.write(PATH, version(2) + b"# edited by hand\n")
    rig.base_hashes()
    assert rig.patch(2, 3) == MR_CHECKSUM and rig.base_hashes() == 1
    assert rig.host.fs.read(PATH).endswith(b"# edited by hand\n")


def test_a_revert_is_hashed(rig):
    assert rig.patch(1, 2) == 0
    rig.daemon.receive_script(
        update_daemon.InstallScript().revert(PATH).serialize())
    assert rig.daemon.execute(TARGET) == 0 and rig.holds(1)
    rig.base_hashes()
    assert rig.patch(2, 3) == MR_CHECKSUM and rig.base_hashes() == 1
    assert rig.patch(1, 3) == 0 and rig.base_hashes() == 0
    assert rig.holds(3)


def test_a_rewrite_of_the_same_content_is_hashed_once(rig):
    assert rig.patch(1, 2) == 0
    rig.host.fs.write(PATH, bytes(bytearray(version(2))))
    rig.base_hashes()
    assert rig.patch(2, 3) == 0 and rig.base_hashes() == 1
    assert rig.patch(3, 4) == 0 and rig.base_hashes() == 0
    assert rig.holds(4)


def test_a_crash_rolls_back_to_the_durable_file_and_is_hashed(monkeypatch):
    """The host dies after staging v3 and before renaming it in: the
    unsynced staging is lost and the disk holds the synced v2, whatever
    the daemon last staged."""
    faults = FaultInjector(seed=3)
    rig = Rig(monkeypatch, faults)
    assert rig.push({PATH: version(1)}) == 0
    assert rig.patch(1, 2) == 0
    faults.crash_host_at("daemon.step", rig.host,
                         where=lambda ctx: ctx["op"] == "install")
    with pytest.raises(HostDown):
        rig.patch(2, 3)
    rig.host.reboot()
    assert rig.holds(2) and rig.host.digests == {}
    rig.base_hashes()
    assert rig.patch(3, 4) == MR_CHECKSUM and rig.base_hashes() == 1
    assert rig.patch(2, 3) == 0 and rig.base_hashes() == 0
    assert rig.holds(3)


# -- the count, twenty NFS hosts ----------------------------------------------


def test_a_membership_change_patches_twenty_nfs_hosts_without_a_hash(
        monkeypatch):
    """Once every NFS host has patched its credentials file, the next
    membership change patches all twenty again and hashes none of
    them (a base check that rehashes makes twenty)."""
    d = AthenaDeployment(DeploymentConfig(cdc=True, population=PopulationSpec(
        users=60, unregistered_users=5, nfs_servers=20, maillists=8,
        clusters=3, machines_per_cluster=2, printers=5,
        network_services=12)))
    d.run_hours(25)
    d.clock.advance(60)
    group = next(row for row in d.db.table("list").select({"active": 1})
                 if row["grouplist"] and not row["maillist"])
    members = {row["member_id"] for row in d.db.table("members").select(
        {"list_id": group["list_id"], "member_type": "USER"})}
    joining = [row["login"] for row in d.db.table("users").select(
        {"status": 1}) if row["users_id"] not in members]
    hosts = [server.host for server in d.nfs_servers.values()]
    assert len(hosts) == 20

    def add_member() -> None:
        d.direct_client().query("add_member_to_list", group["name"],
                                "USER", joining.pop())
        nfs = next(o for o in d.pump_cdc()["outcomes"]
                   if o["service"] == "NFS")
        assert nfs["delta_pushes"] == 20 and nfs["full_pushes"] == 0

    add_member()                    # every host patches once: a miss each
    held = [host.fs.read(CREDENTIALS) for host in hosts]
    hashed, received = [], []
    real, receive = update_daemon.checksum, UpdateDaemon.receive_file
    monkeypatch.setattr(update_daemon, "checksum",
                        lambda data: hashed.append(data) or real(data))
    monkeypatch.setattr(
        UpdateDaemon, "receive_file", lambda self, target, data, digest:
        received.append(data) or receive(self, target, data, digest))
    add_member()
    assert not any(data is file for data in hashed for file in held)
    # every hash left is a transfer checksum of a ~2 kB payload
    assert len(hashed) == len(received) >= 20
    assert all(any(data is p for p in received) for data in hashed)
    assert max(map(len, received)) < 8192
    assert [host.fs.read(CREDENTIALS) for host in hosts] == [
        d.dcm._generated["NFS"].payload_for(host.name)[CREDENTIALS]
        for host in hosts]


# -- every generator's files through the payload format -------------------------


#: every generator the package registers (tests register more)
GENERATED = ("HESIOD", "KLOGIN", "MAIL", "NFS", "ZEPHYR")


def test_every_generators_file_set_round_trips_through_the_tar_reader():
    """Every generated path fits plain ustar (make_tar refuses one that
    does not, at the DCM) and every payload reads back as it was
    written, delta members included."""
    d = equivalence.converged_world()
    d.direct_client().query("update_user_shell", d.handles.logins[3],
                            "/bin/zsh")
    d.clock.advance(60)
    d.pump_cdc()
    payloads = [{path: delta.encode() for path, delta in result.deltas.items()}
                for result in d.dcm._generated.values()]
    for service in GENERATED:
        hosts = d.db.table("serverhosts").select({"service": service})
        result = get_generator(service).generate(
            GenContext(d.db, d.clock.now(), hosts=hosts))
        payloads += [result.files, *(result.payload_for(machine)
                                     for machine in result.host_files)]
    for files in payloads:
        assert read_tar(make_tar(files, mtime=d.clock.now())) == files
    assert sum(map(len, payloads)) > 10 and any(
        FileDelta.MAGIC in data for files in payloads
        for data in files.values())
