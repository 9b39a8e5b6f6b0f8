"""A host that crashes after an install step still has the file.

§5.9: "either the file will have been installed or it will not".  The
install step renames the old file to ``file.moira_old`` and the staged
bytes onto ``file``.  A rename of a durable file is durable at once,
so unless the staged bytes are durable first, a crash after the
install step and before the script's closing fsync (here: in the post
command) reboots with only ``file.moira_old``.
"""

from __future__ import annotations

import pytest

from repro.hosts.host import HostDown, SimulatedHost
from repro.hosts.update_daemon import (InstallScript, UpdateDaemon,
                                       checksum, make_tar)


def test_a_crash_in_the_post_command_keeps_a_file():
    host = SimulatedHost("t")
    host.fs.write("/etc/f", b"old")
    host.fs.fsync()
    daemon = UpdateDaemon(host)

    def crash() -> int:
        host.crash()
        raise HostDown(host.name)
    daemon.register_command("reload", crash)

    payload = make_tar({"/etc/f": b"new"})
    daemon.authenticate("moira")
    daemon.receive_file("/tmp/out", payload, checksum(payload))
    daemon.receive_script(InstallScript().extract("/etc/f")
                          .install("/etc/f").execute("reload").serialize())
    daemon.flush()
    with pytest.raises(HostDown):
        daemon.execute("/tmp/out")

    host.reboot()
    assert host.fs.read("/etc/f") in (b"old", b"new")
