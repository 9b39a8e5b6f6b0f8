"""Moving an NFS filesystem to another partition moves its quotas.

``update_filesys`` used to change the filesystem's ``phys_id`` and
leave its ``nfsquota`` rows, and their blocks in ``allocated``, on the
old partition: the old partition could then be deleted under them,
``get_nfs_quota`` answered ``???`` for the machine and directory, and
the NFS generator, which keys quotas by ``nfsquota.phys_id``, wrote
the quota into the old server's ``quotas`` file.
"""

from __future__ import annotations

from repro.apps import MrCheck
from repro.dcm.generators.base import GenContext, get_generator
from tests.conftest import make_user


def test_quotas_follow_the_filesystem(run, db):
    run("add_server_info", "NFS", 360, "/tmp/nfs.out", "nfs.sh",
        "UNIQUE", 1, "NONE", "NONE")
    for host in ("OLD.MIT.EDU", "NEW.MIT.EDU"):
        run("add_machine", host, "VAX")
        run("add_nfsphys", host, "/u1", "ra81", 1, 0, 10000)
        run("add_server_host_info", "NFS", host, 1, 0, 0, "")
    make_user(run, "mover")
    run("add_list", "mover", 1, 0, 0, 0, 1, -1, "NONE", "NONE", "")
    uid = run("get_user_by_login", "mover")[0][1]
    run("add_filesys", "mover", "NFS", "OLD.MIT.EDU", "/u1/mover",
        "/mit/mover", "w", "", "mover", "mover", 1, "HOMEDIR")
    run("add_nfs_quota", "mover", "mover", 250)

    run("update_filesys", "mover", "mover", "NFS", "NEW.MIT.EDU",
        "/u1/mover", "/mit/mover", "w", "", "mover", "mover", 1, "HOMEDIR")

    (quota,) = run("get_nfs_quota", "mover", "mover")
    assert quota[:5] == ("mover", "mover", "250", "/u1", "NEW.MIT.EDU")
    allocated = {row[0]: row[4] for row in run("get_all_nfsphys")}
    assert allocated == {"OLD.MIT.EDU": "0", "NEW.MIT.EDU": "250"}
    assert MrCheck(db).run() == []

    hosts = db.table("serverhosts").select({"service": "NFS"})
    files = get_generator("NFS").generate(
        GenContext(db, 0, hosts=hosts)).host_files
    assert files["NEW.MIT.EDU"]["/etc/nfs/quotas"] == f"{uid} 250\n".encode()
    assert files["OLD.MIT.EDU"]["/etc/nfs/quotas"] == b""
