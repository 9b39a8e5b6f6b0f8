"""Tests for filesystem/nfsphys/quota queries (§7.0.5)."""

from __future__ import annotations

import pytest

from repro.errors import (
    MoiraError,
    MR_FILESYS,
    MR_NO_MATCH,
    MR_FILESYS_ACCESS,
    MR_FSTYPE,
    MR_IN_USE,
    MR_NFS,
    MR_NFSPHYS,
    MR_QUOTA,
    MR_USER,
)
from tests.conftest import make_user


def expect_error(code, fn, *args):
    with pytest.raises(MoiraError) as exc:
        fn(*args)
    assert exc.value.code == code, exc.value


@pytest.fixture
def nfs_world(run):
    """A server machine with one exported partition, a user, a group."""
    run("add_machine", "CHARON.MIT.EDU", "VAX")
    run("add_nfsphys", "CHARON.MIT.EDU", "/u1", "ra81a", 1, 0, 10000)
    make_user(run, "aab")
    run("add_list", "aab-group", 1, 0, 0, 0, 1, -1, "USER", "aab", "g")
    return "CHARON.MIT.EDU"


def add_fs(run, label="aab", machine="CHARON.MIT.EDU",
           packname="/u1/aab", mount="/mit/aab", fstype="NFS",
           access="w", owner="aab", owners="aab-group", create=1,
           lockertype="HOMEDIR"):
    run("add_filesys", label, fstype, machine, packname, mount, access,
        "", owner, owners, create, lockertype)


class TestFilesys:
    def test_add_and_get(self, run, nfs_world):
        add_fs(run)
        row = run("get_filesys_by_label", "aab")[0]
        assert row[0] == "aab"
        assert row[1] == "NFS"
        assert row[2] == "CHARON.MIT.EDU"
        assert row[7] == "aab"        # owner login
        assert row[8] == "aab-group"  # owners list

    def test_nfs_requires_exported_partition(self, run, nfs_world):
        expect_error(MR_NFS, run, "add_filesys", "bad", "NFS",
                     "CHARON.MIT.EDU", "/u2/bad", "/mit/bad", "w", "",
                     "aab", "aab-group", 1, "HOMEDIR")

    def test_nfs_access_mode_checked(self, run, nfs_world):
        expect_error(MR_FILESYS_ACCESS, run, "add_filesys", "bad", "NFS",
                     "CHARON.MIT.EDU", "/u1/bad", "/mit/bad", "rw", "",
                     "aab", "aab-group", 1, "HOMEDIR")

    def test_rvd_skips_nfs_checks(self, run, nfs_world):
        run("add_filesys", "ade", "RVD", "CHARON.MIT.EDU", "ade-pack",
            "/mnt/ade", "r", "", "aab", "aab-group", 0, "SYSTEM")
        assert run("get_filesys_by_label", "ade")[0][1] == "RVD"

    def test_bad_fstype(self, run, nfs_world):
        expect_error(MR_FSTYPE, run, "add_filesys", "x", "AFS",
                     "CHARON.MIT.EDU", "/u1/x", "/mit/x", "w", "", "aab",
                     "aab-group", 1, "HOMEDIR")

    def test_get_by_machine(self, run, nfs_world):
        add_fs(run)
        rows = run("get_filesys_by_machine", "CHARON.MIT.EDU")
        assert [r[0] for r in rows] == ["aab"]

    def test_get_by_nfsphys(self, run, nfs_world):
        add_fs(run)
        rows = run("get_filesys_by_nfsphys", "CHARON.MIT.EDU", "/u1")
        assert [r[0] for r in rows] == ["aab"]

    def test_get_by_group(self, run, nfs_world):
        add_fs(run)
        rows = run("get_filesys_by_group", "aab-group")
        assert [r[0] for r in rows] == ["aab"]

    def test_update_rename(self, run, nfs_world):
        add_fs(run)
        run("update_filesys", "aab", "aab2", "NFS", "CHARON.MIT.EDU",
            "/u1/aab", "/mit/aab2", "w", "", "aab", "aab-group", 1,
            "HOMEDIR")
        assert run("get_filesys_by_label", "aab2")[0][4] == "/mit/aab2"

    def test_delete_returns_quota_allocation(self, run, nfs_world):
        add_fs(run)
        run("add_nfs_quota", "aab", "aab", 500)
        before = run("get_nfsphys", "CHARON.MIT.EDU", "/u1")[0]
        assert before[4] == "500"
        run("delete_filesys", "aab")
        after = run("get_nfsphys", "CHARON.MIT.EDU", "/u1")[0]
        assert after[4] == "0"
        expect_error(MR_NO_MATCH, run, "get_nfs_quota", "aab", "aab")


class TestNfsphys:
    def test_get_all(self, run, nfs_world):
        rows = run("get_all_nfsphys")
        assert rows[0][0] == "CHARON.MIT.EDU"
        assert rows[0][5] == "10000"

    def test_adjust_allocation(self, run, nfs_world):
        run("adjust_nfsphys_allocation", "CHARON.MIT.EDU", "/u1", 250)
        assert run("get_nfsphys", "CHARON.MIT.EDU", "/u1")[0][4] == "250"
        run("adjust_nfsphys_allocation", "CHARON.MIT.EDU", "/u1", -50)
        assert run("get_nfsphys", "CHARON.MIT.EDU", "/u1")[0][4] == "200"

    def test_update(self, run, nfs_world):
        run("update_nfsphys", "CHARON.MIT.EDU", "/u1", "ra90", 3, 10,
            20000)
        row = run("get_nfsphys", "CHARON.MIT.EDU", "/u1")[0]
        assert row[2] == "ra90"
        assert row[5] == "20000"

    def test_delete_in_use_refused(self, run, nfs_world):
        add_fs(run)
        expect_error(MR_IN_USE, run, "delete_nfsphys", "CHARON.MIT.EDU",
                     "/u1")

    def test_delete_unknown(self, run, nfs_world):
        expect_error(MR_NFSPHYS, run, "delete_nfsphys", "CHARON.MIT.EDU",
                     "/u9")


class TestQuotas:
    def test_add_updates_allocation(self, run, nfs_world):
        add_fs(run)
        run("add_nfs_quota", "aab", "aab", 300)
        assert run("get_nfsphys", "CHARON.MIT.EDU", "/u1")[0][4] == "300"
        row = run("get_nfs_quota", "aab", "aab")[0]
        assert int(row[2]) == 300
        assert row[4] == "CHARON.MIT.EDU"

    def test_update_adjusts_allocation_delta(self, run, nfs_world):
        add_fs(run)
        run("add_nfs_quota", "aab", "aab", 300)
        run("update_nfs_quota", "aab", "aab", 500)
        assert run("get_nfsphys", "CHARON.MIT.EDU", "/u1")[0][4] == "500"

    def test_delete_returns_allocation(self, run, nfs_world):
        add_fs(run)
        run("add_nfs_quota", "aab", "aab", 300)
        run("delete_nfs_quota", "aab", "aab")
        assert run("get_nfsphys", "CHARON.MIT.EDU", "/u1")[0][4] == "0"

    def test_negative_quota_rejected(self, run, nfs_world):
        add_fs(run)
        expect_error(MR_QUOTA, run, "add_nfs_quota", "aab", "aab", -5)

    def test_quota_requires_existing_filesystem(self, run, nfs_world):
        expect_error(MR_FILESYS, run, "add_nfs_quota", "ghost", "aab",
                     10)

    def test_quotas_by_partition(self, run, nfs_world):
        add_fs(run)
        make_user(run, "second")
        run("add_nfs_quota", "aab", "aab", 300)
        run("add_nfs_quota", "aab", "second", 200)
        rows = run("get_nfs_quotas_by_partition", "CHARON.MIT.EDU",
                   "/u1")
        assert {(r[1], int(r[2])) for r in rows} == {("aab", 300),
                                                     ("second", 200)}

    def test_quotas_by_wildcard_partition(self, run, nfs_world):
        """A wildcard directory answers partition by partition, each row
        joined to its own partition's directory and machine."""
        run("add_nfsphys", "CHARON.MIT.EDU", "/u2", "ra81b", 1, 0, 10000)
        add_fs(run)
        add_fs(run, label="bee", packname="/u2/bee", mount="/mit/bee")
        run("add_nfs_quota", "bee", "aab", 200)
        run("add_nfs_quota", "aab", "aab", 300)
        rows = run("get_nfs_quotas_by_partition", "CHARON.MIT.EDU", "/u*")
        assert [(r[0], int(r[2]), r[3], r[4]) for r in rows] == [
            ("aab", 300, "/u1", "CHARON.MIT.EDU"),
            ("bee", 200, "/u2", "CHARON.MIT.EDU")]
