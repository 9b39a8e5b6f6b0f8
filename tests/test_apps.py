"""Tests for the twelve administrative interface programs (§5.1 H)."""

from __future__ import annotations

import pytest

from repro.apps import (
    Chfn,
    Chpobox,
    Chsh,
    DcmMaint,
    FilsysMaint,
    ListMaint,
    MachMaint,
    MailMaint,
    MrCheck,
    MrTest,
    PrinterMaint,
    UserMaint,
)
from repro.core import AthenaDeployment, DeploymentConfig
from repro.errors import MoiraError, MR_PERM
from repro.workload import PopulationSpec


@pytest.fixture(scope="module")
def world():
    d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(
        users=40, unregistered_users=4, nfs_servers=3, maillists=10,
        clusters=2, machines_per_cluster=2, printers=4,
        network_services=8)))
    admin_login = d.handles.logins[0]
    d.make_admin(admin_login)
    admin = d.client_for(admin_login, "adminpw", "apps-test")
    joe_login = d.handles.logins[1]
    joe = d.client_for(joe_login, "joepw", "apps-test")
    return d, admin, joe, joe_login


class TestChsh:
    def test_self_change(self, world):
        d, _, joe, joe_login = world
        chsh = Chsh(joe)
        assert chsh.run(joe_login, "/bin/sh") == "/bin/sh"
        assert chsh.current_shell(joe_login) == "/bin/sh"

    def test_unknown_shell_refused_client_side(self, world):
        _, _, joe, joe_login = world
        with pytest.raises(ValueError):
            Chsh(joe).run(joe_login, "/bin/zsh")

    def test_other_user_denied_before_submission(self, world):
        d, _, joe, _ = world
        other = d.handles.logins[2]
        with pytest.raises(MoiraError) as exc:
            Chsh(joe).run(other, "/bin/sh")
        assert exc.value.code == MR_PERM

    def test_admin_changes_anyone(self, world):
        d, admin, _, _ = world
        target = d.handles.logins[3]
        assert Chsh(admin).run(target, "/bin/ksh") == "/bin/ksh"


class TestChfn:
    def test_partial_update_preserves_other_fields(self, world):
        _, _, joe, joe_login = world
        chfn = Chfn(joe)
        chfn.run(joe_login, nickname="jojo", office_phone="x3-1234")
        info = chfn.get(joe_login)
        assert info.nickname == "jojo"
        assert info.office_phone == "x3-1234"
        assert info.fullname  # preserved from account creation
        chfn.run(joe_login, home_addr="Baker House")
        info2 = chfn.get(joe_login)
        assert info2.nickname == "jojo"
        assert info2.home_addr == "Baker House"

    def test_unknown_field_rejected(self, world):
        _, _, joe, joe_login = world
        with pytest.raises(ValueError):
            Chfn(joe).run(joe_login, shoe_size="11")


class TestChpobox:
    def test_move_between_pop_servers(self, world):
        d, _, joe, joe_login = world
        chpobox = Chpobox(joe)
        target = d.handles.pop_machines[1]
        info = chpobox.set_pop(joe_login, target)
        assert info.box == target

    def test_smtp_forwarding_and_restore(self, world):
        d, _, joe, joe_login = world
        chpobox = Chpobox(joe)
        chpobox.set_pop(joe_login, d.handles.pop_machines[0])
        info = chpobox.set_smtp(joe_login, "joe@media-lab.mit.edu")
        assert info.potype == "SMTP"
        restored = chpobox.restore_pop(joe_login)
        assert restored.potype == "POP"
        assert restored.box == d.handles.pop_machines[0]

    def test_typo_machine_rejected(self, world):
        from repro.errors import MR_MACHINE
        _, _, joe, joe_login = world
        with pytest.raises(MoiraError) as exc:
            Chpobox(joe).set_pop(joe_login, "E40-P0.MIT.EDU")
        assert exc.value.code == MR_MACHINE


class TestMailMaint:
    def test_self_service_join_leave(self, world):
        d, admin, joe, joe_login = world
        ListMaint(admin).create("open-club", public=True)
        mm = MailMaint(joe, joe_login)
        assert "open-club" in mm.public_lists()
        mm.join("open-club")
        assert "open-club" in mm.my_lists()
        mm.leave("open-club")
        assert "open-club" not in mm.my_lists()

    def test_private_list_join_denied(self, world):
        d, admin, joe, joe_login = world
        ListMaint(admin).create("closed-club", public=False)
        with pytest.raises(MoiraError) as exc:
            MailMaint(joe, joe_login).join("closed-club")
        assert exc.value.code == MR_PERM


class TestListMaint:
    def test_create_flags_rename_delete(self, world):
        _, admin, _, _ = world
        lm = ListMaint(admin)
        info = lm.create("lm-test", group=True, description="x")
        assert info.group
        assert info.gid > 0
        info = lm.set_flags("lm-test", hidden=True)
        assert info.hidden
        info = lm.rename("lm-test", "lm-test2")
        assert info.name == "lm-test2"
        lm.delete("lm-test2")
        assert lm.expand("lm-test*") == []

    def test_membership_via_menu(self, world):
        d, admin, _, _ = world
        lm = ListMaint(admin)
        lm.create("menu-list")
        member = d.handles.logins[4]
        from repro.client.menu import MenuSession
        session = MenuSession(lm.build_menu(), inputs=[
            "4",                       # membership submenu
            "2", "menu-list", "USER", member,   # add member
            "1", "menu-list",          # show members
            "q", "q",
        ])
        session.run()
        assert lm.members("menu-list") == [("USER", member)]


class TestUserMaint:
    def test_quota_change_example(self, world):
        """The paper's first motivating example, end to end."""
        d, admin, _, _ = world
        um = UserMaint(admin)
        target = d.handles.logins[5]
        old = um.get_quota(target)
        assert um.set_quota(target, old + 200) == old + 200

    def test_account_lifecycle(self, world):
        _, admin, _, _ = world
        um = UserMaint(admin)
        um.add_account("lifecycle", "Life", "Cycle", "STAFF")
        assert um.lookup("lifecycle")["status"] == 1
        um.deactivate("lifecycle")
        assert um.lookup("lifecycle")["status"] == 3
        um.remove("lifecycle")
        with pytest.raises(MoiraError):
            um.lookup("lifecycle")

    def test_lookup_by_name(self, world):
        d, admin, _, _ = world
        um = UserMaint(admin)
        hits = um.lookup_by_name("*", "*")
        assert len(hits) >= 40


class TestMachMaint:
    def test_cluster_workflow(self, world):
        _, admin, _, _ = world
        mm = MachMaint(admin)
        mm.add_machine("APPTEST.MIT.EDU", "RT")
        mm.add_cluster("apptest-cluster", "test", "nowhere")
        mm.assign("APPTEST.MIT.EDU", "apptest-cluster")
        assert ("APPTEST.MIT.EDU", "apptest-cluster") in mm.map()
        mm.add_cluster_data("apptest-cluster", "zephyr", "Z9.MIT.EDU")
        assert ("apptest-cluster", "zephyr", "Z9.MIT.EDU") in \
            mm.get_cluster_data()
        mm.delete_cluster_data("apptest-cluster", "zephyr", "Z9.MIT.EDU")
        mm.unassign("APPTEST.MIT.EDU", "apptest-cluster")
        mm.delete_cluster("apptest-cluster")
        mm.delete_machine("APPTEST.MIT.EDU")


class TestFilsysMaint:
    def test_project_locker_workflow(self, world):
        d, admin, _, _ = world
        fm = FilsysMaint(admin)
        machine = d.handles.nfs_machines[0]
        owner = d.handles.logins[6]
        group = d.handles.logins[6]  # personal group shares the login
        before = fm.free_space(machine, "/u1")
        fm.add("projx", machine, "/u1/projx", "/mit/projx", owner, group)
        fm.add_quota("projx", owner, 1000)
        assert fm.free_space(machine, "/u1") == before - 1000
        assert (owner, 1000) in fm.quotas_on_partition(machine, "/u1")
        fm.delete_quota("projx", owner)
        fm.delete("projx")
        assert fm.free_space(machine, "/u1") == before


class TestPrinterMaint:
    def test_crud(self, world):
        d, admin, _, _ = world
        pm = PrinterMaint(admin)
        host = d.handles.hesiod_machine
        pm.add("apptest-lp", host)
        assert any(p["printer"] == "apptest-lp" for p in pm.get("*"))
        pm.delete("apptest-lp")
        assert not any(p["printer"] == "apptest-lp" for p in pm.get("*"))


class TestDcmMaint:
    def test_status_and_force_update(self, world):
        d, admin, _, _ = world
        dm = DcmMaint(admin)
        statuses = {s.service for s in dm.service_status("*")}
        assert {"HESIOD", "NFS", "MAIL", "ZEPHYR"} <= statuses
        assert d.handles.hesiod_machine in dm.locations("HESIOD")
        before = d.dcm.runs
        dm.force_update("HESIOD", d.handles.hesiod_machine)
        assert d.dcm.runs == before + 1
        # the forced update really happened
        host = dm.host_status("HESIOD")[0]
        assert host.success

    def test_enable_disable(self, world):
        _, admin, _, _ = world
        dm = DcmMaint(admin)
        dm.disable_service("MAIL")
        assert not dm.service_status("MAIL")[0].enabled
        dm.enable_service("MAIL")
        assert dm.service_status("MAIL")[0].enabled


class TestMrTest:
    def test_query_and_history(self, world):
        _, admin, _, _ = world
        mt = MrTest(admin)
        result = mt.run("get_machine", "*")
        assert result.ok
        assert result.tuples
        assert "tuple" in result.render()
        assert mt.history[-1] is result

    def test_denied_query_shows_code(self, world):
        _, _, joe, _ = world
        mt = MrTest(joe)
        result = mt.run("add_machine", "NOPE.MIT.EDU", "VAX")
        assert not result.ok
        assert result.code == MR_PERM
        assert "permission" in result.render().lower()

    def test_builtins(self, world):
        _, admin, _, _ = world
        mt = MrTest(admin)
        assert len(mt.list_queries()) > 100
        assert "gubl" in mt.help("get_user_by_login")
        assert mt.list_users()


class TestMrCheck:
    def test_clean_database(self, world):
        d, _, _, _ = world
        assert MrCheck(d.db).run() == []

    def test_detects_dangling_member(self, world):
        d, _, _, _ = world
        d.db.table("members").insert(
            {"list_id": 999999, "member_type": "USER",
             "member_id": 888888})
        problems = MrCheck(d.db).run()
        assert any("missing list" in p for p in problems)
        assert any("dangling USER member" in p for p in problems)
        # clean up for other tests sharing the module fixture
        rows = d.db.table("members").select({"list_id": 999999})
        d.db.table("members").delete_rows(rows)

    def test_detects_allocation_drift(self, world):
        d, _, _, _ = world
        phys = list(d.db.table("nfsphys").rows)[0]
        phys["allocated"] += 7
        problems = MrCheck(d.db).run()
        assert any("quota sum" in p for p in problems)
        phys["allocated"] -= 7
