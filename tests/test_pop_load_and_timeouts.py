"""Tests for POP load accounting (serverhosts.value1) and the §5.9
per-operation update timeout."""

from __future__ import annotations

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.workload import PopulationSpec
from tests.conftest import make_user


@pytest.fixture
def pop_world(run):
    run("add_machine", "PO1.MIT.EDU", "VAX")
    run("add_machine", "PO2.MIT.EDU", "VAX")
    run("add_server_info", "POP", 0, "", "", "REPLICAT", 1, "NONE",
        "NONE")
    run("add_server_host_info", "POP", "PO1.MIT.EDU", 1, 0, 100, "")
    run("add_server_host_info", "POP", "PO2.MIT.EDU", 1, 0, 100, "")
    make_user(run, "mover")


def pop_load(run, machine):
    return run("get_server_host_info", "POP", machine)[0][10]


class TestPopLoadAccounting:
    def test_set_pobox_increments(self, run, pop_world):
        run("set_pobox", "mover", "POP", "PO1.MIT.EDU")
        assert pop_load(run, "PO1.MIT.EDU") == "1"

    def test_move_between_servers_transfers_load(self, run, pop_world):
        run("set_pobox", "mover", "POP", "PO1.MIT.EDU")
        run("set_pobox", "mover", "POP", "PO2.MIT.EDU")
        assert pop_load(run, "PO1.MIT.EDU") == "0"
        assert pop_load(run, "PO2.MIT.EDU") == "1"

    def test_same_server_is_noop(self, run, pop_world):
        run("set_pobox", "mover", "POP", "PO1.MIT.EDU")
        run("set_pobox", "mover", "POP", "PO1.MIT.EDU")
        assert pop_load(run, "PO1.MIT.EDU") == "1"

    def test_switch_to_smtp_releases_load(self, run, pop_world):
        run("set_pobox", "mover", "POP", "PO1.MIT.EDU")
        run("set_pobox", "mover", "SMTP", "mover@elsewhere.edu")
        assert pop_load(run, "PO1.MIT.EDU") == "0"

    def test_delete_pobox_releases_load(self, run, pop_world):
        run("set_pobox", "mover", "POP", "PO1.MIT.EDU")
        run("delete_pobox", "mover")
        assert pop_load(run, "PO1.MIT.EDU") == "0"

    def test_restore_pop_retakes_load(self, run, pop_world):
        run("set_pobox", "mover", "POP", "PO1.MIT.EDU")
        run("delete_pobox", "mover")
        run("set_pobox_pop", "mover")
        assert pop_load(run, "PO1.MIT.EDU") == "1"

    def test_load_never_negative(self, run, pop_world):
        run("set_pobox", "mover", "POP", "PO1.MIT.EDU")
        run("delete_pobox", "mover")
        run("delete_pobox", "mover")  # idempotent second delete
        assert pop_load(run, "PO1.MIT.EDU") == "0"


class TestUpdateTimeout:
    def test_wedged_host_is_soft_failure(self):
        """A host that is up but unresponsive times out softly and
        recovers once it speeds back up (§5.9 A)."""
        d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(
            users=15, unregistered_users=0, nfs_servers=2, maillists=2,
            clusters=1, machines_per_cluster=1, printers=1,
            network_services=3)))
        daemon = d.daemons[d.handles.hesiod_machine]
        daemon.response_delay = 10_000  # wedged
        d.run_hours(7)
        row = d.db.table("serverhosts").select({"service": "HESIOD"})[0]
        assert row["success"] == 0
        assert row["hosterror"] == 0          # soft
        assert "exceeded" in row["hosterrmsg"]
        daemon.response_delay = 0
        d.run_hours(1)
        row = d.db.table("serverhosts").select({"service": "HESIOD"})[0]
        assert row["success"] == 1
