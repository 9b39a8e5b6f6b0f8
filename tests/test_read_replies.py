"""Every retrieval answers in text and pays for the rows it returns.

The paper's server answers a retrieval with a stream of string tuples.
This module runs one bound (non-wildcard) example of every
side-effect-free query in the registry on a small seeded world, and
checks two things:

* every field of every reply tuple is ``str`` — in the runs a
  dispatcher yields (``run_read``, which converts nothing) and through
  ``DirectClient``;
* the read view scanned at most twice the rows it returned: an id join
  is one bucket probe, and a filter on an indexed column answers from
  its bucket.  A handle that must scan a relation is listed in
  ``SCANS`` with the reason.

A read query without an example fails, so a new retrieval is swept the
day it is registered.
"""

from __future__ import annotations

import pytest

from repro.core import AthenaDeployment, DeploymentConfig
from repro.queries.base import (QueryContext, all_queries, get_query,
                                run_read)
from repro.workload import PopulationSpec

SMALL = dict(users=20, unregistered_users=2, nfs_servers=2, maillists=3,
             clusters=1, machines_per_cluster=2, printers=2,
             network_services=3)

READS = sorted(name for name, query in all_queries().items()
               if not query.side_effects)

# handle -> why its view reads more rows than it returns
SCANS: dict[str, str] = {}


@pytest.fixture(scope="module")
def world():
    d = AthenaDeployment(DeploymentConfig(population=PopulationSpec(**SMALL)))
    login = d.handles.logins[1]
    machine = d.handles.nfs_machines[0]
    d.direct_client().query("add_server_host_access", machine, "USER", login)
    return d


def examples(d: AthenaDeployment) -> dict:
    """One bound call of every read query that returns rows."""
    login = d.handles.logins[1]
    user = d.db.table("users").select({"login": login})[0]
    maillist = d.handles.maillist_names[0]
    machine = d.handles.nfs_machines[0]
    cluster = d.handles.cluster_names[0]
    return {
        "_help": ("get_machine",),
        "_list_queries": (),
        "count_members_of_list": (maillist,),
        "expand_list_names": (maillist,),
        "get_ace_use": ("USER", login),
        "get_alias": ("mach_type", "TYPE", "VAX"),
        "get_all_active_logins": (),
        "get_all_logins": (),
        "get_all_nfsphys": (),
        "get_all_poboxes": (),
        "get_all_table_stats": (),
        "get_cluster": (cluster,),
        "get_cluster_data": (cluster, "zephyr"),
        "get_filesys_by_group": (login,),
        "get_filesys_by_label": (login,),
        "get_filesys_by_machine": (machine,),
        "get_filesys_by_nfsphys": (machine, "/u1"),
        "get_finger_by_login": (login,),
        "get_list_info": (maillist,),
        "get_lists_of_member": ("RUSER", login),
        "get_machine": (machine,),
        "get_machine_to_cluster_map": (
            d.db.table("machine").select(
                {"mach_id": next(iter(d.db.table("mcmap").rows))[
                    "mach_id"]})[0]["name"], cluster),
        "get_members_of_list": (maillist,),
        "get_nfs_quota": (login, login),
        "get_nfs_quotas_by_partition": (machine, "/u1"),
        "get_nfsphys": (machine, "/u1"),
        "get_pobox": (login,),
        "get_poboxes_pop": (),
        "get_poboxes_smtp": (),
        "get_printcap": (next(iter(d.db.table("printcap").rows))["name"],),
        "get_server_host_access": (machine,),
        "get_server_host_info": ("NFS", machine),
        "get_server_info": ("NFS",),
        "get_server_locations": ("NFS",),
        "get_service": ("smtp",),
        "get_user_by_class": (user["mit_year"],),
        "get_user_by_login": (login,),
        "get_user_by_mitid": (user["mit_id"],),
        "get_user_by_name": (user["first"], user["last"]),
        "get_user_by_uid": (str(user["uid"]),),
        "get_value": ("def_quota",),
        "get_zephyr_class": (d.handles.zephyr_class_names[0],),
        "qualified_get_lists": ("TRUE", "DONTCARE", "FALSE", "TRUE",
                                "DONTCARE"),
        "qualified_get_server": ("TRUE", "FALSE", "FALSE"),
        "qualified_get_server_host": ("NFS", "TRUE", "DONTCARE",
                                      "DONTCARE", "DONTCARE", "DONTCARE"),
    }


def served(d: AthenaDeployment, name: str) -> tuple[list, dict]:
    """The rows of *name*'s example as the dispatcher's runs carry them,
    and what the view read to answer it."""
    args = examples(d)[name]
    ctx = QueryContext(db=d.db, clock=d.clock, caller="root",
                       privileged=True)
    timing: dict = {}
    rows = [row for run in run_read(ctx, get_query(name), args, timing)
            for row in run]
    return rows, timing


def test_every_read_query_has_an_example(world):
    assert sorted(examples(world)) == READS


@pytest.mark.parametrize("name", READS)
def test_a_reply_is_born_as_text(world, name):
    rows, _ = served(world, name)
    assert rows, name
    for row in rows:
        assert type(row) is tuple and all(type(f) is str for f in row), row
    direct = world.direct_client().query(name, *examples(world)[name])
    assert direct == rows
    assert all(type(f) is str for row in direct for f in row)


@pytest.mark.parametrize("name", READS)
def test_a_retrieval_reads_what_it_returns(world, name):
    _, timing = served(world, name)
    scanned, returned = timing["rows_scanned"], timing["rows_returned"]
    if name in SCANS:
        assert scanned > 2 * returned, f"{name} no longer scans: unlist it"
    else:
        assert scanned <= 2 * returned, (name, scanned, returned)
