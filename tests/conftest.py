"""Shared fixtures: a bootstrapped Moira deployment in various sizes."""

from __future__ import annotations

import os
import random

import pytest

from repro.client import MoiraClient
from repro.db.journal import Journal
from repro.db.schema import build_database
from repro.kerberos import KDC
from repro.queries.base import QueryContext, execute_query
from repro.server import MoiraServer, seed_capacls
from repro.sim.clock import Clock


def pytest_collection_modifyitems(config, items):
    """``REPRO_TEST_ORDER_SEED=<int>`` runs the modules in that seeded
    random order (unset = collection order), so state one module leaks
    into the next — a registry, a cache, a clock — fails in CI rather
    than at a re-anchor.  Order inside a module is kept: several
    modules walk one module-scoped world through a story on purpose."""
    seed = os.environ.get("REPRO_TEST_ORDER_SEED")
    if not seed:
        return
    modules: dict[str, list] = {}
    for item in items:
        modules.setdefault(item.module.__name__, []).append(item)
    names = sorted(modules)
    random.Random(int(seed)).shuffle(names)
    items[:] = [item for name in names for item in modules[name]]


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def db():
    return build_database()


@pytest.fixture
def ctx(db, clock):
    """A privileged direct context (the DCM / bootstrap path)."""
    return QueryContext(db=db, clock=clock, caller="root",
                        client="test", privileged=True,
                        journal=Journal())


@pytest.fixture
def run(ctx):
    """Callable: run(query, *args) via the privileged context."""

    def _run(name, *args):
        return execute_query(ctx, name, [str(a) for a in args])

    return _run


@pytest.fixture
def kdc(clock):
    return KDC(clock)


@pytest.fixture
def server(db, clock, kdc, ctx):
    srv = MoiraServer(db, clock, kdc)
    seed_capacls(db)
    return srv


def make_user(run, login, *, status=1, year="1990", uid=-1):
    run("add_user", login, uid, "/bin/csh", login.capitalize(), "Test",
        "", status, f"mitid-{login}", year)
    return login


@pytest.fixture
def admin_client(server, kdc, clock, run):
    """An authenticated client on the moira-admins capability list."""
    make_user(run, "admin", year="STAFF")
    run("add_member_to_list", "moira-admins", "USER", "admin")
    kdc.add_principal("admin", "adminpw")
    creds = kdc.kinit("admin", "adminpw")
    client = MoiraClient(dispatcher=server, kdc=kdc, credentials=creds,
                         clock=clock)
    client.connect().auth("pytest")
    yield client
    client.close()


@pytest.fixture
def user_client(server, kdc, clock, run):
    """An authenticated ordinary user ("joeuser")."""
    make_user(run, "joeuser")
    kdc.add_principal("joeuser", "joepw")
    creds = kdc.kinit("joeuser", "joepw")
    client = MoiraClient(dispatcher=server, kdc=kdc, credentials=creds,
                         clock=clock)
    client.connect().auth("pytest")
    yield client
    client.close()
