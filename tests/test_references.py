"""The schema's declared references (``repro.db.schema.REFERENCES``).

A sweep over every delete query and every declaration naming its
relation, on both backends: a planted referencing row makes the delete
refuse with ``MR_IN_USE`` and change nothing, or go through and take
the row with it, as declared.  A row naming itself never blocks its own
delete.  Every declared column, or (type, id) pair, is served by an
index, and ``docs/DATABASE.md`` shows the declarations as they are.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.db.schema import (INBOUND, KEYS, REFERENCES, build_database,
                             references_markdown)
from repro.db.sqlite_backend import sqlite_database_from_schema
from repro.errors import MR_IN_USE, MoiraError
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import Clock
from tests.conftest import make_user


def _user(run):
    make_user(run, "victim", status=0)
    return {"login": "victim"}


def _list(run):
    run("add_list", "victim", 1, 0, 0, 1, 0, 0, "NONE", "NONE", "")
    return {"name": "victim"}


def _machine(run):
    run("add_machine", "VICTIM.MIT.EDU", "VAX")
    return {"name": "VICTIM.MIT.EDU"}


def _cluster(run):
    run("add_cluster", "victim", "", "")
    return {"name": "victim"}


def _nfsphys(run):
    _machine(run)
    run("add_nfsphys", "VICTIM.MIT.EDU", "/u1", "ra81", 1, 0, 1000)
    return {"dir": "/u1"}


def _server(run):
    run("add_server_info", "VICTIM", 60, "/tmp/v", "v.sh", "UNIQUE", 1,
        "NONE", "NONE")
    return {"name": "VICTIM"}


def _filesys(run):
    _machine(run)
    make_user(run, "owner")
    run("add_list", "owners", 1, 0, 0, 0, 1, -1, "NONE", "NONE", "")
    run("add_filesys", "victim", "RVD", "VICTIM.MIT.EDU", "pack", "/mnt",
        "r", "", "owner", "owners", 0, "OTHER")
    return {"label": "victim"}


# delete query -> (relation, build the row it deletes, its arguments)
DELETES = {
    "delete_user": ("users", _user, ("victim",)),
    "delete_user_by_uid": ("users", _user, None),   # the uid, once known
    "delete_list": ("list", _list, ("victim",)),
    "delete_machine": ("machine", _machine, ("VICTIM.MIT.EDU",)),
    "delete_cluster": ("cluster", _cluster, ("victim",)),
    "delete_nfsphys": ("nfsphys", _nfsphys, ("VICTIM.MIT.EDU", "/u1")),
    "delete_server_info": ("servers", _server, ("VICTIM",)),
    "delete_filesys": ("filesys", _filesys, ("victim",)),
}

CASES = [(query, ref, type_value)
         for query, (table, _build, _args) in DELETES.items()
         for ref, type_value in INBOUND[table]]


def _backend(kind):
    return build_database() if kind == "memory" \
        else sqlite_database_from_schema()


def _world(kind, query):
    db = _backend(kind)
    ctx = QueryContext(db=db, clock=Clock(), caller="root", client="test",
                       privileged=True)

    def run(name, *args):
        return execute_query(ctx, name, [str(a) for a in args])

    table, build, args = DELETES[query]
    (row,) = db.table(table).select(build(run))
    if args is None:
        args = (row["uid"],)
    return db, run, row, args


def _plant(db, ref, type_value, value, onto=None):
    """A row of ``ref.table`` naming *value*, or *onto* made to."""
    values = {ref.column: value}
    if type_value is not None:
        values[ref.type_column] = type_value
    table = db.table(ref.table)
    if onto is None:
        table.insert(values)
    else:
        table.update_rows([onto], values)


def _counts(db):
    return {name: len(db.table(name).rows)
            for name in {ref.table for ref in REFERENCES} | set(KEYS)}


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
@pytest.mark.parametrize(
    "query,ref,type_value", CASES,
    ids=[f"{q}-{r.table}.{r.column}-{t}" for q, r, t in CASES])
def test_delete_refuses_or_cascades_as_declared(kind, query, ref,
                                                type_value):
    db, run, row, args = _world(kind, query)
    table = DELETES[query][0]
    key = KEYS[table]
    _plant(db, ref, type_value, row[key])
    before = _counts(db)
    if ref.on_delete == "refuse":
        with pytest.raises(MoiraError) as raised:
            run(query, *args)
        assert raised.value.code == MR_IN_USE
        assert _counts(db) == before
    else:
        run(query, *args)
        assert not db.table(table).select({key: row[key]})
        assert not db.table(ref.table).select({ref.column: row[key]})


SELF = [(query, ref, type_value) for query, ref, type_value in CASES
        if ref.table == DELETES[query][0]]


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
@pytest.mark.parametrize(
    "query,ref,type_value", SELF,
    ids=[f"{q}-{r.table}.{r.column}-{t}" for q, r, t in SELF])
def test_a_row_naming_itself_never_blocks_its_delete(kind, query, ref,
                                                     type_value):
    db, run, row, args = _world(kind, query)
    key = KEYS[DELETES[query][0]]
    _plant(db, ref, type_value, row[key], onto=row)
    run(query, *args)
    assert not db.table(DELETES[query][0]).select({key: row[key]})


def test_the_sweep_reaches_every_declaration():
    assert len(SELF) == 1   # a list that is its own ACE
    # every named relation but strings (no query deletes one) has a
    # delete query above, and every relation is named by one key
    assert set(KEYS) - {DELETES[q][0] for q in DELETES} == {"strings"}
    for ref in REFERENCES:
        for target in ref.targets.values():
            assert target is None or KEYS[target[0]] == target[1]
    # a cascaded row goes unchecked: nothing may name one
    for ref in REFERENCES:
        if ref.on_delete == "cascade":
            assert ref.table not in INBOUND, ref


def _memory_indexes():
    db = build_database()
    for ref in REFERENCES:
        store = db.table(ref.table)._mv
        yield ref, [(name,) for name in store.indexes] + list(
            store.composites)


def _sqlite_indexes():
    conn = sqlite_database_from_schema().conn
    for ref in REFERENCES:
        yield ref, [tuple(info[2] for info in conn.execute(
                        f'PRAGMA index_info("{index[1]}")'))
                    for index in conn.execute(
                        f'PRAGMA index_list("{ref.table}")')]


@pytest.mark.parametrize("indexes", [_memory_indexes, _sqlite_indexes],
                         ids=["memory", "sqlite"])
def test_every_declared_reference_is_served_by_an_index(indexes):
    for ref, indexed in indexes():
        served = [{ref.column}, {ref.type_column, ref.column}]
        assert any(set(columns) in served for columns in indexed), ref


def test_docs_database_md_shows_the_declared_references():
    path = Path(__file__).parents[1] / "docs" / "DATABASE.md"
    text = path.read_text()
    section = text[text.index("## References\n"):]
    assert section == references_markdown(), (
        "regenerate the References section of docs/DATABASE.md (its last) "
        "from repro.db.schema.references_markdown()")
