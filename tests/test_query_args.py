"""Every query argument is declared once, with a type, and parsed once.

The registry carries one type per argument (``repro.queries.base``:
``Text``, ``Int``, ``Name``, ``Upper``, ``Alias``, ``Tristate``,
``OneOf``).  The executors parse a call's arguments through them after
the argc and access checks and before the handler, so no handler sees
a malformed value: every declared integer answers ``MR_INTEGER`` to a
non-numeric one, and no argument at all makes a handler raise anything
but a ``MoiraError`` — never ``MR_INTERNAL``, which is what the server
answers for anything else.

``REPRO_ARG_FUZZ_EXAMPLES`` sets the property test's example budget
(default: a derandomized handful, for tier-1).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.__main__ import queries_markdown
from repro.db.journal import Journal
from repro.db.schema import build_database
from repro.errors import MoiraError, MR_INTEGER, MR_INTERNAL
from repro.queries.base import (Alias, Int, Name, OneOf, QueryContext, Text,
                                Tristate, Upper, all_queries, execute_query)
from repro.server import seed_capacls
from repro.sim.clock import Clock

QUERIES = sorted(all_queries().values(), key=lambda q: q.name)
FUZZ_EXAMPLES = int(os.environ.get("REPRO_ARG_FUZZ_EXAMPLES", "40"))


def example(world, spec: Text) -> str:
    """A legal value for *spec* (the per-type example table)."""
    if isinstance(spec, Alias):
        return world.db.table("alias").select(
            {"name": spec.of or spec.name, "type": "TYPE"})[0]["trans"]
    if isinstance(spec, OneOf):
        return spec.choices[0]
    return {Int: "1", Tristate: "DONTCARE", Upper: "AQ.MIT.EDU",
            Name: "aq", Text: "aq"}[type(spec)]


@pytest.fixture(scope="module")
def world():
    """One small world for the module: a privileged context on a
    seeded database with a user, a list and a machine in it."""
    db = build_database()
    seed_capacls(db)
    ctx = QueryContext(db=db, clock=Clock(), caller="root", client="test",
                       privileged=True, journal=Journal())
    for name, *args in [
        ("add_user", "aq", "-1", "/bin/csh", "L", "F", "", "1", "m", "1990"),
        ("add_list", "aql", "1", "1", "0", "1", "0", "-1", "USER", "aq", ""),
        ("add_machine", "AQ.MIT.EDU", "VAX"),
    ]:
        execute_query(ctx, name, args)
    return ctx


def test_every_query_declares_one_type_per_argument():
    for query in QUERIES:
        assert len(query.specs) == len(query.args), query.name
        for spec, name in zip(query.specs, query.args):
            assert isinstance(spec, Text) and spec.name == name, query.name


def test_docs_queries_md_is_generated_from_the_registry():
    committed = Path(__file__).parents[1] / "docs" / "QUERIES.md"
    assert committed.read_text() == queries_markdown(), \
        "regenerate: python -m repro queries --markdown > docs/QUERIES.md"


INT_POSITIONS = [(query, at) for query in QUERIES
                 for at, spec in enumerate(query.specs)
                 if isinstance(spec, Int)]


def test_every_declared_integer_refuses_a_non_number(world):
    assert len(INT_POSITIONS) > 50
    seq = world.journal.current_seq()
    for query, at in INT_POSITIONS:
        args = [example(world, spec) for spec in query.specs]
        args[at] = "abc"
        with pytest.raises(MoiraError) as exc:
            execute_query(world, query.name, args)
        assert exc.value.code == MR_INTEGER, (query.name, query.args[at])
    assert world.journal.current_seq() == seq


VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["*", "?", "a*b", "#", "", "-1", "0", "1", " 7 ",
                     "TRUE", "dontcare", "USER", "rlist", "NONE", "NFS",
                     "AQ.MIT.EDU", "aq", "aql"]),
    st.text(alphabet=st.characters(max_codepoint=31), min_size=1,
            max_size=4),
    st.integers(-(1 << 70), 1 << 70).map(str),
    st.sampled_from(["9" * 5000, "x" * 300]),
)


@settings(max_examples=FUZZ_EXAMPLES, derandomize=FUZZ_EXAMPLES <= 100,
          deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_no_argument_makes_a_handler_fail_internally(world, data):
    query = data.draw(st.sampled_from(QUERIES))
    args = data.draw(st.lists(VALUES, min_size=len(query.specs),
                              max_size=len(query.specs)))
    try:
        execute_query(world, query.name, args)
    except MoiraError as exc:
        assert exc.code != MR_INTERNAL, (query.name, args, exc)
