"""``_repl_read``'s session token is an integer on both tiers.

A replica answered ``_repl_read abc get_user_by_login x`` with
``MR_ARGS``, but the primary's unwrap skipped the check and served the
read.  Both tiers (and ``_repl_tail``'s ``after_seq`` / ``limit``) parse
the number through one helper, ``replication.feed.parse_seq``, now."""

from __future__ import annotations

import pytest

from repro.client.lib import MoiraClient
from repro.errors import MoiraError, MR_ARGS
from tests.test_replication import add_machine, make_primary, make_replica


def _code(server, *request) -> int:
    client = MoiraClient(dispatcher=server, busy_retries=0).connect()
    try:
        client.query(*request)
    except MoiraError as exc:
        return exc.code
    finally:
        client.close()
    return 0


def test_a_non_integer_min_seq_is_mr_args_on_both_tiers():
    primary = make_primary()
    add_machine(primary)
    replica = make_replica(primary)
    replica.step()
    wrapped = ("get_machine", "FRAME0.MIT.EDU")
    for server in (primary.server, replica.server):
        assert _code(server, "_repl_read", "0", *wrapped) == 0
        assert _code(server, "_repl_read", "abc", *wrapped) == MR_ARGS


@pytest.mark.parametrize("args", [("abc",), ("0", "x")])
def test_a_non_integer_tail_position_is_mr_args(args):
    primary = make_primary()
    assert _code(primary.server, "_repl_tail", "0") == 0
    assert _code(primary.server, "_repl_tail", *args) == MR_ARGS
