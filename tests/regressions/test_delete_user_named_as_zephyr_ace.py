"""A user named in a Zephyr class's ACL cannot be deleted.

The user-delete check listed the tables an ACE lives in by hand and
left out Zephyr's four slots, while ``get_ace_use`` looked at them:
``delete_user`` removed a user who was a class's ``xmt`` ACE,
``get_zephyr_class`` then answered ``???`` for the name, and
``MrCheck`` still reported nothing.  Both now read the schema's one
list of references.
"""

from __future__ import annotations

import pytest

from repro.apps import MrCheck
from repro.errors import MR_IN_USE, MoiraError
from tests.conftest import make_user


def test_delete_user_refuses_a_zephyr_xmt_ace(run, db):
    make_user(run, "zuser", status=0)
    run("add_zephyr_class", "zclass", "USER", "zuser", "NONE", "NONE",
        "NONE", "NONE", "NONE", "NONE")
    with pytest.raises(MoiraError) as raised:
        run("delete_user", "zuser")
    assert raised.value.code == MR_IN_USE
    assert run("get_zephyr_class", "zclass")[0][2] == "zuser"
    assert MrCheck(db).run() == []


def test_mrcheck_reports_a_dangling_zephyr_ace(db):
    db.table("zephyr").insert({
        "class": "orphaned", "xmt_type": "NONE", "sub_type": "NONE",
        "iws_type": "USER", "iws_id": 424242, "iui_type": "NONE"})
    problems = MrCheck(db).run()
    assert any("dangling USER iws 424242" in p for p in problems), problems
