"""A delete naming one row twice is refused before it changes anything.

``Table.delete_rows`` used to take the first copy out of the table and
fail on the second, before the statement registered its undo: the
transaction's abort then left the row deleted.
"""

from __future__ import annotations

import pytest

from repro.db.engine import Column, Database, Table
from repro.errors import MoiraError, MR_INTERNAL


def test_a_row_named_twice_aborts_the_whole_delete():
    db = Database()
    table = db.create_table(Table("probe", [Column("key", int)],
                                  unique=[("key",)]))
    for key in range(3):
        table.insert({"key": key})
    (row,) = table.select({"key": 0})
    with pytest.raises(MoiraError) as raised:
        with db.write_txn():
            table.delete_rows([row, row])
    assert raised.value.code == MR_INTERNAL
    assert [row["key"] for row in table.rows] == [0, 1, 2]
    assert len(table) == 3
