"""A dump that repeats a unique key is refused, and nothing is loaded.

``StorageBackend.load`` built and coerced every row before it touched
a relation, but checked uniqueness only inside each relation's
``bulk_load``: a dump holding one ``machine`` line twice raised
``MR_EXISTS`` after the relations before ``machine`` had reloaded and
``machine`` had been cleared, so ``mrrestore`` left ``machine`` empty.
The build phase now checks each relation's declared unique keys (case
folded where the column folds case): the dump is refused with
``MR_EXISTS`` and every relation and TBLSTATS are as they were."""

from __future__ import annotations

import pytest

from repro.db.backend import available_backends
from repro.errors import MoiraError, MR_EXISTS
from tests.test_backend_conformance import (
    BASE,
    dump,
    dump_fields,
    fresh_backend,
    machine_rows,
)


@pytest.mark.parametrize("name", available_backends())
@pytest.mark.parametrize("twin", ["same line", "name in lower case"])
def test_a_repeated_machine_loads_nothing(name, twin, tmp_path):
    db = fresh_backend(name, tmp_path, name)
    with db.write_txn():
        for row in machine_rows(db, 2):
            db.table("machine").insert(row, now=BASE)
    stats = db.table_stats()
    before = dump(db, tmp_path / "before")
    relations = dump_fields(tmp_path / "before")
    names = list(db.table("machine").columns)
    line = list(relations["machine"][0])
    if twin != "same line":
        line[names.index("name")] = line[names.index("name")].lower()
        line[names.index("mach_id")] = "999"
    relations["machine"].append(line)
    with pytest.raises(MoiraError) as caught:
        db.load(relations)
    assert dump(db, tmp_path / "after") == before
    assert db.table_stats() == stats
    assert caught.value.code == MR_EXISTS
    assert "machine line 3" in str(caught.value)
    close = getattr(db, "close", None)
    if close is not None:
        close()
