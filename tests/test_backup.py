"""Tests for mrbackup/mrrestore (paper §5.2.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.db.backup import (
    escape_field,
    mrbackup,
    mrrestore,
    rotate,
    unescape_field,
)
from repro.db.schema import build_database


class TestEscaping:
    def test_colon(self):
        assert escape_field("a:b") == "a\\:b"

    def test_backslash(self):
        assert escape_field("a\\b") == "a\\\\b"

    def test_newline_is_octal(self):
        assert escape_field("a\nb") == "a\\012b"

    def test_control_char_octal(self):
        assert escape_field("\x07") == "\\007"

    def test_roundtrip_specials(self):
        for text in ["plain", "a:b:c", "tr\\ick", "line\nbreak",
                     "tab\there", "", ":" * 5, "\\" * 3]:
            assert unescape_field(escape_field(text)) == text

    @given(st.text(max_size=64))
    def test_roundtrip_property(self, text):
        assert unescape_field(escape_field(text)) == text

    @given(st.lists(st.text(max_size=16), min_size=1, max_size=6))
    def test_no_raw_separators_in_escaped_output(self, fields):
        line = ":".join(escape_field(f) for f in fields)
        # splitting on unescaped colons must recover the field count
        from repro.db.backup import _split_escaped
        assert [unescape_field(p) for p in _split_escaped(line)] == fields


def populate(db, n_users=5):
    users = db.table("users")
    for i in range(n_users):
        users.insert({
            "login": f"user{i}", "users_id": i + 1, "uid": 6500 + i,
            "shell": "/bin/csh", "last": f"Last:{i}", "first": "First",
            "status": 1, "fullname": "has\nnewline" if i == 0 else "x",
        })
    db.table("machine").insert(
        {"name": "SUOMI.MIT.EDU", "mach_id": 1, "type": "VAX"})


class TestBackupRestore:
    def test_roundtrip_preserves_every_row(self, tmp_path):
        db = build_database()
        populate(db)
        sizes = mrbackup(db, tmp_path / "backup_1")

        restored = build_database()
        counts = mrrestore(restored, tmp_path / "backup_1")
        assert counts["users"] == 5
        assert counts["machine"] == 1
        for name, table in db.tables.items():
            rtable = restored.tables[name]
            assert len(rtable) == len(table), name
            assert list(rtable.rows) == list(table.rows), name
        assert sizes["users"] > 0

    def test_backup_writes_one_file_per_relation(self, tmp_path):
        db = build_database()
        mrbackup(db, tmp_path / "b")
        files = {p.name for p in (tmp_path / "b").iterdir()}
        assert files == set(db.tables)

    def test_restore_wipes_existing_contents(self, tmp_path):
        db = build_database()
        populate(db)
        mrbackup(db, tmp_path / "b")
        target = build_database()
        target.table("users").insert({"login": "stale", "users_id": 999})
        mrrestore(target, tmp_path / "b")
        assert not target.table("users").select({"login": "stale"})
        assert len(target.table("users")) == 5

    def test_colon_field_roundtrip_through_files(self, tmp_path):
        db = build_database()
        db.table("users").insert(
            {"login": "tricky", "users_id": 1,
             "fullname": "a:b\\c\nd"})
        mrbackup(db, tmp_path / "b")
        restored = build_database()
        mrrestore(restored, tmp_path / "b")
        assert restored.table("users").select(
            {"login": "tricky"})[0]["fullname"] == "a:b\\c\nd"

    def test_restore_does_not_inflate_stats(self, tmp_path):
        db = build_database()
        populate(db)
        mrbackup(db, tmp_path / "b")
        restored = build_database()
        mrrestore(restored, tmp_path / "b")
        assert restored.table("users").stats.appends == 0

    def test_malformed_line_rejected(self, tmp_path):
        db = build_database()
        mrbackup(db, tmp_path / "b")
        (tmp_path / "b" / "machine").write_text("only:two\n")
        with pytest.raises(ValueError):
            mrrestore(build_database(), tmp_path / "b")


class TestRotation:
    def test_rotate_keeps_last_three(self, tmp_path):
        base = tmp_path / "backups"
        seen = []
        for i in range(5):
            newest = rotate(base)
            (newest / "stamp").write_text(str(i))
            seen.append(newest)
        dirs = sorted(p.name for p in base.iterdir())
        assert dirs == ["backup_1", "backup_2", "backup_3"]
        # newest has the last stamp, oldest is two generations back
        assert (base / "backup_1" / "stamp").read_text() == "4"
        assert (base / "backup_3" / "stamp").read_text() == "2"

    def test_nightly_flow(self, tmp_path):
        """The nightly.sh flow: rotate, then dump into backup_1."""
        db = build_database()
        populate(db)
        target = rotate(tmp_path)
        mrbackup(db, target)
        restored = build_database()
        mrrestore(restored, tmp_path / "backup_1")
        assert len(restored.table("users")) == 5
