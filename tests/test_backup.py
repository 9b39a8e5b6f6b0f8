"""Tests for mrbackup/mrrestore (paper §5.2.2)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.db.backup import (
    dump_line,
    escape_field,
    mrbackup,
    mrrestore,
    parse_line,
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


class TestStrictDecoding:
    """A backslash is followed by ``:``, ``\\`` or three octal digits;
    anything else is a malformed dump, not a guess."""

    @pytest.mark.parametrize("field", [
        "a\\",          # trailing backslash
        "a\\7",         # one octal digit
        "a\\07",        # two octal digits
        "a\\08x",       # not octal
        "a\\x41",       # not an escape at all
        "a\\ 17",       # int() would strip the space
        "a\\400",       # past one byte
    ])
    def test_unescape_rejects(self, field):
        with pytest.raises(ValueError):
            unescape_field(field)

    def test_three_octal_digits_decode(self):
        assert unescape_field("a\\007b") == "a\x07b"
        assert unescape_field("\\303\\251") == "\u00e9"

    @pytest.mark.parametrize("line", [
        "BAD.MIT.EDU:1:VAX:x\\",
        "BAD.MIT.EDU:1:VAX:x\\7",
        "BAD.MIT.EDU:1:VAX:x\\9zz",
    ])
    def test_restore_names_relation_and_line(self, tmp_path, line):
        db = build_database()
        db.table("machine").insert(
            {"name": "GOOD.MIT.EDU", "mach_id": 1, "type": "VAX"})
        mrbackup(db, tmp_path / "b")
        good = (tmp_path / "b" / "machine").read_text().splitlines()[0]
        fields = good.split(":")
        fields[3] = line.split(":")[3]
        (tmp_path / "b" / "machine").write_text(
            good + "\n" + ":".join(fields) + "\n")
        with pytest.raises(ValueError, match=r"^machine line 2: "):
            mrrestore(build_database(), tmp_path / "b")

    def test_wrong_field_count_names_relation_and_line(self, tmp_path):
        mrbackup(build_database(), tmp_path / "b")
        (tmp_path / "b" / "machine").write_text("only:two\n")
        with pytest.raises(ValueError, match=r"^machine line 1: expected"):
            mrrestore(build_database(), tmp_path / "b")


def seed_escape_field(value: str) -> str:
    """The per-character escaper every dump line used to go through:
    the oracle the row-at-a-time codec must match byte for byte."""
    out = []
    for ch in value:
        if ch == ":":
            out.append("\\:")
        elif ch == "\\":
            out.append("\\\\")
        elif not ch.isprintable() or ch == "\n":
            out.extend(f"\\{byte:03o}" for byte in ch.encode("utf-8"))
        else:
            out.append(ch)
    return "".join(out)


field_text = st.text(
    alphabet=st.one_of(st.sampled_from(":\\\n\x07\u00e9 "),
                       st.characters(blacklist_categories=("Cs",))),
    max_size=12)


class TestRowCodec:
    @given(st.lists(field_text, min_size=1, max_size=6))
    def test_dump_line_matches_the_per_character_escaper(self, fields):
        line = dump_line(tuple(fields))
        assert line == ":".join(seed_escape_field(f) for f in fields)
        assert parse_line(line) == fields

    @pytest.fixture(scope="class")
    def dbs(self):
        return build_database(), build_database()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(field_text, field_text), min_size=1,
                    max_size=8))
    def test_mrbackup_is_byte_identical_and_round_trips(self, tmp_path,
                                                        dbs, rows):
        db, restored = dbs
        users = db.table("users")
        users.clear()
        for i, (fullname, shell) in enumerate(rows):
            users.insert({"login": f"u{i}", "users_id": i + 1,
                          "fullname": fullname, "shell": shell})
        target = tmp_path / "codec"
        mrbackup(db, target)
        expected = "".join(
            ":".join(seed_escape_field(str(row[col]))
                     for col in users.columns) + "\n"
            for row in users.rows)
        assert (target / "users").read_bytes() == expected.encode("utf-8")
        mrrestore(restored, target)
        assert list(restored.table("users").rows) == list(users.rows)


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
