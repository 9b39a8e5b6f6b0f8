"""Remaining edge cases: journal files, frame limits, rotation knobs,
index selection, and miscellaneous boundary behaviour."""

from __future__ import annotations

import pytest

from repro.db.backup import rotate
from repro.db.engine import Column, Table
from repro.db.journal import Journal, JournalEntry
from repro.errors import MoiraError, MR_ABORTED
from repro.protocol.wire import MAX_ARG, encode_request
from repro.protocol.wire import MajorRequest
from tests.frames import read_frame


class TestJournalFile:
    def test_persists_and_reloads(self, tmp_path):
        path = tmp_path / "journal"
        journal = Journal(path=path)
        journal.record(100, "root", "add_machine", ("A.MIT.EDU", "VAX"))
        journal.record(200, "admin", "add_user", ("x",))
        reloaded = Journal.load(path)
        assert len(reloaded) == 2
        assert reloaded.entries[0].query == "add_machine"
        assert reloaded.entries[1].when == 200

    def test_load_missing_file_is_empty(self, tmp_path):
        journal = Journal.load(tmp_path / "nothing")
        assert len(journal) == 0

    def test_entry_roundtrip_with_odd_characters(self):
        entry = JournalEntry(when=1, who="x", query="q",
                             args=("colon:here", 'quote"there', "new\nline"))
        assert JournalEntry.from_line(entry.to_line()) == entry

    def test_args_stringified(self):
        journal = Journal()
        entry = journal.record(1, "a", "q", (1, 2))
        assert entry.args == ("1", "2")


class TestFrameLimits:
    def test_oversized_counted_string_rejected(self):
        frame = bytearray(encode_request(MajorRequest.QUERY, ["abc"]))
        # clobber the counted-string length to something absurd
        frame[9:13] = (MAX_ARG + 1).to_bytes(4, "big")
        from repro.protocol.wire import decode_request
        with pytest.raises(MoiraError) as exc:
            decode_request(bytes(frame[4:]))
        assert exc.value.code == MR_ABORTED

    def test_read_frame_clean_eof(self):
        chunks = [b""]

        def recv(n):
            return chunks.pop(0) if chunks else b""

        assert read_frame(recv) == b""

    def test_read_frame_mid_frame_eof(self):
        payload = encode_request(MajorRequest.NOOP, [])
        stream = payload[:-1]  # truncated
        pos = [0]

        def recv(n):
            if pos[0] >= len(stream):
                return b""
            chunk = stream[pos[0]:pos[0] + n]
            pos[0] += len(chunk)
            return chunk

        with pytest.raises(MoiraError) as exc:
            read_frame(recv)
        assert exc.value.code == MR_ABORTED

    def test_read_frame_reassembles_fragments(self):
        payload = encode_request(MajorRequest.QUERY, ["q", "arg"])
        pos = [0]

        def recv(n):
            take = min(n, 3)  # dribble three bytes at a time
            chunk = payload[pos[0]:pos[0] + take]
            pos[0] += len(chunk)
            return chunk

        frame = read_frame(recv)
        assert frame == payload[4:]

    def test_zero_length_frame_rejected(self):
        def recv(n, chunks=[b"\x00\x00\x00\x00"]):
            return chunks.pop(0) if chunks else b""

        with pytest.raises(MoiraError):
            read_frame(recv)


class TestRotationKnobs:
    def test_keep_two(self, tmp_path):
        for i in range(4):
            target = rotate(tmp_path, keep=2)
            (target / "stamp").write_text(str(i))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["backup_1", "backup_2"]
        assert (tmp_path / "backup_1" / "stamp").read_text() == "3"


class TestIndexSelection:
    def test_most_selective_index_used(self):
        """With two indexed columns, the smaller bucket drives the scan
        (observable through correctness under skew)."""
        t = Table("t", [Column("a", int), Column("b", int)],
                  indexes=["a", "b"])
        for i in range(100):
            t.insert({"a": i % 2, "b": i})  # a: huge buckets, b: unique
        rows = t.select({"a": 1, "b": 51})
        assert len(rows) == 1
        assert rows[0]["b"] == 51

    def test_index_with_case_folded_column(self):
        t = Table("t", [Column("name", fold_case=True)],
                  indexes=["name"], unique=[("name",)])
        t.insert({"name": "MixedCase"})
        assert t.select({"name": "mixedcase"})
        assert t.select({"name": "MIXEDCASE"})
        with pytest.raises(MoiraError):
            t.insert({"name": "mixedCASE"})


class TestMenuEdge:
    def test_nested_quit_returns_to_parent(self):
        from repro.client.menu import Menu, MenuSession

        hits = []
        root = Menu("Root")
        sub = Menu("Sub")
        sub.add_action("1", "inner", lambda: hits.append("inner"))
        root.add_submenu("s", "enter sub", sub)
        root.add_action("r", "outer", lambda: hits.append("outer"))
        session = MenuSession(root,
                              inputs=["s", "1", "q", "r", "q"])
        session.run()
        assert hits == ["inner", "outer"]
