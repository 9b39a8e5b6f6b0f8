"""mrbackup / mrrestore — the ASCII database backup system (paper §5.2.2).

Each relation is copied into an ASCII file named after the relation; each
row becomes one line of colon-separated fields.  Colons and backslashes
inside fields are escaped as ``\\:`` and ``\\\\``, and non-printing
characters become ``\\nnn`` (octal), exactly as the paper specifies.  The
paper's ``nightly.sh`` keeps the last three backups on line; ``rotate``
reproduces that (``backup_1`` newest ... ``backup_3`` oldest).
"""

from __future__ import annotations

import os
import shutil
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Union

from repro.db.engine import Database

__all__ = ["mrbackup", "mrrestore", "rotate", "escape_field",
           "unescape_field", "dump_line", "dump_relations", "parse_line",
           "row_values"]


def escape_field(value: str) -> str:
    """Escape one field for the colon-separated dump format.

    Colons and backslashes gain a backslash.  A non-printing character
    (newline included) becomes the ``\\nnn`` octal escapes of its
    UTF-8 bytes; printable text, non-ASCII such as ``é`` included, is
    written as it stands.
    """
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


_OCTAL = frozenset("01234567")


def unescape_field(value: str) -> str:
    """Invert escape_field().

    A backslash must be followed by ``:``, ``\\`` or exactly three
    octal digits; anything else raises ``ValueError``.
    """
    out = bytearray()
    i = 0
    while i < len(value):
        ch = value[i]
        if ch != "\\":
            out.extend(ch.encode("utf-8"))
            i += 1
            continue
        nxt = value[i + 1:i + 2]
        if nxt == ":" or nxt == "\\":
            out.append(ord(nxt))
            i += 2
            continue
        digits = value[i + 1:i + 4]
        if len(digits) != 3 or not _OCTAL.issuperset(digits) \
                or digits > "377":
            raise ValueError(f"bad escape {value[i:i + 4]!r} at offset {i}")
        out.append(int(digits, 8))
        i += 4
    return out.decode("utf-8")


def dump_line(values: tuple) -> str:
    """One row's dump line, without its newline.

    The fields are stringified and joined with ``:``.  That line is
    already the escaped one when it is printable, holds no backslash
    and has exactly one colon per separator — one C-level check for
    the common row.  Any other row escapes field by field.
    """
    line = ":".join(map(str, values))
    if ("\\" in line or line.count(":") != len(values) - 1
            or not line.isprintable()):
        line = ":".join([escape_field(str(value)) for value in values])
    return line


def parse_line(line: str) -> list[str]:
    """The fields of one dump line (without its newline), unescaped.

    A line without a backslash holds no escape, so it splits as it
    stands; ``ValueError`` for a malformed escape.
    """
    if "\\" not in line:
        return line.split(":")
    return [unescape_field(field) for field in _split_escaped(line)]


def row_values(columns) -> Callable[[dict], tuple]:
    """A getter for a row's values, in *columns* order, as a tuple."""
    names = list(columns)
    if len(names) == 1:
        name = names[0]
        return lambda row: (row[name],)
    return itemgetter(*names)


def dump_relations(view) -> Iterator[tuple[str, Iterator[str]]]:
    """Each relation of *view* in name order, with its rows' dump lines
    (no newlines), made as they are read: the one dump loop behind
    :func:`mrbackup`'s files and the replication feed's snapshot."""
    for name, table in sorted(view.tables.items()):
        yield name, map(dump_line, map(row_values(table.columns),
                                       table.rows))


def mrbackup(db: Database, directory: Union[str, Path]) -> dict[str, int]:
    """Dump every relation of *db* into *directory*; returns bytes written.

    One file per relation, one line per row, colon-separated escaped
    fields followed by a newline (ASCII 10), per the paper.  Lines
    stream to the file as they are made.  The dump reads one committed
    cut, ``db.read_view()``; pass a view to dump that cut.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sizes: dict[str, int] = {}
    with db.read_view() as view:
        for name, lines in dump_relations(view):
            path = directory / name
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(map("{}\n".format, lines))
            sizes[name] = path.stat().st_size
    return sizes


def mrrestore(db: Database, directory: Union[str, Path]) -> dict[str, int]:
    """Load a backup from *directory* into *db*, wiping current contents.

    The paper's mrrestore works on an *empty* database created from the
    schema definition; here the caller passes a fresh (or to-be-wiped)
    database built by ``build_database`` and :meth:`db.load
    <repro.db.backend.StorageBackend.load>` replaces every relation.
    Returns rows loaded per relation.  A malformed line raises
    ``ValueError`` naming the relation and line number before *db* is
    touched.
    """
    directory = Path(directory)
    return db.load({name: _read_rows(directory / name, name)
                    for name in db.tables
                    if (directory / name).exists()})


def _read_rows(path: Path, name: str) -> Iterator[list[str]]:
    """The fields of each line of one relation file, read as asked."""
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            try:
                fields = parse_line(line)
            except ValueError as exc:
                raise ValueError(
                    f"{name} line {number}: {exc}: {line!r}") from None
            yield fields


def _split_escaped(line: str) -> list[str]:
    """Split on unescaped colons."""
    fields: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and i + 1 < len(line):
            current.append(line[i:i + 2])
            i += 2
        elif ch == ":":
            fields.append("".join(current))
            current = []
            i += 1
        else:
            current.append(ch)
            i += 1
    fields.append("".join(current))
    return fields


def rotate(base: Union[str, Path], keep: int = 3) -> Path:
    """Rotate backup directories like nightly.sh: return the dir to fill.

    ``backup_1`` is always the newest.  Existing ``backup_i`` move to
    ``backup_{i+1}``; the oldest beyond *keep* is removed.
    """
    base = Path(base)
    base.mkdir(parents=True, exist_ok=True)
    oldest = base / f"backup_{keep}"
    if oldest.exists():
        shutil.rmtree(oldest)
    for i in range(keep - 1, 0, -1):
        src = base / f"backup_{i}"
        if src.exists():
            os.rename(src, base / f"backup_{i + 1}")
    newest = base / "backup_1"
    newest.mkdir()
    return newest
