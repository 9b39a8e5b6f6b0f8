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
from pathlib import Path
from typing import Union

from repro.db.engine import Database

__all__ = ["mrbackup", "mrrestore", "rotate", "escape_field", "unescape_field"]


def escape_field(value: str) -> str:
    """Escape one field for the colon-separated dump format."""
    out = []
    for ch in value:
        if ch == ":":
            out.append("\\:")
        elif ch == "\\":
            out.append("\\\\")
        elif not ch.isprintable() or ch == "\n":
            # Non-printing characters become \nnn octal escapes; anything
            # beyond ASCII (outside the 1988 format) is stored as the
            # octal escapes of its UTF-8 bytes.
            out.extend(f"\\{byte:03o}" for byte in ch.encode("utf-8"))
        else:
            out.append(ch)
    return "".join(out)


def unescape_field(value: str) -> str:
    """Invert escape_field()."""
    out = bytearray()
    i = 0
    while i < len(value):
        ch = value[i]
        if ch != "\\":
            out.extend(ch.encode("utf-8"))
            i += 1
            continue
        nxt = value[i + 1]
        if nxt == ":":
            out.append(ord(":"))
            i += 2
        elif nxt == "\\":
            out.append(ord("\\"))
            i += 2
        else:
            out.append(int(value[i + 1:i + 4], 8))
            i += 4
    return out.decode("utf-8")


def mrbackup(db: Database, directory: Union[str, Path]) -> dict[str, int]:
    """Dump every relation of *db* into *directory*; returns bytes written.

    One file per relation, one line per row, colon-separated escaped
    fields followed by a newline (ASCII 10), per the paper.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sizes: dict[str, int] = {}
    # a dump only reads; shared mode lets queries keep flowing while
    # the nightly backup walks the relations
    with db.read_locked():
        for name, table in sorted(db.tables.items()):
            path = directory / name
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                for row in table.rows:
                    fields = [escape_field(str(row[col]))
                              for col in table.columns]
                    fh.write(":".join(fields))
                    fh.write("\n")
            sizes[name] = path.stat().st_size
    return sizes


def mrrestore(db: Database, directory: Union[str, Path]) -> dict[str, int]:
    """Load a backup from *directory* into *db*, wiping current contents.

    The paper's mrrestore works on an *empty* database created from the
    schema definition; here the caller passes a fresh (or to-be-wiped)
    Database built by ``build_database`` and we clear each relation
    before loading.  Returns rows loaded per relation.
    """
    directory = Path(directory)
    counts: dict[str, int] = {}
    with db.lock:
        for name, table in db.tables.items():
            path = directory / name
            table.clear()
            if not path.exists():
                counts[name] = 0
                continue
            loaded = 0
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.rstrip("\n")
                    if not line and len(table.columns) > 1:
                        continue
                    fields = _split_escaped(line)
                    if len(fields) != len(table.columns):
                        raise ValueError(
                            f"{name}: expected {len(table.columns)} fields, "
                            f"got {len(fields)}: {line!r}"
                        )
                    values = {
                        col: unescape_field(field)
                        for col, field in zip(table.columns, fields)
                    }
                    table.insert(values)
                    loaded += 1
            # restoring is not user modification; zero the counters back out
            table.stats.appends -= loaded
            counts[name] = loaded
    return counts


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
