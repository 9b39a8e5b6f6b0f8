"""Reload what moved: the one line-delta helper every managed server
uses instead of re-parsing a whole installed file.

A server remembers, per file, the bytes its in-memory tables were
built from — and only when that full parse defined every key once.
On install it skips a file whose bytes are unchanged.  For a changed
keyed file it takes the lines that moved from the delta the update
daemon applied, when it was handed one that turned the remembered
bytes into the installed ones (``SimulatedHost.handed``).  Otherwise —
a whole-file push — it finds them: the longest common prefix and
suffix of whole lines, located by binary search over zero-copy
comparisons, leave two short middles.  It splits those into line sets
(the split and the set difference run in C), unparses the removed
lines and parses the added ones.  That equals a full parse only when
the change is describable line by line, so the helper refuses, and the
server re-parses in full, on:

* a line repeated in either middle (a set cannot count it);
* a removed line whose key does not hold exactly that line's value
  (e.g. a Hesiod name with several records, whose order matters);
* an added line whose key is already defined (a duplicate key, or a
  Hesiod name gaining a second record);
* a line the server's entry function refuses (:class:`Undescribable`:
  a sendmail continuation line belongs to the alias above it).

A line repeated elsewhere in the file needs no check of its own: the
remembered tables define every key once, so removing or adding a copy
of a line outside the middles trips one of the key checks above.  What
a server cannot describe line by line at all — sendmail continuation
lines, a file added or removed, first load, a reboot — never reaches
the helper: the server parses in full.  Both paths split lines the
same way, with ``bytes.splitlines``.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

__all__ = ["Entry", "Undescribable", "load_file", "reload_file"]

#: where one line lives in a server's tables: (table, key, value), or
#: None for a line that defines nothing (comment, blank)
Entry = Optional[tuple[dict, Hashable, object]]

_MISSING = object()


class Undescribable(Exception):
    """Raised by an entry function for a line whose meaning depends on
    the lines around it: the delta is refused and the file re-parsed."""


def load_file(loaded: dict[str, bytes], path: str, data: bytes,
              entry: Callable[[bytes], Entry]) -> dict:
    """Parse *data* in full into a new table (a later line defining a
    key again wins) and return it; *loaded* records *data* for the
    next delta only when every key was defined once."""
    loaded.pop(path, None)
    table: dict = {}
    defined = 0
    for line in data.splitlines():
        found = entry(line)
        if found is not None:
            table[found[1]] = found[2]
            defined += 1
    if defined == len(table):
        loaded[path] = data
    return table


def reload_file(loaded: dict[str, bytes], path: str, data: bytes,
                entry: Callable[[bytes], Entry],
                handed: Optional[tuple] = None) -> bool:
    """Move *path*'s tables from the bytes in *loaded* to *data*.

    *handed* is the update daemon's ``(base, staged, FileDelta)`` for
    *path*: when it took the remembered bytes to *data*, its removed
    and added lines are the delta; otherwise the two are diffed.
    True when the tables now equal a full parse of *data* (nothing
    moved, or the line delta applied) and *loaded* records *data*.
    False when the caller must parse in full: no usable previous
    bytes, or a delta the set difference cannot describe exactly.  A
    refused or failed delta (*entry* raising on a malformed line)
    leaves *path* out of *loaded*, so the next reload is a full one.
    """
    old = loaded.get(path)
    if old is None:
        return False
    if data is old or data == old:
        return True
    del loaded[path]
    if handed is not None and handed[1] is data and (
            handed[0] is old or handed[0] == old):
        old_lines, new_lines = handed[2].lines(old)
    else:
        old_middle, new_middle = _middles(old, data)
        old_lines = old_middle.splitlines()
        new_lines = new_middle.splitlines()
    old_set, new_set = set(old_lines), set(new_lines)
    if len(old_set) != len(old_lines) or len(new_set) != len(new_lines):
        return False
    try:
        for line in old_set - new_set:
            found = entry(line)
            if found is not None:
                table, key, value = found
                if table.get(key, _MISSING) != value:
                    return False
                del table[key]
        for line in new_set - old_set:
            found = entry(line)
            if found is not None:
                table, key, value = found
                if key in table:
                    return False
                table[key] = value
    except Undescribable:
        return False
    loaded[path] = data
    return True


def _middles(old: bytes, new: bytes) -> tuple[bytes, bytes]:
    """*old* and *new* without their longest common prefix and suffix
    of whole lines.  Each binary-search probe is one memcmp against a
    memoryview of *new*; the cut points are newlines inside the common
    parts, so they fall on line boundaries in both versions."""
    view = memoryview(new)
    low, high = 0, min(len(old), len(new))
    while low < high:                      # longest common prefix
        mid = (low + high + 1) // 2
        if old.startswith(view[:mid]):
            low = mid
        else:
            high = mid - 1
    start = old.rfind(b"\n", 0, low) + 1
    low, high = 0, min(len(old), len(new)) - start
    while low < high:                      # longest common suffix after it
        mid = (low + high + 1) // 2
        if old.endswith(view[len(new) - mid:]):
            low = mid
        else:
            high = mid - 1
    cut = old.find(b"\n", len(old) - low)
    tail = 0 if cut < 0 else len(old) - cut - 1
    return old[start:len(old) - tail], new[start:len(new) - tail]
