"""A Hesiod nameserver consuming the BIND-format .db files (§5.8.2).

The file format is the paper's: one record per line,

    name.type   HS UNSPECA "data"
    name.type   HS CNAME   other.type

Comment lines start with ``;``.  "The hesiod server uses these files
from virtual memory on the target machine.  The server automatically
loads the files from disk into memory when it is started" — so
:meth:`start` (boot) reads every ``*.db`` file under the data directory
from the host's VFS, and :meth:`restart` (the DCM's install script
kills and restarts the daemon) reads only the records that moved: a
file whose bytes are unchanged is skipped and a changed one is applied
as a line delta (:mod:`repro.servers.reload`) — the lines the update
daemon spliced, when it was handed them — falling back to the full
read whenever the delta cannot be shown equal to it.
"""

from __future__ import annotations

import shlex
from typing import Optional

from repro.hosts.host import SimulatedHost
from repro.servers.reload import Entry, reload_file

__all__ = ["HesiodServer", "HesiodError"]

HESIOD_FILES = (
    "cluster.db", "filsys.db", "gid.db", "group.db", "grplist.db",
    "passwd.db", "pobox.db", "printcap.db", "service.db", "sloc.db",
    "uid.db",
)


class HesiodError(Exception):
    """Name resolution failure."""


class HesiodServer:
    """In-memory resolver over the shipped .db files."""

    def __init__(self, host: SimulatedHost, data_dir: str = "/etc/hesiod"):
        self.host = host
        self.data_dir = data_dir.rstrip("/")
        # records: name -> list of data strings; cnames: name -> target
        self._records: dict[str, list[str]] = {}
        self._cnames: dict[str, str] = {}
        # path -> the bytes the two tables were parsed from, kept only
        # when that parse defined no CNAME twice (CNAMEs are last-wins,
        # so a shadowed one cannot be diffed): what reload diffs against
        self._loaded: dict[str, bytes] = {}
        self.loads = 0
        self.queries_answered = 0
        self._process = None
        host.add_boot_hook(lambda h: self.start())

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Load every .db file in full and ensure the daemon runs (the
        boot path: a boot hook always full-loads)."""
        self.host.check_alive()
        self._load_all(self._read_files())
        self.loads += 1
        self._ensure_running()

    def restart(self) -> int:
        """The DCM install script: kill the running server and restart,
        "causing the newly updated files to be read into memory" — the
        records that moved (:meth:`reload`)."""
        try:
            if self._process is not None and self._process.running:
                self.host.kill(self._process.pid)
                self._process = None
            self.reload()
            self._ensure_running()
        except Exception:
            return 1
        return 0

    def reload(self) -> None:
        """Bring memory up to the installed files, parsing only what
        moved.  A file added or removed, or a change the line delta
        cannot describe exactly, re-reads everything."""
        self.host.check_alive()
        files = self._read_files()
        handed = {path: self.host.handed.pop(path, None) for path in files}
        if files.keys() != self._loaded.keys() or not all(
                reload_file(self._loaded, path, data, self._entry,
                            handed[path])
                for path, data in files.items()):
            self._load_all(files)
        self.loads += 1

    def _ensure_running(self) -> None:
        if self._process is None or not self._process.running:
            self._process = self.host.spawn(
                "hesiod", on_signal=self._on_signal,
                pid_file="/etc/hesiod.pid")

    def _on_signal(self, signum: int) -> None:
        if signum == 1:  # SIGHUP = reload
            self.reload()

    # -- file parsing -----------------------------------------------------------

    def _read_files(self) -> dict[str, bytes]:
        fs = self.host.fs
        return {path: fs.read(path)
                for path in fs.listdir(self.data_dir + "/")
                if path.endswith(".db")}

    def _load_all(self, files: dict[str, bytes]) -> None:
        records: dict[str, list[str]] = {}
        cnames: dict[str, str] = {}
        defined = 0
        for path, data in files.items():
            for lineno, line in enumerate(data.splitlines(), 1):
                parsed = self._parse(line.decode("utf-8"),
                                     f"{path}:{lineno}")
                if parsed is None:
                    continue
                rtype, name, value = parsed
                if rtype == "CNAME":
                    cnames[name] = value
                    defined += 1
                else:
                    records.setdefault(name, []).append(value)
        self._records, self._cnames = records, cnames
        self._loaded = dict(files) if defined == len(cnames) else {}

    def _entry(self, line: bytes) -> Entry:
        """One line's place in the tables, for the reload delta: a
        record name holds a one-element list (a name with several
        records never matches one, so touching it re-reads in full)."""
        parsed = self._parse(line.decode("utf-8"), self.data_dir)
        if parsed is None:
            return None
        rtype, name, value = parsed
        if rtype == "CNAME":
            return self._cnames, name, value
        return self._records, name, [value]

    def _parse(self, line: str,
               where: str) -> Optional[tuple[str, str, str]]:
        """(type, lowercased name, data) for one record line, or None
        for a blank or comment line."""
        line = line.strip()
        if not line or line.startswith(";"):
            return None
        # the grammar is one record per line with at most one quoted
        # field, always last: "name HS TYPE data" — a bounded split
        # covers it (shlex costs seconds per reload at 10k users);
        # anything irregular (stray quotes, escapes) falls through to
        # shlex below
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[1] == "HS":
            rtype, data = parts[2], parts[3]
            if rtype == "UNSPECA":
                if (len(data) >= 2 and data[0] == '"'
                        and data[-1] == '"'
                        and data.count('"') == 2):
                    return rtype, parts[0].lower(), data[1:-1]
                if '"' not in data and "'" not in data \
                        and "\\" not in data and " " not in data:
                    return rtype, parts[0].lower(), data
            elif rtype == "CNAME":
                if '"' not in data and "'" not in data \
                        and " " not in data:
                    return rtype, parts[0].lower(), data.lower()
        try:
            parts = shlex.split(line)
        except ValueError as exc:
            raise HesiodError(f"{where}: {exc}") from exc
        if len(parts) < 4 or parts[1] != "HS":
            raise HesiodError(f"{where}: malformed record")
        name, rtype, data = parts[0].lower(), parts[2], parts[3]
        if rtype == "UNSPECA":
            return rtype, name, data
        if rtype == "CNAME":
            return rtype, name, data.lower()
        raise HesiodError(f"{where}: type {rtype!r}")

    # -- resolution ----------------------------------------------------------------

    def resolve(self, name: str, hs_type: str,
                *, _depth: int = 0) -> list[str]:
        """hes_resolve(name, type): e.g. resolve("babette", "passwd")."""
        self.host.check_alive()
        if self._process is None or not self._process.running:
            raise HesiodError("hesiod server is not running")
        self.queries_answered += 1
        return self._lookup(f"{name}.{hs_type}".lower())

    def _lookup(self, key: str, _depth: int = 0) -> list[str]:
        if _depth > 8:
            raise HesiodError(f"CNAME loop at {key}")
        if key in self._records:
            return list(self._records[key])
        if key in self._cnames:
            return self._lookup(self._cnames[key], _depth + 1)
        raise HesiodError(f"no such name {key}")

    def record_count(self) -> int:
        """How many records (including CNAMEs) are loaded."""
        return sum(len(v) for v in self._records.values()) + \
            len(self._cnames)

    # -- typed conveniences used by client programs ----------------------------------

    def getpwnam(self, login: str) -> dict:
        """login(1)'s lookup: parse the passwd record into fields."""
        entry = self.resolve(login, "passwd")[0]
        fields = entry.split(":")
        return {
            "login": fields[0], "password": fields[1],
            "uid": int(fields[2]), "gid": int(fields[3]),
            "gecos": fields[4], "home": fields[5], "shell": fields[6],
        }

    def getpwuid(self, uid: int) -> dict:
        """passwd fields via the uid.db CNAME chain."""
        entry = self.resolve(str(uid), "uid")[0]
        fields = entry.split(":")
        return {
            "login": fields[0], "password": fields[1],
            "uid": int(fields[2]), "gid": int(fields[3]),
            "gecos": fields[4], "home": fields[5], "shell": fields[6],
        }

    def get_pobox(self, login: str) -> dict:
        """Parsed pobox record for a login."""
        potype, machine, box = self.resolve(login, "pobox")[0].split()
        return {"type": potype, "machine": machine, "box": box}

    def get_filsys(self, label: str) -> dict:
        """Parsed filsys record for a label."""
        parts = self.resolve(label, "filsys")[0].split()
        return {"fstype": parts[0], "name": parts[1], "server": parts[2],
                "access": parts[3], "mount": parts[4]}
