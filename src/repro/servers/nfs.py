"""An NFS locker server consuming credentials/quotas/directories (§5.8.2).

Moira ships three files: ``credentials`` (username:uid:gid... mappings
controlling access), a per-partition ``quotas`` file (uid and quota
tuples), and a ``directories`` file (name, owning uid/gid, locker
type).  The shell script Moira executes after installing them performs
"mkdir <username>, chown, chgrp, chmod — using directories file;
setquota <quota> — using quotas file"; :meth:`apply_update` is that
script.  It reads only what moved (:mod:`repro.servers.reload`): an
unchanged file is skipped, a changed ``credentials`` or ``quotas`` is
applied as a line delta (the lines the update daemon spliced, when it
was handed them), and only the added lines of ``directories`` can
create a locker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.hosts.host import SimulatedHost
from repro.servers.reload import Entry, load_file, reload_file

__all__ = ["NFSServer", "Credential"]

# init files loaded into a HOMEDIR locker (the "default init files")
HOMEDIR_INIT_FILES = (".cshrc", ".login", ".logout")


@dataclass(frozen=True, slots=True)
class Credential:
    """One credentials-file line: login, uid, group ids."""
    login: str
    uid: int
    gids: tuple[int, ...]


class NFSServer:
    """One NFS server host with one or more exported partitions."""

    def __init__(self, host: SimulatedHost, partitions: list[str],
                 data_dir: str = "/etc/nfs"):
        self.host = host
        self.partitions = list(partitions)
        self.data_dir = data_dir.rstrip("/")
        self.credentials: dict[str, Credential] = {}
        self.quotas: dict[int, int] = {}      # uid -> quota units
        self.lockers_created: list[str] = []
        self.updates_applied = 0
        # path -> the bytes last applied from it (see reload_file)
        self._loaded: dict[str, bytes] = {}
        host.add_boot_hook(lambda h: self.load_credentials())

    # -- the install script ---------------------------------------------------

    def apply_update(self) -> int:
        """The Moira shell script run after file installation.

        Reads the freshly installed credentials, quotas, and
        directories files and converges the host: missing lockers are
        created with ownership/mode, HOMEDIR lockers get init files,
        and per-uid quotas are set.  Idempotent — "extra installations
        are not harmful" (§5.9).
        """
        try:
            self._load("credentials", self._credential, delta=True)
            self._load("quotas", self._quota, delta=True)
            self._apply_directories()
        except Exception:
            return 1
        self.updates_applied += 1
        return 0

    def load_credentials(self) -> None:
        """Parse the installed credentials file in full."""
        self._load("credentials", self._credential, delta=False)

    def _load(self, name: str, entry: Callable[[bytes], Entry], *,
              delta: bool) -> None:
        """Bring the table *name* (``credentials`` or ``quotas``) up to
        its installed file: as a line delta when *delta* and the delta
        is exact, else by a full parse."""
        path = f"{self.data_dir}/{name}"
        if not self.host.fs.exists(path):
            return
        data = self.host.fs.read(path)
        handed = self.host.handed.pop(path, None)
        if not (delta and reload_file(self._loaded, path, data, entry,
                                      handed)):
            setattr(self, name, load_file(self._loaded, path, data, entry))

    def _credential(self, line: bytes) -> Entry:
        text = line.decode().strip()
        if not text:
            return None
        fields = text.split(":")
        return self.credentials, fields[0], Credential(
            login=fields[0], uid=int(fields[1]),
            gids=tuple(map(int, fields[2:])))

    def _quota(self, line: bytes) -> Entry:
        line = line.strip()
        if not line:
            return None
        uid, quota = line.split()
        return self.quotas, int(uid), int(quota)

    def _apply_directories(self) -> None:
        """Create the lockers the directories file names that do not
        exist yet.  Lockers are never removed, so once a version of the
        file has been applied only its successor's added lines can
        create anything."""
        path = f"{self.data_dir}/directories"
        fs = self.host.fs
        if not fs.exists(path):
            return
        data = fs.read(path)
        old = self._loaded.get(path)
        if old is data or old == data:
            return      # this very file is applied: nothing can be new
        self._loaded.pop(path, None)
        lines = data.splitlines()
        if old is not None:
            applied = set(old.splitlines())
            lines = [line for line in lines if line not in applied]
        for line in lines:
            line = line.decode().strip()
            if not line:
                continue
            directory, uid, gid, lockertype = line.split()
            if fs.isdir(directory):
                continue  # "If the directory does not already exist"
            fs.mkdir(directory, owner_uid=int(uid), group_gid=int(gid),
                     mode=0o755)
            if lockertype == "HOMEDIR":
                for init_file in HOMEDIR_INIT_FILES:
                    fs.write(f"{directory}/{init_file}",
                             f"# default {init_file}\n".encode())
            fs.fsync()
            self.lockers_created.append(directory)
        self._loaded[path] = data

    # -- NFS access checks -----------------------------------------------------------

    def access_allowed(self, login: str) -> bool:
        """The credentials file "determines access permissions"."""
        self.host.check_alive()
        return login in self.credentials

    def quota_for(self, uid: int) -> int:
        """The enforced quota for a uid (0 = none)."""
        self.host.check_alive()
        return self.quotas.get(uid, 0)

    def locker_exists(self, directory: str) -> bool:
        """Has the locker directory been created?"""
        return self.host.fs.isdir(directory)
