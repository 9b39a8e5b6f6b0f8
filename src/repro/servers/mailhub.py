"""The mail hub (ATHENA.MIT.EDU) consuming /usr/lib/aliases (§5.8.2).

The aliases file is standard sendmail format: ``name: addr, addr, ...``
with continuation lines starting with whitespace and ``#`` comments.
The hub resolves an address by expanding aliases recursively (with
loop protection) down to addresses containing ``@`` or plain local
names.  A second shipped file is a complete /etc/passwd "so that the
finger server on the mailhub will know about everybody".

:meth:`reload` (boot) parses both files in full; :meth:`install_aliases`
(the DCM's install command) applies each changed file as a line delta
(:mod:`repro.servers.reload`, from the lines the update daemon spliced
when it was handed them) — except an aliases file with continuation
lines, whose lines belong to the alias above them and are re-parsed in
full: a full parse that met one is not remembered, and a delta adding
one is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hosts.host import SimulatedHost
from repro.servers.reload import Entry, Undescribable, load_file, reload_file

__all__ = ["MailHub", "DeliveryResult"]


@dataclass
class DeliveryResult:
    """Where a message went (or that it bounced)."""
    recipient: str
    resolved: list[str] = field(default_factory=list)
    bounced: bool = False


def _continued(data: bytes) -> bool:
    """Does a sendmail file carry continuation lines?"""
    return (b"\n " in data or b"\n\t" in data
            or data.startswith((b" ", b"\t")))


class MailHub:
    """Alias expansion + finger lookups on the mail hub host."""

    def __init__(self, host: SimulatedHost,
                 aliases_path: str = "/usr/lib/aliases",
                 passwd_path: str = "/etc/passwd"):
        self.host = host
        self.aliases_path = aliases_path
        self.passwd_path = passwd_path
        self.aliases: dict[str, list[str]] = {}
        self.passwd: dict[str, dict] = {}
        self.reloads = 0
        self.spool_enabled = True
        # path -> the bytes last parsed from it (see reload_file)
        self._loaded: dict[str, bytes] = {}
        host.add_boot_hook(lambda h: self.reload())

    # -- the install step -----------------------------------------------------

    def install_aliases(self) -> int:
        """§5.8.2 Mail: "this file is not automatically installed ...
        because the mail spool must be disabled during the switchover."
        The install command disables the spool, reloads what moved,
        re-enables."""
        try:
            self.spool_enabled = False
            self._reload(delta=True)
            self.spool_enabled = True
        except Exception:
            return 1
        return 0

    def reload(self) -> None:
        """Re-read the aliases and passwd files from disk in full."""
        self._reload(delta=False)

    def _reload(self, *, delta: bool) -> None:
        self.host.check_alive()
        fs = self.host.fs
        for path, attr, entry in (
                (self.aliases_path, "aliases", self._alias),
                (self.passwd_path, "passwd", self._passwd_entry)):
            if not fs.exists(path):
                continue
            data = fs.read(path)
            handed = self.host.handed.pop(path, None)
            if not (delta and reload_file(self._loaded, path, data, entry,
                                          handed)):
                self._load(path, attr, data)
        self.reloads += 1

    def _load(self, path: str, attr: str, data: bytes) -> None:
        """Parse *path* in full.  An aliases file is remembered for the
        next delta only when every name was defined once and no line
        continues the one above it."""
        if attr == "passwd":
            self.passwd = load_file(self._loaded, path, data,
                                    self._passwd_entry)
            return
        self._loaded.pop(path, None)
        self.aliases, defined = self._parse_aliases(data)
        if defined == len(self.aliases) and not _continued(data):
            self._loaded[path] = data

    @staticmethod
    def _parse_aliases(data: bytes) -> tuple[dict[str, list[str]], int]:
        """(name -> addresses, number of alias definitions)."""
        aliases: dict[str, list[str]] = {}
        current: str | None = None
        defined = 0
        for line in data.splitlines():
            raw = line.decode("utf-8")
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            if raw[0] in " \t":
                if current is None:
                    raise ValueError("continuation without an alias")
                aliases[current].extend(
                    a.strip() for a in raw.strip().split(",") if a.strip())
                continue
            name, _, rest = raw.partition(":")
            current = name.strip().lower()
            aliases[current] = [a.strip() for a in rest.split(",")
                                if a.strip()]
            defined += 1
        return aliases, defined

    def _alias(self, line: bytes) -> Entry:
        raw = line.decode("utf-8")
        if not raw.strip() or raw.lstrip().startswith("#"):
            return None
        if raw[0] in " \t":
            # a continuation belongs to the alias above it
            raise Undescribable(raw)
        name, _, rest = raw.partition(":")
        return self.aliases, name.strip().lower(), [
            a.strip() for a in rest.split(",") if a.strip()]

    def _passwd_entry(self, line: bytes) -> Entry:
        text = line.decode("utf-8")
        if not text.strip():
            return None
        fields = text.split(":")
        return self.passwd, fields[0], {
            "login": fields[0], "uid": int(fields[2]),
            "gid": int(fields[3]), "gecos": fields[4],
            "home": fields[5], "shell": fields[6],
        }

    # -- delivery -----------------------------------------------------------------

    def resolve(self, address: str, *, _depth: int = 0,
                _seen: set | None = None) -> list[str]:
        """Expand *address* to final delivery addresses."""
        self.host.check_alive()
        if not self.spool_enabled:
            raise RuntimeError("mail spool is disabled")
        if _seen is None:
            _seen = set()
        address = address.strip().lower()
        if "@" in address:
            return [address]
        if address in _seen:
            return []  # alias loop: already expanding this name
        _seen.add(address)
        targets = self.aliases.get(address)
        if targets is None:
            return [address]  # local user (or bounce, caller decides)
        out: list[str] = []
        for target in targets:
            out.extend(self.resolve(target, _depth=_depth + 1,
                                    _seen=_seen))
        return out

    def deliver(self, address: str) -> DeliveryResult:
        """Resolve an address; bounced when expansion is empty."""
        resolved = self.resolve(address)
        result = DeliveryResult(recipient=address, resolved=resolved)
        if not resolved:
            result.bounced = True
        return result

    # -- finger ---------------------------------------------------------------------

    def finger(self, login: str) -> dict | None:
        """The finger server "will know about everybody" via /etc/passwd."""
        self.host.check_alive()
        return self.passwd.get(login)
