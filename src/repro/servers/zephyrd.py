"""A Zephyr server enforcing per-class ACL files (§5.8.2).

Moira ships "a tar file of ASCII acl files" — for each class, one file
per controlled function (transmit, subscribe, instance-wildcard,
instance-UID), membership one entry per line with recursive lists
already expanded.  ``*.*@*`` means anyone.  The server also carries
notice delivery so the DCM's hard-error zephyrgrams (class MOIRA,
instance DCM) land somewhere observable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hosts.host import SimulatedHost

__all__ = ["ZephyrServer", "Notice"]

ACL_FUNCTIONS = ("xmt", "sub", "iws", "iui")
WILDCARD_ENTRY = "*.*@*"


@dataclass(frozen=True)
class Notice:
    """One delivered zephyrgram."""
    klass: str
    instance: str
    sender: str
    message: str
    when: int


@dataclass
class Subscription:
    """A principal's subscription to a class/instance."""
    principal: str
    klass: str
    instance: str = "*"


class ZephyrServer:
    """ACL-enforcing notice service on one host."""
    def __init__(self, host: SimulatedHost, acl_dir: str = "/etc/zephyr/acl"):
        self.host = host
        self.acl_dir = acl_dir.rstrip("/")
        # acls[class][function] = set of principals (or wildcard)
        self.acls: dict[str, dict[str, set[str]]] = {}
        self.notices: list[Notice] = []
        self.subscriptions: list[Subscription] = []
        self.reloads = 0
        # path -> (the bytes last read from it, the entries they hold)
        self._loaded: dict[str, tuple[bytes, set[str]]] = {}
        host.add_boot_hook(lambda h: self.reload_acls())

    # -- the install step -------------------------------------------------------

    def install_acls(self) -> int:
        """The DCM install command: reload the ACL files that moved."""
        try:
            self._reload(changed_only=True)
        except Exception:
            return 1
        return 0

    def reload_acls(self) -> None:
        """Re-read every .acl file from disk."""
        self._reload(changed_only=False)

    def _reload(self, *, changed_only: bool) -> None:
        """Build the ACL table from the .acl files.  With *changed_only*
        a file whose bytes equal the ones last read keeps its entries;
        an ACL file is an unordered set of a few lines, so a changed (or
        new) one is simply re-read."""
        self.host.check_alive()
        fs = self.host.fs
        files = {path: fs.read(path)
                 for path in fs.listdir(self.acl_dir + "/")
                 if path.endswith(".acl")}
        acls: dict[str, dict[str, set[str]]] = {}
        loaded: dict[str, tuple[bytes, set[str]]] = {}
        for path, data in files.items():
            #  <class>.<function>.acl
            stem = path[len(self.acl_dir) + 1:-4]
            klass, _, function = stem.rpartition(".")
            if function not in ACL_FUNCTIONS:
                klass, function = stem, "xmt"
            old, entries = self._loaded.get(path, (None, None))
            if not (changed_only and (data is old or data == old)):
                entries = {line.strip()
                           for line in data.decode("utf-8").splitlines()
                           if line.strip()}
            acls.setdefault(klass, {})[function] = entries
            loaded[path] = (data, entries)
        self.acls = acls
        self._loaded = loaded
        self.reloads += 1

    # -- authorization ------------------------------------------------------------

    def authorized(self, principal: str, klass: str,
                   function: str = "xmt") -> bool:
        """Is *principal* allowed to perform *function* on *klass*?

        Classes with no ACL on file are uncontrolled (anyone may use
        them) — only "some actions on some classes" are controlled.
        """
        class_acls = self.acls.get(klass)
        if class_acls is None:
            return True
        entries = class_acls.get(function)
        if entries is None:
            return True
        if WILDCARD_ENTRY in entries:
            return True
        return principal in entries or f"{principal}@*" in entries

    # -- messaging -------------------------------------------------------------------

    def subscribe(self, principal: str, klass: str,
                  instance: str = "*") -> bool:
        """Subscribe if the sub ACL allows it."""
        self.host.check_alive()
        if not self.authorized(principal, klass, "sub"):
            return False
        self.subscriptions.append(
            Subscription(principal=principal, klass=klass,
                         instance=instance))
        return True

    def send(self, sender: str, klass: str, instance: str, message: str,
             when: int = 0) -> bool:
        """Deliver a notice if the xmt ACL allows it."""
        self.host.check_alive()
        if not self.authorized(sender, klass, "xmt"):
            return False
        self.notices.append(Notice(klass=klass, instance=instance,
                                   sender=sender, message=message,
                                   when=when))
        return True

    def notices_for(self, klass: str, instance: str = "*") -> list[Notice]:
        """Delivered notices matching class/instance."""
        return [n for n in self.notices
                if n.klass == klass
                and (instance == "*" or n.instance == instance)]
