"""The server side of the Moira-to-server update protocol (§5.9).

Strategy, as the paper specifies:

A. **Transfer phase** — authenticate, receive the data file (with
   checksum) stored as ``<target>.moira_update``, receive the install
   script into a temporary file, flush everything to disk.

B. **Execution phase** — on a single command, run the instruction
   sequence: extract needed members from the tar file one at a time
   (or build one from the file on disk and a delta member), swap files
   in with atomic renames, optionally revert, signal a process via its
   pid file, or execute a supplied command.

C. **Confirm** — report success or the error number back to the DCM.

The install *script* is an :class:`InstallScript` — an ordered list of
the five instruction kinds from §5.9 B plus ``patch``, which stages a
file from a :class:`FileDelta` member.  Scripts are serialised to a
plain-text format so they really are "transferred to the server" and
"stored in a temporary file" rather than passed as live objects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.errors import (
    MoiraError,
    MR_CHECKSUM,
    MR_OCONFIG,
    MR_SCRIPT_FAILED,
    MR_TAR_FAIL,
)
from repro.hosts.host import HostDown, SimulatedHost

__all__ = ["UpdateDaemon", "InstallScript", "FileDelta", "Splice",
           "checksum", "splice", "make_tar", "read_tar"]

#: one byte splice: ``old[start:end]`` is replaced by the bytes
Splice = tuple[int, int, bytes]


def checksum(data: bytes) -> str:
    """The file-transfer integrity check (§5.9 A.2), also the content
    hash a delta member names its base and result by."""
    return hashlib.sha256(data).hexdigest()


def splice(data: bytes, splices: Iterable[Splice]) -> bytes:
    """*data* with each ``(start, end, new)`` of *splices* (ascending,
    non-overlapping, offsets into *data*) applied: one join of
    zero-copy slices."""
    view = memoryview(data)
    pieces, at = [], 0
    for start, end, new in splices:
        if not at <= start <= end <= len(data):
            raise ValueError(f"splice {start}:{end} out of order")
        pieces += (view[at:start], new)
        at = end
    pieces.append(view[at:])
    return b"".join(pieces)


@dataclass(frozen=True)
class FileDelta:
    """A delta member: the splices that turn the file whose SHA-256 is
    *base* into the one whose SHA-256 is *digest*.

    On the wire it is a header line ``moira-delta 1 <base> <digest>
    <count>`` and, per splice, a line ``<start> <end> <length>``
    followed by *length* raw bytes.
    """

    base: str
    digest: str
    splices: tuple[Splice, ...]

    MAGIC = b"moira-delta 1"

    def encode(self) -> bytes:
        """The member's bytes."""
        out = [b"%s %s %s %d\n" % (self.MAGIC, self.base.encode(),
                                    self.digest.encode(),
                                    len(self.splices))]
        for start, end, new in self.splices:
            out += (b"%d %d %d\n" % (start, end, len(new)), new)
        return b"".join(out)

    @classmethod
    def decode(cls, blob: bytes) -> "FileDelta":
        """Parse :meth:`encode`'s bytes; ValueError when malformed."""
        at = blob.index(b"\n") + 1
        head = blob[:at].split()
        if len(head) != 5 or b" ".join(head[:2]) != cls.MAGIC:
            raise ValueError("not a delta member")
        splices = []
        for _ in range(int(head[4])):
            end_of_line = blob.index(b"\n", at)
            start, end, size = map(int, blob[at:end_of_line].split())
            at = end_of_line + 1 + size
            if at > len(blob):
                raise ValueError("truncated delta member")
            splices.append((start, end, blob[end_of_line + 1:at]))
        if at != len(blob):
            raise ValueError("trailing bytes after the splices")
        return cls(head[2].decode(), head[3].decode(), tuple(splices))

    def lines(self, base: bytes) -> tuple[list[bytes], list[bytes]]:
        """(removed lines, added lines) when applied to *base* — what a
        server reloads from instead of diffing the two versions."""
        view = memoryview(base)
        removed = b"".join([view[start:end]
                            for start, end, _ in self.splices])
        added = b"".join([new for _, _, new in self.splices])
        return removed.splitlines(), added.splitlines()


# -- the payload: a plain ustar archive ---------------------------------------

#: a tar block: headers and padded member data are whole blocks
BLOCK = 512
_ZERO = bytes(BLOCK)
_END = 2 * _ZERO                # the end-of-archive marker
_MAGIC = b"ustar\x0000"         # POSIX magic and version, at offset 257
_LIMIT = 8 ** 11                # an 11-digit octal field holds less


def _header(name: str, size: int, mtime: int) -> bytes:
    """The ustar header ``tarfile`` writes for a regular file of *size*
    bytes: mode 0644, owner 0:0, no user or group name."""
    raw = name.encode("ascii")
    if not 0 < len(raw) <= 100 or b"\0" in raw:
        raise ValueError(f"{name!r}: a ustar name is 1-100 bytes")
    if not (0 <= size < _LIMIT and 0 <= mtime < _LIMIT):
        raise ValueError(f"{name!r}: size or mtime out of ustar range")
    head = b"".join((raw.ljust(100, b"\0"), b"0000644\0", b"0000000\0",
                     b"0000000\0", b"%011o\0" % size, b"%011o\0" % mtime,
                     b" " * 8, b"0", bytes(100), _MAGIC)).ljust(BLOCK, b"\0")
    return head[:148] + b"%06o\0" % sum(head) + head[155:]


def make_tar(files: dict[str, bytes], mtime: int = 0) -> bytes:
    """Deterministic tar of *files* (the §5.8 "tar file of several
    BIND files" / "tar file of ASCII acl files" data format): per
    member a ustar header and the data padded to 512-byte blocks, then
    two zero blocks — the bytes ``tarfile`` writes, without padding
    the archive out to a 10 kB record, so a payload of one small delta
    member stays small.  A name plain ustar cannot hold (not ASCII,
    over 100 bytes) raises ValueError here, before any host sees it."""
    out = []
    for name in sorted(files):
        data = files[name]
        out += (_header(name, len(data), mtime), data,
                bytes(-len(data) % BLOCK))
    out.append(_END)
    return b"".join(out)


def read_tar(blob: bytes) -> dict[str, bytes]:
    """Member name -> bytes of an archive :func:`make_tar` wrote, read
    from its headers; ValueError for anything else — a short block, a
    bad header checksum, a member that is not a regular file (a PAX
    record, a link), a missing end-of-archive block."""
    members, at = {}, 0
    while True:
        head = blob[at:at + BLOCK]
        if len(head) < BLOCK:
            raise ValueError("truncated header")
        if head == _ZERO:
            if blob[at:] != _END:
                raise ValueError("no end-of-archive block")
            return members
        if head[257:265] != _MAGIC or head[156] != ord("0"):
            raise ValueError("not a ustar regular file")
        size, check = int(head[124:135], 8), int(head[148:154], 8)
        if check != sum(head[:148]) + sum(head[156:]) + 8 * ord(" "):
            raise ValueError("bad header checksum")
        at += BLOCK
        if not 0 <= size <= len(blob) - at:
            raise ValueError("truncated member")
        members[head[:100].rstrip(b"\0").decode("ascii")] = \
            blob[at:at + size]
        at += size + (-size % BLOCK)


@dataclass
class InstallScript:
    """§5.9 B: the installation instruction sequence — the paper's five
    instruction kinds, plus ``patch`` beside ``extract`` for a member
    that carries a delta instead of the whole file.

    Each step is ``(op, args...)``:

    * ``("extract", member)`` — pull one member out of the tar file
    * ``("patch", member)`` — stage ``member.moira_update`` from the
      file on disk and the :class:`FileDelta` member, only when the
      file's SHA-256 is the delta's base (else MR_CHECKSUM, which the
      DCM classifies soft: the host keeps its file and its next push
      is a whole one); a file this step staged is not hashed again
      while it is the object on disk
    * ``("install", filename)`` — fsync the staged bytes, then
      atomically rename ``filename.moira_update`` over ``filename``
    * ``("revert", filename)`` — put the saved old file back
    * ``("signal", pid_file, signum)`` — signal the process whose pid
      is recorded in *pid_file*
    * ``("exec", command)`` — run a registered command by name
    """

    steps: list[tuple] = field(default_factory=list)

    def extract(self, member: str) -> "InstallScript":
        """Append an extract step."""
        self.steps.append(("extract", member))
        return self

    def patch(self, member: str) -> "InstallScript":
        """Append a stage-from-delta step."""
        self.steps.append(("patch", member))
        return self

    def install(self, filename: str) -> "InstallScript":
        """Append an atomic-install step."""
        self.steps.append(("install", filename))
        return self

    def revert(self, filename: str) -> "InstallScript":
        """Append a revert step."""
        self.steps.append(("revert", filename))
        return self

    def signal(self, pid_file: str, signum: int = 1) -> "InstallScript":
        """Append a signal-via-pid-file step."""
        self.steps.append(("signal", pid_file, str(signum)))
        return self

    def execute(self, command: str) -> "InstallScript":
        """Append an execute-command step."""
        self.steps.append(("exec", command))
        return self

    def serialize(self) -> bytes:
        """The script as the on-the-wire text format."""
        lines = ["\t".join(step) for step in self.steps]
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def deserialize(cls, blob: bytes) -> "InstallScript":
        """Parse a script serialised by serialize()."""
        script = cls()
        for line in blob.decode("utf-8").splitlines():
            if line.strip():
                script.steps.append(tuple(line.split("\t")))
        return script


class _StagedTar:
    """The staged tar file of one execution, parsed once — at the first
    extract step — however many members the script extracts from it."""

    def __init__(self, fs, path: str):
        self._fs = fs
        self._path = path
        self._members: Optional[dict[str, bytes]] = None

    def member(self, name: str) -> bytes:
        """One member's bytes; MR_TAR_FAIL if the payload is missing or
        is not an archive :func:`make_tar` writes, or does not hold
        *name*."""
        if self._members is None:
            try:
                self._members = read_tar(self._fs.read(self._path))
            except (ValueError, FileNotFoundError) as exc:
                raise MoiraError(MR_TAR_FAIL, f"{name}: {exc}") from exc
        try:
            return self._members[name]
        except KeyError:
            raise MoiraError(MR_TAR_FAIL, f"{name}: not in the payload") \
                from None


class UpdateDaemon:
    """Runs on each managed host; executes DCM updates."""

    SCRIPT_TEMP = "/tmp/moira_install_script"

    def __init__(self, host: SimulatedHost, faults=None):
        self.host = host
        # optional FaultInjector; adds the ``daemon.receive_file``,
        # ``daemon.execute``, and per-instruction ``daemon.step`` points
        self.faults = faults
        self.authenticated_peer: Optional[str] = None
        # "Execute a supplied command" — commands are registered by the
        # services living on this host (e.g. restart_hesiod).
        self.commands: dict[str, Callable[[], int]] = {}
        self.updates_received = 0
        self.installs_executed = 0
        # simulated per-operation response time in seconds; a wedged
        # host answers slowly without being down (§5.9 A: "a timeout is
        # used in both sides of the connection")
        self.response_delay = 0
        host.spawn("moira_update_daemon")

    def register_command(self, name: str, fn: Callable[[], int]) -> None:
        """Expose *fn* to install scripts under *name*."""
        self.commands[name] = fn

    # -- transfer phase -----------------------------------------------------------

    def authenticate(self, principal: str) -> None:
        """§5.9.2: Kerberos verifies both ends at connection set-up."""
        self.host.check_alive()
        self.authenticated_peer = principal

    def receive_file(self, target: str, data: bytes, digest: str) -> None:
        """A.2: store the transferred file as <target>.moira_update.

        Checksum mismatch (network damage) raises MR_CHECKSUM; the DCM
        treats it as a soft failure and retries later.
        """
        self.host.check_alive()
        if self.faults is not None:
            self.faults.fire("daemon.receive_file", host=self.host.name,
                             target=target)
        if self.authenticated_peer is None:
            raise MoiraError(MR_OCONFIG, "transfer before authentication")
        if checksum(data) != digest:
            raise MoiraError(MR_CHECKSUM, target)
        self.host.fs.write(target + ".moira_update", data)

    def receive_script(self, script_blob: bytes) -> None:
        """A.3: the instruction sequence lands in a temporary file."""
        self.host.check_alive()
        if self.authenticated_peer is None:
            raise MoiraError(MR_OCONFIG, "transfer before authentication")
        self.host.fs.write(self.SCRIPT_TEMP, script_blob)

    def flush(self) -> None:
        """A.4: flush all data on the server to disk."""
        self.host.fsync()
        self.updates_received += 1

    # -- execution phase -------------------------------------------------------------

    def execute(self, target: str) -> int:
        """B: run the staged instruction sequence; returns exit status.

        Zero is success, anything else is the error number — exactly the
        contract the DCM records in the serverhosts relation.
        """
        self.host.check_alive()
        if self.faults is not None:
            self.faults.fire("daemon.execute", host=self.host.name,
                             target=target)
        try:
            blob = self.host.fs.read(self.SCRIPT_TEMP)
        except FileNotFoundError:
            return MR_OCONFIG
        script = InstallScript.deserialize(blob)
        payload = _StagedTar(self.host.fs, target + ".moira_update")
        try:
            for index, step in enumerate(script.steps):
                if self.faults is not None:
                    self.faults.fire("daemon.step", host=self.host.name,
                                     op=step[0], index=index)
                self._run_step(step, payload)
        except MoiraError as exc:
            return exc.code
        except HostDown:
            raise  # the machine died mid-install; the DCM sees a timeout
        except Exception:
            return MR_SCRIPT_FAILED
        self.host.fsync()
        self.installs_executed += 1
        return 0

    def _run_step(self, step: tuple, payload: _StagedTar) -> None:
        fs = self.host.fs
        op = step[0]
        if op == "extract":
            member = step[1]
            # "only the ones that are needed are extracted one at a time"
            fs.write(member + ".moira_update", payload.member(member))
        elif op == "patch":
            self._patch(step[1], payload)
        elif op == "install":
            filename = step[1]
            staged = filename + ".moira_update"
            if not fs.exists(staged):
                raise MoiraError(MR_TAR_FAIL, f"missing {staged}")
            # the staged bytes are durable before the old file moves
            # (a durable rename is durable at once), so a crash from
            # here on reboots with the new file, never with none
            self.host.fsync()
            if fs.exists(filename):
                # keep the old file for a possible revert
                fs.rename(filename, filename + ".moira_old")
            fs.rename(staged, filename)
        elif op == "revert":
            filename = step[1]
            old = filename + ".moira_old"
            if not fs.exists(old):
                raise MoiraError(MR_OCONFIG, f"nothing to revert for "
                                             f"{filename}")
            fs.rename(old, filename)
        elif op == "signal":
            pid_file, signum = step[1], int(step[2])
            try:
                self.host.signal_pid_file(pid_file, signum)
            except (FileNotFoundError, ProcessLookupError) as exc:
                raise MoiraError(MR_SCRIPT_FAILED,
                                 f"signal {pid_file}") from exc
        elif op == "exec":
            command = step[1]
            fn = self.commands.get(command)
            if fn is None:
                raise MoiraError(MR_SCRIPT_FAILED,
                                 f"unknown command {command!r}")
            status = fn()
            if status:
                raise MoiraError(MR_SCRIPT_FAILED,
                                 f"{command} exited {status}")
        else:
            raise MoiraError(MR_OCONFIG, f"unknown op {op!r}")

    def _patch(self, member: str, payload: _StagedTar) -> None:
        """Stage *member* from the file on disk plus the delta member,
        and leave the delta for the servers' reload (``host.handed``)."""
        fs = self.host.fs
        try:
            delta = FileDelta.decode(payload.member(member))
        except ValueError as exc:
            raise MoiraError(MR_TAR_FAIL, f"{member}: {exc}") from exc
        try:
            base = fs.read(member)
        except FileNotFoundError:
            raise MoiraError(MR_CHECKSUM, f"{member}: no base") from None
        if self._digest(member, base) != delta.base:
            raise MoiraError(MR_CHECKSUM, f"{member}: base mismatch")
        try:
            data = splice(base, delta.splices)
        except ValueError as exc:
            raise MoiraError(MR_TAR_FAIL, f"{member}: {exc}") from exc
        fs.write(member + ".moira_update", data)
        # a verified base plus splices that came under the transfer
        # checksum: *data* is the DCM's file, named by the delta's digest
        self.host.digests[member] = (data, delta.digest)
        self.host.handed[member] = (base, data, delta)

    def _digest(self, path: str, data: bytes) -> str:
        """SHA-256 of *data*, the file at *path*: the digest recorded for
        it while the VFS still holds the recorded object — a write,
        unlink, revert or crash rollback puts another one there, a
        rename carries it — else a hash, which is then recorded."""
        known = self.host.digests.get(path)
        if known is not None and known[0] is data:
            return known[1]
        digest = checksum(data)
        self.host.digests[path] = (data, digest)
        return digest

    # -- crash-recovery housekeeping ----------------------------------------------

    def cleanup_stale_update(self, target: str) -> bool:
        """§5.9 B: "the existing filename.moira_update file will be
        deleted (as it may be incomplete) when the next update starts".
        Returns True if a stale file was removed."""
        staged = target + ".moira_update"
        if self.host.fs.exists(staged):
            self.host.fs.unlink(staged)
            return True
        return False
