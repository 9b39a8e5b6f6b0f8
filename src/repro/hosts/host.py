"""Simulated server hosts: processes, crashes, reboots.

A host runs named processes (the Hesiod daemon, the update daemon...).
Crashing a host loses unsynced filesystem data and stops all processes;
rebooting restarts registered services through their boot hooks —
"normal system startup procedures should take care of any followup
operations" (§5.9 trouble recovery B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.hosts.vfs import VirtualFileSystem

__all__ = ["SimulatedHost", "HostDown", "Process"]


class HostDown(Exception):
    """Raised when an operation touches a crashed host."""


@dataclass
class Process:
    """A running program on a simulated host."""
    name: str
    pid: int
    on_signal: Optional[Callable[[int], None]] = None
    running: bool = True
    signals_received: list[int] = field(default_factory=list)

    def signal(self, signum: int) -> None:
        """Deliver a signal number to the process."""
        self.signals_received.append(signum)
        if self.on_signal is not None:
            self.on_signal(signum)


class SimulatedHost:
    """One managed machine: VFS + processes + crash/boot lifecycle."""

    def __init__(self, name: str):
        self.name = name.upper()
        self.fs = VirtualFileSystem()
        self.alive = True
        self.boot_count = 1
        self.processes: dict[int, Process] = {}
        self._next_pid = 100
        self._boot_hooks: list[Callable[["SimulatedHost"], None]] = []
        # fault injection: crash after N more fs syncs (None = never)
        self._crash_after_syncs: Optional[int] = None
        # path -> (base bytes, staged bytes, FileDelta) the update daemon
        # last built from a delta member: the install command's servers
        # reload from its lines instead of diffing the two versions
        # (process memory, so a crash forgets it)
        self.handed: dict[str, tuple] = {}
        # path -> (bytes object, its SHA-256) the update daemon last
        # patched or hashed there: the next patch's base check while
        # fs.read(path) is still that object (process memory too)
        self.digests: dict[str, tuple[bytes, str]] = {}

    # -- lifecycle -------------------------------------------------------

    def check_alive(self) -> None:
        """Raise HostDown if the machine has crashed."""
        if not self.alive:
            raise HostDown(self.name)

    def crash(self) -> None:
        """Machine crash: unsynced data lost, every process dies."""
        self.alive = False
        self.fs.crash()
        self.handed.clear()
        self.digests.clear()
        for proc in self.processes.values():
            proc.running = False
        self.processes.clear()

    def reboot(self) -> None:
        """Power back on and run the boot hooks (service restarts)."""
        self.alive = True
        self.boot_count += 1
        for hook in self._boot_hooks:
            hook(self)

    def add_boot_hook(self, hook: Callable[["SimulatedHost"], None]) -> None:
        """Run *hook* on every reboot (service restarts)."""
        self._boot_hooks.append(hook)

    # -- processes ----------------------------------------------------------

    def spawn(self, name: str,
              on_signal: Optional[Callable[[int], None]] = None,
              *, pid_file: Optional[str] = None) -> Process:
        """Start a process (optionally recording a pid file)."""
        self.check_alive()
        pid = self._next_pid
        self._next_pid += 1
        proc = Process(name=name, pid=pid, on_signal=on_signal)
        self.processes[pid] = proc
        if pid_file is not None:
            self.fs.write(pid_file, str(pid).encode())
            self.fs.fsync()
        return proc

    def kill(self, pid: int, signum: int = 15) -> None:
        """Signal a pid; 9/15 terminate it."""
        self.check_alive()
        proc = self.processes.get(pid)
        if proc is None:
            raise ProcessLookupError(pid)
        proc.signal(signum)
        if signum in (9, 15):
            proc.running = False
            del self.processes[pid]

    def signal_pid_file(self, pid_file: str, signum: int) -> None:
        """§5.9 B.4: read the pid out of the file at execution time."""
        self.check_alive()
        pid = int(self.fs.read_text(pid_file).strip())
        proc = self.processes.get(pid)
        if proc is None:
            raise ProcessLookupError(pid)
        proc.signal(signum)

    def find_process(self, name: str) -> Optional[Process]:
        """The running process named *name*, or None."""
        for proc in self.processes.values():
            if proc.name == name:
                return proc
        return None

    # -- fault injection ------------------------------------------------------

    def crash_after_syncs(self, count: int) -> None:
        """Arrange a crash after *count* more fs.fsync() calls."""
        self._crash_after_syncs = count

    def fsync(self) -> None:
        """Host-mediated fsync so fault injection can fire mid-protocol."""
        self.check_alive()
        self.fs.fsync()
        if self._crash_after_syncs is not None:
            self._crash_after_syncs -= 1
            if self._crash_after_syncs <= 0:
                self._crash_after_syncs = None
                self.crash()
                raise HostDown(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"SimulatedHost({self.name}, {state})"
