"""The DCM side of the Moira-to-server update protocol (§5.9).

``push_update`` performs one complete update of one host:

A. Transfer phase — reachability + authentication, ship the tar file
   with a checksum, ship the install script, flush the server's disk.
B. Execution phase — one command starts the staged instruction
   sequence on the server.
C. Confirmation — the script's exit status comes back; zero is success.

Failures are classified the way the DCM's tables need them:
*soft* (host down, network loss, checksum mismatch — of the transfer
or of a delta member's base — timeout: retry later) versus *hard* (the
install script itself failed — needs human attention, sets hosterror).

The §5.9 per-operation timeout is enforced **observationally**: each
protocol operation is run and its simulated cost (the daemon's
``response_delay`` plus any latency injected at the operation's fault
point) compared against the ceiling afterwards, exactly as a real
socket timeout fires after the slow operation has already consumed the
wire.  The paper makes this safe: a duplicate of a half-applied update
is harmless ("either the file will have been installed or it will
not" — both converge on retry).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.errors import (
    MR_CHECKSUM,
    MR_HOST_UNREACHABLE,
    MR_UPDATE_TIMEOUT,
    MoiraError,
)
from repro.hosts.host import HostDown, SimulatedHost
from repro.hosts.update_daemon import (
    FileDelta,
    InstallScript,
    UpdateDaemon,
    checksum,
    make_tar,
)
from repro.sim.faults import FaultInjector
from repro.sim.network import Network, NetworkError

__all__ = ["push_update", "UpdateOutcome", "UpdateResult", "build_payload"]


class UpdateOutcome(Enum):
    """Success, retry-later (soft), or needs-a-human (hard)."""
    SUCCESS = "success"
    SOFT_FAILURE = "soft"
    HARD_FAILURE = "hard"


@dataclass
class UpdateResult:
    """Outcome of one push: classification, code, message."""
    outcome: UpdateOutcome
    error: int = 0
    message: str = ""
    bytes_sent: int = 0

    @property
    def ok(self) -> bool:
        """True on success."""
        return self.outcome is UpdateOutcome.SUCCESS


class _OpTimeout(Exception):
    """One protocol operation blew the §5.9 per-operation ceiling."""


def build_payload(files: dict[str, bytes | FileDelta],
                  mtime: int = 0) -> bytes:
    """One tar file containing the service's data files (§5.9 A.2:
    "Only one file is transferred, although it may be a tar file
    containing many more"); a :class:`FileDelta` value travels as its
    encoded delta member."""
    return make_tar({name: data.encode() if isinstance(data, FileDelta)
                     else data for name, data in files.items()},
                    mtime=mtime)


def default_script(files: dict[str, bytes | FileDelta],
                   post_command: Optional[str] = None) -> InstallScript:
    """The standard install sequence: stage every member (extract a
    whole file, patch one from a delta), then atomically install each,
    then run the service's restart/convergence command.  Staging all
    before renaming any means a refused delta base leaves every file
    as it was."""
    script = InstallScript()
    for name in sorted(files):
        if isinstance(files[name], FileDelta):
            script.patch(name)
        else:
            script.extract(name)
    for name in sorted(files):
        script.install(name)
    if post_command:
        script.execute(post_command)
    return script


def push_update(
    *,
    host: SimulatedHost,
    daemon: UpdateDaemon,
    network: Network,
    target: str,
    payload: bytes,
    script: InstallScript,
    principal: str = "moira",
    timeout: int = 120,
    faults: Optional[FaultInjector] = None,
    digest: Optional[str] = None,
) -> UpdateResult:
    """Run the full three-phase update against one host.

    *digest* is ``checksum(payload)`` when the caller already holds it
    (the DCM hashes each distinct payload once per push scan, not once
    per host); it is computed here otherwise.

    *timeout* is the per-operation ceiling of §5.9 A: "If any single
    operation takes longer than a reasonable amount of time, the
    connection is closed, and the installation assumed to have failed
    ... so that the installation will be attempted again later."  Every
    operation's observed cost — the daemon's ``response_delay`` plus
    any injected latency — is measured against it, so a wedged daemon
    and an injected slow link classify identically: soft failure,
    retry next cycle.

    *faults* arms the per-operation injection points
    ``update.authenticate`` / ``update.cleanup`` / ``update.transfer``
    / ``update.script`` / ``update.flush`` / ``update.execute``;
    exceptions raised there flow through the same soft/hard
    classification as organic failures.
    """
    def op(name: str, fn, *args):
        """Run one protocol operation under the per-op timeout."""
        injected = 0.0
        if faults is not None:
            injected = faults.fire(f"update.{name}", host=host.name,
                                   target=target)
        result = fn(*args)
        cost = daemon.response_delay + injected
        if cost > timeout:
            raise _OpTimeout(f"{host.name}: {name} took {cost:.0f}s, "
                             f"exceeded {timeout}s")
        return result

    # -- A. transfer phase -----------------------------------------------------
    try:
        network.check_reachable(host.name)
        host.check_alive()
        op("authenticate", daemon.authenticate, principal)
        # a fresh update invalidates any stale staged file (§5.9 B)
        op("cleanup", daemon.cleanup_stale_update, target)
        received = op("transfer", network.deliver, host.name, payload)
        daemon.receive_file(target, received,
                            checksum(payload) if digest is None else digest)
        script_blob = script.serialize()
        received_script = op("script", network.deliver, host.name,
                             script_blob)
        daemon.receive_script(received_script)
        op("flush", daemon.flush)
    except (HostDown, NetworkError) as exc:
        return UpdateResult(UpdateOutcome.SOFT_FAILURE,
                            error=MR_HOST_UNREACHABLE, message=str(exc))
    except _OpTimeout as exc:
        return UpdateResult(UpdateOutcome.SOFT_FAILURE,
                            error=MR_UPDATE_TIMEOUT, message=str(exc))
    except MoiraError as exc:
        if exc.code == MR_CHECKSUM:
            # damaged in transit; valid data files still exist on Moira,
            # so retrying later is safe and sufficient
            return UpdateResult(UpdateOutcome.SOFT_FAILURE,
                                error=exc.code, message=str(exc))
        return UpdateResult(UpdateOutcome.HARD_FAILURE,
                            error=exc.code, message=str(exc))

    # -- B. execution phase -------------------------------------------------------
    try:
        status = op("execute", daemon.execute, target)
    except HostDown as exc:
        # crash during installation: "either the file will have been
        # installed or it will not" — both converge on retry/reboot,
        # and the DCM sees it as a timeout (soft).
        return UpdateResult(UpdateOutcome.SOFT_FAILURE,
                            error=MR_UPDATE_TIMEOUT, message=str(exc))
    except _OpTimeout as exc:
        return UpdateResult(UpdateOutcome.SOFT_FAILURE,
                            error=MR_UPDATE_TIMEOUT, message=str(exc))
    except NetworkError as exc:
        return UpdateResult(UpdateOutcome.SOFT_FAILURE,
                            error=MR_HOST_UNREACHABLE, message=str(exc))

    # -- C. confirmation -------------------------------------------------------------
    if status == 0:
        return UpdateResult(UpdateOutcome.SUCCESS,
                            bytes_sent=len(payload))
    if status == MR_CHECKSUM:
        # a delta member's base is not the file on disk (hand-edited,
        # or lost in a crash): nothing was renamed into place, and the
        # host's next push carries whole files
        return UpdateResult(UpdateOutcome.SOFT_FAILURE, error=status,
                            message="delta base mismatch")
    return UpdateResult(UpdateOutcome.HARD_FAILURE, error=status,
                        message=f"install script exited {status}")
