"""A deterministic, seeded fault-injection harness.

The paper's robustness story ("prevent network lossage and machine
crashes from causing arbitrarily long delays", §5.9; "survives clean
server crashes ... survives clean Moira crashes") is only testable if
failures can be provoked *on purpose*, at exact protocol boundaries,
reproducibly.  This module provides that: components expose **named
injection points** (``journal.appended``, ``update.execute``,
``daemon.step``, ``net.deliver``, ``server.frame``, the replication
tier's ``repl.snapshot``/``repl.tail``/``repl.apply``/
``repl.feed_auth``, and the failover path's ``journal.fence`` and
``failover.promote``) and call
:meth:`FaultInjector.fire` as execution passes through them; tests and
benchmarks arm faults against those points.

A fault can

* **raise** an arbitrary exception (a partition mid-transfer, a
  Kerberos failure, an injected :class:`ServerCrash`),
* **crash a simulated host** (the daemon dies between two install
  steps),
* **add simulated delay** (seconds of virtual time, returned to the
  caller so the §5.9 per-operation timeout observes it), or
* **call** an arbitrary function with the firing context.

Schedules are supported two ways: per-call (``at_call=37`` fires on the
37th crossing of the point — "crash the server after journal append
#37") and per-DCM-cycle network weather (``net_loss("HOST", 0.2,
cycles=3)`` — "20% loss on host-7 for 3 cycles"), applied by
:meth:`begin_cycle` at the top of each DCM invocation.

:class:`ServerCrash` deliberately derives from ``BaseException``: a
simulated Moira-server death must never be absorbed by the blanket
``except Exception`` recovery paths that keep the real daemon alive.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["FaultInjector", "Fault", "ServerCrash", "TornWrite"]


class ServerCrash(BaseException):
    """The Moira server process dies at this instant.

    A BaseException so that the server's defensive ``except Exception``
    handlers cannot swallow it — exactly like a real SIGKILL.
    """


class TornWrite(ServerCrash):
    """Crash *during* a journal write: only a prefix of the record
    reaches the disk (the torn final record WAL replay must tolerate).

    *fraction* is how much of the serialised line lands before the
    crash.
    """

    def __init__(self, fraction: float = 0.5):
        super().__init__(f"torn write ({fraction:.0%} of record)")
        self.fraction = fraction


@dataclass
class Fault:
    """One armed fault against a named injection point."""

    point: str
    exc: Optional[Callable[[], BaseException]] = None
    delay: float = 0.0
    crash_host: object = None          # SimulatedHost to kill
    func: Optional[Callable[[dict], None]] = None
    at_call: Optional[int] = None      # fire only on the Nth crossing
    probability: float = 0.0           # fire randomly (seeded RNG)
    times: int = 1                     # firings left; -1 = unlimited
    where: Optional[Callable[[dict], bool]] = None
    fired: int = 0

    def matches(self, call_no: int, ctx: dict, rng: random.Random) -> bool:
        if self.times == 0:
            return False
        if self.at_call is not None and self.at_call != call_no:
            return False
        if self.where is not None and not self.where(ctx):
            return False
        if self.probability and rng.random() >= self.probability:
            return False
        return True


@dataclass
class _NetWeather:
    """Scheduled per-cycle network condition for one host."""

    host: str
    kind: str            # "partition" | "loss" | "corrupt"
    value: float = 0.0
    cycles: int = 1      # DCM cycles remaining


class FaultInjector:
    """Registry of armed faults + the fire() sites consult it.

    Thread-safe: a TCP transport's selector thread (server frames, a
    Trigger_DCM push), the replica pull loops and the deployment's own
    thread (cron, the CDC pump) cross injection points concurrently.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._faults: list[Fault] = []
        self._weather: list[_NetWeather] = []
        self.counters: dict[str, int] = {}
        # (point, call_no, description) of every fault that fired
        self.log: list[tuple[str, int, str]] = []
        self.cycle = 0

    # -- arming faults ---------------------------------------------------

    def add(self, fault: Fault) -> Fault:
        """Arm an already-built :class:`Fault`."""
        with self._lock:
            self._faults.append(fault)
        return fault

    def fail(self, point: str, exc, *, at_call: Optional[int] = None,
             probability: float = 0.0, times: int = 1,
             where: Optional[Callable[[dict], bool]] = None) -> Fault:
        """Raise *exc* (an instance or zero-arg factory) at *point*."""
        factory = exc if callable(exc) and not isinstance(
            exc, BaseException) else (lambda e=exc: e)
        return self.add(Fault(point=point, exc=factory, at_call=at_call,
                              probability=probability, times=times,
                              where=where))

    def crash_server(self, point: str, *, at_call: Optional[int] = None,
                     times: int = 1) -> Fault:
        """Kill the Moira server when execution crosses *point*."""
        return self.fail(point, lambda: ServerCrash(point),
                         at_call=at_call, times=times)

    def tear_write(self, point: str, *, at_call: Optional[int] = None,
                   fraction: float = 0.5) -> Fault:
        """Crash mid-write at *point*, leaving a torn record."""
        return self.fail(point, lambda: TornWrite(fraction),
                         at_call=at_call)

    def crash_host_at(self, point: str, host, *,
                      at_call: Optional[int] = None,
                      times: int = 1,
                      where: Optional[Callable[[dict], bool]] = None
                      ) -> Fault:
        """Crash *host* (SimulatedHost) when *point* is crossed."""
        return self.add(Fault(point=point, crash_host=host,
                              at_call=at_call, times=times, where=where))

    def delay(self, point: str, seconds: float, *,
              at_call: Optional[int] = None, times: int = -1,
              where: Optional[Callable[[dict], bool]] = None) -> Fault:
        """Add *seconds* of simulated latency at *point*."""
        return self.add(Fault(point=point, delay=seconds, at_call=at_call,
                              times=times, where=where))

    def call(self, point: str, func: Callable[[dict], None], *,
             at_call: Optional[int] = None, times: int = -1) -> Fault:
        """Invoke *func(ctx)* when *point* is crossed."""
        return self.add(Fault(point=point, func=func, at_call=at_call,
                              times=times))

    # -- scheduled network weather ---------------------------------------

    def net_partition(self, host: str, *, cycles: int) -> None:
        """Partition *host* for the next *cycles* DCM cycles."""
        with self._lock:
            self._weather.append(_NetWeather(host.upper(), "partition",
                                             cycles=cycles))

    def net_loss(self, host: str, rate: float, *, cycles: int) -> None:
        """Message loss to *host* at *rate* for *cycles* DCM cycles."""
        with self._lock:
            self._weather.append(_NetWeather(host.upper(), "loss",
                                             value=rate, cycles=cycles))

    def net_corrupt(self, host: str, rate: float, *, cycles: int) -> None:
        """Payload corruption to *host* for *cycles* DCM cycles."""
        with self._lock:
            self._weather.append(_NetWeather(host.upper(), "corrupt",
                                             value=rate, cycles=cycles))

    def begin_cycle(self, network) -> None:
        """Apply/expire scheduled network weather (DCM cycle start)."""
        with self._lock:
            self.cycle += 1
            live: list[_NetWeather] = []
            expiring: list[_NetWeather] = []
            for w in self._weather:
                (live if w.cycles > 0 else expiring).append(w)
            self._weather = live
        for w in expiring:
            network.heal(w.host)
        active_hosts = set()
        for w in live:
            active_hosts.add(w.host)
            if w.kind == "partition":
                network.partition(w.host)
            elif w.kind == "loss":
                network.set_loss_rate(w.host, w.value)
            else:
                network.set_corrupt_rate(w.host, w.value)
            w.cycles -= 1
            if w.cycles == 0:
                w.cycles = -1  # heal at the start of the next cycle

    # -- the fire() sites call this ---------------------------------------

    def fire(self, point: str, **ctx) -> float:
        """Cross injection point *point*; returns injected delay seconds.

        Matching faults act in arming order: callbacks run, delays
        accumulate, a host crash kills the host and raises ``HostDown``,
        an armed exception raises.
        """
        to_apply: list[Fault] = []
        with self._lock:
            call_no = self.counters.get(point, 0) + 1
            self.counters[point] = call_no
            for fault in self._faults:
                if fault.point != point:
                    continue
                if not fault.matches(call_no, ctx, self._rng):
                    continue
                if fault.times > 0:
                    fault.times -= 1
                fault.fired += 1
                to_apply.append(fault)
        delay = 0.0
        for fault in to_apply:
            self._note(point, call_no, fault)
            if fault.func is not None:
                fault.func(ctx)
            delay += fault.delay
            if fault.crash_host is not None:
                from repro.hosts.host import HostDown
                fault.crash_host.crash()
                raise HostDown(fault.crash_host.name)
            if fault.exc is not None:
                raise fault.exc()
        return delay

    def _note(self, point: str, call_no: int, fault: Fault) -> None:
        if fault.exc is not None:
            what = "raise"
        elif fault.crash_host is not None:
            what = f"crash {fault.crash_host.name}"
        elif fault.delay:
            what = f"delay {fault.delay}s"
        else:
            what = "call"
        with self._lock:
            self.log.append((point, call_no, what))

    def calls(self, point: str) -> int:
        """How many times *point* has been crossed."""
        with self._lock:
            return self.counters.get(point, 0)

    def fired(self, point: Optional[str] = None) -> int:
        """How many faults have fired (optionally at one point)."""
        with self._lock:
            return sum(1 for p, _, _ in self.log
                       if point is None or p == point)
