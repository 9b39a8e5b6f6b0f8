"""A virtual network between Moira and its managed hosts.

The update protocol (§5.9) has to "prevent network lossage and machine
crashes from causing arbitrarily long delays"; to exercise those paths
the network supports per-host partitions, probabilistic message loss,
and byte corruption, all deterministic under a seeded RNG.
"""

from __future__ import annotations

import random
import threading

__all__ = ["Network", "NetworkError"]


class NetworkError(Exception):
    """A delivery failure: partition, timeout, or loss."""


class Network:
    """Connectivity and fault injection between named hosts.

    *faults* (a :class:`repro.sim.faults.FaultInjector`) adds the named
    injection point ``net.deliver``: armed faults fire before the
    built-in partition/loss/corruption checks, with ``host`` in the
    firing context.  An injected :class:`NetworkError` counts as a lost
    message like any organic one.
    """

    def __init__(self, seed: int = 0, faults=None):
        self._rng = random.Random(seed)
        self.faults = faults
        # the DCM pushes on whichever thread invoked it — a TCP
        # transport's selector thread running Trigger_DCM beside the
        # deployment's own cron or CDC pump; the RNG and counters need
        # a mutex to stay consistent
        self._lock = threading.Lock()
        self._partitioned: set[str] = set()
        self._loss_rate: dict[str, float] = {}
        self._corrupt_rate: dict[str, float] = {}
        self.messages_delivered = 0
        self.messages_lost = 0
        self.bytes_delivered = 0

    # -- fault controls -------------------------------------------------

    def partition(self, host: str) -> None:
        """Cut *host* off from the network entirely."""
        self._partitioned.add(host.upper())

    def heal(self, host: str) -> None:
        """Clear every fault affecting *host*."""
        self._partitioned.discard(host.upper())
        self._loss_rate.pop(host.upper(), None)
        self._corrupt_rate.pop(host.upper(), None)

    def set_loss_rate(self, host: str, rate: float) -> None:
        """Fraction of messages to *host* that vanish."""
        self._loss_rate[host.upper()] = rate

    def set_corrupt_rate(self, host: str, rate: float) -> None:
        """Fraction of transfers to *host* whose payload is damaged."""
        self._corrupt_rate[host.upper()] = rate

    def is_partitioned(self, host: str) -> bool:
        """Is *host* currently cut off?"""
        return host.upper() in self._partitioned

    # -- delivery ---------------------------------------------------------

    def deliver(self, host: str, payload: bytes) -> bytes:
        """Deliver *payload* to *host*; raises NetworkError or returns the
        possibly-corrupted bytes the host receives."""
        key = host.upper()
        if self.faults is not None:
            try:
                self.faults.fire("net.deliver", host=key,
                                 size=len(payload))
            except NetworkError:
                with self._lock:
                    self.messages_lost += 1
                raise
        with self._lock:
            if key in self._partitioned:
                self.messages_lost += 1
                raise NetworkError(f"{host} is unreachable")
            if self._rng.random() < self._loss_rate.get(key, 0.0):
                self.messages_lost += 1
                raise NetworkError(f"packet to {host} lost")
            self.messages_delivered += 1
            self.bytes_delivered += len(payload)
            if payload and \
                    self._rng.random() < self._corrupt_rate.get(key, 0.0):
                damaged = bytearray(payload)
                pos = self._rng.randrange(len(damaged))
                damaged[pos] ^= 0xFF
                return bytes(damaged)
            return payload

    def check_reachable(self, host: str) -> None:
        """Raise NetworkError if *host* is partitioned."""
        if self.is_partitioned(host):
            raise NetworkError(f"{host} is unreachable")
