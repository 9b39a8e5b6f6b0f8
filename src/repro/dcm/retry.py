"""Resilient DCM propagation: backoff, circuit breakers, retry budget.

The paper's DCM already distinguishes *soft* failures (retry next
cycle) from *hard* ones (set hosterror, wait for a human, §5.7.1).
What it retries it retries every cycle, forever — one dead host costs a
full per-operation timeout every 15 minutes and a slot in the
propagation pool.  This module adds the standard resilience triad on
top of that classification, per (service, host) target:

* **Exponential backoff with jitter** — after each consecutive soft
  failure the next attempt is deferred ``base * factor**(n-1)`` seconds
  (capped), smeared by seeded jitter so a rack-wide outage doesn't
  produce a synchronised retry storm.
* **Circuit breaker** — ``threshold`` consecutive soft failures open
  the breaker: the target is skipped outright (no timeout burned)
  until ``cooldown`` elapses, then exactly one **half-open probe** is
  admitted per cooldown window.  The probe's success closes the
  breaker; its failure re-opens it.  Hard failures bypass the breaker
  entirely — they already escalate to hosterror and stop being
  scheduled, exactly as in the paper.
* **Per-cycle retry budget** — at most ``cycle_budget`` *retry*
  attempts (targets with a failure history) are admitted per DCM
  cycle.  First-attempt targets are never charged, so a pile of
  flapping hosts cannot starve fresh propagation work.

All state is keyed by ``(service, machine)`` and consulted by the DCM
scan through :meth:`PropagationGovernor.admit`; outcomes flow back in
through ``record_success`` / ``record_soft`` / ``record_hard``.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = ["BreakerState", "RetryPolicy", "HostHealth",
           "PropagationGovernor"]


class BreakerState(Enum):
    """Per-target circuit-breaker state."""
    CLOSED = "closed"        # healthy: every attempt admitted
    OPEN = "open"            # tripped: skip until cooldown elapses
    HALF_OPEN = "half_open"  # cooldown elapsed: one probe in flight


@dataclass(frozen=True)
class RetryPolicy:
    """Tunables for backoff / breaker / budget.

    Defaults are chosen against the 900 s DCM cron period: the backoff
    ladder (60, 120, 240 s) stays under one cycle, so a transiently
    down host is retried every cycle until the breaker threshold; the
    1800 s cooldown means an open breaker concedes one probe every
    other cycle.
    """

    backoff_base: float = 60.0
    backoff_factor: float = 2.0
    backoff_cap: float = 3600.0
    jitter_frac: float = 0.25      # +/- fraction of the deferral
    breaker_threshold: int = 3     # consecutive soft failures to open
    breaker_cooldown: float = 1800.0
    cycle_budget: int = 64         # retry attempts admitted per cycle

    def backoff(self, failures: int, rng: random.Random) -> float:
        """Deferral after *failures* consecutive soft failures."""
        if failures <= 0:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** (failures - 1)
        raw = min(raw, self.backoff_cap)
        if self.jitter_frac:
            raw *= 1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0)
        return raw


@dataclass
class HostHealth:
    """Retry state for one (service, machine) target."""

    service: str
    machine: str
    breaker: BreakerState = BreakerState.CLOSED
    consecutive_soft: int = 0
    next_attempt_at: float = 0.0   # backoff deferral gate
    opened_at: float = 0.0
    last_probe_at: float = 0.0     # caps half-open probes per window
    # lifetime counters, surfaced through _dcm_stats
    attempts: int = 0
    successes: int = 0
    soft_failures: int = 0
    hard_failures: int = 0
    breaker_opens: int = 0

    @property
    def key(self) -> tuple[str, str]:
        return (self.service, self.machine)


class PropagationGovernor:
    """Admission control for the DCM's per-host propagation attempts.

    Thread-safe: the parallel propagation pool records outcomes
    concurrently while the scan thread admits the next cycle.
    """

    def __init__(self, policy: Optional[RetryPolicy] = None,
                 seed: int = 0):
        self.policy = policy or RetryPolicy()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._health: dict[tuple[str, str], HostHealth] = {}
        self._budget_left = self.policy.cycle_budget
        # per-cycle counters, reset by begin_cycle()
        self.cycle_deferred = 0      # backoff deferral skips
        self.cycle_breaker_skips = 0
        self.cycle_probes = 0
        self.cycle_budget_deferred = 0

    def _get(self, service: str, machine: str) -> HostHealth:
        key = (service, machine.upper())
        health = self._health.get(key)
        if health is None:
            health = HostHealth(service=service, machine=key[1])
            self._health[key] = health
        return health

    # -- cycle lifecycle --------------------------------------------------

    def begin_cycle(self) -> None:
        """Reset the per-cycle retry budget and counters."""
        with self._lock:
            self._budget_left = self.policy.cycle_budget
            self.cycle_deferred = 0
            self.cycle_breaker_skips = 0
            self.cycle_probes = 0
            self.cycle_budget_deferred = 0

    # -- admission --------------------------------------------------------

    def admit(self, service: str, machine: str,
              now: float) -> tuple[bool, str]:
        """May the DCM attempt (service, machine) this cycle?

        Returns ``(admitted, reason)`` where reason is one of
        ``"ok"`` / ``"probe"`` (half-open trial) / ``"backoff"`` /
        ``"breaker_open"`` / ``"budget"``.
        """
        with self._lock:
            health = self._get(service, machine)
            is_retry = health.consecutive_soft > 0
            if health.breaker is BreakerState.OPEN:
                if now - health.opened_at < self.policy.breaker_cooldown:
                    self.cycle_breaker_skips += 1
                    return False, "breaker_open"
                health.breaker = BreakerState.HALF_OPEN
            if health.breaker is BreakerState.HALF_OPEN:
                # one probe per cooldown window, budget permitting
                if (health.last_probe_at and
                        now - health.last_probe_at <
                        self.policy.breaker_cooldown):
                    self.cycle_breaker_skips += 1
                    return False, "breaker_open"
                if self._budget_left <= 0:
                    self.cycle_budget_deferred += 1
                    return False, "budget"
                self._budget_left -= 1
                health.last_probe_at = now
                health.attempts += 1
                self.cycle_probes += 1
                return True, "probe"
            if is_retry and now < health.next_attempt_at:
                self.cycle_deferred += 1
                return False, "backoff"
            if is_retry:
                if self._budget_left <= 0:
                    self.cycle_budget_deferred += 1
                    return False, "budget"
                self._budget_left -= 1
            health.attempts += 1
            return True, "ok"

    def next_admission_at(self, service: str, machine: str) -> float:
        """The earliest time :meth:`admit` can say yes to this target:
        the end of an open breaker's cooldown (or of the current probe
        window), else the backoff gate, else 0."""
        with self._lock:
            health = self._get(service, machine)
            if health.breaker is BreakerState.OPEN:
                return health.opened_at + self.policy.breaker_cooldown
            if health.breaker is BreakerState.HALF_OPEN \
                    and health.last_probe_at:
                return health.last_probe_at + self.policy.breaker_cooldown
            return health.next_attempt_at if health.consecutive_soft \
                else 0.0

    # -- outcome recording ------------------------------------------------

    def record_success(self, service: str, machine: str) -> None:
        """A push succeeded: close the breaker, clear the backoff."""
        with self._lock:
            health = self._get(service, machine)
            health.successes += 1
            health.consecutive_soft = 0
            health.next_attempt_at = 0.0
            health.breaker = BreakerState.CLOSED
            health.opened_at = 0.0
            health.last_probe_at = 0.0

    def record_soft(self, service: str, machine: str,
                    now: float) -> None:
        """A soft failure: grow the backoff; maybe open the breaker."""
        with self._lock:
            health = self._get(service, machine)
            health.soft_failures += 1
            health.consecutive_soft += 1
            health.next_attempt_at = now + self.policy.backoff(
                health.consecutive_soft, self._rng)
            if health.breaker is BreakerState.HALF_OPEN:
                # the probe failed: straight back to OPEN
                health.breaker = BreakerState.OPEN
                health.opened_at = now
                health.breaker_opens += 1
            elif (health.breaker is BreakerState.CLOSED and
                    health.consecutive_soft >=
                    self.policy.breaker_threshold):
                health.breaker = BreakerState.OPEN
                health.opened_at = now
                health.breaker_opens += 1

    def record_hard(self, service: str, machine: str) -> None:
        """A hard failure: hosterror takes over — reset retry state so
        a later human ``reset`` starts from a clean slate."""
        with self._lock:
            health = self._get(service, machine)
            health.hard_failures += 1
            health.consecutive_soft = 0
            health.next_attempt_at = 0.0
            health.breaker = BreakerState.CLOSED
            health.opened_at = 0.0
            health.last_probe_at = 0.0

    # -- introspection ----------------------------------------------------

    def health(self, service: str, machine: str) -> HostHealth:
        """The (live) health record for one target."""
        with self._lock:
            return self._get(service, machine)

    def open_hosts(self) -> list[tuple[str, str]]:
        """Targets whose breaker is currently OPEN or HALF_OPEN."""
        with self._lock:
            return sorted(k for k, h in self._health.items()
                          if h.breaker is not BreakerState.CLOSED)

    def stats_tuples(self) -> list[tuple[str, ...]]:
        """Per-target rows for the ``_dcm_stats`` pseudo-query."""
        with self._lock:
            rows = []
            for (service, machine) in sorted(self._health):
                h = self._health[(service, machine)]
                rows.append((service, machine, h.breaker.value,
                             str(h.attempts), str(h.successes),
                             str(h.soft_failures), str(h.hard_failures),
                             str(h.breaker_opens),
                             str(h.consecutive_soft)))
            return rows
