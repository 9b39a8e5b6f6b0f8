"""Simulated KDC: principals, tickets, authenticators, replay detection.

The interface mirrors what Moira needs from Kerberos v4:

* ``kinit`` — obtain a ticket-granting credential for a user principal
  by password (userreg's "try to get initial tickets ... if this fails,
  the username is free").
* ``get_service_ticket`` / ``make_authenticator`` — what ``mr_auth``
  sends to the Moira server.
* ``verify_authenticator`` — server side: checks the ticket's
  signature, lifetime on the virtual clock, and an authenticator replay
  cache ("safe from ... replay of transactions").
* admin interface — reserve principals and set passwords over a
  srvtab-authenticated channel (for the registration server).
"""

from __future__ import annotations

import hashlib
import heapq
import hmac
import secrets
import threading
from dataclasses import dataclass, field

from repro.errors import (
    MoiraError,
    KRB_BAD_PASSWORD,
    KRB_NO_TICKET,
    KRB_PRINCIPAL_EXISTS,
    KRB_REPLAY,
    KRB_SKEW,
    KRB_TICKET_EXPIRED,
    KRB_UNKNOWN_PRINCIPAL,
    KRB_BAD_INTEGRITY,
)
from repro.sim.clock import Clock

__all__ = ["KDC", "Ticket", "Authenticator", "CredentialCache"]

DEFAULT_LIFETIME = 10 * 3600  # Athena tickets lasted the working day


def _derive_key(password: str) -> bytes:
    return hashlib.sha256(b"krbkey:" + password.encode("utf-8")).digest()


@dataclass(frozen=True)
class Ticket:
    """A service ticket: client identity sealed under the service key."""

    client: str
    service: str
    issued: int
    lifetime: int
    session_key: bytes
    signature: bytes

    def expires(self) -> int:
        """Absolute expiry time of the ticket."""
        return self.issued + self.lifetime


@dataclass(frozen=True)
class Authenticator:
    """Ticket plus a timestamped, session-key-signed nonce."""

    ticket: Ticket
    timestamp: int
    nonce: str
    mac: bytes


@dataclass
class CredentialCache:
    """A user's ticket file — what kinit populates and mr_auth reads."""

    principal: str
    tickets: dict[str, Ticket] = field(default_factory=dict)

    def get(self, service: str) -> Ticket:
        """The cached ticket for *service* (KRB_NO_TICKET if none)."""
        ticket = self.tickets.get(service)
        if ticket is None:
            raise MoiraError(KRB_NO_TICKET, f"{self.principal} -> {service}")
        return ticket

    def store(self, ticket: Ticket) -> None:
        """Cache a ticket under its service name."""
        self.tickets[ticket.service] = ticket

    def destroy(self) -> None:
        """kdestroy: drop every cached ticket."""
        self.tickets.clear()


class KDC:
    """The key distribution centre plus admin server."""

    def __init__(self, clock: Clock, realm: str = "ATHENA.MIT.EDU"):
        self.clock = clock
        self.realm = realm
        self._keys: dict[str, bytes] = {}
        self._reserved: set[str] = set()
        # (client, nonce) of every authenticator accepted inside its
        # skew window, and a heap of (window end, key) that expires them
        self._replay_cache: set[tuple[str, str]] = set()
        self._replay_expiry: list[tuple[int, tuple[str, str]]] = []
        self._replay_lock = threading.Lock()
        # srvtabs handed to servers so they can verify tickets directly
        self._srvtabs: dict[str, bytes] = {}

    # -- principal administration -------------------------------------------

    def add_principal(self, name: str, password: str) -> None:
        """Register a user principal with a password."""
        if name in self._keys or name in self._reserved:
            raise MoiraError(KRB_PRINCIPAL_EXISTS, name)
        self._keys[name] = _derive_key(password)

    def add_service(self, name: str) -> bytes:
        """Register a service principal; returns its srvtab key."""
        key = hashlib.sha256(
            b"srvtab:" + name.encode("utf-8") + secrets.token_bytes(8)
        ).digest()
        if name in self._keys:
            raise MoiraError(KRB_PRINCIPAL_EXISTS, name)
        self._keys[name] = key
        self._srvtabs[name] = key
        return key

    def srvtab(self, service: str) -> bytes:
        """The service key previously issued to *service*."""
        return self._srvtabs[service]

    def principal_exists(self, name: str) -> bool:
        """Known (or reserved) principal?"""
        return name in self._keys or name in self._reserved

    def reserve_principal(self, name: str) -> None:
        """Reserve a name without a key yet (registration grab_login)."""
        if self.principal_exists(name):
            raise MoiraError(KRB_PRINCIPAL_EXISTS, name)
        self._reserved.add(name)

    def set_password(self, name: str, password: str) -> None:
        """Set/replace a principal's key (registration set_password)."""
        self._reserved.discard(name)
        self._keys[name] = _derive_key(password)

    def delete_principal(self, name: str) -> None:
        """Remove a principal entirely."""
        self._keys.pop(name, None)
        self._reserved.discard(name)

    # -- ticket issuance ------------------------------------------------------

    def kinit(self, principal: str, password: str,
              lifetime: int = DEFAULT_LIFETIME) -> CredentialCache:
        """Password login: returns a fresh credential cache."""
        key = self._keys.get(principal)
        if key is None:
            raise MoiraError(KRB_UNKNOWN_PRINCIPAL, principal)
        if key != _derive_key(password):
            raise MoiraError(KRB_BAD_PASSWORD, principal)
        return CredentialCache(principal=principal)

    def kinit_keytab(self, principal: str, key: bytes) -> CredentialCache:
        """Keytab login: authenticate with a raw service key.

        How a daemon (the replication feed puller, authenticating as
        the ``repl`` service principal) gets credentials — no password,
        just the srvtab key handed out by :meth:`add_service`.
        """
        stored = self._keys.get(principal)
        if stored is None:
            raise MoiraError(KRB_UNKNOWN_PRINCIPAL, principal)
        if not hmac.compare_digest(stored, key):
            raise MoiraError(KRB_BAD_PASSWORD, principal)
        return CredentialCache(principal=principal)

    def get_service_ticket(self, cache: CredentialCache, service: str,
                           lifetime: int = DEFAULT_LIFETIME) -> Ticket:
        """Issue (and cache) a ticket for *service*."""
        if service not in self._keys:
            raise MoiraError(KRB_UNKNOWN_PRINCIPAL, service)
        if cache.principal not in self._keys:
            raise MoiraError(KRB_UNKNOWN_PRINCIPAL, cache.principal)
        session_key = secrets.token_bytes(16)
        issued = self.clock.now()
        signature = self._sign_ticket(cache.principal, service, issued,
                                      lifetime, session_key)
        ticket = Ticket(client=cache.principal, service=service,
                        issued=issued, lifetime=lifetime,
                        session_key=session_key, signature=signature)
        cache.store(ticket)
        return ticket

    def _sign_ticket(self, client: str, service: str, issued: int,
                     lifetime: int, session_key: bytes) -> bytes:
        service_key = self._keys[service]
        blob = f"{client}|{service}|{issued}|{lifetime}".encode() + session_key
        return hmac.new(service_key, blob, hashlib.sha256).digest()

    # -- authenticators ----------------------------------------------------------

    @staticmethod
    def make_authenticator(ticket: Ticket, now: int) -> Authenticator:
        """Client side: timestamped proof under the session key."""
        nonce = secrets.token_hex(8)
        mac = hmac.new(ticket.session_key,
                       f"{ticket.client}|{now}|{nonce}".encode(),
                       hashlib.sha256).digest()
        return Authenticator(ticket=ticket, timestamp=now, nonce=nonce,
                             mac=mac)

    def verify_authenticator(self, auth: Authenticator, service: str,
                             *, max_skew: int = 300) -> str:
        """Server-side check; returns the verified client principal.

        Raises Kerberos error codes on forged tickets, expiry, clock
        skew, or replay — the failure modes mr_auth can surface.
        """
        ticket = auth.ticket
        if ticket.service != service:
            raise MoiraError(KRB_BAD_INTEGRITY,
                             f"ticket is for {ticket.service}")
        service_key = self._keys.get(service)
        if service_key is None:
            raise MoiraError(KRB_UNKNOWN_PRINCIPAL, service)
        expect = self._sign_ticket(ticket.client, ticket.service,
                                   ticket.issued, ticket.lifetime,
                                   ticket.session_key)
        if not hmac.compare_digest(expect, ticket.signature):
            raise MoiraError(KRB_BAD_INTEGRITY, "ticket signature")
        now = self.clock.now()
        if now > ticket.expires():
            raise MoiraError(KRB_TICKET_EXPIRED, ticket.client)
        if abs(now - auth.timestamp) > max_skew:
            raise MoiraError(KRB_SKEW, str(auth.timestamp))
        mac = hmac.new(ticket.session_key,
                       f"{ticket.client}|{auth.timestamp}|{auth.nonce}"
                       .encode(), hashlib.sha256).digest()
        if not hmac.compare_digest(mac, auth.mac):
            raise MoiraError(KRB_BAD_INTEGRITY, "authenticator mac")
        replay_key = (ticket.client, auth.nonce)
        with self._replay_lock:
            # an authenticator older than max_skew fails the skew check
            # above, so its cache entry can go once its window closes
            expiry = self._replay_expiry
            while expiry and expiry[0][0] < now:
                self._replay_cache.discard(heapq.heappop(expiry)[1])
            if replay_key in self._replay_cache:
                raise MoiraError(KRB_REPLAY, ticket.client)
            self._replay_cache.add(replay_key)
            heapq.heappush(expiry, (auth.timestamp + max_skew, replay_key))
        return ticket.client
