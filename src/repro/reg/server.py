"""The registration server (paper §5.10).

A special process on the Moira database machine listening for
registration requests.  Three requests are defined:

* **verify_user** (first, last, authenticator) → is the student in the
  database, and what is their status?
* **grab_login** (first, last, authenticator{login}) → assign the login
  name and reserve it with Kerberos; creates the pobox, personal group,
  home filesystem and quota via the ``register_user`` query.
* **set_password** (first, last, authenticator{password}) → set the
  student's initial Kerberos password over the srvtab channel.

The authenticator is the encrypted MIT ID scheme the paper describes:
``{IDnumber, hashIDnumber[, payload]}`` encrypted in error-propagating
CBC mode keyed by ``hashIDnumber``, where ``hashIDnumber`` is the
crypt() of the ID's last seven digits salted with the student's
initials.  The server verifies every request by decrypting with the
hash stored in the users relation and checking the embedded ID.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.client.lib import DirectClient
from repro.db.engine import Database, Row
from repro.db.journal import Journal
from repro.db.schema import (
    FS_STUDENT,
    USER_STATE_HALF_REGISTERED,
    USER_STATE_REGISTERABLE,
)
from repro.errors import (
    MoiraError,
    MR_ALREADY_REGISTERED,
    MR_BAD_AUTHENTICATOR,
    MR_IN_USE,
    MR_LOGIN_TAKEN,
    MR_NOT_FOUND,
)
from repro.kerberos.crypt import des_cbc_decrypt, des_cbc_encrypt, unix_crypt
from repro.kerberos.kdc import KDC
from repro.sim.clock import Clock

__all__ = ["RegistrationServer", "RegError", "make_authenticator",
           "hash_mit_id"]


class RegError(Exception):
    """A registration failure with its MR_* code."""
    def __init__(self, code: int, detail: str = ""):
        self.code = code
        super().__init__(detail or str(code))


def hash_mit_id(mit_id: str, first: str, last: str) -> str:
    """crypt() of the last seven ID digits, salted with the initials."""
    digits = mit_id.replace("-", "")
    return unix_crypt(digits[-7:], (first[:1] + last[:1]) or "..")


def make_authenticator(mit_id: str, first: str, last: str,
                       payload: str = "") -> bytes:
    """Client side: {IDnumber, hashIDnumber[, payload]} under the hash."""
    digits = mit_id.replace("-", "")
    hashed = hash_mit_id(mit_id, first, last)
    fields = [digits, hashed]
    if payload:
        fields.append(payload)
    return des_cbc_encrypt(hashed, "|".join(fields).encode("utf-8"))


@dataclass
class VerifyReply:
    """verify_user's answer: status code and login (if any)."""
    status: int
    login: str


class RegistrationServer:
    """The §5.10 server for the three walk-up requests."""
    def __init__(self, db: Database, clock: Clock, kdc: KDC, *,
                 journal: Optional[Journal] = None):
        self.db = db
        self.clock = clock
        self.kdc = kdc
        # the deployment's journal: a registration is a write like any
        # other, so the WAL, the CDC extractor and the replicas see it
        self.client = DirectClient(db, clock, journal=journal,
                                   caller="root", client="registration")
        self.requests_served = 0
        # the srvtab-srvtab channel to the kerberos admin server
        kdc.add_service("registration")

    # -- request verification ----------------------------------------------------

    def _find_student(self, first: str, last: str,
                      authenticator: bytes) -> tuple[Row, str]:
        """Locate the student and verify the authenticator: the users
        row and the authenticator's payload (``""`` when it has none).

        Candidates match on (first, last); the authenticator must
        decrypt under the candidate's stored encrypted ID and embed
        both the plaintext ID (whose hash must equal the stored value)
        and the hash itself.
        """
        candidates = self.db.table("users").select(
            {"first": first, "last": last})
        if not candidates:
            raise RegError(MR_NOT_FOUND, f"{first} {last}")
        for row in candidates:
            stored_hash = row["mit_id"]
            try:
                plain = des_cbc_decrypt(stored_hash, authenticator)
            except ValueError:
                continue
            fields = plain.decode("utf-8").split("|")
            if len(fields) < 2 or fields[1] != stored_hash:
                continue
            if hash_mit_id(fields[0], first, last) != stored_hash:
                continue
            return row, fields[2] if len(fields) > 2 else ""
        raise RegError(MR_BAD_AUTHENTICATOR, f"{first} {last}")

    # -- the three requests ----------------------------------------------------------

    def verify_user(self, first: str, last: str,
                    authenticator: bytes) -> VerifyReply:
        """Is this student known, and what is their status?"""
        self.requests_served += 1
        row, _payload = self._find_student(first, last, authenticator)
        return VerifyReply(status=row["status"], login=row["login"])

    def grab_login(self, first: str, last: str,
                   authenticator: bytes) -> str:
        """Assign the requested login; returns the login on success."""
        self.requests_served += 1
        row, login = self._find_student(first, last, authenticator)
        if not login:
            raise RegError(MR_BAD_AUTHENTICATOR, "no login in request")
        if row["status"] != USER_STATE_REGISTERABLE:
            raise RegError(MR_ALREADY_REGISTERED, row["login"])
        if self.kdc.principal_exists(login):
            raise RegError(MR_LOGIN_TAKEN, login)
        try:
            self.client.query("register_user", str(row["uid"]), login,
                              str(FS_STUDENT))
        except MoiraError as exc:
            if exc.code == MR_IN_USE:
                raise RegError(MR_LOGIN_TAKEN, login) from exc
            raise
        # "If this succeeds, it then reserves the name with kerberos."
        self.kdc.reserve_principal(login)
        return login

    def set_password(self, first: str, last: str,
                     authenticator: bytes) -> str:
        """Set the initial Kerberos password; returns the login."""
        self.requests_served += 1
        row, password = self._find_student(first, last, authenticator)
        if not password:
            raise RegError(MR_BAD_AUTHENTICATOR, "no password in request")
        if row["status"] != USER_STATE_HALF_REGISTERED:
            raise RegError(MR_NOT_FOUND,
                           f"{row['login']} is not half-registered")
        self.kdc.set_password(row["login"], password)
        return row["login"]
