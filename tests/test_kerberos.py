"""Tests for the simulated Kerberos (KDC, tickets, crypt, CBC)."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, strategies as st

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
from repro.kerberos.crypt import des_cbc_decrypt, des_cbc_encrypt, unix_crypt
from repro.kerberos.kdc import KDC
from repro.sim.clock import Clock


def expect_krb(code, fn, *args, **kwargs):
    with pytest.raises(MoiraError) as exc:
        fn(*args, **kwargs)
    assert exc.value.code == code, exc.value


@pytest.fixture
def world():
    clock = Clock()
    kdc = KDC(clock)
    kdc.add_principal("babette", "secret")
    kdc.add_service("moira")
    return clock, kdc


class TestKinit:
    def test_success(self, world):
        _, kdc = world
        cache = kdc.kinit("babette", "secret")
        assert cache.principal == "babette"

    def test_wrong_password(self, world):
        _, kdc = world
        expect_krb(KRB_BAD_PASSWORD, kdc.kinit, "babette", "wrong")

    def test_unknown_principal(self, world):
        _, kdc = world
        expect_krb(KRB_UNKNOWN_PRINCIPAL, kdc.kinit, "nobody", "x")

    def test_duplicate_principal(self, world):
        _, kdc = world
        expect_krb(KRB_PRINCIPAL_EXISTS, kdc.add_principal, "babette",
                   "again")


class TestTickets:
    def test_issue_and_verify(self, world):
        clock, kdc = world
        cache = kdc.kinit("babette", "secret")
        ticket = kdc.get_service_ticket(cache, "moira")
        auth = kdc.make_authenticator(ticket, clock.now())
        assert kdc.verify_authenticator(auth, "moira") == "babette"

    def test_ticket_expiry(self, world):
        clock, kdc = world
        cache = kdc.kinit("babette", "secret")
        ticket = kdc.get_service_ticket(cache, "moira", lifetime=3600)
        clock.advance(3601)
        auth = kdc.make_authenticator(ticket, clock.now())
        expect_krb(KRB_TICKET_EXPIRED, kdc.verify_authenticator, auth,
                   "moira")

    def test_replay_detected(self, world):
        """§4: safe from "replay of transactions"."""
        clock, kdc = world
        cache = kdc.kinit("babette", "secret")
        ticket = kdc.get_service_ticket(cache, "moira")
        auth = kdc.make_authenticator(ticket, clock.now())
        kdc.verify_authenticator(auth, "moira")
        expect_krb(KRB_REPLAY, kdc.verify_authenticator, auth, "moira")

    def test_replay_cache_stays_bounded(self, world):
        """An entry lives only while the skew check would still accept
        its authenticator: a day of second-by-second mr_auths keeps one
        skew window of entries, and replays are still caught — inside
        the window by the cache, past it by the skew check."""
        clock, kdc = world
        cache = kdc.kinit("babette", "secret")
        ticket = kdc.get_service_ticket(cache, "moira")
        sent = []
        for _ in range(10_000):
            clock.advance(1)
            auth = kdc.make_authenticator(ticket, clock.now())
            kdc.verify_authenticator(auth, "moira")
            sent.append(auth)
        assert len(kdc._replay_cache) <= 301    # max_skew + 1 seconds
        expect_krb(KRB_REPLAY, kdc.verify_authenticator, sent[-300],
                   "moira")
        expect_krb(KRB_SKEW, kdc.verify_authenticator, sent[0], "moira")

    def test_concurrent_verifiers_accept_each_authenticator_once(
            self, world):
        """Transport loops and client threads share one KDC: racing
        verifications of the same authenticators admit each once."""
        clock, kdc = world
        ticket = kdc.get_service_ticket(kdc.kinit("babette", "secret"),
                                        "moira")
        auths = [kdc.make_authenticator(ticket, clock.now())
                 for _ in range(200)]
        accepted: list[str] = []
        errors: list[BaseException] = []

        def verifier():
            for auth in auths:
                try:
                    kdc.verify_authenticator(auth, "moira")
                    accepted.append(auth.nonce)
                except MoiraError as exc:
                    if exc.code != KRB_REPLAY:
                        errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=verifier) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not [t for t in threads if t.is_alive()] and not errors
        assert sorted(accepted) == sorted(a.nonce for a in auths)

    def test_clock_skew_rejected(self, world):
        clock, kdc = world
        cache = kdc.kinit("babette", "secret")
        ticket = kdc.get_service_ticket(cache, "moira")
        auth = kdc.make_authenticator(ticket, clock.now() - 3600)
        expect_krb(KRB_SKEW, kdc.verify_authenticator, auth, "moira")

    def test_forged_signature_rejected(self, world):
        clock, kdc = world
        cache = kdc.kinit("babette", "secret")
        ticket = kdc.get_service_ticket(cache, "moira")
        from dataclasses import replace
        forged = replace(ticket, client="root")
        auth = kdc.make_authenticator(forged, clock.now())
        expect_krb(KRB_BAD_INTEGRITY, kdc.verify_authenticator, auth,
                   "moira")

    def test_wrong_service_rejected(self, world):
        clock, kdc = world
        kdc.add_service("other")
        cache = kdc.kinit("babette", "secret")
        ticket = kdc.get_service_ticket(cache, "other")
        auth = kdc.make_authenticator(ticket, clock.now())
        expect_krb(KRB_BAD_INTEGRITY, kdc.verify_authenticator, auth,
                   "moira")

    def test_cache_miss(self, world):
        _, kdc = world
        cache = kdc.kinit("babette", "secret")
        expect_krb(KRB_NO_TICKET, cache.get, "moira")


class TestAdminInterface:
    def test_reserve_then_set_password(self, world):
        _, kdc = world
        kdc.reserve_principal("newkid")
        assert kdc.principal_exists("newkid")
        # reserved names cannot kinit yet
        expect_krb(KRB_UNKNOWN_PRINCIPAL, kdc.kinit, "newkid", "x")
        kdc.set_password("newkid", "firstpw")
        assert kdc.kinit("newkid", "firstpw").principal == "newkid"

    def test_reserve_taken_name(self, world):
        _, kdc = world
        expect_krb(KRB_PRINCIPAL_EXISTS, kdc.reserve_principal, "babette")

    def test_delete_principal(self, world):
        _, kdc = world
        kdc.delete_principal("babette")
        expect_krb(KRB_UNKNOWN_PRINCIPAL, kdc.kinit, "babette", "secret")


class TestCrypt:
    def test_deterministic(self):
        assert unix_crypt("1234567", "HF") == unix_crypt("1234567", "HF")

    def test_salt_prefix(self):
        assert unix_crypt("x", "AB").startswith("AB")
        assert len(unix_crypt("x", "AB")) == 13

    def test_salt_changes_hash(self):
        assert unix_crypt("same", "AA") != unix_crypt("same", "BB")

    def test_only_first_eight_chars_matter(self):
        assert unix_crypt("12345678ZZZ", "AB") == \
            unix_crypt("12345678YYY", "AB")

    def test_short_salt_padded(self):
        assert len(unix_crypt("x", "")) == 13


class TestCbc:
    def test_roundtrip(self):
        data = b"123456789|lfIenQqC/O/OE|newlogin"
        blob = des_cbc_encrypt("key", data)
        assert des_cbc_decrypt("key", blob) == data

    def test_wrong_key_fails(self):
        blob = des_cbc_encrypt("key", b"payload")
        with pytest.raises(ValueError):
            des_cbc_decrypt("other", blob)

    def test_error_propagation(self):
        """Damage anywhere garbles everything after it (EP-CBC)."""
        blob = bytearray(des_cbc_encrypt("key", b"A" * 64))
        blob[8] ^= 0x01
        with pytest.raises(ValueError):
            des_cbc_decrypt("key", bytes(blob))

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            des_cbc_decrypt("key", b"abc")

    @given(st.binary(max_size=200))
    def test_roundtrip_property(self, data):
        blob = des_cbc_encrypt(b"k", data)
        assert des_cbc_decrypt(b"k", blob) == data

    @given(st.binary(min_size=1, max_size=64))
    def test_ciphertext_differs_from_plaintext(self, data):
        assert des_cbc_encrypt(b"k", data) != data
