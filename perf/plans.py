"""Seeded operation plans: what each workload's clients send.

A plan is an endless generator of operations derived only from
``--seed``, the client index and :class:`Facts` (names the fixed world
contains).  The program under test receives nothing but the generated
queries.  Each operation carries the reply code the generator expects:
plans that mutate track the state they create, so a legitimate
``MR_NO_MATCH`` (an empty list read) is an expected outcome, never a
failure.

Nothing here imports ``repro`` beyond the error-code constants, so the
determinism tests run without building a world.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import MR_NO_MATCH

__all__ = ["Facts", "Op", "Session", "Round", "PLANS", "plan_sha",
           "is_expected", "public_list", "private_list", "CDC_LIST"]

# the four classes of ~1,700 users each (1992 holds the unregistered
# intake too, STAFF and FACULTY are several times smaller)
SCAN_CLASSES = ("1989", "1990", "1991", "G")
SESSION_PRINCIPALS = 2000      # pre-registered self-service users
SESSION_READS = 18
ZIPF_S = 1.1
CDC_LIST = "perf-cdc"          # group + mailing list the CDC plan fills
BURST_EVERY = 10               # every 10th CDC round is a burst ...
BURST_SIZE = 20                # ... of 20 mutations before one pump
# what 40 consecutive CDC rounds (the plan's period) are made of; the
# workload weights what it measured per kind of round by these, so a
# window that ends mid-period still reports the plan's mix
ROUND_MIX = {"shell": 10, "none": 8, "member": 10, "pobox": 8, "burst": 4}


@dataclass(frozen=True)
class Facts:
    """Names present in the fixed world (from ``d.handles``)."""
    logins: Sequence[str]
    machines: Sequence[str]
    nfs_machines: Sequence[str]
    maillists: Sequence[str]


@dataclass(frozen=True)
class Op:
    """One protocol query and the reply code the generator expects."""
    query: str
    args: tuple
    expect: int = 0
    kind: str = "read"      # "read" or "write"


@dataclass(frozen=True)
class Session:
    """One self-service session: kinit, connect, auth, ops, disconnect."""
    login: str
    ops: tuple


@dataclass(frozen=True)
class Round:
    """One CDC round: mutations, then one pump, then the markers that
    must be installed.  *check* names the marker rule (see
    ``workloads.PropagateCdc``)."""
    ops: tuple
    check: str
    markers: tuple = field(default=())

    @property
    def kind(self) -> str:
        """The key of this round in ``ROUND_MIX``."""
        return "burst" if len(self.ops) > 1 else self.check


def is_expected(op: Op, code: int) -> bool:
    """Did the reply code match what the generator predicted?"""
    return code == op.expect


def public_list(client: int) -> str:
    """The public list self-service thread *client* toggles itself on."""
    return f"perf-pub-{client}"


def private_list(client: int) -> str:
    """The list write client *client* alone adds to and deletes from."""
    return f"perf-w-{client}"


def _rng(workload: str, seed: int, client: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{client}")


def _blocks(rng: random.Random, composition: Sequence[tuple]):
    """Endless shuffled blocks with a fixed composition: every block
    holds each kind exactly *count* times, so the mix a run measures
    does not drift with the seed — only the order and the keys do."""
    block = [kind for kind, count in composition for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


def point_read_plan(facts: Facts, seed: int, client: int,
                    clients: int = 2) -> Iterator[Op]:
    """One-tuple reads, keys uniform over every login: 40 %
    get_user_by_login, 20 % get_pobox, 20 % get_filesys_by_label,
    10 % get_machine, 10 % get_finger_by_login."""
    rng = _rng("point_read_tcp", seed, client)
    logins, machines = facts.logins, facts.machines
    mix = (("get_user_by_login", 4), ("get_pobox", 2),
           ("get_filesys_by_label", 2), ("get_machine", 1),
           ("get_finger_by_login", 1))
    for query in _blocks(rng, mix):
        if query == "get_machine":
            yield Op(query, (rng.choice(machines),))
        else:
            yield Op(query, (rng.choice(logins),))


def scan_read_plan(facts: Facts, seed: int, client: int,
                   clients: int = 2) -> Iterator[Op]:
    """Large-result and closure reads.  By count 80 % of operations
    return hundreds of rows (and take ~99 % of the time); the shares
    put the median and the tail percentiles inside one query class
    each, not on the border between two."""
    rng = _rng("scan_read_inproc", seed, client)
    initials = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    mix = (("get_user_by_name", 3), ("qualified_get_lists", 2),
           ("get_filesys_by_machine", 4),
           ("get_nfs_quotas_by_partition", 4), ("get_user_by_class", 3),
           ("get_lists_of_member", 1), ("get_ace_use", 2),
           ("get_members_of_list", 1))
    for query in _blocks(rng, mix):
        if query == "get_user_by_name":
            yield Op(query, ("*", rng.choice(initials) + "*"))
        elif query == "qualified_get_lists":
            yield Op(query, ("TRUE", "DONTCARE", "FALSE", "TRUE",
                             "DONTCARE"))
        elif query == "get_filesys_by_machine":
            yield Op(query, (rng.choice(facts.nfs_machines),))
        elif query == "get_nfs_quotas_by_partition":
            yield Op(query, (rng.choice(facts.nfs_machines), "/u1"))
        elif query == "get_user_by_class":
            yield Op(query, (rng.choice(SCAN_CLASSES),))
        elif query == "get_members_of_list":
            yield Op(query, (rng.choice(facts.maillists),))
        else:
            yield Op(query, ("RUSER", rng.choice(facts.logins)))


def _finger_args(login: str, n: int) -> tuple:
    return (login, f"Perf User {n}", f"nick{n}", f"{n} Ames St",
            f"555-{n % 10000:04d}", f"E40-{n % 400}", f"253-{n % 10000:04d}",
            "EECS", "staff")


def write_plan(facts: Facts, seed: int, client: int,
               clients: int = 2) -> Iterator[Op]:
    """Durable writes over a disjoint share of the logins, a private
    machine prefix and a private list, so every reply code is known."""
    rng = _rng("write_durable_tcp", seed, client)
    own = facts.logins[client::clients]
    target = private_list(client)
    members: list = []
    for n in itertools.count():
        pick = rng.random()
        login = rng.choice(own)
        if pick < 0.50:
            yield Op("update_user_shell", (login, f"/bin/w{seed}n{n}"),
                     kind="write")
        elif pick < 0.75:
            yield Op("update_finger_by_login", _finger_args(login, n),
                     kind="write")
        elif pick < 0.90:
            yield Op("add_machine",
                     (f"PW{seed}C{client}N{n}.MIT.EDU", "VAX"),
                     kind="write")
        elif members and (rng.random() < 0.5 or login in members):
            gone = members.pop(rng.randrange(len(members)))
            yield Op("delete_member_from_list", (target, "USER", gone),
                     kind="write")
        else:
            members.append(login)
            yield Op("add_member_to_list", (target, "USER", login),
                     kind="write")


def _zipf_cumulative(count: int) -> list:
    total, out = 0.0, []
    for rank in range(1, count + 1):
        total += 1.0 / rank ** ZIPF_S
        out.append(total)
    return out


def session_plan(facts: Facts, seed: int, client: int,
                 clients: int = 2) -> Iterator[Session]:
    """Self-service sessions.  Each thread owns a disjoint share of the
    pre-registered principals and one public list, so two sessions of
    one user never race and membership is known exactly."""
    rng = _rng("selfservice_sessions_tcp", seed, client)
    own = facts.logins[:SESSION_PRINCIPALS][client::clients]
    cumulative = _zipf_cumulative(len(own))
    target = public_list(client)
    members: set = set()
    about_self = (
        lambda u: Op("get_user_by_login", (u,)),
        lambda u: Op("get_finger_by_login", (u,)),
        lambda u: Op("get_pobox", (u,)),
        lambda u: Op("get_filesys_by_label", (u,)),
        lambda u: Op("get_lists_of_member", ("USER", u)),
        lambda u: Op("get_ace_use", ("USER", u)),
        lambda u: Op("get_nfs_quota", (u, u)),
        lambda u: Op("get_filesys_by_group", (u,)),
    )
    for n in itertools.count():
        rank = bisect.bisect_left(cumulative,
                                  rng.random() * cumulative[-1])
        login = own[min(rank, len(own) - 1)]
        ops = [rng.choice(about_self)(login)
               for _ in range(SESSION_READS - 1)]
        ops.insert(rng.randrange(SESSION_READS),
                   Op("get_members_of_list", (target,),
                      expect=0 if members else MR_NO_MATCH))
        ops.append(Op("update_user_shell", (login, f"/bin/s{seed}n{n}"),
                      kind="write"))
        if rng.random() < 0.5:
            ops.append(Op("update_finger_by_login",
                          _finger_args(login, n), kind="write"))
        elif login in members:
            members.discard(login)
            ops.append(Op("delete_member_from_list",
                          (target, "USER", login), kind="write"))
        else:
            members.add(login)
            ops.append(Op("add_member_to_list",
                          (target, "USER", login), kind="write"))
        yield Session(login, tuple(ops))


def propagate_plan(facts: Facts, seed: int, client: int = 0,
                   clients: int = 1) -> Iterator[Round]:
    """Mutate -> pump -> verify rounds, rotating four mutation kinds;
    every tenth round is a burst sharing one pump."""
    rng = _rng("propagate_cdc", seed, client)
    fresh = list(facts.logins)
    rng.shuffle(fresh)                  # members never repeat
    for n in itertools.count(1):
        login = rng.choice(facts.logins)
        if n % BURST_EVERY == 0:
            shells = [(rng.choice(facts.logins), f"/bin/p{seed}b{n}x{i}")
                      for i in range(BURST_SIZE)]
            # one login may be drawn twice; only its last shell survives
            last = {who: shell for who, shell in shells}
            yield Round(tuple(Op("update_user_shell", pair, kind="write")
                              for pair in shells),
                        "shell", tuple(last.values()))
            continue
        kind = n % 4
        if kind == 1:
            shell = f"/bin/p{seed}r{n}"
            yield Round((Op("update_user_shell", (login, shell),
                            kind="write"),), "shell", (shell,))
        elif kind == 2:
            yield Round((Op("add_machine",
                            (f"PC{seed}N{n}.MIT.EDU", "VAX"),
                            kind="write"),), "none")
        elif kind == 3:
            member = fresh.pop()
            yield Round((Op("add_member_to_list",
                            (CDC_LIST, "USER", member), kind="write"),),
                        "member", (member,))
        else:
            address = f"p{seed}r{n}@perf.example"
            yield Round((Op("set_pobox", (login, "SMTP", address),
                            kind="write"),), "pobox", (address,))


PLANS = {
    "point_read_tcp": point_read_plan,
    "scan_read_inproc": scan_read_plan,
    "write_durable_tcp": write_plan,
    "selfservice_sessions_tcp": session_plan,
    "propagate_cdc": propagate_plan,
}


def plan_sha(workload: str, facts: Facts, seed: int, *, count: int = 200,
             clients: int = 2) -> str:
    """SHA-256 over the first *count* items of every client's plan —
    the seed-determinism fingerprint printed with each result."""
    digest = hashlib.sha256()
    for client in range(clients):
        plan = PLANS[workload](facts, seed, client, clients)
        for item in itertools.islice(plan, count):
            digest.update(repr(item).encode())
    return digest.hexdigest()
