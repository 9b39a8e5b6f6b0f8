"""Deterministic population generator for an Athena-shaped deployment.

Everything is derived from seeded RNGs: user names (syllable
composition, so they look plausible and never collide by construction
of a serial suffix), class years with a realistic mix of undergrads,
grads, staff and faculty, mailing lists with power-law-ish sizes, unix
groups, clusters, printers, and /etc/services contents.

The loader writes through the relations directly — this models the
registrar's-tape bulk load, which predates the query interface — but
uses the same ID hints, so everything it creates is indistinguishable
from query-created data.

The build is a dependency-ordered stage graph (machines/clusters →
nfsphys → users → unregistered → lists → printers/services/zephyr).
Each bulk stage splits its rows into fixed-size partitions whose
contents come from a partition-private RNG seeded by ``(spec.seed,
stage, partition)``, so the generated world depends only on the spec —
never on worker count or scheduling.  Generation runs on a bounded
worker pool; rows are applied in partition order through one of two
apply modes:

* ``parallel=True`` (default) — ids come from one
  :meth:`Database.reserve_ids` range per hint per stage, rows land via
  :meth:`Table.bulk_load` inside per-partition ``shard_txn`` batches,
  per-partition ``nfsphys.allocated`` deltas are folded into one
  update per partition row, and the cyclic GC is suspended for the
  duration.
* ``parallel=False`` — the seed's classic path: per-row
  :meth:`Database.next_id` and :meth:`Table.insert`, per-user quota
  accounting, no transactions.  This is both the performance baseline
  and the byte-identity oracle: the same generated rows go through the
  general-purpose write path, and every ``next_id`` is asserted equal
  to the id the stage graph pre-computed for that row.

Both modes produce byte-identical relations (``mrbackup`` digests
match); only write-path bookkeeping that backups exclude — version
vectors, table stats, changelogs — may differ.
"""

from __future__ import annotations

import gc
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.db.engine import Database
from repro.db.schema import USER_STATE_ACTIVE, USER_STATE_REGISTERABLE
from repro.errors import MR_INTERNAL, MoiraError
from repro.kerberos.crypt import unix_crypt

__all__ = ["PopulationSpec", "PopulationHandles", "load_population",
           "random_names", "USERS_PARTITION", "LISTS_PARTITION"]

# Stage partition grains.  Fixed by contract, NOT derived from the
# worker count: every partition's RNG is seeded (seed, stage, p), so
# changing the grain changes the generated world.  Bump these only
# with a deliberate world-format change.
USERS_PARTITION = 2048
LISTS_PARTITION = 512

_FIRST_SYLLABLES = ["an", "bar", "car", "dan", "el", "fran", "gar", "han",
                    "is", "jo", "kar", "lin", "mar", "nor", "ol", "pat",
                    "quin", "rob", "sam", "tan", "ul", "vic", "wen", "xim",
                    "yol", "zel"]
_LAST_SYLLABLES = ["son", "ton", "field", "berg", "stein", "wood", "man",
                   "sen", "ley", "ford", "worth", "smith", "baker", "lund",
                   "mark", "dale"]
_SHELLS = ["/bin/csh", "/bin/csh", "/bin/csh", "/bin/sh", "/usr/athena/tcsh"]
_CLASSES = ["1989", "1990", "1991", "1992", "G", "STAFF", "FACULTY"]
_CLASS_WEIGHTS = [16, 17, 17, 18, 18, 10, 4]
_AFFILS = {"1989": "undergraduate", "1990": "undergraduate",
           "1991": "undergraduate", "1992": "undergraduate",
           "G": "graduate", "STAFF": "staff", "FACULTY": "faculty"}


def random_names(rng: random.Random, count: int,
                 start: int = 0) -> list[tuple[str, str, str]]:
    """(first, last, login) triples, logins unique by construction.

    The login suffix is the *global* serial index ``start + i``, so a
    partitioned caller handing each partition its own RNG and offset
    still gets globally collision-free logins.
    """
    out = []
    choice = rng.choice
    for i in range(count):
        first = (choice(_FIRST_SYLLABLES)
                 + choice(_FIRST_SYLLABLES)).capitalize()
        last = (choice(_FIRST_SYLLABLES)
                + choice(_LAST_SYLLABLES)).capitalize()
        login = (first[:1] + last[:6] + str(start + i)).lower()
        out.append((first, last, login))
    return out


@dataclass
class PopulationSpec:
    """Knobs, defaulting to the paper's deployment shape (§5.1)."""

    users: int = 10_000
    unregistered_users: int = 1_000   # next term's incoming students
    nfs_servers: int = 20
    pop_servers: int = 2
    zephyr_servers: int = 3
    clusters: int = 12
    machines_per_cluster: int = 8
    printers: int = 40
    network_services: int = 100
    maillists: int = 150
    zephyr_classes: int = 6
    seed: int = 1988
    # fraction of users whose pobox is SMTP (off-hub) rather than POP
    smtp_fraction: float = 0.03

    @classmethod
    def design_point(cls, users: int, *,
                     seed: int = 1988) -> "PopulationSpec":
        """A deployment scaled self-consistently to *users*.

        The scale benches run this from 100k up to the 1M design point
        — orders of magnitude past the paper's campus — so the
        dependent knobs must scale with it or the load (and the
        registration storm on top) hits capacity walls: every homedir
        takes ``def_quota`` (300) blocks of a 400k-block NFS
        partition, every POP mailbox takes one of 8000 serverhost
        slots, and the storm registers another ``unregistered_users``
        on top of the bulk load.  Each count keeps ~33% headroom above
        the combined demand.
        """
        total = users + max(1_000, users // 10)
        per_partition = 400_000 // 300      # homedirs per NFS partition
        return cls(
            users=users,
            unregistered_users=max(1_000, users // 10),
            nfs_servers=max(20, -(-total * 4 // (per_partition * 3))),
            pop_servers=max(2, -(-total // 6_000)),
            zephyr_servers=max(3, users // 20_000),
            clusters=max(12, users // 2_500),
            printers=max(40, users // 1_000),
            maillists=max(150, users // 200),
            seed=seed,
        )


@dataclass
class PopulationHandles:
    """Names of the objects the loader created, for tests and benches."""

    logins: list[str] = field(default_factory=list)
    unregistered_ids: list[tuple[str, str, str]] = field(
        default_factory=list)  # (first, last, plain MIT id)
    nfs_machines: list[str] = field(default_factory=list)
    pop_machines: list[str] = field(default_factory=list)
    zephyr_machines: list[str] = field(default_factory=list)
    hesiod_machine: str = ""
    mailhub_machine: str = ""
    cluster_names: list[str] = field(default_factory=list)
    maillist_names: list[str] = field(default_factory=list)
    zephyr_class_names: list[str] = field(default_factory=list)


def load_population(db: Database, spec: PopulationSpec, now: int = 0, *,
                    parallel: bool = True,
                    workers: int | None = None) -> PopulationHandles:
    """Fill *db* with a deterministic Athena-shaped campus.

    *parallel* selects the bulk apply path (reserved id ranges +
    ``bulk_load`` batches under shard transactions); it silently falls
    back to the classic per-row path on backends without writer shards
    (sqlite).  *workers* bounds the generation pool (default
    4); the generated world is identical for every worker count.
    """
    builder = _Builder(db, spec, now, parallel=parallel, workers=workers)
    if not builder.parallel:
        return builder.build()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return builder.build()
    finally:
        if was_enabled:
            gc.enable()


def _expect(got: int, want: int, what: str) -> None:
    if got != want:
        raise MoiraError(
            MR_INTERNAL,
            f"population id plan diverged: {what} allocated {got}, "
            f"stage graph computed {want}")


def _ranges(total: int, grain: int) -> list[tuple[int, int, int]]:
    """(partition, start, count) triples covering ``range(total)``."""
    return [(p, p * grain, min(grain, total - p * grain))
            for p in range((total + grain - 1) // grain)]


def _stage_rng(spec: PopulationSpec, stage: str, p: int) -> random.Random:
    # str seeds hash through sha512 (seeding version 2): stable across
    # runs, platforms and PYTHONHASHSEED, unlike hash() of a tuple
    return random.Random(f"{spec.seed}/{stage}/{p}")


# -- partition generators (pure: (spec, partition) -> rows) ---------------


def _gen_users_partition(spec, p, start, count):
    """(first, last, login, year, smtp, shell, mit_id) per user."""
    rng = _stage_rng(spec, "users", p)
    names = random_names(rng, count, start)
    out = []
    for j, (first, last, login) in enumerate(names):
        year = rng.choices(_CLASSES, weights=_CLASS_WEIGHTS)[0]
        smtp = rng.random() < spec.smtp_fraction
        shell = rng.choice(_SHELLS)
        out.append((first, last, login, year, smtp, shell,
                    unix_crypt(f"9{start + j:08d}", first[0] + last[0])))
    return out


def _gen_unregistered_partition(spec, p, start, count):
    """(first, last, plain MIT id, hashed id) per incoming student."""
    rng = _stage_rng(spec, "unregistered", p)
    names = random_names(rng, count, start)
    out = []
    for j, (first, last, _login) in enumerate(names):
        plain = f"8{start + j:08d}"
        out.append((first, last, plain,
                    unix_crypt(plain[-7:], first[0] + last[0])))
    return out


def _gen_lists_partition(spec, p, start, count, active_ids):
    """(name, is_group, owner users_id, public, member ids) per list."""
    rng = _stage_rng(spec, "lists", p)
    out = []
    for j in range(count):
        name = (f"{rng.choice(_FIRST_SYLLABLES)}"
                f"{rng.choice(_LAST_SYLLABLES)}-{start + j}")
        is_group = rng.random() < 0.3
        owner = rng.choice(active_ids)
        public = int(rng.random() < 0.5)
        # power-law-ish sizes: most lists small, a few very large
        size = min(len(active_ids), int(rng.paretovariate(1.2) * 3))
        members = rng.sample(active_ids, size)
        out.append((name, is_group, owner, public, members))
    return out


# -- the stage graph ------------------------------------------------------


class _Builder:
    """One population build: stage graph + one of two apply modes."""

    def __init__(self, db, spec, now, *, parallel, workers):
        self.db = db
        self.spec = spec
        self.now = now
        # bulk apply (reserve_ids, bulk_load under shard transactions)
        # is the in-memory engine's; sqlite takes the classic path
        self.parallel = bool(parallel and db.supports_bulk_load)
        self.workers = max(1, int(workers)) if workers else 4
        self.handles = PopulationHandles()
        self.machine_ids: dict[str, int] = {}   # NAME -> mach_id
        self.registered_ids: list[int] = []     # users_id, build order
        self.maillist_ids: list[int] = []       # list_id, build order
        self._templates: dict[str, dict] = {}   # table -> default row

    def _template(self, table) -> dict:
        """Default row in schema column order, for trusted bulk rows.

        ``{**template, **vals}`` produces exactly what ``insert``'s
        normalisation would for the same *vals* — the digest oracle
        (serial build) coerces the very same values through the
        general path, so any type drift here fails byte-identity.
        """
        tmpl = self._templates.get(table.name)
        if tmpl is None:
            tmpl = {name: column.default
                    for name, column in table.columns.items()}
            self._templates[table.name] = tmpl
        return tmpl

    def build(self) -> PopulationHandles:
        self._stage_machines()
        self._stage_clusters()
        self._stage_nfsphys()
        self._stage_users()
        self._stage_unregistered()
        self._stage_lists()
        self._stage_printers()
        self._stage_services()
        self._stage_zephyr()
        return self.handles

    # -- shared plumbing --------------------------------------------------

    def _map(self, fn, jobs: list) -> list:
        """Order-preserving map, pooled when the build is parallel."""
        if self.parallel and self.workers > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(fn, jobs))
        return [fn(job) for job in jobs]

    def _reserve(self, hint: str, count: int, base: int) -> None:
        """Claim a contiguous id range and check it starts where the
        stage graph assumed (nothing else may allocate mid-stage)."""
        if count:
            got = self.db.reserve_ids(hint, count, now=self.now)
            _expect(got, base, f"reserve_ids({hint!r})")

    def _add_machine(self, name: str, mtype: str) -> int:
        mach_id = self.db.next_id("mach_id", now=self.now)
        self.db.table("machine").insert(
            {"name": name.upper(), "mach_id": mach_id, "type": mtype,
             "modtime": self.now, "modby": "registrar", "modwith": "load"},
            now=self.now)
        self.machine_ids[name.upper()] = mach_id
        return mach_id

    # -- small stages (identical in both modes) ---------------------------

    def _stage_machines(self) -> None:
        spec, handles = self.spec, self.handles
        handles.hesiod_machine = "SUOMI.MIT.EDU"
        self._add_machine(handles.hesiod_machine, "VAX")
        handles.mailhub_machine = "ATHENA.MIT.EDU"
        self._add_machine(handles.mailhub_machine, "VAX")
        for i in range(spec.nfs_servers):
            name = f"LOCKER-{i + 1}.MIT.EDU"
            self._add_machine(name, "VAX")
            handles.nfs_machines.append(name)
        for i in range(spec.pop_servers):
            name = f"ATHENA-PO-{i + 1}.MIT.EDU"
            self._add_machine(name, "VAX")
            handles.pop_machines.append(name)
        for i in range(spec.zephyr_servers):
            name = f"ZEPHYR-{i + 1}.MIT.EDU"
            self._add_machine(name, "VAX")
            handles.zephyr_machines.append(name)

    def _stage_clusters(self) -> None:
        db, spec, now = self.db, self.spec, self.now
        rng = _stage_rng(spec, "clusters", 0)
        clusters = db.table("cluster")
        svc = db.table("svc")
        mcmap = db.table("mcmap")
        for i in range(spec.clusters):
            name = f"bldg{i + 1:02d}-vs"
            clu_id = db.next_id("clu_id", now=now)
            clusters.insert(
                {"name": name, "clu_id": clu_id,
                 "desc": f"workstation cluster {i + 1}",
                 "location": f"Building {i + 1}", "modtime": now,
                 "modby": "registrar", "modwith": "load"},
                now=now)
            self.handles.cluster_names.append(name)
            svc.insert({"clu_id": clu_id, "serv_label": "zephyr",
                        "serv_cluster":
                            f"ZEPHYR-{(i % spec.zephyr_servers) + 1}"
                            ".MIT.EDU"}, now=now)
            svc.insert({"clu_id": clu_id, "serv_label": "lpr",
                        "serv_cluster": f"e{i + 1:02d}"}, now=now)
            for j in range(spec.machines_per_cluster):
                mtype = "RT" if rng.random() < 0.5 else "VAX"
                mach_id = self._add_machine(
                    f"W{i + 1:02d}-{j + 1:03d}.MIT.EDU", mtype)
                mcmap.insert({"mach_id": mach_id, "clu_id": clu_id},
                             now=now)

    def _stage_nfsphys(self) -> None:
        db, now = self.db, self.now
        nfsphys = db.table("nfsphys")
        for i, name in enumerate(self.handles.nfs_machines):
            # the machines stage hands over name -> mach_id, so the
            # bulk load never pays a per-server table probe
            mach_id = self.machine_ids[name]
            status = 1 << (i % 4)  # rotate student/faculty/staff/misc
            nfsphys.insert(
                {"nfsphys_id": db.next_id("nfsphys_id", now=now),
                 "mach_id": mach_id, "dir": "/u1", "device": "ra81a",
                 "status": status | 1,  # everyone also takes students
                 "allocated": 0, "size": 400_000, "modtime": now,
                 "modby": "registrar", "modwith": "load"},
                now=now)

    # -- bulk stages ------------------------------------------------------

    def _stage_users(self) -> None:
        db, spec, now = self.db, self.spec, self.now
        if not spec.users:
            return
        parts = _ranges(spec.users, USERS_PARTITION)
        gen = self._map(lambda job: _gen_users_partition(spec, *job), parts)

        bases = {h: db.get_value(h)
                 for h in ("users_id", "uid", "strings_id", "gid",
                           "list_id", "filsys_id")}
        def_quota = db.get_value("def_quota")
        pop_ids = [self.machine_ids[n] for n in self.handles.pop_machines]
        nfsphys = db.table("nfsphys")
        phys_rows = list(nfsphys.rows)
        nphys = len(phys_rows)
        n_smtp = sum(1 for rows in gen for u in rows if u[4])

        if self.parallel:
            self._reserve("users_id", spec.users, bases["users_id"])
            self._reserve("uid", spec.users, bases["uid"])
            self._reserve("strings_id", n_smtp, bases["strings_id"])
            self._reserve("gid", spec.users, bases["gid"])
            self._reserve("list_id", spec.users, bases["list_id"])
            self._reserve("filsys_id", spec.users, bases["filsys_id"])

        users_t = db.table("users")
        lists_t = db.table("list")
        members_t = db.table("members")
        filesys_t = db.table("filesys")
        quota_t = db.table("nfsquota")
        strings_t = db.table("strings")
        t_user = self._template(users_t)
        t_list = self._template(lists_t)
        t_member = self._template(members_t)
        t_filesys = self._template(filesys_t)
        t_quota = self._template(quota_t)
        t_string = self._template(strings_t)

        i = 0
        smtp_rank = 0
        alloc: dict[int, int] = {}
        for (_p, _start, _count), rows in zip(parts, gen):
            batch: dict = {t: [] for t in ("strings", "users", "list",
                                           "members", "filesys",
                                           "nfsquota")} \
                if self.parallel else {}
            for first, last, login, year, smtp, shell, mit_id in rows:
                users_id = bases["users_id"] + i
                uid = bases["uid"] + i
                gid = bases["gid"] + i
                list_id = bases["list_id"] + i
                filsys_id = bases["filsys_id"] + i
                box_id = 0
                if smtp:
                    box_id = bases["strings_id"] + smtp_rank
                    smtp_rank += 1
                phys = phys_rows[i % nphys]
                alloc[i % nphys] = alloc.get(i % nphys, 0) + 1

                string_vals = ({"string_id": box_id,
                                "string": f"{login}@other.mit.edu"}
                               if smtp else None)
                user_vals = {
                    "login": login, "users_id": users_id, "uid": uid,
                    "shell": shell, "last": last, "first": first,
                    "middle": "", "status": USER_STATE_ACTIVE,
                    "mit_id": mit_id, "mit_year": year,
                    "fullname": f"{first} {last}",
                    "mit_affil": _AFFILS[year],
                    "potype": "SMTP" if smtp else "POP",
                    "pop_id": 0 if smtp else pop_ids[i % len(pop_ids)],
                    "box_id": box_id,
                    "modtime": now, "modby": "registrar",
                    "modwith": "load"}
                # personal unix group
                list_vals = {
                    "name": login, "list_id": list_id, "active": 1,
                    "public": 0, "hidden": 0, "maillist": 0,
                    "grouplist": 1, "gid": gid,
                    "desc": f"personal group of {login}",
                    "acl_type": "USER", "acl_id": users_id,
                    "modtime": now, "modby": "registrar",
                    "modwith": "load"}
                member_vals = {"list_id": list_id, "member_type": "USER",
                               "member_id": users_id}
                # home locker + quota on a rotating NFS partition
                filesys_vals = {
                    "label": login, "filsys_id": filsys_id,
                    "phys_id": phys["nfsphys_id"], "type": "NFS",
                    "mach_id": phys["mach_id"],
                    "name": f"{phys['dir']}/{login}",
                    "mount": f"/mit/{login}", "access": "w",
                    "comments": "", "owner": users_id,
                    "owners": list_id, "createflg": 1,
                    "lockertype": "HOMEDIR", "fsorder": 1,
                    "modtime": now, "modby": "registrar",
                    "modwith": "load"}
                quota_vals = {
                    "users_id": users_id, "filsys_id": filsys_id,
                    "phys_id": phys["nfsphys_id"], "quota": def_quota,
                    "modtime": now, "modby": "registrar",
                    "modwith": "load"}

                if self.parallel:
                    if string_vals is not None:
                        batch["strings"].append(
                            {**t_string, **string_vals})
                    batch["users"].append({**t_user, **user_vals})
                    batch["list"].append({**t_list, **list_vals})
                    batch["members"].append({**t_member, **member_vals})
                    batch["filesys"].append(
                        {**t_filesys, **filesys_vals})
                    batch["nfsquota"].append({**t_quota, **quota_vals})
                else:
                    _expect(db.next_id("users_id", now=now), users_id,
                            "users_id")
                    _expect(db.next_id("uid", now=now), uid, "uid")
                    if smtp:
                        _expect(db.next_id("strings_id", now=now),
                                box_id, "strings_id")
                        strings_t.insert(string_vals, now=now)
                    users_t.insert(user_vals, now=now)
                    _expect(db.next_id("gid", now=now), gid, "gid")
                    _expect(db.next_id("list_id", now=now), list_id,
                            "list_id")
                    lists_t.insert(list_vals, now=now)
                    members_t.insert(member_vals, now=now)
                    _expect(db.next_id("filsys_id", now=now), filsys_id,
                            "filsys_id")
                    filesys_t.insert(filesys_vals, now=now)
                    quota_t.insert(quota_vals, now=now)
                    nfsphys.update_rows(
                        [phys], {"allocated": phys["allocated"]
                                 + def_quota},
                        now=now, touch_stats=False)

                self.handles.logins.append(login)
                self.registered_ids.append(users_id)
                i += 1

            if self.parallel:
                with db.shard_txn(None):
                    if batch["strings"]:
                        strings_t.bulk_load(batch["strings"], now=now)
                    users_t.bulk_load(batch["users"], now=now)
                    lists_t.bulk_load(batch["list"], now=now)
                    members_t.bulk_load(batch["members"], now=now)
                    filesys_t.bulk_load(batch["filesys"], now=now)
                    quota_t.bulk_load(batch["nfsquota"], now=now)

        if self.parallel and alloc:
            # one allocated-counter fold per partition row, not one
            # per homedir — same final blocks as the per-user path
            with db.shard_txn(None):
                for idx in sorted(alloc):
                    phys = phys_rows[idx]
                    nfsphys.update_rows(
                        [phys],
                        {"allocated": phys["allocated"]
                         + alloc[idx] * def_quota},
                        now=now, touch_stats=False)

    def _stage_unregistered(self) -> None:
        """Next term's registrar tape: status-0 users, no login yet."""
        db, spec, now = self.db, self.spec, self.now
        total = spec.unregistered_users
        if not total:
            return
        parts = _ranges(total, USERS_PARTITION)
        gen = self._map(
            lambda job: _gen_unregistered_partition(spec, *job), parts)
        base_users_id = db.get_value("users_id")
        base_uid = db.get_value("uid")
        if self.parallel:
            self._reserve("users_id", total, base_users_id)
            self._reserve("uid", total, base_uid)
        users_t = db.table("users")
        t_user = self._template(users_t)
        i = 0
        for (_p, _start, _count), rows in zip(parts, gen):
            batch = []
            for first, last, plain, hashed in rows:
                users_id = base_users_id + i
                uid = base_uid + i
                user_vals = {
                    "login": f"#{uid}", "users_id": users_id, "uid": uid,
                    "shell": "/bin/csh", "last": last, "first": first,
                    "middle": "", "status": USER_STATE_REGISTERABLE,
                    "mit_id": hashed, "mit_year": "1992",
                    "fullname": f"{first} {last}", "potype": "NONE",
                    "modtime": now, "modby": "registrar",
                    "modwith": "load"}
                if self.parallel:
                    batch.append({**t_user, **user_vals})
                else:
                    _expect(db.next_id("users_id", now=now), users_id,
                            "users_id")
                    _expect(db.next_id("uid", now=now), uid, "uid")
                    users_t.insert(user_vals, now=now)
                self.handles.unregistered_ids.append((first, last, plain))
                i += 1
            if self.parallel:
                with db.shard_txn(None):
                    users_t.bulk_load(batch, now=now)

    def _stage_lists(self) -> None:
        db, spec, now = self.db, self.spec, self.now
        active = self.registered_ids
        if not active or not spec.maillists:
            return
        parts = _ranges(spec.maillists, LISTS_PARTITION)
        gen = self._map(
            lambda job: _gen_lists_partition(spec, *job, active), parts)
        base_list = db.get_value("list_id")
        base_gid = db.get_value("gid")
        n_groups = sum(1 for rows in gen for item in rows if item[1])
        if self.parallel:
            self._reserve("list_id", spec.maillists, base_list)
            self._reserve("gid", n_groups, base_gid)
        lists_t = db.table("list")
        members_t = db.table("members")
        t_list = self._template(lists_t)
        t_member = self._template(members_t)
        i = 0
        group_rank = 0
        for (_p, _start, _count), rows in zip(parts, gen):
            lists_batch: list = []
            members_batch: list = []
            for name, is_group, owner_id, public, member_ids in rows:
                list_id = base_list + i
                gid = 0
                if is_group:
                    gid = base_gid + group_rank
                    group_rank += 1
                list_vals = {
                    "name": name, "list_id": list_id, "active": 1,
                    "public": public, "hidden": 0, "maillist": 1,
                    "grouplist": int(is_group), "gid": gid,
                    "desc": f"mailing list {name}", "acl_type": "USER",
                    "acl_id": owner_id, "modtime": now,
                    "modby": "registrar", "modwith": "load"}
                member_rows = [{"list_id": list_id,
                                "member_type": "USER",
                                "member_id": mid} for mid in member_ids]
                if self.parallel:
                    lists_batch.append({**t_list, **list_vals})
                    members_batch.extend(
                        {**t_member, **m} for m in member_rows)
                else:
                    _expect(db.next_id("list_id", now=now), list_id,
                            "list_id")
                    if is_group:
                        _expect(db.next_id("gid", now=now), gid, "gid")
                    lists_t.insert(list_vals, now=now)
                    for m in member_rows:
                        members_t.insert(m, now=now)
                self.handles.maillist_names.append(name)
                self.maillist_ids.append(list_id)
                i += 1
            if self.parallel:
                with db.shard_txn(None):
                    lists_t.bulk_load(lists_batch, now=now)
                    if members_batch:
                        members_t.bulk_load(members_batch, now=now)

    # -- trailing small stages --------------------------------------------

    def _stage_printers(self) -> None:
        db, spec, now = self.db, self.spec, self.now
        printcap = db.table("printcap")
        machines = db.table("machine").rows
        spool_hosts = [m for m in machines if m["type"] == "VAX"][:10]
        for i in range(spec.printers):
            host = spool_hosts[i % len(spool_hosts)]
            name = f"ln03-{i + 1}" if i % 3 else f"ps-{i + 1}"
            printcap.insert(
                {"name": name, "mach_id": host["mach_id"],
                 "dir": f"/usr/spool/printer/{name}", "rp": name,
                 "comments": "", "modtime": now, "modby": "registrar",
                 "modwith": "load"}, now=now)

    def _stage_services(self) -> None:
        db, spec, now = self.db, self.spec, self.now
        services = db.table("services")
        for name, proto, port in _WELL_KNOWN_SERVICES:
            services.insert({"name": name, "protocol": proto,
                             "port": port, "desc": name, "modtime": now,
                             "modby": "registrar", "modwith": "load"},
                            now=now)
        for i in range(max(0, spec.network_services
                           - len(_WELL_KNOWN_SERVICES))):
            services.insert(
                {"name": f"athena-svc-{i}", "protocol": "TCP",
                 "port": 5000 + i, "desc": f"athena service {i}",
                 "modtime": now, "modby": "registrar",
                 "modwith": "load"}, now=now)

    def _stage_zephyr(self) -> None:
        db, spec, now = self.db, self.spec, self.now
        rng = _stage_rng(spec, "zephyr", 0)
        zephyr = db.table("zephyr")
        for i in range(spec.zephyr_classes):
            name = "MOIRA" if i == 0 else f"class-{i}"
            controlled = (rng.choice(self.maillist_ids)
                          if self.maillist_ids and i else 0)
            zephyr.insert(
                {"class": name,
                 "xmt_type": "LIST" if controlled else "NONE",
                 "xmt_id": controlled,
                 "sub_type": "NONE", "sub_id": 0,
                 "iws_type": "NONE", "iws_id": 0,
                 "iui_type": "NONE", "iui_id": 0,
                 "modtime": now, "modby": "registrar",
                 "modwith": "load"}, now=now)
            self.handles.zephyr_class_names.append(name)


_WELL_KNOWN_SERVICES = [
    ("smtp", "TCP", 25), ("qotd", "TCP", 17), ("telnet", "TCP", 23),
    ("ftp", "TCP", 21), ("finger", "TCP", 79), ("hesiod", "UDP", 88),
    ("zephyr-clt", "UDP", 2103), ("zephyr-hm", "UDP", 2104),
    ("pop", "TCP", 109), ("rpc_ns", "UDP", 32767),
]
