"""The Moira database schema — every relation from section 6 of the paper.

``build_database()`` creates a fresh Database holding the twenty
relations, seeds the ``values`` relation with the ID-allocation hints and
state variables the paper lists (``dcm_enable``, ``def_quota``...), and
loads the type-checking rows of the ``alias`` relation (machine types,
pobox types, locker types, service types, ACE types...).

Field names follow the paper exactly (``users_id``, ``mach_id``,
``clu_id``, ``modby``/``modwith``/``modtime`` audit triples, and so on).

Every relation a DCM generator reads keeps a bounded changed-row log
(``changelog=``); the rest (``servers``, ``capacls``, ``alias``,
``values``) keep none.

``REFERENCES`` declares every id a row points at, once, for the delete
queries, ``mrcheck`` and ``get_ace_use``; the engine enforces none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from repro.db.backend import StorageBackend
from repro.db.engine import Column, Database, Table

__all__ = [
    "build_database",
    "USER_STATE_REGISTERABLE",
    "USER_STATE_ACTIVE",
    "USER_STATE_HALF_REGISTERED",
    "USER_STATE_DELETED",
    "USER_STATE_NOT_REGISTERABLE",
    "UNIQUE_UID",
    "UNIQUE_GID",
    "UNIQUE_LOGIN",
    "FS_STUDENT",
    "FS_FACULTY",
    "FS_STAFF",
    "FS_MISC",
    "Reference", "REFERENCES", "ACE_TARGETS", "MEMBER_TARGETS", "INBOUND",
    "KEYS", "referencing", "references_markdown",
]

# Account status codes (users.status in the paper).
USER_STATE_REGISTERABLE = 0      # Not registered, but registerable
USER_STATE_ACTIVE = 1            # Active account
USER_STATE_HALF_REGISTERED = 2   # Half-registered
USER_STATE_DELETED = 3           # Marked for deletion
USER_STATE_NOT_REGISTERABLE = 4  # Not registerable

# Sentinels from <moira.h>.
UNIQUE_UID = -1
UNIQUE_GID = -1
UNIQUE_LOGIN = "#"

# NFS physical-partition status bits (MR_FS_* in <mr.h>).
FS_STUDENT = 1 << 0
FS_FACULTY = 1 << 1
FS_STAFF = 1 << 2
FS_MISC = 1 << 3

# Changed-row log capacity of the relations DCM generators read (users,
# list, members and strings size their own).  With a log a generator
# sees which rows moved and rebuilds only the outputs they reach;
# without one, any change there rebuilds every output reading the
# relation.  tests/test_incremental_equivalence.py checks that every
# relation a registered generator reads has a log.
GENERATOR_LOG = 1024


def _audit() -> list[Column]:
    """The modtime/modby/modwith triple every mutable relation carries."""
    return [
        Column("modtime", int),
        Column("modby", str, max_len=32),
        Column("modwith", str, max_len=32),
    ]


def build_database() -> Database:
    """A fresh database with all twenty relations, ID hints,
    and the type-checking alias rows."""
    db = Database()

    db.create_table(Table(
        "users",
        [
            Column("login", str, max_len=32, checked=True),
            Column("users_id", int),
            Column("uid", int),
            Column("shell", str, max_len=64),
            Column("last", str, max_len=32, checked=True),
            Column("first", str, max_len=32, checked=True),
            Column("middle", str, max_len=8),
            Column("status", int),
            Column("mit_id", str, max_len=32),   # encrypted MIT id
            Column("mit_year", str, max_len=16),  # academic class
        ] + _audit() + [
            # finger sub-record
            Column("fullname", str, max_len=64),
            Column("nickname", str, max_len=32),
            Column("home_addr", str, max_len=64),
            Column("home_phone", str, max_len=24),
            Column("office_addr", str, max_len=64),
            Column("office_phone", str, max_len=24),
            Column("mit_dept", str, max_len=32),
            Column("mit_affil", str, max_len=16),
            Column("fmodtime", int),
            Column("fmodby", str, max_len=32),
            Column("fmodwith", str, max_len=32),
            # pobox sub-record
            Column("potype", str, max_len=8),    # POP, SMTP, NONE
            Column("pop_id", int),               # machine id of POP server
            Column("box_id", int),               # string id if SMTP
            Column("pmodtime", int),
            Column("pmodby", str, max_len=32),
            Column("pmodwith", str, max_len=32),
        ],
        unique=[("login",), ("users_id",)],
        indexes=["login", "users_id", "uid", "last", "first", "mit_id",
                 "status", "mit_year", "pop_id", "box_id", "potype"],
        # the hottest relation: keep a changed-row log so incremental
        # generators can patch user-keyed files instead of re-extracting
        changelog=1024,
    ))

    db.create_table(Table(
        "machine",
        [
            Column("name", str, max_len=64, fold_case=True, checked=True),
            Column("mach_id", int),
            Column("type", str, max_len=16),
        ] + _audit(),
        unique=[("name",), ("mach_id",)],
        indexes=["name", "mach_id"],
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "cluster",
        [
            Column("name", str, max_len=32, checked=True),
            Column("clu_id", int),
            Column("desc", str, max_len=128),
            Column("location", str, max_len=64),
        ] + _audit(),
        unique=[("name",), ("clu_id",)],
        indexes=["name", "clu_id"],
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "mcmap",
        [
            Column("mach_id", int),
            Column("clu_id", int),
        ],
        unique=[("mach_id", "clu_id")],
        indexes=["mach_id", "clu_id"],
        composite_indexes=[("mach_id", "clu_id")],  # mapping probe
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "svc",
        [
            Column("clu_id", int),
            Column("serv_label", str, max_len=16),
            Column("serv_cluster", str, max_len=32),
        ],
        indexes=["clu_id", "serv_label"],
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "list",
        [
            Column("name", str, max_len=64, checked=True),
            Column("list_id", int),
            Column("active", int),
            Column("public", int),
            Column("hidden", int),
            Column("maillist", int),
            Column("grouplist", int),   # "group" in the paper
            Column("gid", int),
            Column("desc", str, max_len=128),
            Column("acl_type", str, max_len=8),  # USER, LIST, NONE
            Column("acl_id", int),
        ] + _audit(),
        unique=[("name",), ("list_id",)],
        # the maillist index answers qualified_get_lists from one bucket
        indexes=["name", "list_id", "gid", "acl_id", "maillist"],
        composite_indexes=[("acl_type", "acl_id")],  # ACE reverse probe
        # every membership change bumps its list's audit columns; with a
        # log the generators see that those columns are all it touched
        changelog=1024,
    ))

    db.create_table(Table(
        "members",
        [
            Column("list_id", int),
            Column("member_type", str, max_len=8),  # USER, LIST, STRING
            Column("member_id", int),
        ],
        unique=[("list_id", "member_type", "member_id")],
        indexes=["list_id", "member_id"],
        # the two hottest shapes on the access path: the exact
        # existence probe and the "which lists hold this member"
        # reverse probe the closure index builds on
        composite_indexes=[("list_id", "member_type", "member_id"),
                           ("member_type", "member_id")],
        # feeds the incrementally maintained membership-closure index
        changelog=4096,
    ))

    db.create_table(Table(
        "servers",
        [
            Column("name", str, max_len=16, fold_case=True),
            Column("update_int", int),           # minutes
            Column("target_file", str, max_len=64),
            Column("script", str, max_len=64),
            Column("dfgen", int),
            Column("dfcheck", int),
            Column("type", str, max_len=8),      # UNIQUE or REPLICAT
            Column("enable", int),
            Column("inprogress", int),
            Column("harderror", int),
            Column("errmsg", str, max_len=80),
            Column("acl_type", str, max_len=8),
            Column("acl_id", int),
        ] + _audit(),
        unique=[("name",)],
        indexes=["name"],
        composite_indexes=[("acl_type", "acl_id")],  # ACE reverse probe
    ))

    db.create_table(Table(
        "serverhosts",
        [
            Column("service", str, max_len=16, fold_case=True),
            Column("mach_id", int),
            Column("enable", int),
            Column("override", int),
            Column("success", int),
            Column("inprogress", int),
            Column("hosterror", int),
            Column("hosterrmsg", str, max_len=80),
            Column("ltt", int),   # last time tried
            Column("lts", int),   # last time successful
            Column("value1", int),
            Column("value2", int),
            Column("value3", str, max_len=32),
        ] + _audit(),
        unique=[("service", "mach_id")],
        indexes=["service", "mach_id"],
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "filesys",
        [
            Column("label", str, max_len=32, checked=True),
            Column("filsys_id", int),
            Column("phys_id", int),
            Column("type", str, max_len=8),       # NFS, RVD, ERR
            Column("mach_id", int),
            Column("name", str, max_len=80),      # server-side name/packname
            Column("mount", str, max_len=80),     # default mount point
            Column("access", str, max_len=4),     # r / w
            Column("comments", str, max_len=128),
            Column("owner", int),                 # users_id
            Column("owners", int),                # list_id
            Column("createflg", int),
            Column("lockertype", str, max_len=16),
            Column("fsorder", int),               # "order" in the paper
        ] + _audit(),
        unique=[("label", "fsorder"), ("filsys_id",)],
        indexes=["label", "filsys_id", "mach_id", "phys_id", "owner",
                 "owners"],
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "nfsphys",
        [
            Column("nfsphys_id", int),
            Column("mach_id", int),
            Column("dir", str, max_len=32),
            Column("device", str, max_len=32),
            Column("status", int),
            Column("allocated", int),
            Column("size", int),
        ] + _audit(),
        unique=[("nfsphys_id",), ("mach_id", "dir")],
        indexes=["nfsphys_id", "mach_id"],
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "nfsquota",
        [
            Column("users_id", int),
            Column("filsys_id", int),
            Column("phys_id", int),
            Column("quota", int),
        ] + _audit(),
        unique=[("users_id", "filsys_id")],
        indexes=["users_id", "filsys_id", "phys_id"],
        composite_indexes=[("users_id", "filsys_id")],  # quota probe
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "zephyr",
        [
            Column("class", str, max_len=32, checked=True),
            Column("xmt_type", str, max_len=8),
            Column("xmt_id", int),
            Column("sub_type", str, max_len=8),
            Column("sub_id", int),
            Column("iws_type", str, max_len=8),
            Column("iws_id", int),
            Column("iui_type", str, max_len=8),
            Column("iui_id", int),
        ] + _audit(),
        unique=[("class",)],
        indexes=["class"],
        # each Zephyr ACL slot is probed as an (entity type, id) pair
        composite_indexes=[("xmt_type", "xmt_id"), ("sub_type", "sub_id"),
                           ("iws_type", "iws_id"), ("iui_type", "iui_id")],
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "hostaccess",
        [
            Column("mach_id", int),
            Column("acl_type", str, max_len=8),
            Column("acl_id", int),
        ] + _audit(),
        unique=[("mach_id",)],
        indexes=["mach_id"],
        composite_indexes=[("acl_type", "acl_id")],  # ACE reverse probe
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "strings",
        [
            Column("string_id", int),
            Column("string", str, max_len=128),
        ],
        unique=[("string_id",)],
        indexes=["string_id", "string"],
        # an SMTP pobox interns its address: logged, the mail generator
        # patches the pobox line instead of rebuilding the aliases file
        changelog=1024,
    ))

    db.create_table(Table(
        "services",
        [
            Column("name", str, max_len=32),
            Column("protocol", str, max_len=8),
            Column("port", int),
            Column("desc", str, max_len=64),
        ] + _audit(),
        unique=[("name", "protocol")],
        indexes=["name"],
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "printcap",
        [
            Column("name", str, max_len=32, checked=True),
            Column("mach_id", int),
            Column("dir", str, max_len=64),
            Column("rp", str, max_len=32),
            Column("comments", str, max_len=128),
        ] + _audit(),
        unique=[("name",)],
        indexes=["name", "mach_id"],
        changelog=GENERATOR_LOG,
    ))

    db.create_table(Table(
        "capacls",
        [
            Column("capability", str, max_len=64),
            Column("tag", str, max_len=4),
            Column("list_id", int),
        ],
        unique=[("capability",)],
        indexes=["capability", "tag", "list_id"],
    ))

    db.create_table(Table(
        "alias",
        [
            Column("name", str, max_len=64),
            Column("type", str, max_len=16),
            Column("trans", str, max_len=128),
        ],
        indexes=["name", "type"],
        composite_indexes=[("name", "type")],  # the Alias type's probe
    ))

    db.create_table(Table(
        "values",
        [
            Column("name", str, max_len=32),
            Column("value", int),
        ],
        unique=[("name",)],
        indexes=["name"],
    ))

    _seed_values(db)
    _seed_aliases(db)
    return db


def _seed_values(db: Database) -> None:
    """ID hints and state variables the paper names in the values relation."""
    for name, value in [
        ("users_id", 1),
        ("uid", 6500),         # uids in the paper's examples start ~6500
        ("gid", 10900),
        ("list_id", 1),
        ("mach_id", 1),
        ("clu_id", 1),
        ("filsys_id", 1),
        ("nfsphys_id", 1),
        ("strings_id", 1),
        ("dcm_enable", 1),
        ("def_quota", 300),    # default quota for new users, quota units
    ]:
        db.table("values").insert({"name": name, "value": value})


def _seed_aliases(db: Database) -> None:
    """Type-checking rows: (field-name, TYPE, legal-value) per the paper."""
    alias = db.table("alias")
    type_rows = {
        "mach_type": ["VAX", "RT"],
        "pobox": ["POP", "SMTP", "NONE"],
        "class": ["1989", "1990", "1991", "1992", "G", "STAFF", "FACULTY",
                  "OTHER", "TEST"],
        "filesys": ["NFS", "RVD", "ERR"],
        "lockertype": ["HOMEDIR", "PROJECT", "COURSE", "SYSTEM", "OTHER"],
        "service-type": ["UNIQUE", "REPLICAT"],
        "protocol": ["TCP", "UDP"],
        "slabel": ["usrlib", "syslib", "zephyr", "lpr", "printsrv"],
        "alias": ["TYPE", "PRINTER", "SERVICE", "FILESYS", "TYPEDATA"],
        "ace_type": ["USER", "LIST", "NONE"],
        "member": ["USER", "LIST", "STRING"],
        "boolean": ["TRUE", "FALSE", "DONTCARE"],
    }
    for name, values in type_rows.items():
        for value in values:
            alias.insert({"name": name, "type": "TYPE", "trans": value})
    # TYPEDATA rows: how a typed value resolves to an underlying object.
    for name, trans in [
        ("POP", "machine"),
        ("SMTP", "string"),
        ("NONE", "none"),
        ("USER", "user"),
        ("LIST", "list"),
        ("STRING", "string"),
    ]:
        alias.insert({"name": name, "type": "TYPEDATA", "trans": trans})


# -- references: the server, not the database, keeps each id naming a
# row that exists (§5.2.2: "the database remain internally consistant")

@dataclass(frozen=True)
class Reference:
    """*table*.*column* names the (relation, key) *targets* maps the
    row's *type_column* value to (None: nothing); an untyped one keeps
    its target under None, and when *optional* its 0 names nothing.
    *on_delete*: a named row's delete is refused (MR_IN_USE) or takes
    its namers too."""

    table: str
    column: str
    targets: Mapping[Optional[str], Optional[tuple[str, str]]]
    type_column: Optional[str] = None
    on_delete: str = "refuse"     # or "cascade"
    optional: bool = False

    def target(self, row) -> Optional[tuple[str, str]]:
        """What *row* names; KeyError for an undeclared type value."""
        if self.type_column is None:
            return None if self.optional and not row[self.column] \
                else self.targets[None]
        return self.targets[row[self.type_column]]


_USER, _LIST = ("users", "users_id"), ("list", "list_id")
_MACHINE, _CLUSTER = ("machine", "mach_id"), ("cluster", "clu_id")
_STRING, _PHYS = ("strings", "string_id"), ("nfsphys", "nfsphys_id")
# what an ACE (a Zephyr ACL slot too) and a list member name, by type
ACE_TARGETS = {"USER": _USER, "LIST": _LIST, "NONE": None}
MEMBER_TARGETS = {"USER": _USER, "LIST": _LIST, "STRING": _STRING}


def _to(table: str, column: str, target: tuple, **kw) -> Reference:
    return Reference(table, column, {None: target}, **kw)


def _ace(table: str, slot: str = "acl") -> Reference:
    return Reference(table, f"{slot}_id", ACE_TARGETS, f"{slot}_type")


REFERENCES: tuple[Reference, ...] = (
    _to("mcmap", "mach_id", _MACHINE, on_delete="cascade"),
    _to("mcmap", "clu_id", _CLUSTER),
    _to("svc", "clu_id", _CLUSTER, on_delete="cascade"),
    _ace("list"),
    _to("members", "list_id", _LIST),
    Reference("members", "member_id", MEMBER_TARGETS, "member_type"),
    _ace("servers"),
    _to("serverhosts", "service", ("servers", "name")),
    _to("serverhosts", "mach_id", _MACHINE),
    _to("filesys", "mach_id", _MACHINE),
    Reference("filesys", "phys_id", {"NFS": _PHYS, "RVD": None,
                                     "ERR": None}, "type"),
    _to("filesys", "owner", _USER, optional=True),
    _to("filesys", "owners", _LIST, optional=True),
    _to("nfsphys", "mach_id", _MACHINE),
    _to("nfsquota", "users_id", _USER),
    _to("nfsquota", "filsys_id", ("filesys", "filsys_id"),
        on_delete="cascade"),
    # 0 for a quota on a filesystem that is not NFS
    _to("nfsquota", "phys_id", _PHYS, optional=True),
    *(_ace("zephyr", slot) for slot in ("xmt", "sub", "iws", "iui")),
    _ace("hostaccess"),
    _to("hostaccess", "mach_id", _MACHINE),
    _to("printcap", "mach_id", _MACHINE),
    _to("capacls", "list_id", _LIST),
    Reference("users", "pop_id", {"POP": _MACHINE, "SMTP": None,
                                  "NONE": None}, "potype"),
    Reference("users", "box_id", {"SMTP": _STRING, "POP": None,
                                  "NONE": None}, "potype"),
)

# relation -> [(reference, type value)] naming a row of it, and the
# one key they all name it by
INBOUND: dict[str, list[tuple[Reference, Optional[str]]]] = {}
KEYS: dict[str, str] = {}
for _ref in REFERENCES:
    for _type, _target in _ref.targets.items():
        if _target is not None:
            INBOUND.setdefault(_target[0], []).append((_ref, _type))
            KEYS[_target[0]] = _target[1]


def referencing(db: StorageBackend, table: str, value,
                tables=None) -> Iterator[tuple[Reference, list]]:
    """``(reference, rows)`` naming the *table* row whose key is
    *value*: one index probe per reference (from *tables* only, if
    given)."""
    for ref, type_value in INBOUND.get(table, ()):
        if tables is None or ref.table in tables:
            where = {ref.column: value}
            if type_value is not None:
                where[ref.type_column] = type_value
            yield ref, db.table(ref.table).select(where)


_REFERENCES_MD = """\
## References

Rendered by `repro.db.schema.references_markdown()` from `REFERENCES`
(tier-1 checks it is current).  A delete query refuses with `MR_IN_USE`
while a `refuse` row names its row, and takes the `cascade` rows with
it; `mrcheck` reports every row naming a row that does not exist.  An
optional column holding 0 names nothing.

| column | when | names | on delete |
|---|---|---|---|
"""


def references_markdown() -> str:
    """docs/DATABASE.md's References section, from ``REFERENCES``."""
    lines = [_REFERENCES_MD]
    for ref in REFERENCES:
        for kind, target in ref.targets.items():
            if target is not None:
                when = (f"`{ref.type_column}` = {kind}" if kind
                        else "optional" if ref.optional else "")
                lines.append(f"| `{ref.table}.{ref.column}` | {when} | "
                             f"`{target[0]}.{target[1]}` | "
                             f"{ref.on_delete} |\n")
    return "".join(lines)
