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
"""

from __future__ import annotations

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
