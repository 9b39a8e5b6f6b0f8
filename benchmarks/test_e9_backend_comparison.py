"""E9 (extension) — the database-independence ablation.

§5.2: "Moira does not depend on any special feature of INGRES ...
Moira can easily utilize other relational databases."  We run the same
query workload against the pure-Python engine and the SQLite backend
— both opened through the :mod:`repro.db.backend` StorageBackend
factory, the same code path the server uses — and compare: correctness
must be identical (asserted by the test suite); here we measure the
cost of the swap, reproducing the paper's architectural point that the
DBMS sits *below* the query interface and can be exchanged without
touching anything above it.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record
from repro.db.backend import StorageBackend, create_backend
from repro.queries.base import QueryContext, execute_query
from repro.sim.clock import Clock

N_USERS = 2000


def load_users(ctx, n):
    for i in range(n):
        execute_query(ctx, "add_user",
                      [f"user{i:05d}", "-1", "/bin/csh", f"Last{i}",
                       "First", "", "1", "", "1990"])


@pytest.fixture(scope="module")
def backends():
    """Both engines built through the StorageBackend factory — the
    exact code path the server uses to open its database."""
    clock = Clock()
    contexts = []
    for name in ("memory", "sqlite"):
        db = create_backend(name)
        assert isinstance(db, StorageBackend)
        ctx = QueryContext(db=db, clock=clock, caller="root",
                           privileged=True)
        load_users(ctx, N_USERS)
        contexts.append(ctx)
    return tuple(contexts)


def point_query_us(ctx, samples=400):
    login = f"user{N_USERS // 2:05d}"
    execute_query(ctx, "get_user_by_login", [login])
    t0 = time.perf_counter()
    for _ in range(samples):
        execute_query(ctx, "get_user_by_login", [login])
    return (time.perf_counter() - t0) / samples * 1e6


def update_us(ctx, samples=200):
    login = f"user{N_USERS // 3:05d}"
    t0 = time.perf_counter()
    for i in range(samples):
        shell = "/bin/sh" if i % 2 else "/bin/csh"
        execute_query(ctx, "update_user_shell", [login, shell])
    return (time.perf_counter() - t0) / samples * 1e6


class TestBackendComparison:
    def test_benchmark_python_point_query(self, backends, benchmark):
        py_ctx, _ = backends
        login = f"user{N_USERS // 2:05d}"
        benchmark(lambda: execute_query(py_ctx, "get_user_by_login",
                                        [login]))

    def test_benchmark_sqlite_point_query(self, backends, benchmark):
        _, sq_ctx = backends
        login = f"user{N_USERS // 2:05d}"
        benchmark(lambda: execute_query(sq_ctx, "get_user_by_login",
                                        [login]))

    def test_shape_and_emit(self, backends, benchmark):
        py_ctx, sq_ctx = backends
        py_q, sq_q = point_query_us(py_ctx), point_query_us(sq_ctx)
        py_u, sq_u = update_us(py_ctx), update_us(sq_ctx)

        # identical answers from both backends
        login = f"user{N_USERS // 2:05d}"
        py_row = execute_query(py_ctx, "get_user_by_login", [login])[0]
        sq_row = execute_query(sq_ctx, "get_user_by_login", [login])[0]
        identical = tuple(map(str, py_row[:9])) == \
            tuple(map(str, sq_row[:9]))

        record("e9_backend_comparison", {
            "python_point_query_us": round(py_q, 1),
            "python_update_us": round(py_u, 1),
            "sqlite_point_query_us": round(sq_q, 1),
            "sqlite_update_us": round(sq_u, 1),
            "identical_results": identical,
        }, [
            "E9: swapping the DBMS under the query interface "
            f"({N_USERS} users)",
            f"{'':16s} {'point query (µs)':>18s} {'update (µs)':>14s}",
            f"{'python engine':16s} {py_q:>18.1f} {py_u:>14.1f}",
            f"{'sqlite backend':16s} {sq_q:>18.1f} {sq_u:>14.1f}",
            f"  identical query results: {identical}",
            "shape check (paper): 'the application interface will not "
            "change' — same answers, only storage cost differs",
        ])
        assert identical
        # both backends stay interactive (well under a millisecond...
        # sqlite pays more per op but the same order of usability)
        assert py_q < 1000
        assert sq_q < 20000

        benchmark(lambda: None)
