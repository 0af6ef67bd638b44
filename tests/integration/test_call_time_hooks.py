"""Functions that instrumentation wraps are looked up at call time.

A tracer or profiler wraps ``repro.table.planner.hash_join``,
``repro.table.sql.parse_select`` and
``repro.parallel.ingest.sharded_append_batch`` by replacing the module
global.  A default argument, an import-time alias or a kernel parameter
would keep a reference to the original function and silently bypass
the wrapper, so these tests patch a spy over each global and drive the
public entry points that must reach it.
"""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.parallel import ingest
from repro.table import planner, sql
from repro.table.schema import Column, ColumnType, Schema
from repro.table.sql import SQLError, query
from repro.table.table import Lakehouse


def _spy(monkeypatch, module, name):
    """Replace ``module.name`` with a pass-through that records calls."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_sql_join_reaches_the_patched_hash_join(lakehouse, monkeypatch):
    left = Schema([Column("k", ColumnType.INT64),
                   Column("v", ColumnType.INT64)])
    right = Schema([Column("k", ColumnType.INT64),
                    Column("w", ColumnType.STRING)])
    lakehouse.create_table("a", left).insert(
        [{"k": key % 3, "v": key} for key in range(6)]
    )
    lakehouse.create_table("b", right).insert(
        [{"k": 0, "w": "zero"}, {"k": 2, "w": "two"}]
    )
    calls = _spy(monkeypatch, planner, "hash_join")
    rows = query(lakehouse, "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k")
    assert len(calls) == 1
    assert sorted(tuple(row.values()) for row in rows) == [
        (0, "zero"), (2, "two"), (3, "zero"), (5, "two"),
    ]


def test_group_commit_reaches_the_patched_write_wave(plogs, monkeypatch):
    calls = _spy(monkeypatch, ingest, "sharded_append_batch")
    addresses, sim_s = plogs.append_batch([("k1", b"one"), ("k2", b"two")])
    assert len(calls) == 1
    assert calls[0][0] is plogs
    assert len(addresses) == 2 and sim_s > 0
    assert plogs.read(addresses[1])[0] == b"two"


def test_query_reaches_the_patched_parser_once_per_fresh_text(
        ec_pool, bus, clock, monkeypatch):
    lake = Lakehouse(ec_pool, bus, clock, cache_hierarchy=CacheHierarchy())
    lake.create_table("t", Schema([Column("k", ColumnType.INT64)])).insert(
        [{"k": 1}, {"k": 2}]
    )
    calls = _spy(monkeypatch, sql, "parse_select")
    text = "SELECT k FROM t WHERE k >= 2"
    assert query(lake, text) == [{"k": 2}]
    assert calls == [(text,)]
    # a repeat takes the remembered statement, result tier or not
    assert query(lake, text) == [{"k": 2}]
    assert query(lake, text, use_result_cache=False) == [{"k": 2}]
    assert len(calls) == 1
    lake.cache_hierarchy.clear()  # a cold hierarchy parses again
    assert query(lake, text) == [{"k": 2}]
    assert len(calls) == 2
    for expected in (3, 4):  # a failed parse is never remembered
        with pytest.raises(SQLError):
            query(lake, "SELECT FROM t")
        assert len(calls) == expected
