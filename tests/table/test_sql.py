"""Unit tests for the SQL SELECT front end."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.common.clock import SimClock
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.expr import Predicate
from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.sql import SQLError, normalize_sql, parse_select, query
from repro.table.table import Lakehouse

SCHEMA = Schema([
    Column("url", ColumnType.STRING),
    Column("start_time", ColumnType.TIMESTAMP),
    Column("province", ColumnType.STRING),
    Column("bytes", ColumnType.INT64),
])

FIG13 = """
Select COUNT(*) as DAU
From TB_DPI_LOG_HOURS
Where url = 'http://streamlake_fin_app.com'
and start_time >= 1656806400 --July 3rd, 2022
and start_time < 1656892800 --July 4th, 2022
Group By province;
"""


@pytest.fixture
def loaded_lakehouse(lakehouse):
    table = lakehouse.create_table(
        "TB_DPI_LOG_HOURS", SCHEMA, PartitionSpec.by("province")
    )
    table.insert([
        {
            "url": ("http://streamlake_fin_app.com" if i % 2 == 0
                    else "http://other.com"),
            "start_time": 1_656_806_400 + i * 600,
            "province": f"p{i % 3}",
            "bytes": i,
        }
        for i in range(120)
    ])
    return lakehouse


def test_fig13_parses_and_runs(loaded_lakehouse):
    rows = query(loaded_lakehouse, FIG13)
    assert {row["province"] for row in rows} == {"p0", "p1", "p2"}
    assert all("DAU" in row for row in rows)
    assert sum(row["DAU"] for row in rows) == 60


def test_parse_structure():
    statement = parse_select(FIG13)
    assert statement.table == "TB_DPI_LOG_HOURS"
    assert statement.group_by == ("province",)
    assert statement.items[0].aggregate == ("COUNT", None)
    assert statement.items[0].alias == "DAU"
    assert statement.predicate is not None
    assert len(statement.predicate.atoms()) == 3


def test_parsed_statements_are_frozen():
    single = parse_select(FIG13)
    joined = parse_select("SELECT a.x, b.y FROM a JOIN b ON a.k = b.k")
    assert single.text == normalize_sql(FIG13)
    for statement in (single, joined):
        assert isinstance(statement.items, tuple)
        for target, name in ((statement, "limit"),
                             (statement.items[0], "alias")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, None)


def test_plain_projection(loaded_lakehouse):
    rows = query(
        loaded_lakehouse,
        "SELECT province, bytes FROM TB_DPI_LOG_HOURS WHERE bytes < 3",
    )
    assert len(rows) == 3
    assert set(rows[0]) == {"province", "bytes"}


def test_select_star(loaded_lakehouse):
    rows = query(loaded_lakehouse,
                 "SELECT * FROM TB_DPI_LOG_HOURS WHERE bytes = 5")
    assert len(rows) == 1
    assert set(rows[0]) == {"url", "start_time", "province", "bytes"}


def test_column_alias(loaded_lakehouse):
    rows = query(
        loaded_lakehouse,
        "SELECT bytes AS traffic FROM TB_DPI_LOG_HOURS WHERE bytes = 7",
    )
    assert rows == [{"traffic": 7}]


def test_order_by_and_limit(loaded_lakehouse):
    rows = query(
        loaded_lakehouse,
        "SELECT bytes FROM TB_DPI_LOG_HOURS ORDER BY bytes DESC LIMIT 3",
    )
    assert [row["bytes"] for row in rows] == [119, 118, 117]


def test_aggregates(loaded_lakehouse):
    assert query(loaded_lakehouse,
                 "SELECT SUM(bytes) FROM TB_DPI_LOG_HOURS")[0]["SUM"] == (
        sum(range(120))
    )
    assert query(loaded_lakehouse,
                 "SELECT MIN(bytes) FROM TB_DPI_LOG_HOURS")[0]["MIN"] == 0
    assert query(loaded_lakehouse,
                 "SELECT MAX(bytes) AS top FROM TB_DPI_LOG_HOURS"
                 )[0]["top"] == 119


def test_in_predicate(loaded_lakehouse):
    rows = query(
        loaded_lakehouse,
        "SELECT COUNT(*) FROM TB_DPI_LOG_HOURS "
        "WHERE province IN ('p0', 'p1')",
    )
    assert rows[0]["COUNT"] == 80


def test_group_by_without_aggregate_raises(loaded_lakehouse):
    with pytest.raises(SQLError):
        query(loaded_lakehouse,
              "SELECT province FROM TB_DPI_LOG_HOURS GROUP BY province")


def test_unparseable_raises():
    with pytest.raises(SQLError):
        parse_select("DELETE FROM t")
    with pytest.raises(SQLError):
        parse_select("SELECT FROM t")
    with pytest.raises(SQLError):
        parse_select("SELECT a FROM t WHERE ???")


def test_multiple_aggregates_parse():
    statement = parse_select("SELECT COUNT(*), SUM(x) FROM t")
    assert [item.aggregate for item in statement.items] == [
        ("COUNT", None), ("SUM", "x"),
    ]


def test_multiple_aggregates_execute(loaded_lakehouse):
    rows = query(
        loaded_lakehouse,
        "SELECT COUNT(*), SUM(bytes), AVG(bytes) FROM TB_DPI_LOG_HOURS "
        "GROUP BY province ORDER BY province",
    )
    assert [row["province"] for row in rows] == ["p0", "p1", "p2"]
    for row in rows:
        assert row["COUNT(*)"] == 40
        assert row["AVG(bytes)"] == pytest.approx(
            row["SUM(bytes)"] / row["COUNT(*)"]
        )
    assert sum(row["SUM(bytes)"] for row in rows) == sum(range(120))


def test_multiple_aggregates_with_aliases(loaded_lakehouse):
    rows = query(
        loaded_lakehouse,
        "SELECT COUNT(*) AS n, MAX(bytes) AS top FROM TB_DPI_LOG_HOURS",
    )
    assert rows == [{"n": 120, "top": 119}]


def test_pushdown_stats_populated(loaded_lakehouse):
    from repro.table.table import QueryStats

    stats = QueryStats()
    query(
        loaded_lakehouse,
        "SELECT COUNT(*) FROM TB_DPI_LOG_HOURS WHERE province = 'p0'",
        stats=stats,
    )
    assert stats.files_skipped >= 1  # file pruning still applies via SQL
    assert stats.bytes_transferred < 100  # only the aggregate crossed


def test_time_travel_through_sql(loaded_lakehouse, clock):
    table = loaded_lakehouse.table("TB_DPI_LOG_HOURS")
    checkpoint = clock.now
    clock.advance(10)
    table.insert([{
        "url": "http://other.com", "start_time": 1_656_806_400,
        "province": "p0", "bytes": 999,
    }])
    latest = query(loaded_lakehouse,
                   "SELECT COUNT(*) FROM TB_DPI_LOG_HOURS")
    historical = query(loaded_lakehouse,
                       "SELECT COUNT(*) FROM TB_DPI_LOG_HOURS",
                       as_of=checkpoint)
    assert latest[0]["COUNT"] == 121
    assert historical[0]["COUNT"] == 120


def test_limit_without_order(loaded_lakehouse):
    rows = query(loaded_lakehouse,
                 "SELECT url FROM TB_DPI_LOG_HOURS LIMIT 7")
    assert len(rows) == 7


def test_limit_zero(loaded_lakehouse):
    assert query(loaded_lakehouse,
                 "SELECT url FROM TB_DPI_LOG_HOURS LIMIT 0") == []


def test_multi_column_order_by_is_a_loud_error():
    with pytest.raises(SQLError, match="multi-column ORDER BY"):
        parse_select("SELECT a, b FROM t ORDER BY a, b")


def test_order_by_expression_is_a_loud_error():
    with pytest.raises(SQLError, match="unsupported ORDER BY"):
        parse_select("SELECT a FROM t ORDER BY LOWER(a)")


def test_offset_and_having_rejected_clearly():
    with pytest.raises(SQLError, match="OFFSET is not supported"):
        parse_select("SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 2")
    with pytest.raises(SQLError, match="HAVING is not supported"):
        parse_select(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1"
        )


def test_keywords_inside_string_literals_still_parse():
    statement = parse_select(
        "SELECT url FROM t WHERE url = 'use OFFSET here'"
    )
    assert statement.predicate is not None


def test_multi_table_parse_structure():
    from repro.table.sql import JoinSelectStatement

    statement = parse_select(
        "SELECT l.a, o.b FROM lineitem l "
        "JOIN orders o ON l.k = o.k "
        "LEFT JOIN supplier AS s ON l.s = s.s "
        "WHERE l.a < 5 ORDER BY b LIMIT 3"
    )
    assert isinstance(statement, JoinSelectStatement)
    assert [ref.name for ref in statement.tables] == [
        "lineitem", "orders", "supplier"
    ]
    assert [ref.alias for ref in statement.tables] == ["l", "o", "s"]
    assert statement.hows == ("inner", "left")
    assert statement.on_pairs == (("l.k", "o.k"), ("l.s", "s.s"))
    assert len(statement.where_atoms) == 1
    assert statement.limit == 3


def test_comma_from_parses_as_join():
    from repro.table.sql import JoinSelectStatement

    statement = parse_select(
        "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v > 2"
    )
    assert isinstance(statement, JoinSelectStatement)
    assert statement.on_pairs == (("a.k", "b.k"),)
    assert len(statement.where_atoms) == 1


def test_join_without_on_rejected():
    with pytest.raises(SQLError, match="missing its ON clause"):
        parse_select("SELECT a FROM t JOIN u WHERE t.k = 1")


def test_non_equi_on_condition_rejected():
    with pytest.raises(SQLError, match="equi-join"):
        parse_select("SELECT a FROM t JOIN u ON t.k < u.k")


def test_single_table_statements_still_single(loaded_lakehouse):
    from repro.table.sql import SelectStatement

    statement = parse_select("SELECT url FROM TB_DPI_LOG_HOURS")
    assert isinstance(statement, SelectStatement)


#: literals holding a comment marker and a list separator
QUOTED_STATEMENTS = {
    "SELECT a FROM t WHERE s = 'x--y'": ("=", "x--y"),
    "SELECT a FROM t WHERE s IN ('a,b', 'c')": ("IN", ("a,b", "c")),
}


@pytest.mark.parametrize("sql", sorted(QUOTED_STATEMENTS))
def test_quoted_comment_and_comma_parse_to_the_literal(sql):
    from repro.table.expr import Predicate

    op, literal = QUOTED_STATEMENTS[sql]
    assert parse_select(sql).predicate == Predicate("s", op, literal)


@pytest.mark.parametrize("sql", sorted(QUOTED_STATEMENTS))
def test_quoted_comment_and_comma_match_sqlite(lakehouse, sql):
    import sqlite3

    rows = [{"a": i, "s": s} for i, s in enumerate(
        ["x--y", "x", "a,b", "a", "b", "c", "'c'", "x--y", "c"])]
    schema = Schema([Column("a", ColumnType.INT64),
                     Column("s", ColumnType.STRING)])
    lakehouse.create_table("t", schema).insert(rows)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (a INTEGER, s TEXT)")
    oracle.executemany("INSERT INTO t VALUES (:a, :s)", rows)
    expected = sorted(a for (a,) in oracle.execute(sql))
    assert expected  # the literal selects something
    assert sorted(row["a"] for row in query(lakehouse, sql)) == expected


def test_normalize_sql_keeps_quoted_comment_marker():
    from repro.table.sql import normalize_sql

    assert normalize_sql(
        "SELECT a FROM t\n  WHERE s = 'x--y' -- trailing note\n"
    ) == "SELECT a FROM t WHERE s = 'x--y'"
    assert normalize_sql(FIG13).endswith(
        "and start_time < 1656892800 Group By province;")


def _line_split_normalization(sql):
    """How statements were normalized before comments became quote-aware."""
    stripped = "\n".join(line.split("--", 1)[0] for line in sql.splitlines())
    return " ".join(stripped.split())


def test_e2e_statements_keep_their_result_cache_keys(monkeypatch):
    """The result tier keys on normalized text: for every statement the
    end-to-end benchmark issues, quote-aware stripping changes nothing."""
    import pathlib

    import numpy as np

    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).parents[2] / "benchmarks" / "e2e"))
    import inputs
    import pipeline

    rng = np.random.default_rng(1)
    statements = [pipeline.DIRTY_LEFT, pipeline.TENANT_COUNTS]
    for factory in (inputs.TpchQueries(rng, 1_000),
                    inputs.DpiQueries(rng, 24)):
        statements += inputs.mixed_batch(factory, rng, 5)
    texts = [text for query in statements
             for text in (query.sql, query.reference_sql)]
    assert len(texts) > 200
    for text in texts:
        assert normalize_sql(text) == _line_split_normalization(text)


# --- a remembered statement answers like a fresh parse ------------------------

TWIN_A = Schema([Column("k", ColumnType.INT64), Column("v", ColumnType.INT64),
                 Column("s", ColumnType.STRING)])
TWIN_B = Schema([Column("k", ColumnType.INT64), Column("w", ColumnType.STRING)])
TWIN_TEXTS = (
    "SELECT k, v FROM a WHERE v >= 20 ORDER BY v",
    "SELECT  k, v FROM a\nWHERE v >= 20 ORDER BY v -- the same, respaced",
    "SELECT COUNT(*) AS n, SUM(v) FROM a GROUP BY s",
    "SELECT MAX(v), MIN(k) FROM a WHERE s = 'x'",
    "SELECT COUNT(*) FROM a",
    "SELECT * FROM a WHERE k IN (1, 3) ORDER BY v DESC LIMIT 5",
    "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.v < 50",
)
TWIN_STEPS = st.lists(st.one_of(
    st.tuples(st.just("query"), st.integers(0, len(TWIN_TEXTS) - 1),
              st.none() | st.integers(0, 20)),
    st.tuples(st.just("insert"), st.sampled_from("ab"), st.integers(1, 30)),
    st.tuples(st.just("update"), st.integers(0, 100)),
), min_size=1, max_size=16)


def _twin_lake() -> tuple[Lakehouse, SimClock]:
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    lake = Lakehouse(pool, DataBus(clock), clock,
                     cache_hierarchy=CacheHierarchy())
    lake.create_table("a", TWIN_A)
    lake.create_table("b", TWIN_B)
    return lake, clock


def _twin_rows(table: str, count: int, start: int) -> list[dict]:
    if table == "a":
        return [{"k": (start + i) % 5, "v": (start * 7 + i * 13) % 100,
                 "s": "xyz"[(start + i) % 3]} for i in range(count)]
    return [{"k": (start + i) % 5, "w": f"w{start + i}"} for i in range(count)]


@given(steps=TWIN_STEPS)
@settings(max_examples=30, deadline=None)
def test_remembered_statements_answer_like_fresh_parses(steps):
    """One lakehouse runs the sequence as normal (statements and results
    remembered); its twin clears its hierarchy before every statement
    and skips the result tier, so each statement parses and reads
    afresh.  Both return the same rows, time travel included."""
    twins = [_twin_lake(), _twin_lake()]
    marks: list[list[float]] = [[], []]
    inserted = 0
    for side, (lake, clock) in enumerate(twins):
        lake.table("a").insert(_twin_rows("a", 12, 0))
        lake.table("b").insert(_twin_rows("b", 4, 0))
        marks[side].append(clock.now)
    for step in steps:
        answers = []
        for side, (lake, clock) in enumerate(twins):
            if step[0] == "insert":
                lake.table(step[1]).insert(
                    _twin_rows(step[1], step[2], 100 + inserted))
            elif step[0] == "update":
                lake.table("a").update(Predicate("v", "<", step[1]),
                                       {"s": "x"})
            else:
                _, text, mark = step
                as_of = (None if mark is None
                         else marks[side][mark % len(marks[side])])
                if side == 0:
                    answers.append(query(lake, TWIN_TEXTS[text], as_of=as_of))
                else:
                    lake.cache_hierarchy.clear()
                    answers.append(query(lake, TWIN_TEXTS[text], as_of=as_of,
                                         use_result_cache=False))
            if step[0] != "query":
                clock.advance(1.0)
                marks[side].append(clock.now)
        inserted += step[2] if step[0] == "insert" else 0
        if answers:
            assert answers[0] == answers[1], TWIN_TEXTS[step[1]]
