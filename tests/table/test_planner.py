"""Cost-based planner + snapshot-keyed result cache regression tests."""

from __future__ import annotations

import copy
import json
import pickle
import random
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.stats import join_stats
from repro.errors import PlanningError
from repro.lakebrain.cardinality import SPNEstimator
from repro.table.expr import Predicate
from repro.table.planner import (
    JoinCondition,
    JoinQuery,
    StatisticsCache,
    TableRef,
    _distinct_count,
    plan_join,
    planner_statistics,
)
from repro.table.schema import Column, ColumnType, Schema
from repro.table.sql import SQLError, query
from repro.table.table import Lakehouse
from repro.table.vector import DictStringVector, NumericVector
from repro.workloads import tpch
from rowwise import join_rows, select_rows

LINEITEM_SCHEMA = Schema([
    Column("l_orderkey", ColumnType.INT64, nullable=True),
    Column("l_suppkey", ColumnType.INT64),
    Column("l_quantity", ColumnType.INT64),
    Column("l_flag", ColumnType.STRING),
])
ORDERS_SCHEMA = Schema([
    Column("o_orderkey", ColumnType.INT64),
    Column("o_totalprice", ColumnType.FLOAT64),
    Column("o_status", ColumnType.STRING),
])
SUPPLIER_SCHEMA = Schema([
    Column("s_suppkey", ColumnType.INT64),
    Column("s_nation", ColumnType.INT64),
])


def _lineitem_rows(count: int, seed: int = 11) -> list[dict[str, object]]:
    rng = random.Random(seed)
    return [
        {
            "l_orderkey": (
                rng.randint(1, 60) if rng.random() > 0.04 else None
            ),
            "l_suppkey": rng.randint(1, 25),
            "l_quantity": rng.randint(1, 50),
            "l_flag": rng.choice("ANR"),
        }
        for _ in range(count)
    ]


def _orders_rows(count: int, seed: int = 12) -> list[dict[str, object]]:
    rng = random.Random(seed)
    return [
        {
            "o_orderkey": index + 1,
            "o_totalprice": round(rng.uniform(100.0, 5000.0), 2),
            "o_status": rng.choice("OF"),
        }
        for index in range(count)
    ]


def _supplier_rows(count: int) -> list[dict[str, object]]:
    return [
        {"s_suppkey": index + 1, "s_nation": index % 5}
        for index in range(count)
    ]


@pytest.fixture
def joined_lakehouse(lakehouse: Lakehouse):
    """lineitem (300) ⋈ orders (60) ⋈ supplier (25), plus the raw rows."""
    lineitem = _lineitem_rows(300)
    orders = _orders_rows(60)
    supplier = _supplier_rows(25)
    lakehouse.create_table("lineitem", LINEITEM_SCHEMA).insert(lineitem)
    lakehouse.create_table("orders", ORDERS_SCHEMA).insert(orders)
    lakehouse.create_table("supplier", SUPPLIER_SCHEMA).insert(supplier)
    return lakehouse, lineitem, orders, supplier


THREE_WAY = JoinQuery(
    tables=(
        TableRef("lineitem", "l"),
        TableRef("orders", "o"),
        TableRef("supplier", "s"),
    ),
    conditions=(
        JoinCondition("l", "l_orderkey", "o", "o_orderkey"),
        JoinCondition("l", "l_suppkey", "s", "s_suppkey"),
    ),
)


class TestPlanJoin:
    def test_chosen_order_beats_worst_enumerated(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        query_spec = JoinQuery(
            tables=THREE_WAY.tables,
            conditions=THREE_WAY.conditions,
            predicates=(("l", Predicate("l_quantity", "<", 5)),),
        )
        plan = plan_join(lakehouse, query_spec)
        assert len(plan.alternatives) > 1
        assert plan.cost_s == min(cost for _, cost in plan.alternatives)
        assert plan.cost_s < plan.worst_cost_s

    def test_counters_track_planning(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        before = join_stats().snapshot()
        plan = plan_join(lakehouse, THREE_WAY)
        after = join_stats().snapshot()
        assert after["queries_planned"] == before["queries_planned"] + 1
        assert (after["plans_considered"] - before["plans_considered"]
                == len(plan.alternatives))

    def test_selective_scan_is_pushdown_and_prunable_first(
            self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        query_spec = JoinQuery(
            tables=THREE_WAY.tables,
            conditions=THREE_WAY.conditions,
            predicates=(("o", Predicate("o_totalprice", "<", 300.0)),),
        )
        plan = plan_join(lakehouse, query_spec)
        assert plan.scans["o"].pushdown
        assert plan.scans["o"].footer_prunable
        # the only footer-prunable scan runs before the full scans
        assert plan.scan_order[0] == "o"

    def test_left_join_pins_the_written_order(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        query_spec = JoinQuery(
            tables=THREE_WAY.tables,
            conditions=THREE_WAY.conditions,
            hows=("left", "left"),
        )
        plan = plan_join(lakehouse, query_spec)
        assert plan.order == ("l", "o", "s")
        assert len(plan.alternatives) == 1

    def test_cross_join_rejected(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        disconnected = JoinQuery(
            tables=(TableRef("lineitem", "l"), TableRef("orders", "o")),
            conditions=(),
        )
        with pytest.raises(PlanningError, match="cross join"):
            plan_join(lakehouse, disconnected)

    def test_too_many_relations_rejected(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        refs = tuple(
            TableRef("lineitem", f"t{index}") for index in range(5)
        )
        conditions = tuple(
            JoinCondition(f"t{index}", "l_orderkey",
                          f"t{index + 1}", "l_orderkey")
            for index in range(4)
        )
        with pytest.raises(PlanningError, match="at most 4"):
            plan_join(lakehouse, JoinQuery(refs, conditions))

    def test_stale_statistics_reported_not_hidden(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        statistics = planner_statistics(lakehouse)
        query_spec = JoinQuery(
            tables=THREE_WAY.tables,
            conditions=THREE_WAY.conditions,
            predicates=(("l", Predicate("l_quantity", "<", 10)),),
        )
        first = plan_join(lakehouse, query_spec, statistics=statistics)
        assert first.stale == {}
        lakehouse.table("lineitem").insert(_lineitem_rows(20, seed=99))
        second = plan_join(lakehouse, query_spec, statistics=statistics)
        assert second.stale == {"l": 1}
        # an explicit refresh retrains at the current snapshot
        statistics.refresh(lakehouse.table("lineitem"))
        third = plan_join(lakehouse, query_spec, statistics=statistics)
        assert third.stale == {}

    def test_statistics_refresh_threshold(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        statistics = StatisticsCache(max_snapshots_behind=0)
        table = lakehouse.table("lineitem")
        first = statistics.stats_for(table)
        table.insert(_lineitem_rows(10, seed=7))
        second = statistics.stats_for(table)
        assert second.snapshot_id == first.snapshot_id + 1
        assert second.row_count == first.row_count + 10

    def test_refresh_equals_training_on_materialized_rows(
            self, joined_lakehouse):
        """Statistics read column data and build rows only where the
        estimator samples; the model is the one the row-wise oracle
        (``select_rows`` -> every row a dict) would have trained."""
        lakehouse, _, _, _ = joined_lakehouse
        probes = [
            Predicate("l_quantity", "<", 10),
            Predicate("l_orderkey", "=", 7),
            Predicate("l_flag", "=", "N"),
            Predicate("o_totalprice", ">=", 2500.0),
            Predicate("s_nation", "<=", 2),
        ]
        for name in ("lineitem", "orders", "supplier"):
            table = lakehouse.table(name)
            table.insert(select_rows(table)[:40])  # a second live file
            statistics = StatisticsCache()
            chunk_cache = table.cache_hierarchy.chunks.stats.snapshot()
            fetches = table.pool.stats.extents_read
            clock_before = table.clock.now
            entry = statistics.refresh(table)
            rows = select_rows(table)
            oracle = SPNEstimator(
                rows, table.schema.names,
                sample_fraction=statistics.sample_fraction,
                seed=statistics.seed,
            )
            assert entry.row_count == len(rows)
            assert entry.ndv == {
                column: len({row[column] for row in rows} - {None})
                for column in table.schema.names
            }
            assert entry.estimator.training_cost_s == oracle.training_cost_s
            assert table.clock.now - clock_before == pytest.approx(
                oracle.training_cost_s)
            for probe in probes:
                if probe.column in table.schema.names:
                    assert (entry.estimator.cardinality(probe)
                            == oracle.cardinality(probe))
            # nothing entered the query caches
            assert table.cache_hierarchy.chunks.stats.snapshot() == chunk_cache
            # one pool read per live file, then select_rows' own two
            assert table.pool.stats.extents_read - fetches == 2 + 2

    def test_refresh_of_an_empty_table(self, lakehouse):
        table = lakehouse.create_table("empty", SUPPLIER_SCHEMA)
        entry = StatisticsCache().refresh(table)
        assert entry.row_count == 0
        assert entry.ndv == {"s_suppkey": 0, "s_nation": 0}
        assert entry.estimator is None


_NDV_VALUES = {
    np.int64: st.one_of(
        st.integers(-3, 3),
        st.sampled_from([-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]),
    ),
    np.float64: st.one_of(
        st.sampled_from([-0.0, 0.0, 1.0, -1.0, 5e-324, float("inf"),
                         float("-inf"), 1.7976931348623157e308]),
        st.floats(-10, 10, allow_nan=False),
    ),
    np.bool_: st.booleans(),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dtype=st.sampled_from(list(_NDV_VALUES)))
def test_distinct_count_equals_the_set_of_present_values(data, dtype):
    """Counting sorted runs is ``len(set(values) - {None})``: extremes,
    signed zeros, NULL masks, empty and all-NULL columns."""
    values = data.draw(st.lists(_NDV_VALUES[dtype], max_size=40))
    valid = data.draw(st.lists(st.booleans(), min_size=len(values),
                               max_size=len(values)))
    vector = NumericVector(np.array(values, dtype=dtype),
                           np.array(valid, dtype=bool))
    assert _distinct_count(vector) == len(set(vector.to_list()) - {None})
    strings = [str(v) if ok else None for v, ok in zip(values, valid)]
    vector = DictStringVector.from_values(strings)
    assert _distinct_count(vector) == len(set(strings) - {None})
    # a gathered vector keeps its source's dictionary, used or not
    kept = np.arange(0, len(strings), 2)
    assert _distinct_count(vector.gather(kept)) == len(
        set(vector.take(kept)) - {None})


def test_distinct_count_counts_nan_once():
    """NaNs are one value, as ``np.unique`` counts them."""
    values = np.array([np.nan, 1.0, np.nan, -np.nan, 1.0, 2.0])
    vector = NumericVector(values, np.ones(len(values), dtype=bool))
    assert _distinct_count(vector) == len(np.unique(values)) == 3
    only_nan = NumericVector(values[[0, 2]], np.ones(2, dtype=bool))
    assert _distinct_count(only_nan) == 1


class TestJoinSQL:
    def test_projection_join_matches_oracle(self, joined_lakehouse):
        lakehouse, lineitem, orders, _ = joined_lakehouse
        rows = query(
            lakehouse,
            "SELECT l.l_quantity, o.o_status FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "WHERE l.l_quantity < 20",
        )
        expected = [
            {"l.l_quantity": left["l_quantity"],
             "o.o_status": right["o_status"]}
            for left, right in join_rows(
                [row for row in lineitem if row["l_quantity"] < 20],
                orders, ["l_orderkey"], ["o_orderkey"],
            )
        ]
        assert rows == expected

    def test_left_join_matches_oracle(self, joined_lakehouse):
        lakehouse, lineitem, orders, _ = joined_lakehouse
        rows = query(
            lakehouse,
            "SELECT l.l_orderkey, o.o_totalprice FROM lineitem l "
            "LEFT JOIN orders o ON l.l_orderkey = o.o_orderkey",
        )
        expected = [
            {"l.l_orderkey": left["l_orderkey"],
             "o.o_totalprice": None if right is None
             else right["o_totalprice"]}
            for left, right in join_rows(
                lineitem, orders, ["l_orderkey"], ["o_orderkey"],
                how="left",
            )
        ]
        assert rows == expected

    def test_three_way_aggregate_matches_oracle(self, joined_lakehouse):
        lakehouse, lineitem, orders, supplier = joined_lakehouse
        rows = query(
            lakehouse,
            "SELECT s.s_nation, COUNT(*) AS n FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "JOIN supplier s ON l.l_suppkey = s.s_suppkey "
            "GROUP BY s.s_nation ORDER BY n DESC",
        )
        counts: dict[int, int] = {}
        first = join_rows(lineitem, orders, ["l_orderkey"], ["o_orderkey"])
        merged = [dict(left, **right) for left, right in first]
        for row, sup in join_rows(merged, supplier, ["l_suppkey"],
                                  ["s_suppkey"]):
            counts[sup["s_nation"]] = counts.get(sup["s_nation"], 0) + 1
        expected = [
            {"s.s_nation": nation, "n": count}
            for nation, count in counts.items()
        ]
        expected.sort(key=lambda row: row["n"], reverse=True)
        assert sum(row["n"] for row in rows) == sum(counts.values())
        assert sorted(rows, key=repr) == sorted(expected, key=repr)

    def test_comma_syntax_lifts_where_equality(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        joined = query(
            lakehouse,
            "SELECT COUNT(*) AS n FROM lineitem l, orders o "
            "WHERE l.l_orderkey = o.o_orderkey",
        )
        explicit = query(
            lakehouse,
            "SELECT COUNT(*) AS n FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey",
        )
        assert joined == explicit

    def test_unqualified_columns_resolve_when_unique(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        rows = query(
            lakehouse,
            "SELECT o_status, COUNT(*) AS n FROM lineitem l, orders o "
            "WHERE l_orderkey = o_orderkey GROUP BY o_status",
        )
        assert {row["o_status"] for row in rows} <= {"O", "F"}

    def test_filter_on_nullable_left_join_side_rejected(
            self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        with pytest.raises(SQLError, match="nullable side"):
            query(
                lakehouse,
                "SELECT l.l_quantity FROM lineitem l "
                "LEFT JOIN orders o ON l.l_orderkey = o.o_orderkey "
                "WHERE o.o_totalprice < 300",
            )

    def test_in_on_a_numeric_column_plans_and_matches_sqlite(self,
                                                            lakehouse):
        """``IN`` over an integer column used to crash the planner's
        cardinality estimate (the SPN coded the whole tuple as one
        literal) before any row was read."""
        generator = tpch.TPCHGenerator(scale_factor=1, rows_per_sf=1_200)
        tables = {
            "lineitem": (tpch.LINEITEM_SCHEMA, generator.lineitem()),
            "orders": (tpch.ORDERS_SCHEMA, generator.orders()),
        }
        oracle = sqlite3.connect(":memory:")
        for name, (schema, rows) in tables.items():
            lakehouse.create_table(name, schema).insert(rows)
            oracle.execute(f"CREATE TABLE {name} ({', '.join(schema.names)})")
            oracle.executemany(
                f"INSERT INTO {name} VALUES "
                f"({', '.join('?' * len(schema.names))})",
                [[row[column] for column in schema.names] for row in rows],
            )
        sql = (
            "SELECT l.l_returnflag, COUNT(*) AS n FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "WHERE l.l_quantity IN (1, 2, 3) GROUP BY l.l_returnflag"
        )
        rows = query(lakehouse, sql)
        expected = oracle.execute(sql).fetchall()
        assert sorted((row["l.l_returnflag"], row["n"]) for row in rows) \
            == sorted(expected)
        assert sum(count for _, count in expected) > 0

    def test_ambiguous_and_unknown_refs_rejected(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        base = ("FROM lineitem l JOIN orders o "
                "ON l.l_orderkey = o.o_orderkey")
        with pytest.raises(SQLError, match="unknown column"):
            query(lakehouse, f"SELECT nope {base}")
        with pytest.raises(SQLError, match="unknown table alias"):
            query(lakehouse, f"SELECT z.l_quantity {base}")
        with pytest.raises(SQLError, match="has no column"):
            query(lakehouse, f"SELECT o.l_quantity {base}")


class TestResultCache:
    SQL = ("SELECT l.l_flag, COUNT(*) AS n FROM lineitem l "
           "JOIN orders o ON l.l_orderkey = o.o_orderkey "
           "GROUP BY l.l_flag ORDER BY n DESC")

    def _tier_lookups(self, lakehouse: Lakehouse) -> int:
        hierarchy = lakehouse.cache_hierarchy
        return sum(
            tier.stats.lookups
            for tier in (hierarchy.chunks, hierarchy.blocks, hierarchy.footers)
        )

    def test_warm_hit_zero_decodes_zero_pool_reads(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        cold = query(lakehouse, self.SQL)
        counters = join_stats().snapshot()
        pool = lakehouse.table("lineitem").pool
        lookups_before = self._tier_lookups(lakehouse)
        extents_before = pool.stats.extents_read
        warm = query(lakehouse, self.SQL)
        assert warm == cold
        after = join_stats().snapshot()
        assert (after["result_cache_hits"]
                == counters["result_cache_hits"] + 1)
        assert self._tier_lookups(lakehouse) == lookups_before
        assert pool.stats.extents_read == extents_before

    def test_commit_to_any_referenced_table_misses(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        cold = query(lakehouse, self.SQL)
        lakehouse.table("orders").insert(_orders_rows(5, seed=77))
        counters = join_stats().snapshot()
        fresh = query(lakehouse, self.SQL)
        after = join_stats().snapshot()
        assert after["result_cache_hits"] == counters["result_cache_hits"]
        assert (after["result_cache_misses"]
                == counters["result_cache_misses"] + 1)
        assert sum(row["n"] for row in fresh) >= sum(
            row["n"] for row in cold
        )

    def test_time_travel_stays_warm_across_commits(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        frozen = lakehouse.table("lineitem").clock.now
        sql = "SELECT COUNT(*) AS n FROM lineitem"
        historical = query(lakehouse, sql, as_of=frozen)
        lakehouse.table("lineitem").insert(_lineitem_rows(10, seed=5))
        counters = join_stats().snapshot()
        again = query(lakehouse, sql, as_of=frozen)
        after = join_stats().snapshot()
        assert again == historical
        assert (after["result_cache_hits"]
                == counters["result_cache_hits"] + 1)
        # ... while the current-snapshot query sees the new rows
        assert query(lakehouse, sql)[0]["n"] == historical[0]["n"] + 10

    def test_cached_rows_are_isolated_from_caller_mutation(
            self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        first = query(lakehouse, self.SQL)
        original = first[0]["n"]
        with pytest.raises(TypeError, match=r"dict\(row\)"):
            first[0]["n"] = -999
        assert query(lakehouse, self.SQL)[0]["n"] == original

    def test_hit_shares_the_cached_row_objects(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        first = query(lakehouse, self.SQL)
        hit = query(lakehouse, self.SQL)
        assert hit is not first
        assert len(hit) == len(first)
        assert all(hit[i] is first[i] for i in range(len(first)))

    def test_caller_list_edits_leave_the_entry_intact(
            self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        first = query(lakehouse, self.SQL)
        expected = [dict(row) for row in first]
        first.append({"l_flag": "Z", "n": 0})
        first.sort(key=lambda row: row["n"])
        hit = query(lakehouse, self.SQL)
        assert hit == expected
        hit.reverse()
        del hit[0]
        assert query(lakehouse, self.SQL) == expected

    def test_rows_are_read_only_values(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        for row in query(lakehouse, self.SQL):
            assert isinstance(row, dict)
            assert pickle.loads(pickle.dumps(row)) == row
            assert copy.deepcopy(row) == row
            assert json.loads(json.dumps(row)) == row
            mutable = dict(row)
            mutable["n"] = -1
            assert mutable["n"] == -1 != row["n"]

    def test_drop_invalidates_cached_results(self, joined_lakehouse):
        lakehouse, _, _, _ = joined_lakehouse
        sql = "SELECT COUNT(*) AS n FROM supplier"
        query(lakehouse, sql)
        lakehouse.drop_table_hard("supplier")
        lakehouse.create_table("supplier", SUPPLIER_SCHEMA).insert(
            _supplier_rows(3)
        )
        assert query(lakehouse, sql) == [{"n": 3}]
