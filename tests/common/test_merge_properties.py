"""Merge algebra for sharded reunion (hypothesis properties).

The sharded execution layer is only correct if the things it merges
behave like a commutative monoid over disjoint splits: folding per-shard
pieces in any grouping must equal processing the whole stream on one
shard.  These properties pin that down for the three merge paths the
driver exercises — ``OnlineStats``, the additive counter classes
(``CacheStats`` et al.) and ``AggregateState`` partial combination.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.common.stats import CacheStats, IngestStats, OnlineStats
from repro.table.agg import AggregateState, aggregate_file
from repro.table.colbuild import columns_from_rows
from repro.table.columnar import ColumnarFile
from repro.table.pushdown import AggregateSpec, execute_pushdown_multi
from repro.table.schema import Column, ColumnType, Schema

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _online(values):
    acc = OnlineStats()
    for value in values:
        acc.add(value)
    return acc


def _assert_online_close(left: OnlineStats, right: OnlineStats):
    assert left.count == right.count
    assert math.isclose(left.mean, right.mean, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(
        left.variance, right.variance, rel_tol=1e-6, abs_tol=1e-6
    )
    assert left.minimum == right.minimum
    assert left.maximum == right.maximum


@given(st.lists(finite, max_size=50), st.lists(finite, max_size=50),
       st.lists(finite, max_size=50))
def test_online_stats_merge_is_associative(a, b, c):
    left = _online(a)
    left.merge(_online(b))
    left.merge(_online(c))
    bc = _online(b)
    bc.merge(_online(c))
    right = _online(a)
    right.merge(bc)
    _assert_online_close(left, right)


@given(st.lists(finite, min_size=1, max_size=120),
       st.integers(min_value=0, max_value=120),
       st.integers(min_value=0, max_value=120))
def test_online_stats_sharded_equals_serial(values, cut_a, cut_b):
    """Any 3-way split of the stream merges back to the serial result."""
    lo, hi = sorted((min(cut_a, len(values)), min(cut_b, len(values))))
    merged = _online(values[:lo])
    merged.merge(_online(values[lo:hi]))
    merged.merge(_online(values[hi:]))
    _assert_online_close(merged, _online(values))


counter_values = st.integers(min_value=0, max_value=10_000)


@given(st.lists(st.tuples(counter_values, counter_values, counter_values),
                min_size=1, max_size=8))
def test_cache_stats_folding_equals_totals(shards):
    """Per-shard cache counters fold to the single-cache totals."""
    total = CacheStats()
    for hits, misses, evictions in shards:
        shard = CacheStats()
        shard.record_hit(hits)
        shard.record_miss(misses)
        shard.record_eviction(evictions)
        total.merge(shard)
    assert total.hits == sum(h for h, _, _ in shards)
    assert total.misses == sum(m for _, m, _ in shards)
    assert total.evictions == sum(e for _, _, e in shards)


@given(st.lists(counter_values, min_size=3, max_size=3),
       st.lists(counter_values, min_size=3, max_size=3),
       st.lists(counter_values, min_size=3, max_size=3))
def test_additive_counters_merge_is_associative(a, b, c):
    def build(values) -> IngestStats:
        shard = IngestStats()
        shard.slices_sealed, shard.messages_ingested, shard.batches = values
        return shard

    left = build(a)
    left.merge(build(b))
    left.merge(build(c))
    bc = build(b)
    bc.merge(build(c))
    right = build(a)
    right.merge(bc)
    assert vars(left) == vars(right)


# --- AggregateState: sharded combination equals the unsharded oracle -------

SCHEMA = Schema([
    Column("g", ColumnType.STRING),
    Column("v", ColumnType.INT64, nullable=True),
])
SPECS = [
    AggregateSpec("COUNT", None, group_by=("g",)),
    AggregateSpec("SUM", "v", group_by=("g",)),
    AggregateSpec("MIN", "v", group_by=("g",)),
    AggregateSpec("MAX", "v", group_by=("g",)),
    AggregateSpec("AVG", "v", group_by=("g",)),
]

rows_strategy = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]),
              st.one_of(st.none(), st.integers(-1000, 1000))),
    min_size=1, max_size=80,
)


def _state_of(rows) -> AggregateState:
    if not rows:
        return AggregateState(SPECS)
    data_file = ColumnarFile.from_columns(SCHEMA, *columns_from_rows(
        SCHEMA, [{"g": g, "v": v} for g, v in rows]
    ))
    return aggregate_file(data_file, SPECS)


@given(rows_strategy, st.lists(st.integers(0, 80), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_sharded_aggregate_state_equals_unsharded_oracle(rows, cuts):
    """Random 3-way splits merge to the same result rows as no split.

    Integer values keep SUM/AVG exact, so equality is literal — the
    guarantee the sharded query driver's reunion step relies on.
    """
    lo, hi = sorted(min(cut, len(rows)) for cut in cuts)
    merged = AggregateState(SPECS)
    for part in (rows[:lo], rows[lo:hi], rows[hi:]):
        merged.merge(_state_of(part))
    assert merged.rows() == _state_of(rows).rows()
    oracle = execute_pushdown_multi(
        [{"g": g, "v": v} for g, v in rows], SPECS
    )
    assert merged.rows() == oracle
