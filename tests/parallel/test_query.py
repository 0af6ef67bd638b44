"""sharded_select: value-identical to the serial oracle, any mode.

The load-bearing guarantee of the sharded data plane (ISSUE: "every
merged result must be byte/value-identical to the single-shard
oracle"): result rows, ``QueryStats`` counters and merged per-context
counters all equal the serial ``table.select`` run, for aggregate and
row-scan paths, with and without predicates, across pool modes.
"""

import pytest

from repro.common.context import ExecutionContext, use_context
from repro.parallel import ShardPool, sharded_select
from repro.table.expr import Predicate
from repro.table.pushdown import AggregateSpec
from repro.table.table import QueryStats

SPECS = [
    AggregateSpec("COUNT", None, group_by=("city",)),
    AggregateSpec("SUM", "amount", group_by=("city",)),
    AggregateSpec("MIN", "amount", group_by=("city",)),
    AggregateSpec("AVG", "score", group_by=("city",)),
]
PREDICATE = Predicate("amount", ">=", 250)

COUNTERS = (
    "files_total", "files_scanned", "files_skipped", "row_groups_skipped",
    "rows_scanned", "rows_returned", "bytes_scanned", "bytes_skipped",
    "bytes_transferred", "chunk_cache_hits", "chunk_cache_misses",
    "block_cache_hits", "block_cache_misses",
    "footer_cache_hits", "footer_cache_misses",
)


#: time-travel target: after the builder's inserts, before a later one
AS_OF = 1_000.0


def _serial_oracle(build_table, aggregate=None, predicate=None,
                   columns=None, as_of=None):
    context = ExecutionContext(name="oracle")
    table = build_table(context)
    stats = QueryStats()
    with use_context(context):
        rows = table.select(
            predicate=predicate, columns=columns, aggregate=aggregate,
            as_of=as_of, stats=stats,
        )
    return rows, stats, context.snapshot()


def _sharded(build_table, num_workers, mode, aggregate=None,
             predicate=None, columns=None, as_of=None):
    context = ExecutionContext(name=f"sharded-{num_workers}-{mode}")
    table = build_table(context)
    stats = QueryStats()
    with use_context(context):
        result = sharded_select(
            table, predicate=predicate, columns=columns,
            aggregate=aggregate, as_of=as_of, num_workers=num_workers,
            mode=mode, stats=stats, context=context,
        )
    return result, stats, context.snapshot()


def _with_later_insert(table_builder):
    """The standard table, plus one batch committed after ``AS_OF``."""
    def build(context):
        table = table_builder(context)
        assert table.clock.now < AS_OF
        table.clock.advance_to(AS_OF + 1.0)
        with use_context(context):
            table.insert([
                {"city": "xian", "amount": 999, "score": 1.0}
                for _ in range(50)
            ])
        return table
    return build


@pytest.mark.parametrize("num_workers,mode", [
    (1, "serial"), (2, "serial"), (4, "thread"),
])
def test_aggregate_matches_serial_oracle(table_builder, num_workers, mode):
    rows, serial_stats, serial_snapshot = _serial_oracle(table_builder, 
        aggregate=SPECS, predicate=PREDICATE
    )
    result, stats, snapshot = _sharded(table_builder, 
        num_workers, mode, aggregate=SPECS, predicate=PREDICATE
    )
    assert result.rows == rows
    assert snapshot == serial_snapshot
    for counter in COUNTERS:
        assert getattr(stats, counter) == getattr(serial_stats, counter)


def test_aggregate_matches_under_process_pool(table_builder):
    """Tasks and results round-trip through pickling unchanged."""
    rows, _, serial_snapshot = _serial_oracle(table_builder, aggregate=SPECS)
    result, _, snapshot = _sharded(table_builder, 3, "process", aggregate=SPECS)
    assert result.rows == rows
    assert snapshot == serial_snapshot


def test_row_scan_matches_serial_order(table_builder):
    rows, serial_stats, _ = _serial_oracle(table_builder, 
        predicate=PREDICATE, columns=["city", "amount"]
    )
    result, stats, _ = _sharded(table_builder, 
        4, "thread", predicate=PREDICATE, columns=["city", "amount"]
    )
    assert result.rows == rows  # reassembled in scan-plan file order
    for counter in COUNTERS:
        assert getattr(stats, counter) == getattr(serial_stats, counter)


def test_unpredicated_full_scan_matches(table_builder):
    rows, _, _ = _serial_oracle(table_builder, columns=["city"])
    result, _, _ = _sharded(table_builder, 2, "thread", columns=["city"])
    assert result.rows == rows


def test_footer_fast_path_matches(table_builder):
    """Un-grouped COUNT answers from footers in both execution models."""
    specs = [AggregateSpec("COUNT", None)]
    rows, _, serial_snapshot = _serial_oracle(table_builder, aggregate=specs)
    result, _, snapshot = _sharded(table_builder, 4, "thread", aggregate=specs)
    assert result.rows == rows
    assert snapshot == serial_snapshot


#: query shapes the matrix below runs through both execution paths
SHAPES = {
    "row_scan": {"predicate": PREDICATE, "columns": ["city", "amount"]},
    "time_travel": {
        "aggregate": SPECS, "predicate": PREDICATE, "as_of": AS_OF,
    },
    "footer": {"aggregate": [AggregateSpec("COUNT", None),
                             AggregateSpec("MAX", "amount")]},
}


@pytest.mark.parametrize("num_workers,mode,shape", [
    (3, "process", "row_scan"),
    (1, "serial", "time_travel"),
    (3, "thread", "time_travel"),
    (1, "serial", "footer"),
])
def test_equivalence_matrix(table_builder, num_workers, mode, shape):
    """Rows, every counter and the context snapshot equal the inline
    ``table.select`` — rows across a process boundary, ``as_of`` reads
    that must not see a later insert, the footer path at width 1."""
    build = _with_later_insert(table_builder)
    query = SHAPES[shape]
    rows, serial_stats, serial_snapshot = _serial_oracle(build, **query)
    result, stats, snapshot = _sharded(build, num_workers, mode, **query)
    assert result.rows == rows
    assert snapshot == serial_snapshot
    for counter in COUNTERS:
        assert getattr(stats, counter) == getattr(serial_stats, counter)
    if shape == "time_travel":
        assert stats.files_total == 6  # the later insert is invisible
        assert all(row["MIN(amount)"] >= 250 for row in rows)


def test_sim_cost_shrinks_with_workers(table_builder):
    """The fixed-assignment makespan beats the serial read-cost sum."""
    _, serial_stats, _ = _serial_oracle(table_builder, aggregate=SPECS)
    result, stats, _ = _sharded(table_builder, 8, "serial", aggregate=SPECS)
    assert stats.data_cost_s < serial_stats.data_cost_s
    assert result.num_workers == 8
    assert sum(result.files_per_worker) == stats.files_scanned


def test_one_worker_charges_exactly_the_serial_cost(table_builder):
    _, serial_stats, _ = _serial_oracle(table_builder, aggregate=SPECS)
    _, stats, _ = _sharded(table_builder, 1, "serial", aggregate=SPECS)
    assert stats.data_cost_s == serial_stats.data_cost_s
    assert stats.metadata_cost_s == serial_stats.metadata_cost_s


def test_reuses_caller_pool(table_builder):
    context = ExecutionContext(name="pooled")
    table = table_builder(context, batches=2)
    with ShardPool(2, mode="thread") as pool:
        with use_context(context):
            first = sharded_select(
                table, aggregate=SPECS, num_workers=2, pool=pool,
                context=context,
            )
            second = sharded_select(
                table, aggregate=SPECS, num_workers=2, pool=pool,
                context=context,
            )
    assert first.rows == second.rows


def test_empty_table_aggregate(table_builder):
    context = ExecutionContext(name="empty")
    table = table_builder(context, batches=0)
    with use_context(context):
        result = sharded_select(
            table, aggregate=[AggregateSpec("COUNT", None)],
            num_workers=4, mode="thread", context=context,
        )
        expected = table.select(aggregate=[AggregateSpec("COUNT", None)])
    assert result.rows == expected
    assert result.shard_walls == []  # no files, no shard tasks


def test_partitioned_cache_dedup_caveat(table_builder):
    """Partitioned tables can share content-addressed chunks across files
    (constant partition-column chunks with equal row counts).  A serial
    shared cache dedups those; per-shard caches can't when the twins land
    on different workers — so sharded hits may only *drop*, with the
    lookup total conserved."""
    serial_context = ExecutionContext(name="part-serial")
    serial_table = table_builder(serial_context, partitioned=True)
    serial_stats = QueryStats()
    with use_context(serial_context):
        rows = serial_table.select(aggregate=SPECS, stats=serial_stats)
    context = ExecutionContext(name="part-sharded")
    table = table_builder(context, partitioned=True)
    stats = QueryStats()
    with use_context(context):
        result = sharded_select(
            table, aggregate=SPECS, num_workers=4, mode="serial",
            stats=stats, context=context,
        )
    assert result.rows == rows  # results never depend on cache locality
    assert stats.chunk_cache_hits <= serial_stats.chunk_cache_hits
    assert (
        stats.chunk_cache_hits + stats.chunk_cache_misses
        == serial_stats.chunk_cache_hits + serial_stats.chunk_cache_misses
    )
