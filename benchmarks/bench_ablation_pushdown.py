"""Ablation: computation pushdown on vs off.

Section I / VII-A: "query computation pushdown is applied to reduce the
data transfer between the storage and query engine", e.g. the three WHERE
filters and the COUNT aggregate of the DAU query compute inside
StreamLake.  This bench runs the same query both ways:

* pushdown ON — predicate + aggregate execute storage-side; only the
  grouped counts cross the bus;
* pushdown OFF — the storage returns the raw matching rows (or, fully
  off, every row) and the "compute engine" filters/aggregates them.

The question is bus traffic, not caching, so each configuration runs
against a cold cache hierarchy: the block, footer and result tiers are
cleared before it.  A warm re-run of the filters-only query is shown
beside them, labelled, and not compared.
"""

from __future__ import annotations

from conftest import run_once

from repro import build_streamlake
from repro.bench import ResultTable
from repro.table.expr import And, Predicate
from repro.table.pushdown import AggregateSpec, execute_pushdown
from repro.table.schema import PartitionSpec, Schema
from repro.table.table import QueryStats
from repro.workloads.packets import (
    BASE_TIMESTAMP,
    FIN_APP_URL,
    PacketConfig,
    PacketGenerator,
)

NUM_PACKETS = 30_000


def _setup():
    lake = build_streamlake()
    schema = Schema.from_dict(PacketGenerator.SCHEMA)
    table = lake.lakehouse.create_table(
        "dpi", schema, PartitionSpec.by("hour(start_time)")
    )
    rows = list(PacketGenerator(PacketConfig(num_packets=NUM_PACKETS)).rows())
    table.insert(rows)
    predicate = And(
        Predicate("url", "=", FIN_APP_URL),
        Predicate("start_time", ">=", BASE_TIMESTAMP),
        Predicate("start_time", "<", BASE_TIMESTAMP + 86_400),
    )
    aggregate = AggregateSpec("COUNT", group_by=("province",))
    return lake, table, predicate, aggregate


def test_ablation_pushdown(benchmark) -> None:
    def run():
        lake, table, predicate, aggregate = _setup()

        def cold(**query):
            table.cache_hierarchy.clear()
            stats = QueryStats()
            return table.select(stats=stats, **query), stats

        # full pushdown: filters + aggregate storage-side
        pushed, full = cold(predicate=predicate, aggregate=aggregate)

        # predicate-only pushdown: raw matching rows cross the bus,
        # the compute engine aggregates
        raw_rows, partial = cold(predicate=predicate)
        computed = execute_pushdown(raw_rows, aggregate)
        # the same query again, its blocks and footers now cached
        warm = QueryStats()
        table.select(predicate=predicate, stats=warm)

        # no pushdown at all: every row crosses, compute filters too
        everything, none = cold()
        filtered = [row for row in everything if predicate.matches(row)]
        computed_none = execute_pushdown(filtered, aggregate)

        assert pushed == computed == computed_none
        return {
            "full": full, "partial": partial, "none": none, "warm": warm,
            "raw_rows": len(raw_rows), "all_rows": len(everything),
        }

    result = run_once(benchmark, run)
    table = ResultTable(
        f"Ablation - computation pushdown ({NUM_PACKETS:,} packets, "
        "DAU query)",
        ["configuration", "bytes over bus", "rows over bus", "query sim s"],
    )
    table.add_row("filters + aggregate pushed",
                  result["full"].bytes_transferred,
                  result["full"].rows_returned,
                  result["full"].total_cost_s)
    table.add_row("filters pushed only",
                  result["partial"].bytes_transferred,
                  result["raw_rows"],
                  result["partial"].total_cost_s)
    table.add_row("no pushdown",
                  result["none"].bytes_transferred,
                  result["all_rows"],
                  result["none"].total_cost_s)
    table.add_row("filters pushed only, warm tiers (not compared)",
                  result["warm"].bytes_transferred,
                  result["raw_rows"],
                  result["warm"].total_cost_s)
    table.show()

    full, partial, none = result["full"], result["partial"], result["none"]
    # each pushdown level cuts bus traffic by orders of magnitude
    assert full.bytes_transferred * 10 < partial.bytes_transferred
    assert partial.bytes_transferred * 2 < none.bytes_transferred
    # and the end-to-end query cost follows the traffic (cold tiers)
    assert full.total_cost_s <= partial.total_cost_s <= none.total_cost_s
    # pruning also differs: pushdown keeps file skipping effective
    assert full.files_skipped > 0
    assert none.files_skipped == 0
