"""Aggregation engine: vectorized GROUP BY kernel vs the row-wise oracle.

The seed's aggregate pushdown materialized every matching row as a
Python dict and fed it through a per-row accumulator.  This bench runs
GROUP BY SUM/AVG over a 100k-row file three ways — the retained row-wise
oracle (``scan_rows`` + ``execute_pushdown_multi``), the previous
vectorized-scan-then-rowwise-aggregate hybrid, and the aggregation
engine (``aggregate_file``: factorized keys + bincount/reduceat over
per-row-group partials; cold cache, then warm) — asserting identical
result rows and recording best-of-3 timings, speedups, the footer
fast-path latency and the engine counters into ``BENCH_agg.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.bench import ResultTable
from repro.common.stats import aggregation_stats
from repro.table.agg import aggregate_file
from repro.table.chunkcache import ChunkCache
from repro.table.colbuild import columns_from_rows
from repro.table.columnar import ColumnarFile
from repro.table.expr import Predicate
from repro.table.pushdown import AggregateSpec, execute_pushdown_multi
from repro.table.schema import Column, ColumnType, Schema

NUM_ROWS = 100_000
ROW_GROUP_SIZE = 10_000
REPEATS = 3
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_agg.json"

SCHEMA = Schema([
    Column("id", ColumnType.INT64),
    Column("province", ColumnType.STRING),
    Column("bytes_down", ColumnType.FLOAT64, nullable=True),
    Column("start_time", ColumnType.TIMESTAMP),
])


def _build_file(num_rows: int) -> ColumnarFile:
    rows = [
        {
            "id": index,
            "province": f"province_{index % 13:02d}",
            # integral floats: SUM is exact, so all paths agree bit-for-bit
            "bytes_down": None if index % 50 == 0 else float(index % 4096),
            "start_time": 1_656_806_400 + index,
        }
        for index in range(num_rows)
    ]
    return ColumnarFile.from_columns(
        SCHEMA, *columns_from_rows(SCHEMA, rows), ROW_GROUP_SIZE
    )


def _specs() -> list[AggregateSpec]:
    return [
        AggregateSpec("COUNT", group_by=("province",)),
        AggregateSpec("SUM", "bytes_down", group_by=("province",)),
        AggregateSpec("AVG", "bytes_down", group_by=("province",)),
    ]


def _best_of(repeats: int, fn) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_agg_bench(num_rows: int = NUM_ROWS,
                  result_path: Path | None = RESULT_PATH) -> dict:
    data_file = _build_file(num_rows)
    specs = _specs()
    predicate = Predicate("id", ">=", 0)  # matches all: no pruning help
    needed = sorted({name for spec in specs for name in spec.columns()})

    oracle_s, expected = _best_of(REPEATS, lambda: execute_pushdown_multi(
        data_file.scan_rows(predicate, needed), specs
    ))

    # the pre-engine hybrid: vectorized scan, then row-wise accumulation
    hybrid_cache = ChunkCache()
    hybrid_s, hybrid_rows = _best_of(REPEATS, lambda: execute_pushdown_multi(
        data_file.scan(predicate, needed, cache=hybrid_cache), specs
    ))

    def _vectorized(cache: ChunkCache):
        return aggregate_file(
            data_file, specs, predicate=predicate, cache=cache
        ).rows()

    cold_times = []
    cold_rows = None
    for _ in range(REPEATS):
        cache = ChunkCache()
        start = time.perf_counter()
        cold_rows = _vectorized(cache)
        cold_times.append(time.perf_counter() - start)
    cold_s = min(cold_times)
    warm_cache = ChunkCache()
    _vectorized(warm_cache)
    warm_s, warm_rows = _best_of(REPEATS, lambda: _vectorized(warm_cache))

    # footer fast path: un-predicated COUNT/MIN/MAX from row-group stats
    footer_specs = [AggregateSpec("COUNT"), AggregateSpec("MIN", "bytes_down"),
                    AggregateSpec("MAX", "bytes_down")]
    footer_cache = ChunkCache()
    footer_s, footer_rows = _best_of(REPEATS, lambda: aggregate_file(
        data_file, footer_specs, cache=footer_cache
    ).rows())
    assert footer_cache.stats.lookups == 0
    assert footer_rows == execute_pushdown_multi(
        data_file.scan_rows(None, ["bytes_down"]), footer_specs
    )

    # integral float values: every path must produce identical rows
    assert hybrid_rows == expected
    assert cold_rows == expected and warm_rows == expected

    results = {
        "num_rows": num_rows,
        "row_group_size": ROW_GROUP_SIZE,
        "num_groups": len(expected),
        "repeats": REPEATS,
        "oracle_rows_per_s": num_rows / oracle_s,
        "hybrid_rows_per_s": num_rows / hybrid_s,
        "vectorized_cold_rows_per_s": num_rows / cold_s,
        "vectorized_warm_rows_per_s": num_rows / warm_s,
        "footer_count_min_max_s": footer_s,
        "speedup_cold": oracle_s / cold_s,
        "speedup_warm": oracle_s / warm_s,
        "speedup_over_hybrid": hybrid_s / warm_s,
        "aggregation_stats": aggregation_stats().snapshot(),
    }
    if result_path is not None:
        result_path.write_text(json.dumps(results, indent=2) + "\n")

    table = ResultTable(
        f"GROUP BY SUM/AVG: {num_rows:,} rows, {results['num_groups']} groups "
        f"(best of {REPEATS})",
        ["path", "rows/s", "speedup"],
    )
    table.add_row("row-wise oracle", f"{results['oracle_rows_per_s']:,.0f}",
                  "1.0x")
    table.add_row("vec scan + row agg", f"{results['hybrid_rows_per_s']:,.0f}",
                  f"{oracle_s / hybrid_s:.1f}x")
    table.add_row("agg engine cold", f"{results['vectorized_cold_rows_per_s']:,.0f}",
                  f"{results['speedup_cold']:.1f}x")
    table.add_row("agg engine warm", f"{results['vectorized_warm_rows_per_s']:,.0f}",
                  f"{results['speedup_warm']:.1f}x")
    table.add_row("footer COUNT/MIN/MAX", f"{footer_s * 1e6:,.0f} us total",
                  f"{oracle_s / footer_s:.0f}x")
    table.show()
    print(f"aggregation stats: {results['aggregation_stats']}")
    return results


def test_agg_vectorized(benchmark) -> None:
    from conftest import run_once

    results = run_once(benchmark, run_agg_bench)
    assert results["speedup_cold"] >= 5.0
    assert results["speedup_warm"] >= 5.0


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_agg_bench(
        num_rows=10_000 if smoke else NUM_ROWS,
        result_path=None if smoke else RESULT_PATH,
    )
    if outcome["speedup_cold"] < (2.0 if smoke else 5.0):
        raise SystemExit(
            f"vectorized aggregation too slow: {outcome['speedup_cold']:.1f}x"
        )
