"""Scan engine: vectorized (NumPy masks + late materialization) vs row-wise.

The seed's ``ColumnarFile.scan`` decoded whole chunks into Python lists
and evaluated predicates one dict-row at a time — the hot inner loop
under every pushdown/TPC-H bench.  This bench scans the same 100k-row
file through the retained row-wise oracle (``scan_rows``) and the
vectorized engine (cold cache, then warm cache), and records rows/sec,
speedups and decoded-chunk cache hit rates into ``BENCH_scan.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.bench import ResultTable
from repro.common.context import current_context
from repro.table.chunkcache import ChunkCache
from repro.table.colbuild import columns_from_rows
from repro.table.columnar import ColumnarFile
from repro.table.expr import And, Predicate
from repro.table.schema import Column, ColumnType, Schema

NUM_ROWS = 100_000
ROW_GROUP_SIZE = 10_000
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_scan.json"

SCHEMA = Schema([
    Column("id", ColumnType.INT64),
    Column("url", ColumnType.STRING),
    Column("province", ColumnType.STRING),
    Column("bytes_down", ColumnType.FLOAT64, nullable=True),
    Column("start_time", ColumnType.TIMESTAMP),
])

HOT_URL = "http://streamlake_fin_app.com"


def _build_file(num_rows: int) -> ColumnarFile:
    rows = [
        {
            "id": index,
            # ~1% of rows hit the hot URL: a selective predicate
            "url": HOT_URL if index % 100 == 7 else f"http://site_{index % 37}.com",
            "province": f"province_{index % 13:02d}",
            "bytes_down": None if index % 50 == 0 else float(index % 4096),
            "start_time": 1_656_806_400 + index,
        }
        for index in range(num_rows)
    ]
    return ColumnarFile.from_columns(
        SCHEMA, *columns_from_rows(SCHEMA, rows), ROW_GROUP_SIZE
    )


def _predicate(num_rows: int) -> And:
    return And(
        Predicate("url", "=", HOT_URL),
        Predicate("start_time", ">=", 1_656_806_400),
        Predicate("start_time", "<", 1_656_806_400 + num_rows),
    )


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def run_scan_bench(num_rows: int = NUM_ROWS,
                   result_path: Path | None = RESULT_PATH) -> dict:
    data_file = _build_file(num_rows)
    predicate = _predicate(num_rows)
    projection = ["id", "province", "bytes_down"]

    rowwise_s, expected = _timed(
        lambda: data_file.scan_rows(predicate, projection)
    )

    cache = ChunkCache()
    cold_s, cold_rows = _timed(
        lambda: data_file.scan(predicate, projection, cache=cache)
    )
    warm_s, warm_rows = _timed(
        lambda: data_file.scan(predicate, projection, cache=cache)
    )
    count_s, matched = _timed(lambda: data_file.count(predicate, cache=cache))
    assert cold_rows == expected and warm_rows == expected
    assert matched == len(expected)

    results = {
        "num_rows": num_rows,
        "row_group_size": ROW_GROUP_SIZE,
        "selectivity": len(expected) / num_rows if num_rows else 0.0,
        "rowwise_rows_per_s": num_rows / rowwise_s,
        "vectorized_cold_rows_per_s": num_rows / cold_s,
        "vectorized_warm_rows_per_s": num_rows / warm_s,
        "count_rows_per_s": num_rows / count_s,
        "speedup_cold": rowwise_s / cold_s,
        "speedup_warm": rowwise_s / warm_s,
        "chunk_cache": cache.stats.snapshot(),
        "global_caches": {
            name: stats.snapshot()
            for name, stats in sorted(current_context().caches.items())
        },
    }
    if result_path is not None:
        result_path.write_text(json.dumps(results, indent=2) + "\n")

    table = ResultTable(
        f"Scan engine: {num_rows:,} rows, selectivity "
        f"{results['selectivity']:.1%}",
        ["path", "rows/s", "speedup"],
    )
    table.add_row("row-wise oracle", f"{results['rowwise_rows_per_s']:,.0f}", "1.0x")
    table.add_row("vectorized cold", f"{results['vectorized_cold_rows_per_s']:,.0f}",
                  f"{results['speedup_cold']:.1f}x")
    table.add_row("vectorized warm", f"{results['vectorized_warm_rows_per_s']:,.0f}",
                  f"{results['speedup_warm']:.1f}x")
    table.add_row("count() warm", f"{results['count_rows_per_s']:,.0f}",
                  f"{rowwise_s / count_s:.1f}x")
    table.show()
    print(f"chunk cache: {cache.stats.snapshot()}")
    return results


def test_scan_vectorized(benchmark) -> None:
    from conftest import run_once

    results = run_once(benchmark, run_scan_bench)
    assert results["speedup_cold"] >= 5.0
    assert results["chunk_cache"]["hit_rate"] > 0.5


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_scan_bench(
        num_rows=10_000 if smoke else NUM_ROWS,
        result_path=None if smoke else RESULT_PATH,
    )
    if outcome["speedup_cold"] < (2.0 if smoke else 5.0):
        raise SystemExit(
            f"vectorized scan too slow: {outcome['speedup_cold']:.1f}x"
        )
