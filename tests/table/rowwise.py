"""Row-at-a-time table operations: the equivalence oracles.

These are the table layer's pre-vectorization loops, kept beside the
tests that pin the vector paths to them.  Every row materializes as a
Python dict:

* :func:`select_rows` — SELECT through ``ColumnarFile.scan_rows`` and the
  row-wise aggregate accumulator; charges no simulated time.
* :func:`delete_rows` / :func:`update_rows` — DELETE and UPDATE that scan
  every overlapping file into row dicts, run ``predicate.matches`` per
  row, and rebuild files with ``ColumnarFile.from_rows``.  They charge
  and commit exactly as :meth:`TableObject.delete` / ``update`` do.
"""

from __future__ import annotations

from repro.table.columnar import ColumnarFile
from repro.table.commit import DataFileMeta
from repro.table.expr import Expression
from repro.table.pushdown import AggregateSpec, execute_pushdown_multi
from repro.table.table import TableObject


def select_rows(table: TableObject, predicate: Expression | None = None,
                columns: list[str] | None = None,
                aggregate: "AggregateSpec | list[AggregateSpec] | None" = None,
                as_of: float | None = None) -> list[dict[str, object]]:
    """Row-at-a-time SELECT: asserts :meth:`TableObject.select` rows."""
    snapshot = (
        table.snapshots.snapshot_at(as_of) if as_of is not None else None
    )
    specs: list[AggregateSpec] | None = None
    if aggregate is not None:
        specs = (
            [aggregate] if isinstance(aggregate, AggregateSpec)
            else list(aggregate)
        )
        columns = sorted(
            {name for spec in specs for name in spec.columns()}
        ) or []
    rows: list[dict[str, object]] = []
    for meta in table.snapshots.live_files(snapshot):
        if predicate is not None and not predicate.possibly_matches(
            meta.stats()
        ):
            continue
        payload, _ = table.pool.fetch(meta.path)
        rows.extend(
            ColumnarFile.from_bytes(payload).scan_rows(predicate, columns)
        )
    if specs is not None:
        return execute_pushdown_multi(rows, specs)
    return rows


def delete_rows(table: TableObject, predicate: Expression) -> float:
    """Row-at-a-time DELETE: asserts :meth:`TableObject.delete`."""
    expected = table.begin()
    live = table.snapshots.live_files()
    removed: list[str] = []
    added: list[DataFileMeta] = []
    cost = 0.0
    write_costs: list[float] = []
    for meta in live:
        if not predicate.possibly_matches(meta.stats()):
            continue
        data_file, read_cost = table.cache_hierarchy.load_file(
            table.pool, meta.path, now=table.clock.now
        )
        cost += read_cost
        survivors = [
            row for row in data_file.scan(cache=table.chunk_cache)
            if not predicate.matches(row)
        ]
        if len(survivors) == data_file.num_rows:
            continue  # statistics overlapped but nothing matched
        removed.append(meta.path)
        if survivors:
            # survivors came straight out of a validated data file
            new_meta, write_cost = table._write_data_file(
                meta.partition, survivors, pre_validated=True
            )
            added.append(new_meta)
            write_costs.append(write_cost)
    cost += table._advance_writes(write_costs)
    if not removed:
        return cost
    cost += table._commit(
        "delete", added=added, removed=removed, expected_version=expected
    )
    return cost


def update_rows(table: TableObject, predicate: Expression,
                set_values: dict[str, object]) -> float:
    """Row-at-a-time UPDATE: asserts :meth:`TableObject.update`."""
    for column in set_values:
        table.schema.column(column)  # validates existence
    expected = table.begin()
    live = table.snapshots.live_files()
    removed: list[str] = []
    added: list[DataFileMeta] = []
    cost = 0.0
    write_costs: list[float] = []
    for meta in live:
        if not predicate.possibly_matches(meta.stats()):
            continue
        data_file, read_cost = table.cache_hierarchy.load_file(
            table.pool, meta.path, now=table.clock.now
        )
        cost += read_cost
        changed = False
        new_rows = []
        for row in data_file.scan(cache=table.chunk_cache):
            if predicate.matches(row):
                row = {**row, **set_values}
                changed = True
            new_rows.append(row)
        if not changed:
            continue
        removed.append(meta.path)
        # rows may move partitions when a partition column changes
        by_partition: dict[str, list[dict[str, object]]] = {}
        for row in new_rows:
            table.schema.validate_row(row)
            by_partition.setdefault(
                table.partition_spec.key_of(row), []
            ).append(row)
        for partition, partition_rows in sorted(by_partition.items()):
            new_meta, write_cost = table._write_data_file(
                partition, partition_rows, pre_validated=True
            )
            added.append(new_meta)
            write_costs.append(write_cost)
    cost += table._advance_writes(write_costs)
    if not removed:
        return cost
    cost += table._commit(
        "update", added=added, removed=removed, expected_version=expected
    )
    return cost
