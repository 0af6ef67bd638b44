"""Row-at-a-time table operations: the equivalence oracles.

These are the table layer's pre-vectorization loops, kept beside the
tests that pin the vector paths to them.  Every row materializes as a
Python dict:

* :func:`select_rows` — SELECT through ``ColumnarFile.scan_rows`` and the
  row-wise aggregate accumulator; charges no simulated time.
* :func:`delete_rows` / :func:`update_rows` — DELETE and UPDATE that scan
  every overlapping file into row dicts, run ``predicate.matches`` per
  row, group rows by partition key, and rebuild each file from its rows.
  They charge and commit exactly as :meth:`TableObject.delete` /
  ``update`` do.
* :func:`compact_rows` — compaction that scans the merged files into row
  dicts and rebuilds one file from them (asserts ``TableObject.compact``).
* :func:`run_cycle_rows` — stream->table conversion record by record:
  ``json.loads`` + ``validate_row`` per record, then ``insert`` (asserts
  ``StreamTableConverter.run_cycle``).

Files are rebuilt through the one file builder,
``ColumnarFile.from_columns`` fed by ``columns_from_rows``
(:func:`file_from_rows`), so oracle and vector paths write the same bytes.
"""

from __future__ import annotations

import json

from repro.errors import SchemaError
from repro.stream.records import MessageRecord
from repro.table.colbuild import columns_from_rows
from repro.table.columnar import ROW_GROUP_SIZE, ColumnarFile
from repro.table.commit import DataFileMeta
from repro.table.conversion import ConversionReport, StreamTableConverter
from repro.table.expr import Expression
from repro.table.join import ColumnSet
from repro.table.pushdown import AggregateSpec, execute_pushdown_multi
from repro.table.schema import Schema
from repro.table.table import TableObject


def file_from_rows(schema: Schema, rows: list[dict[str, object]],
                   row_group_size: int = ROW_GROUP_SIZE) -> ColumnarFile:
    """A data file built from row dicts (validated like ``insert``)."""
    return ColumnarFile.from_columns(
        schema, *columns_from_rows(schema, rows), row_group_size
    )


def column_set_from_rows(schema: Schema, rows: list[dict[str, object]],
                         columns: list[str] | None = None) -> ColumnSet:
    """A relation from row dicts, decoded from a one-group data file."""
    if not rows:
        return ColumnSet.empty(columns or schema.names)
    return ColumnSet.from_file(
        file_from_rows(schema, rows, len(rows)), columns
    )


def _write_rows(table: TableObject, partition: str,
                rows: list[dict[str, object]]) -> tuple[DataFileMeta, float]:
    return table._write_columns_file(
        partition, *columns_from_rows(table.schema, rows)
    )


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
            new_meta, write_cost = _write_rows(
                table, meta.partition, survivors
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
        keys = table.partition_spec.keys_of(
            *columns_from_rows(table.schema, new_rows)
        )
        by_partition: dict[str, list[dict[str, object]]] = {}
        for key, row in zip(keys, new_rows):
            by_partition.setdefault(key, []).append(row)
        for partition, partition_rows in sorted(by_partition.items()):
            new_meta, write_cost = _write_rows(
                table, partition, partition_rows
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


def compact_rows(table: TableObject, partition: str, target_file_bytes: int,
                 expected_version: int | None = None) -> float:
    """Row-at-a-time compaction: asserts :meth:`TableObject.compact`."""
    expected, live = table._compaction_plan(
        partition, target_file_bytes, expected_version
    )
    if len(live) < 2:
        return 0.0
    rows: list[dict[str, object]] = []
    cost = 0.0
    for meta in live:
        data_file, read_cost = table.cache_hierarchy.load_file(
            table.pool, meta.path, now=table.clock.now
        )
        cost += read_cost
        rows.extend(data_file.scan(cache=table.chunk_cache))
    new_meta, write_cost = _write_rows(table, partition, rows)
    cost += table._advance_writes([write_cost])
    cost += table._commit(
        "compact", added=[new_meta], removed=[meta.path for meta in live],
        expected_version=expected,
    )
    return cost


def _parse(table: TableObject,
           record: MessageRecord) -> dict[str, object] | None:
    """One record's JSON value as a valid row dict, or None."""
    try:
        raw = json.loads(record.value)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(raw, dict):
        return None
    row = {name: raw[name] for name in table.schema.names if name in raw}
    try:
        table.schema.validate_row(row)
    except SchemaError:
        return None
    return row


def run_cycle_rows(converter: StreamTableConverter,
                   force: bool = False) -> ConversionReport:
    """Record-at-a-time conversion: asserts
    :meth:`StreamTableConverter.run_cycle` (converted rows, malformed
    count, positions and table files)."""
    trigger = converter.should_convert()
    if trigger is None and not force:
        return ConversionReport()
    report = ConversionReport(triggered_by=trigger or "force")
    service = converter._service
    config = service.dispatcher.config_of(converter._topic).convert_2_table
    table = converter._table
    rows: list[dict[str, object]] = []
    for stream_id in sorted(converter._positions):
        obj = service.object_for(stream_id)
        obj.flush()
        position = converter._positions[stream_id]
        while position < obj.end_offset:
            records, cost = obj.read(position)
            report.sim_seconds += cost
            if not records:
                break
            for record in records:
                row = _parse(table, record)
                if row is None:
                    report.malformed += 1
                else:
                    rows.append(row)
            position = records[-1].offset + 1
        converter._positions[stream_id] = position
    if rows:
        report.sim_seconds += table.insert(rows)
        report.converted = len(rows)
    converter._finish_cycle(report, config)
    return report
