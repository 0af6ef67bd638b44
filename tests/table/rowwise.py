"""Row-at-a-time table operations: the equivalence oracles.

These are the table layer's pre-vectorization loops, kept beside the
tests that pin the vector paths to them.  Every row materializes as a
Python dict:

* :func:`decode_column` / :func:`scan_rows` — one chunk as Python values
  and a file scanned row group by row group, every row a dict tested
  with ``predicate.matches`` (asserts ``ColumnarFile.scan`` and the
  chunk codec).
* :func:`encode_strings_rows` — a string chunk from Python values (set,
  sort and map per chunk), the encoder the dictionary-vector one is
  pinned to byte for byte.
* :func:`join_rows` — the O(n*m) nested-loop join (asserts
  ``hash_join`` and the planner).
* :func:`select_rows` — SELECT through :func:`scan_rows` and the
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
import zlib
from json.encoder import encode_basestring_ascii

import numpy as np

from repro.errors import SchemaError
from repro.stream.records import MessageRecord
from repro.table.colbuild import columns_from_rows
from repro.table.columnar import (
    _ENC_DICT,
    _ENC_PLAIN,
    _LEN,
    _ZLIB_LEVEL,
    ROW_GROUP_SIZE,
    ColumnarFile,
    _decode_vector,
    _frame_planes,
    _plain_strings,
    _plain_values,
    _split_dictionary,
    _string_tag,
    _width_for,
    _word_planes,
)
from repro.table.commit import DataFileMeta
from repro.table.conversion import ConversionReport, StreamTableConverter
from repro.table.expr import Expression
from repro.table.join import JOIN_TYPES, ColumnSet
from repro.table.pushdown import AggregateSpec, execute_pushdown_multi
from repro.table.schema import ColumnType, Schema
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


def decode_column(blob: bytes, type_: ColumnType,
                  count: int) -> list[object]:
    """One chunk as Python values (``None`` = NULL).

    Numeric and bool chunks go through the codec's one decoder; string
    chunks are read straight from their plain list or dictionary codes,
    without the dictionary vector the scan path builds.
    """
    if type_ is not ColumnType.STRING:
        return _decode_vector(blob, type_, count).to_list()
    if _string_tag(blob) == _ENC_PLAIN:
        return _plain_values(blob, count)
    dictionary, codes = _split_dictionary(blob, count)
    null_code = len(dictionary)
    return [None if c == null_code else dictionary[c] for c in codes.tolist()]


def encode_strings_rows(values: list[object]
                        ) -> tuple[bytes, tuple[object, object, int]]:
    """A string chunk and its ``(min, max, nulls)`` from Python values.

    The list encoder the file builder used before string columns stayed
    dictionary vectors: distinct values from a set, sorted, mapped back
    over every value, then plain JSON or dictionary encoding, whichever
    is smaller.
    """
    present = set(values)
    present.discard(None)
    if not values or len(present) > max(1, len(values) // 2):
        nulls = values.count(None)
        stats = (min(present), max(present), nulls) if present else \
            (None, None, nulls)
        return _plain_strings(values), stats
    distinct = sorted(present)
    mapping = dict(zip(distinct, range(len(distinct))))
    mapping[None] = len(distinct)
    codes = np.fromiter(
        map(mapping.__getitem__, values), dtype=np.uint32, count=len(values)
    )
    *counts, nulls = np.bincount(codes, minlength=len(distinct) + 1).tolist()
    stats = (distinct[0], distinct[-1], nulls) if distinct else \
        (None, None, nulls)
    items = list(map(encode_basestring_ascii, distinct))
    dictionary = f"[{','.join(items)}]".encode()
    width = _width_for(len(distinct))
    # "[" + values joined by "," + "]", NULL spelled "null"
    plain_size = len(values) + 1 + 4 * nulls + sum(
        map(int.__mul__, map(len, items), counts)
    )
    if _LEN.size + len(dictionary) + width * len(values) >= plain_size:
        return _plain_strings(values), stats
    stream = zlib.compress(dictionary, _ZLIB_LEVEL)
    chunk = (
        bytes([_ENC_DICT]) + _LEN.pack(len(stream)) + stream
        + _frame_planes(_word_planes(codes, width))
    )
    return chunk, stats


def scan_rows(data_file: ColumnarFile, predicate: Expression | None = None,
              columns: list[str] | None = None) -> list[dict[str, object]]:
    """Row-at-a-time scan: asserts :meth:`ColumnarFile.scan`.

    Row groups the footer statistics rule out are skipped, as in the
    vector path; every surviving row is decoded in full and tested with
    ``predicate.matches``.
    """
    projection, needed = data_file._validate_projection(predicate, columns)
    out: list[dict[str, object]] = []
    for group in data_file._groups:
        if predicate is not None and not predicate.possibly_matches(
            group.stats
        ):
            continue
        decoded = {
            name: decode_column(
                group.chunks[name],
                data_file.schema.column(name).type,
                group.num_rows,
            )
            for name in needed
        }
        for index in range(group.num_rows):
            row = {name: decoded[name][index] for name in decoded}
            if predicate is None or predicate.matches(row):
                out.append({name: row[name] for name in projection})
    return out


def join_rows(left_rows: list[dict[str, object]],
              right_rows: list[dict[str, object]],
              left_on: list[str], right_on: list[str],
              how: str = "inner"
              ) -> list[tuple[dict[str, object], dict[str, object] | None]]:
    """Nested-loop join: asserts :func:`~repro.table.join.hash_join`.

    O(n*m): for every left row, scan every right row and compare keys
    with Python ``==``; NULL keys never match.  Returns
    ``(left_row, right_row-or-None)`` pairs in probe order.
    """
    if how not in JOIN_TYPES:
        raise ValueError(f"unsupported join type {how!r}; use {JOIN_TYPES}")
    out: list[tuple[dict[str, object], dict[str, object] | None]] = []
    for left_row in left_rows:
        left_key = [left_row.get(name) for name in left_on]
        matched = False
        if all(value is not None for value in left_key):
            for right_row in right_rows:
                right_key = [right_row.get(name) for name in right_on]
                if any(value is None for value in right_key):
                    continue
                if all(a == b for a, b in zip(left_key, right_key)):
                    out.append((left_row, right_row))
                    matched = True
        if how == "left" and not matched:
            out.append((left_row, None))
    return out


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
            scan_rows(ColumnarFile.from_bytes(payload), predicate, columns)
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
            row for row in data_file.scan(cache=table.cache_hierarchy.chunks)
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
        for row in data_file.scan(cache=table.cache_hierarchy.chunks):
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
        rows.extend(data_file.scan(cache=table.cache_hierarchy.chunks))
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
