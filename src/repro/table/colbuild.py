"""Rows and JSON logs -> column vectors: the edge of every table write.

Tables are written only from column vectors
(:meth:`~repro.table.columnar.ColumnarFile.from_columns`): a
:class:`~repro.table.vector.NumericVector` per numeric column and a
:class:`~repro.table.vector.DictStringVector` per string column, from
here to the file.  This module builds them from the two row-shaped
inputs:

* :func:`columns_from_rows` — row dicts (``TableObject.insert``), each
  checked with :meth:`~repro.table.schema.Schema.validate_row` before any
  column is built, so a bad row raises the same :class:`SchemaError` and
  nothing is written;
* :func:`columns_from_values` — raw JSON message values (stream->table
  conversion), where malformed values are masked and counted instead.

:func:`columns_from_values` is the stream->table converter's hot loop.
Its stages, each over the whole batch of JSON log lines at once:

1. **Batch parse** — all values join into one JSON array and parse with a
   single ``json.loads`` call.  If anything in the batch is malformed (or
   the element count disagrees, which catches values that merge across
   the inserted commas), the batch falls back to per-value parsing where
   failures become mask entries.  Non-dict documents are malformed too.
2. **Column gather** — one ``row.get(name)`` comprehension per schema
   column; extra JSON fields are dropped (matching the row-wise parser),
   and a missing field is indistinguishable from an explicit ``null``
   downstream, exactly as in the columnar encoding.
3. **Typed build + validation** — each numeric column converts to a
   NumPy vector with a validity mask, each string column is factorized
   once into a dictionary vector (distinct values in first-seen order +
   uint32 codes).  Clean columns (one ``type()`` histogram pass finds
   only the expected types) convert with a single C-level
   ``np.asarray``; dirty columns fall back to a tight per-value loop that
   flags bad rows.  Validation semantics mirror
   :meth:`~repro.table.schema.Schema.validate_row`: ``None``/missing in a
   non-nullable column, bools in non-bool columns, and any type mismatch
   mark the row malformed.
4. **Row filter** — rows bad in *any* column drop from every column with
   one index gather (:meth:`~repro.table.vector.ColumnVector.gather`).

The result is bit-compatible with the record-at-a-time oracle,
``run_cycle_rows`` in ``tests/table/rowwise.py`` (``json.loads`` and
``validate_row`` per record, then ``insert``): same surviving rows, same
malformed count, same table files.
"""

from __future__ import annotations

import json
from bisect import bisect_right

import numpy as np

from repro.common import stats
from repro.table.columnar import edge_vectors
from repro.table.schema import ColumnType, Schema
from repro.table.vector import ColumnVector, DictStringVector, NumericVector

try:
    # the batch array scans use orjson when available: same documents for
    # everything it accepts, and it is strictly *stricter* than the stdlib
    # parser (rejects NaN/Infinity, lone surrogates, BOMs, non-UTF-8), so
    # anything it refuses just routes through the per-value recovery path
    # below — which always uses stdlib ``json`` and therefore defines the
    # oracle-equivalent semantics.  Its decode errors subclass
    # ``json.JSONDecodeError``, so the error-position handling is shared.
    import orjson

    _loads_batch = orjson.loads
except ImportError:  # pragma: no cover - image without orjson
    _loads_batch = json.loads

#: sentinel marking a value that failed to parse at all
_BAD = object()


#: after this many decode errors the rest of the batch parses value by
#: value (bounds the cost of re-slicing the tail on pathological input)
_MAX_ERROR_SKIPS = 256


def _parse_single(value: bytes) -> object:
    try:
        return json.loads(value)
    except (ValueError, UnicodeDecodeError):
        return _BAD


def parse_json_batch(values: list[bytes]) -> list[object]:
    """Parse every value, batching clean runs into single ``json.loads``.

    A structural prefilter splits the batch first: values shaped like a
    JSON object (``{...}``) group into runs, anything else parses alone.
    Log-line garbage rarely starts with a brace, so malformed lines
    segment out in one cheap pass and each clean run is scanned exactly
    once — a failing array parse would otherwise build and discard every
    object before the error, then re-scan the run to recover it.  The
    shape check is only a routing *hint*: brace-wrapped garbage lands in
    a run, fails the run parse, and :func:`_parse_span`'s error-position
    recovery isolates it; non-object values that parse alone still yield
    their documents (the dict filter downstream counts them malformed).
    """
    conversion = stats.conversion_stats()
    n = len(values)
    if not n:
        return []
    plausible = [
        value[:1] == b"{" and value[-1:] == b"}" for value in values
    ]
    if False not in plausible:
        return _parse_span(values, conversion)
    out: list[object] = []
    start = 0
    while start < n:
        try:
            bad = plausible.index(False, start)
        except ValueError:
            bad = n
        if bad > start:
            out.extend(_parse_span(values[start:bad], conversion))
        if bad < n:
            conversion.row_parse_fallbacks += 1
            out.append(_parse_single(values[bad]))
        start = bad + 1
    return out


def _parse_span(values: list[bytes], conversion) -> list[object]:
    """Parse a run of object-shaped values, batching into one array scan.

    The run joins into one JSON array and parses with one call.  The
    count check catches values that merge across the inserted commas (a
    valid array with one element per input value proves each value is a
    complete JSON document).  On a decode error, the error's byte offset
    locates the offending value, so the clean run before it still parses
    array-at-a-time, the culprit parses alone and scanning resumes after
    it.  The offset is only a *hint*: every recovered run is re-verified
    with its own count check and falls back to value-by-value parsing
    when it does not hold, so equivalence with per-value parsing never
    depends on error positions.
    """
    n = len(values)
    blob = b"[" + b",".join(values) + b"]"
    try:
        parsed = _loads_batch(blob)
        if len(parsed) == n:
            conversion.batch_parses += 1
            return parsed
        conversion.row_parse_fallbacks += 1
        return list(map(_parse_single, values))
    except json.JSONDecodeError as error:
        global_pos: int | None = error.pos
    except UnicodeDecodeError as error:
        global_pos = error.start
    # byte offset of each value inside ``blob`` (value g is preceded by
    # "[" or a comma, so it starts at 1 + total-bytes-before + g)
    starts = [0] * n
    total = 0
    for index, value in enumerate(values):
        starts[index] = 1 + total + index
        total += len(value)
    out: list[object] = []
    start = 0
    failures = 0
    while start < n:
        if failures >= _MAX_ERROR_SKIPS:
            conversion.row_parse_fallbacks += 1
            out.extend(map(_parse_single, values[start:]))
            return out
        if global_pos is None:
            chunk = b"[" + blob[starts[start]:]
            try:
                parsed = _loads_batch(chunk)
                if len(parsed) == n - start:
                    conversion.batch_parses += 1
                    out.extend(parsed)
                    return out
                conversion.row_parse_fallbacks += 1
                out.extend(map(_parse_single, values[start:]))
                return out
            except json.JSONDecodeError as error:
                global_pos = starts[start] + error.pos - 1
            except UnicodeDecodeError as error:
                global_pos = starts[start] + error.start - 1
        failures += 1
        bad = max(start, bisect_right(starts, global_pos, start, n) - 1)
        global_pos = None
        if bad > start:
            run = b"[" + blob[starts[start] : starts[bad] - 1] + b"]"
            prefix: list[object] | None = None
            try:
                candidate = _loads_batch(run)
                if len(candidate) == bad - start:
                    prefix = candidate
            except (ValueError, UnicodeDecodeError):
                pass
            if prefix is not None:
                conversion.batch_parses += 1
                out.extend(prefix)
            else:
                conversion.row_parse_fallbacks += 1
                out.extend(map(_parse_single, values[start:bad]))
        conversion.row_parse_fallbacks += 1
        out.append(_parse_single(values[bad]))
        start = bad + 1
    return out


def _build_typed(values: list[object], allowed: set[type],
                 dtype: object, nullable: bool
                 ) -> tuple[NumericVector, np.ndarray | None]:
    """(vector, bad-row mask or None) for an int64/float64/bool column.

    Three tiers, chosen by one ``type()`` histogram pass: clean columns
    convert with a single C-level ``np.asarray``; columns that are clean
    except for nulls add one mask comprehension; genuinely dirty columns
    fall back to a per-value loop that builds Python lists (converted
    once at the end — element-wise ndarray stores are far slower).
    """
    n = len(values)
    kinds = set(map(type, values))
    extra = kinds - allowed
    if kinds and not extra:
        return (
            NumericVector(np.asarray(values, dtype=dtype),
                          np.ones(n, dtype=bool)),
            None,
        )
    if kinds and extra == {type(None)}:
        valid = np.fromiter(
            (value is not None for value in values), dtype=bool, count=n
        )
        data = np.asarray(
            [0 if value is None else value for value in values], dtype=dtype
        )
        return NumericVector(data, valid), (None if nullable else ~valid)
    data_list: list[object] = []
    valid_list: list[bool] = []
    bad_list: list[bool] = []
    for value in values:
        if type(value) in allowed:
            data_list.append(value)
            valid_list.append(True)
            bad_list.append(False)
        elif value is None:
            data_list.append(0)
            valid_list.append(False)
            bad_list.append(not nullable)
        else:
            data_list.append(0)
            valid_list.append(False)
            bad_list.append(True)
    return (
        NumericVector(np.asarray(data_list, dtype=dtype),
                      np.asarray(valid_list, dtype=bool)),
        np.asarray(bad_list, dtype=bool),
    )


def _build_strings(values: list[object], nullable: bool
                   ) -> tuple[DictStringVector, np.ndarray | None]:
    """(dictionary vector, bad-row mask or None) for a STRING column; a
    bad value is NULL in the vector, its row dropped later."""
    n = len(values)
    kinds = set(map(type, values))
    if kinds == {str} or (kinds == {str, type(None)} and nullable):
        return DictStringVector.from_values(values), None
    bad = np.zeros(n, dtype=bool)
    out: list[object] = [None] * n
    for index, value in enumerate(values):
        if type(value) is str:
            out[index] = value
        elif value is None:
            if not nullable:
                bad[index] = True
        else:
            bad[index] = True
    return DictStringVector.from_values(out), bad


def columns_from_values(
    values: list[bytes], schema: Schema
) -> tuple[dict[str, ColumnVector], int, int]:
    """Convert raw JSON message values to validated column data.

    Returns ``(columns, row_count, malformed_count)`` where ``columns``
    feeds :meth:`~repro.table.columnar.ColumnarFile.from_columns` /
    :meth:`~repro.table.table.TableObject.insert_columns` directly and
    ``malformed_count`` counts values that failed JSON parsing, were not
    JSON objects, or failed schema validation in any column.
    """
    parsed = parse_json_batch(values)
    rows = [doc for doc in parsed if isinstance(doc, dict)]
    malformed = len(parsed) - len(rows)
    n = len(rows)
    if not n:
        return {}, 0, malformed
    bad_rows: np.ndarray | None = None
    columns: dict[str, ColumnVector] = {}
    for column in schema.columns:
        gathered = [row.get(column.name) for row in rows]
        if column.type is ColumnType.STRING:
            data, bad = _build_strings(gathered, column.nullable)
        elif column.type is ColumnType.BOOL:
            data, bad = _build_typed(
                gathered, {bool}, np.bool_, column.nullable
            )
        elif column.type is ColumnType.FLOAT64:
            data, bad = _build_typed(
                gathered, {int, float}, np.float64, column.nullable
            )
        else:  # INT64 / TIMESTAMP
            data, bad = _build_typed(
                gathered, {int}, np.int64, column.nullable
            )
        columns[column.name] = data
        if bad is not None and bad.any():
            bad_rows = bad if bad_rows is None else (bad_rows | bad)
    if bad_rows is not None:
        dropped = int(bad_rows.sum())
        malformed += dropped
        n -= dropped
        keep = np.flatnonzero(~bad_rows)
        columns = {name: data.gather(keep) for name, data in columns.items()}
    if not n:
        return {}, 0, malformed
    return columns, n, malformed


def columns_from_rows(
    schema: Schema, rows: list[dict[str, object]]
) -> tuple[dict[str, ColumnVector], int]:
    """Row dicts as ``(columns, row_count)`` for ``insert_columns``.

    Every row is checked with :meth:`Schema.validate_row` first, so the
    first bad row raises its :class:`~repro.errors.SchemaError` before
    any column exists.  A missing nullable key is NULL.  Each column's
    values become a vector at the write edge
    (:func:`~repro.table.columnar.edge_vectors`), so an ``int`` in a
    FLOAT64 column is a float from here on.
    """
    for row in rows:
        schema.validate_row(row)
    return edge_vectors(schema, {
        column.name: [row.get(column.name) for row in rows]
        for column in schema.columns
    }, len(rows)), len(rows)
