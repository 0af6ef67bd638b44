"""Vectorized hash joins over a bucket directory of key codes.

The paper's Fig 16 workloads are multi-table, but until this module the
engine executed table-at-a-time.  A join here never materializes a
Python row on the hot path:

* the build side's key columns define the buckets of a **bucket
  directory** (:func:`join_codes`): integer/bool/timestamp keys whose
  span is small against the row counts address buckets directly as
  ``value - build_min``; floats, sparse integers and over-wide composite
  keys take their rank among ``np.unique`` of the build side only; string
  keys remap the probe dictionary into the build dictionary — so a probe
  key lands in the bucket of the build keys it equals, and NULLs, keys
  that provably match nothing and cross-type pairs take the sentinel
  ``-1``.  Which coding runs follows from the dtypes and spans observed;
  nothing selects it;
* the directory (:func:`build_directory`) is ``counts = bincount(codes)``,
  ``starts = cumsum(counts) - counts`` and one stable ``order`` (so
  duplicate keys keep build-row order); a probe
  (:func:`probe_directory`) is two gathers, ``counts[probe]`` and
  ``starts[probe]``, and when every bucket holds at most one build row —
  any PK-FK join — it emits its matches without expanding fan-out;
* the result is a pair of row-index arrays (:class:`JoinResult`) —
  **late materialization**: both sides gather surviving indices as
  typed vectors (:meth:`ColumnVector.gather`) and only the final
  projection builds Python objects.

NULL-key semantics match SQL: a NULL never equals anything (including
another NULL), so NULL keys drop from the build side and match nothing
on the probe side; a LEFT OUTER join still emits the probe row once,
with ``-1`` marking the missing build row (materialized as NULLs).
Numeric keys compare exactly, like Python ``==``: NaN matches nothing,
and an int64 equals a float64 only when the float is that integer.
The row-wise nested-loop oracle these semantics are tested against
lives with the tests (``tests/table/rowwise.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.tier import CacheTier
from repro.common.stats import join_stats
from repro.table.columnar import ColumnarFile
from repro.table.expr import Expression
from repro.table.vector import (
    ColumnVector,
    DictStringVector,
    NumericVector,
    concat_vectors,
)

#: Join types the kernel supports.
JOIN_TYPES = ("inner", "left")


def gather_with_nulls(vector: ColumnVector, indices: np.ndarray
                      ) -> ColumnVector:
    """Gather rows where ``-1`` indices become NULL (outer-join padding);
    without a ``-1`` this is :meth:`ColumnVector.gather`."""
    if not len(indices) or int(indices.min()) >= 0:
        return vector.gather(indices)
    safe = np.clip(indices, 0, None)
    missing = indices < 0
    if isinstance(vector, NumericVector):
        values = vector.values[safe] if len(vector) else np.zeros(
            len(indices), dtype=np.int64
        )
        valid = vector.valid()[safe] if len(vector) else np.zeros(
            len(indices), dtype=bool
        )
        return NumericVector(values, valid & ~missing)
    assert isinstance(vector, DictStringVector)
    null_code = len(vector.dictionary)
    codes = vector.codes[safe] if len(vector) else np.zeros(
        len(indices), dtype=np.uint32
    )
    codes = np.where(missing, np.uint32(null_code), codes)
    return DictStringVector(vector.dictionary, codes.astype(np.uint32))


def _empty_vector() -> NumericVector:
    """The column of a relation with no rows (the type is unknowable)."""
    return NumericVector(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))


@dataclass
class ColumnSet:
    """A relation in decoded form: named typed vectors + a row count.

    This is what flows between scan, join, and aggregation in the
    multi-table engine — the table-level twin of a row group's vector
    dict, spanning all of a relation's surviving rows.
    """

    columns: dict[str, ColumnVector]
    num_rows: int

    @classmethod
    def from_file(cls, data_file: ColumnarFile,
                  columns: list[str] | None = None,
                  predicate: Expression | None = None,
                  cache: CacheTier | None = None) -> "ColumnSet":
        """Decode (a projection of) one data file, predicate applied.

        Surviving rows gather at the vector level — no row dicts.
        """
        names = columns if columns is not None else data_file.schema.names
        parts: dict[str, list[ColumnVector]] = {name: [] for name in names}
        num_rows = 0
        for vectors, mask, group_rows in data_file.select_vectors(
            names, predicate, cache
        ):
            indices = None if mask is None else np.flatnonzero(mask)
            for name in names:
                vector = vectors[name]
                parts[name].append(
                    vector if indices is None else vector.gather(indices)
                )
            num_rows += group_rows if indices is None else int(indices.size)
        return cls({
            name: concat_vectors(parts[name]) if parts[name]
            else _empty_vector()
            for name in names
        }, num_rows)

    @classmethod
    def empty(cls, names: list[str]) -> "ColumnSet":
        """A relation with no rows: one empty int64 vector per name."""
        return cls({name: _empty_vector() for name in names}, 0)

    def gather(self, indices: np.ndarray) -> "ColumnSet":
        """Row subset at the vector level (``-1`` rows become NULLs)."""
        return ColumnSet({
            name: gather_with_nulls(vector, indices)
            for name, vector in self.columns.items()
        }, len(indices))

    def to_rows(self, columns: list[str] | None = None
                ) -> list[dict[str, object]]:
        """Materialize Python rows (the final projection, or tests)."""
        names = columns if columns is not None else list(self.columns)
        materialized = [self.columns[name].to_list() for name in names]
        return [
            dict(zip(names, values)) for values in zip(*materialized)
        ] if names else [{} for _ in range(self.num_rows)]


def concat_column_sets(parts: list["ColumnSet"]) -> "ColumnSet":
    """One relation spanning several per-file :class:`ColumnSet` chunks."""
    if not parts:
        raise ValueError("cannot concatenate zero column sets")
    if len(parts) == 1:
        return parts[0]
    names = list(parts[0].columns)
    return ColumnSet(
        {
            name: concat_vectors([part.columns[name] for part in parts])
            for name in names
        },
        sum(part.num_rows for part in parts),
    )


@dataclass
class JoinResult:
    """Surviving row indices through both sides (late materialization).

    ``right_indices`` holds ``-1`` where a LEFT OUTER probe row found no
    build match; materializing through :func:`gather_with_nulls` turns
    those into NULL columns.
    """

    left_indices: np.ndarray
    right_indices: np.ndarray
    how: str

    @property
    def num_rows(self) -> int:
        return int(len(self.left_indices))


#: Direct addressing is used while the build side's key span (or a
#: multi-column key's combined width) stays within this multiple of
#: build + probe rows; it bounds the bucket directory's memory (two
#: int64 slots per bucket) at a small constant per input row.
DIRECT_SPAN_FACTOR = 4


def _coded_against_build(probe_values: np.ndarray, probe_valid: np.ndarray,
                         build_values: np.ndarray, build_valid: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, int]:
    """Bucket ids = rank among the **build side's** distinct values.

    The fallback coding for keys that cannot address buckets directly
    (floats, sparse integers, over-wide composite codes): one
    ``np.unique`` over the build side only, then one ``searchsorted``
    plus an equality check per probe row — a probe value absent from
    the build side takes ``-1`` and never needs a bucket.
    """
    uniques, inverse = np.unique(
        build_values[build_valid], return_inverse=True
    )
    build_codes = np.full(len(build_values), -1, dtype=np.int64)
    build_codes[build_valid] = inverse
    if not len(uniques):
        return np.full(len(probe_values), -1, dtype=np.int64), build_codes, 0
    slots = np.minimum(
        np.searchsorted(uniques, probe_values), len(uniques) - 1
    )
    hit = probe_valid & (uniques[slots] == probe_values)
    return np.where(hit, slots, -1), build_codes, len(uniques)


def _exact_int64(vector: NumericVector) -> tuple[np.ndarray, np.ndarray]:
    """``(int64 values, valid)`` under exact (Python ``==``) equality.

    Integer, bool and timestamp columns pass through.  A float equals
    an integer only when it is integral and inside the int64 range, so
    every other float (fractions, NaN, infinities) turns invalid — it
    can match nothing on an integer side.
    """
    values, valid = vector.values, vector.valid()
    if values.dtype.kind != "f":
        return values.astype(np.int64, copy=False), valid
    exact = (
        valid & (values == np.floor(values))
        & (values >= -2.0 ** 63) & (values < 2.0 ** 63)
    )
    return np.where(exact, values, 0.0).astype(np.int64), exact


def _numeric_pair_codes(probe: NumericVector, build: NumericVector,
                        span_limit: int
                        ) -> tuple[np.ndarray, np.ndarray, int]:
    """Bucket ids for a numeric/numeric key pair; NULL/NaN/no-match = -1.

    Float pairs code against the build side's distinct values.  Every
    other pair compares as exact int64 (see :func:`_exact_int64`) and,
    when the build side's span fits ``span_limit``, addresses buckets
    directly as ``value - build_min`` with no sort at all.
    """
    if probe.values.dtype.kind == "f" and build.values.dtype.kind == "f":
        return _coded_against_build(
            probe.values, probe.valid() & ~np.isnan(probe.values),
            build.values, build.valid() & ~np.isnan(build.values),
        )
    probe_values, probe_valid = _exact_int64(probe)
    build_values, build_valid = _exact_int64(build)
    present = build_values[build_valid]
    if len(present):
        low, high = int(present.min()), int(present.max())
        span = high - low + 1
        if span <= span_limit:
            in_range = (
                probe_valid & (probe_values >= low) & (probe_values <= high)
            )
            # out-of-range differences may wrap; the mask discards them
            return (np.where(in_range, probe_values - low, -1),
                    np.where(build_valid, build_values - low, -1), span)
    return _coded_against_build(
        probe_values, probe_valid, build_values, build_valid
    )


def _string_pair_codes(probe: DictStringVector, build: DictStringVector
                       ) -> tuple[np.ndarray, np.ndarray, int]:
    """Bucket ids for a string/string key pair; NULL/no-match = -1.

    Buckets are the build dictionary's distinct values; the probe
    dictionary remaps into them — one tiny Python loop per *distinct*
    value, then one vectorized take through the codes (probes compare
    uint codes, never strings).
    """
    index = {
        value: code
        for code, value in enumerate(dict.fromkeys(build.dictionary))
    }
    build_map = np.array(
        [index[value] for value in build.dictionary] + [-1], dtype=np.int64
    )
    probe_map = np.array(
        [index.get(value, -1) for value in probe.dictionary] + [-1],
        dtype=np.int64,
    )
    return probe_map[probe.codes], build_map[build.codes], len(index)


def _pair_codes(probe: ColumnVector, build: ColumnVector, span_limit: int
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """Bucket ids for one key column pair, by the vectors' types."""
    if isinstance(probe, NumericVector) and isinstance(build, NumericVector):
        return _numeric_pair_codes(probe, build, span_limit)
    if isinstance(probe, DictStringVector) and isinstance(
        build, DictStringVector
    ):
        return _string_pair_codes(probe, build)
    # a number never equals a string: no row can match
    return (np.full(len(probe), -1, dtype=np.int64),
            np.full(len(build), -1, dtype=np.int64), 0)


def join_codes(left: ColumnSet, right: ColumnSet,
               left_on: list[str], right_on: list[str]
               ) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-row bucket ids: ``(probe codes, build codes, bucket count)``.

    ``right`` is the build side: its keys define the buckets
    ``0..count-1`` (NULL keys take ``-1``); a ``left`` key that is NULL,
    or that provably equals no build key, takes ``-1`` too.  How keys
    map to buckets follows from the dtypes and spans observed (see
    :func:`_numeric_pair_codes`, :func:`_string_pair_codes`).
    Multi-column keys combine pairwise (``a * width_b + b``), any ``-1``
    component poisoning the combined code; a combined width beyond the
    span guard re-codes against the build side's distinct combinations.
    """
    if len(left_on) != len(right_on) or not left_on:
        raise ValueError("join requires equal, non-empty key column lists")
    span_limit = DIRECT_SPAN_FACTOR * (left.num_rows + right.num_rows)
    probe_ids: np.ndarray | None = None
    build_ids: np.ndarray | None = None
    width = 0
    for left_name, right_name in zip(left_on, right_on):
        pair = _pair_codes(
            left.columns[left_name], right.columns[right_name], span_limit
        )
        if probe_ids is None:
            probe_ids, build_ids, width = pair
        else:
            probe_pair, build_pair, pair_width = pair
            poisoned_probe = (probe_ids < 0) | (probe_pair < 0)
            poisoned_build = (build_ids < 0) | (build_pair < 0)
            probe_ids = probe_ids * pair_width + probe_pair
            build_ids = build_ids * pair_width + build_pair
            probe_ids[poisoned_probe] = -1
            build_ids[poisoned_build] = -1
            width *= pair_width
        if width > span_limit:
            probe_ids, build_ids, width = _coded_against_build(
                probe_ids, probe_ids >= 0, build_ids, build_ids >= 0
            )
    assert probe_ids is not None and build_ids is not None
    return probe_ids, build_ids, width


@dataclass
class BucketDirectory:
    """The build side of a join, addressed by bucket id.

    Bucket ``b``'s build rows are
    ``order[starts[b] : starts[b] + counts[b]]``, in build-row order.
    ``starts``/``counts`` carry one extra, always-empty trailing bucket,
    so the probe code ``-1`` (NULL / no possible match) indexes it and
    finds zero rows without a mask.
    """

    starts: np.ndarray
    counts: np.ndarray
    order: np.ndarray
    #: no bucket holds more than one build row (every PK-FK join)
    unique: bool


def build_directory(codes: np.ndarray, num_buckets: int) -> BucketDirectory:
    """Bucket the build side's codes; ``-1`` (NULL) rows drop here.

    ``order`` is stable, so duplicate keys keep build-row order and the
    probe output matches the oracle's scan order exactly.  Unique keys
    need no sort: each row scatters straight to its bucket's slot.
    """
    rows = np.flatnonzero(codes >= 0)
    kept = codes[rows]
    counts = np.bincount(kept, minlength=num_buckets + 1)
    starts = np.cumsum(counts) - counts
    unique = int(counts.max()) <= 1
    if unique:
        order = np.empty(len(rows), dtype=np.intp)
        order[starts[kept]] = rows
    else:
        order = rows[np.argsort(kept, kind="stable")]
    return BucketDirectory(starts, counts, order, unique)


def probe_directory(directory: BucketDirectory, probe: np.ndarray,
                    how: str = "inner") -> tuple[np.ndarray, np.ndarray]:
    """Probe a bucket directory: ``(probe indices, build indices)``.

    Two gathers (``counts[probe]``, ``starts[probe]``) replace a pair of
    binary searches.  Output rows are ordered probe-row-ascending, then
    build-row order within a key — identical to the nested-loop oracle.
    For ``left``, unmatched probe rows appear once with build index
    ``-1``.
    """
    if how not in JOIN_TYPES:
        raise ValueError(f"unsupported join type {how!r}; use {JOIN_TYPES}")
    counts = directory.counts[probe]
    if directory.unique:
        # at most one match per probe row: no fan-out to expand
        hits = np.flatnonzero(counts)
        matches = directory.order[directory.starts[probe[hits]]]
        if how == "inner":
            return hits, matches
        build_indices = np.full(len(probe), -1, dtype=np.intp)
        build_indices[hits] = matches
        return np.arange(len(probe), dtype=np.intp), build_indices
    out_counts = counts if how == "inner" else np.maximum(counts, 1)
    total = int(out_counts.sum())
    probe_indices = np.repeat(
        np.arange(len(probe), dtype=np.intp), out_counts
    )
    out_starts = np.cumsum(out_counts) - out_counts
    base = (
        np.repeat(directory.starts[probe] - out_starts, out_counts)
        + np.arange(total, dtype=np.intp)
    )
    if how == "inner":
        return probe_indices, directory.order[base]
    matched = np.repeat(counts > 0, out_counts)
    build_indices = np.full(total, -1, dtype=np.intp)
    build_indices[matched] = directory.order[base[matched]]
    return probe_indices, build_indices


def hash_join(left: ColumnSet, right: ColumnSet,
              left_on: list[str], right_on: list[str],
              how: str = "inner") -> JoinResult:
    """Vectorized equi-join: build on ``right``, probe with ``left``.

    Returns surviving row-index pairs; materialize via
    :meth:`ColumnSet.gather` + :meth:`ColumnSet.to_rows` (or feed the
    gathered vectors straight into the aggregation kernel).
    """
    probe, build, num_buckets = join_codes(left, right, left_on, right_on)
    directory = build_directory(build, num_buckets)
    counters = join_stats()
    counters.joins_executed += 1
    counters.build_rows += right.num_rows
    probe_indices, build_indices = probe_directory(directory, probe, how)
    counters.probe_rows += left.num_rows
    counters.matches_emitted += int(len(probe_indices))
    return JoinResult(probe_indices, build_indices, how)

