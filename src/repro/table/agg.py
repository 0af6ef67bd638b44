"""Vectorized storage-side aggregation (Sections V-B, VII-A, Fig 15b).

The paper's headline query win comes from pushing filters *and*
aggregates into StreamLake so only final results cross the bus.  This
module is the aggregate half of that pushdown: a GROUP BY kernel that
never materializes Python rows.  Per row group, only the needed columns
decode into typed vectors (:meth:`~repro.table.columnar.ColumnarFile.
select_vectors`, through the shared chunk cache); group keys factorize
to dense integer codes (:meth:`~repro.table.vector.ColumnVector.
factorize` + pairwise code combination); COUNT/SUM reduce as one
``np.bincount`` per column and MIN/MAX as sort + ``np.minimum.reduceat``
segmented reductions.  Results accumulate as **per-row-group partial
aggregates** (:class:`AggregateState`) that merge across row groups and
files, so a query ships merged partials — group keys plus a handful of
scalars — over the bus instead of rows.

Un-predicated, un-grouped COUNT/MIN/MAX queries take a footer fast
path (:func:`footer_answerable`): they are answered from row-group
statistics (min/max bounds and null counts) without decompressing a
single data chunk.

Semantics mirror the row-wise oracle
(:func:`repro.table.pushdown.execute_pushdown_multi`) exactly: COUNT(*)
counts rows, COUNT(col)/AVG skip NULLs via validity masks, SUM ignores
non-numeric values (so it stays 0.0 over string columns, like the
accumulator), MIN/MAX use Python ordering (strings reduce over
dictionary ranks), and result rows sort by the repr of their group key.
"""

from __future__ import annotations

import numpy as np

from repro.cache.tier import CacheTier
from repro.common.stats import aggregation_stats
from repro.table.columnar import ColumnarFile, FileFooter
from repro.table.expr import Expression
from repro.table.pushdown import AggregateSpec, result_labels
from repro.table.schema import ColumnType, Schema
from repro.table.vector import ColumnVector, DictStringVector, NumericVector

#: Aggregate functions answerable from footer statistics alone.
_FOOTER_FUNCTIONS = frozenset({"COUNT", "MIN", "MAX"})


class _ColumnPartial:
    """Partial COUNT/SUM/MIN/MAX of one column within one group."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0       # non-null values (COUNT(col), AVG denominator)
        self.total = 0.0     # numeric sum; stays 0.0 for string columns
        self.minimum: object = None
        self.maximum: object = None

    def merge(self, other: "_ColumnPartial") -> None:
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum  # type: ignore[operator]
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum  # type: ignore[operator]
        ):
            self.maximum = other.maximum


class _GroupPartial:
    """Row count plus per-column partials for one group key."""

    __slots__ = ("rows", "columns")

    def __init__(self, column_names: list[str]) -> None:
        self.rows = 0
        self.columns = {name: _ColumnPartial() for name in column_names}

    def merge(self, other: "_GroupPartial") -> None:
        self.rows += other.rows
        for name, partial in other.columns.items():
            self.columns[name].merge(partial)


def _factorize_keys(vectors: list[ColumnVector],
                    indices: np.ndarray | None,
                    selected: int) -> tuple[np.ndarray, list[tuple]]:
    """Dense group codes + Python key tuples over the selected rows.

    Multi-column keys combine pairwise (``codes_a * width_b + codes_b``)
    with an ``np.unique`` compaction after every step, so the combined
    code space never exceeds the selected row count.
    """
    if not vectors:
        return np.zeros(selected, dtype=np.intp), [()]
    codes, uniques = vectors[0].factorize(indices)
    keys = [(value,) for value in uniques]
    for vector in vectors[1:]:
        next_codes, next_uniques = vector.factorize(indices)
        width = len(next_uniques)
        combined = codes * width + next_codes
        used, inverse = np.unique(combined, return_inverse=True)
        keys = [
            keys[int(code) // width] + (next_uniques[int(code) % width],)
            for code in used.tolist()
        ]
        codes = inverse.astype(np.intp, copy=False)
    return codes, keys


def _segmented_minmax(values: np.ndarray, codes: np.ndarray,
                      num_groups: int) -> tuple[list, list]:
    """Per-group min/max via sort + ``reduceat``; absent groups are None."""
    mins: list = [None] * num_groups
    maxs: list = [None] * num_groups
    if len(values) == 0:
        return mins, maxs
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    sorted_values = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    group_ids = sorted_codes[starts].tolist()
    group_mins = np.minimum.reduceat(sorted_values, starts).tolist()
    group_maxs = np.maximum.reduceat(sorted_values, starts).tolist()
    for group, low, high in zip(group_ids, group_mins, group_maxs):
        mins[group] = low
        maxs[group] = high
    return mins, maxs


def _reduce_column(vector: ColumnVector, indices: np.ndarray | None,
                   codes: np.ndarray, num_groups: int,
                   want_sum: bool, want_minmax: bool
                   ) -> tuple[np.ndarray, np.ndarray | None, list | None, list | None]:
    """Segmented COUNT/SUM/MIN/MAX of one column over coded groups.

    Returns ``(counts, sums, mins, maxs)``; ``sums`` is None unless
    requested, ``mins``/``maxs`` are Python-valued lists with None for
    groups holding no non-null value.
    """
    if isinstance(vector, DictStringVector):
        string_codes = (
            vector.codes if indices is None else vector.codes[indices]
        )
        null_code = len(vector.dictionary)
        valid = string_codes != null_code
        valid_groups = codes[valid]
        counts = np.bincount(valid_groups, minlength=num_groups)
        # strings never add to SUM (the oracle only sums int/float)
        sums = np.zeros(num_groups) if want_sum else None
        mins = maxs = None
        if want_minmax:
            # reduce over dictionary *ranks* so MIN/MAX follow Python
            # string ordering regardless of dictionary order
            order = sorted(range(null_code), key=vector.dictionary.__getitem__)
            ranks = np.empty(null_code, dtype=np.int64)
            ranks[np.asarray(order, dtype=np.int64)] = np.arange(
                null_code, dtype=np.int64
            )
            rank_values = ranks[string_codes[valid]]
            rank_mins, rank_maxs = _segmented_minmax(
                rank_values, valid_groups, num_groups
            )
            by_rank = [vector.dictionary[index] for index in order]
            mins = [None if r is None else by_rank[r] for r in rank_mins]
            maxs = [None if r is None else by_rank[r] for r in rank_maxs]
        return counts, sums, mins, maxs
    assert isinstance(vector, NumericVector)
    values = vector.values if indices is None else vector.values[indices]
    valid = vector.valid() if indices is None else vector.valid()[indices]
    valid_groups = codes[valid]
    counts = np.bincount(valid_groups, minlength=num_groups)
    sums = None
    if want_sum:
        sums = np.bincount(
            valid_groups,
            weights=values[valid].astype(np.float64, copy=False),
            minlength=num_groups,
        )
    mins = maxs = None
    if want_minmax:
        mins, maxs = _segmented_minmax(values[valid], valid_groups, num_groups)
    return counts, sums, mins, maxs


def _cast_stat(value: object, type_: ColumnType) -> object:
    """Footer bounds back to the decoded Python type (int stats in a
    FLOAT64 column must come back as floats, like a chunk decode)."""
    if type_ in (ColumnType.INT64, ColumnType.TIMESTAMP):
        return int(value)  # type: ignore[arg-type]
    if type_ is ColumnType.FLOAT64:
        return float(value)  # type: ignore[arg-type]
    if type_ is ColumnType.BOOL:
        return bool(value)
    return value


class AggregateState:
    """Mergeable partial aggregates for one query, keyed by group tuple.

    One state is built per data file (per-row-group updates), merged
    across files, and finalized once — so only group keys plus a handful
    of scalars per group ever leave the storage side.
    """

    def __init__(self, specs: list[AggregateSpec],
                 labels: list[str] | None = None) -> None:
        if not specs:
            raise ValueError("at least one aggregate is required")
        self.group_by = specs[0].group_by
        for spec in specs[1:]:
            if spec.group_by != self.group_by:
                raise ValueError(
                    "aggregates in one query must share GROUP BY columns"
                )
        self.specs = list(specs)
        self.labels = labels if labels is not None else result_labels(self.specs)
        self.agg_columns = sorted({s.column for s in self.specs if s.column})
        self._need_sum = {
            s.column for s in self.specs if s.function in ("SUM", "AVG")
        }
        self._need_minmax = {
            s.column for s in self.specs if s.function in ("MIN", "MAX")
        }
        self.groups: dict[tuple, _GroupPartial] = {}

    def _group(self, key: tuple) -> _GroupPartial:
        partial = self.groups.get(key)
        if partial is None:
            partial = self.groups[key] = _GroupPartial(self.agg_columns)
        return partial

    def update(self, vectors: dict[str, ColumnVector], num_rows: int,
               mask: np.ndarray | None) -> None:
        """Fold one row group's decoded vectors into the partials."""
        if mask is not None:
            indices = np.flatnonzero(mask)
            if indices.size == 0:
                return
            selected = int(indices.size)
        else:
            indices = None
            selected = num_rows
        if selected == 0:
            return
        counters = aggregation_stats()
        counters.row_groups_aggregated += 1
        counters.rows_aggregated += selected
        codes, keys = _factorize_keys(
            [vectors[name] for name in self.group_by], indices, selected
        )
        rows_per_group = np.bincount(codes, minlength=len(keys))
        reductions = {
            name: _reduce_column(
                vectors[name], indices, codes, len(keys),
                want_sum=name in self._need_sum,
                want_minmax=name in self._need_minmax,
            )
            for name in self.agg_columns
        }
        for position, key in enumerate(keys):
            partial = self._group(key)
            partial.rows += int(rows_per_group[position])
            for name, (counts, sums, mins, maxs) in reductions.items():
                column = partial.columns[name]
                column.count += int(counts[position])
                if sums is not None:
                    column.total += float(sums[position])
                if mins is not None:
                    low = mins[position]
                    if low is not None and (
                        column.minimum is None or low < column.minimum  # type: ignore[operator]
                    ):
                        column.minimum = low
                    high = maxs[position]  # type: ignore[index]
                    if high is not None and (
                        column.maximum is None or high > column.maximum  # type: ignore[operator]
                    ):
                        column.maximum = high

    def update_from_stats(self, num_rows: int,
                          stats: dict[str, tuple[object, object]],
                          null_counts: dict[str, int],
                          schema: Schema) -> None:
        """Footer fast path: fold one row group from statistics alone.

        Valid only for un-predicated, un-grouped COUNT/MIN/MAX queries
        (:func:`footer_answerable`): COUNT(*) is the group's row count,
        COUNT(col) is ``num_rows - null_count``, MIN/MAX come from the
        footer bounds — no data chunk is touched.
        """
        aggregation_stats().row_groups_footer_answered += 1
        partial = self._group(())
        partial.rows += num_rows
        for name in self.agg_columns:
            column = partial.columns[name]
            column.count += num_rows - null_counts.get(name, 0)
            low, high = stats.get(name, (None, None))
            if low is None:
                continue
            type_ = schema.column(name).type
            low = _cast_stat(low, type_)
            high = _cast_stat(high, type_)
            if column.minimum is None or low < column.minimum:  # type: ignore[operator]
                column.minimum = low
            if column.maximum is None or high > column.maximum:  # type: ignore[operator]
                column.maximum = high

    def merge(self, other: "AggregateState") -> None:
        """Fold another state's partials in (cross-file combination)."""
        aggregation_stats().partials_merged += len(other.groups)
        for key, partial in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = partial
            else:
                mine.merge(partial)

    def rows(self) -> list[dict[str, object]]:
        """Final result rows, shaped and ordered like the row-wise oracle."""
        groups = self.groups
        if not groups and not self.group_by:
            groups = {(): _GroupPartial(self.agg_columns)}
        out = []
        for key in sorted(groups, key=repr):
            partial = groups[key]
            row: dict[str, object] = dict(zip(self.group_by, key))
            for spec, label in zip(self.specs, self.labels):
                row[label] = self._result(spec, partial)
            out.append(row)
        aggregation_stats().groups_emitted += len(out)
        return out

    @staticmethod
    def _result(spec: AggregateSpec, partial: _GroupPartial) -> object:
        if spec.function == "COUNT":
            if spec.column is None:
                return partial.rows
            return partial.columns[spec.column].count
        column = partial.columns[spec.column]  # type: ignore[index]
        if spec.function == "SUM":
            return column.total
        if spec.function == "AVG":
            return column.total / column.count if column.count else None
        if spec.function == "MIN":
            return column.minimum
        return column.maximum


def footer_answerable(specs: list[AggregateSpec],
                      predicate: Expression | None) -> bool:
    """True when every aggregate is answerable from footer statistics."""
    return (
        predicate is None
        and not specs[0].group_by
        and all(spec.function in _FOOTER_FUNCTIONS for spec in specs)
    )


def footer_state(footer: FileFooter | ColumnarFile,
                 specs: list[AggregateSpec],
                 labels: list[str] | None = None) -> AggregateState:
    """One file's partials from row-group statistics alone (the footer
    fast path; valid only when :func:`footer_answerable`).  ``footer`` is
    a cached :class:`~repro.table.columnar.FileFooter` or an open file —
    both expose the same ``group_summaries()`` and ``schema``."""
    state = AggregateState(specs, labels)
    for num_rows, stats, null_counts in footer.group_summaries():
        state.update_from_stats(num_rows, stats, null_counts, footer.schema)
    return state


def aggregate_file(data_file: ColumnarFile, specs: list[AggregateSpec],
                   labels: list[str] | None = None,
                   predicate: Expression | None = None,
                   cache: CacheTier | None = None) -> AggregateState:
    """One file's partial aggregates, built per row group.

    The returned state merges with other files' states
    (:meth:`AggregateState.merge`), so a multi-file SELECT combines
    partials instead of rows.
    """
    if footer_answerable(specs, predicate):
        return footer_state(data_file, specs, labels)
    state = AggregateState(specs, labels)
    needed = sorted(set(state.group_by) | set(state.agg_columns))
    for vectors, mask, num_rows in data_file.select_vectors(
        needed, predicate, cache
    ):
        state.update(vectors, num_rows, mask)
    return state
