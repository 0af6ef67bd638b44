"""Table objects: lakehouse read/write operations (Section V-B).

A :class:`TableObject` implements CREATE TABLE / INSERT / SELECT / DELETE /
UPDATE / DROP over columnar data files in a storage pool, with:

* snapshot isolation + optimistic concurrency control (commit conflicts
  raise :class:`~repro.errors.CommitConflictError`);
* time travel (``select(as_of=timestamp)``);
* metadata through a pluggable :class:`~repro.table.metacache.MetadataStore`
  (file-based baseline vs StreamLake's acceleration);
* predicate + aggregate pushdown with file-level and row-group-level data
  skipping;
* a compute-side memory model for Fig 15(b): planning a query over a
  file-based catalog must materialize every manifest in compute memory and
  OOMs when the budget is too small, while the accelerated path keeps
  manifests storage-side.

:class:`Lakehouse` is the service owning the catalog and table registry.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.cache.hierarchy import CacheHierarchy, default_hierarchy
from repro.cache.tier import CacheTier
from repro.common.clock import SimClock
from repro.common.context import ExecutionContext
from repro.common.stats import aggregation_stats
from repro.errors import (
    CommitConflictError,
    OutOfMemoryError,
    TableNotFoundError,
)
from repro.storage.bus import DataBus
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.table.agg import (
    AggregateState,
    aggregate_file,
    footer_answerable,
    footer_state,
)
from repro.table.catalog import Catalog, TableInfo
from repro.table.colbuild import columns_from_rows
from repro.table.columnar import (
    ColumnarFile,
    ROW_GROUP_SIZE,
    decode_columns,
    edge_vectors,
)
from repro.table.commit import CommitFile, DataFileMeta
from repro.table.expr import Expression
from repro.table.join import ColumnSet, concat_column_sets
from repro.table.metacache import AcceleratedMetadataStore, MetadataStore
from repro.table.pushdown import AggregateSpec, result_size_bytes
from repro.table.schema import PartitionSpec, Schema
from repro.table.snapshot import SnapshotLog
from repro.table.vector import (
    ColumnVector,
    DictStringVector,
    NumericVector,
    concat_vectors,
)

#: Compute-side memory to hold one file's manifest while planning (bytes).
PLANNING_BYTES_PER_FILE = 500
#: Compute-side memory per scanned row during execution (bytes).
EXECUTION_BYTES_PER_ROW = 64


@dataclass
class QueryStats:
    """Observability for one SELECT: what was pruned, moved and charged."""

    files_total: int = 0
    files_scanned: int = 0
    files_skipped: int = 0
    row_groups_skipped: int = 0
    rows_scanned: int = 0
    rows_returned: int = 0
    bytes_scanned: int = 0
    bytes_skipped: int = 0
    bytes_transferred: int = 0
    metadata_cost_s: float = 0.0
    data_cost_s: float = 0.0
    chunk_cache_hits: int = 0
    chunk_cache_misses: int = 0
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    footer_cache_hits: int = 0
    footer_cache_misses: int = 0

    @property
    def total_cost_s(self) -> float:
        return self.metadata_cost_s + self.data_cost_s

    def count_lookups(self, tier: str, hits: int, misses: int) -> None:
        """Add one cache tier's lookups (``tier`` is ``"chunk"``,
        ``"block"`` or ``"footer"``)."""
        hits_field, misses_field = f"{tier}_cache_hits", f"{tier}_cache_misses"
        setattr(self, hits_field, getattr(self, hits_field) + hits)
        setattr(self, misses_field, getattr(self, misses_field) + misses)


#: One file's read: ``(data_file, chunk tier) -> (piece, row groups
#: skipped)`` — :func:`read_file` with the query bound by ``partial``.
FileWork = Callable[[ColumnarFile, CacheTier], "tuple[object, int]"]
#: Where a scan's file reads run: ``(paths, files, read costs, work) ->
#: (per-file work results in input order, the read wave's sim seconds)``.
FanOut = Callable[
    [list[str], list[ColumnarFile], list[float], FileWork],
    "tuple[list[tuple[object, int]], float]",
]


def read_file(data_file: ColumnarFile, cache: CacheTier, *,
              predicate: Expression | None,
              columns: list[str] | None,
              specs: list[AggregateSpec] | None,
              labels: list[str] | None,
              vectors: bool) -> tuple[object, int]:
    """One data file's share of a scan: ``(piece, row groups skipped)``.

    The piece is the file's partial aggregates when ``specs`` is given,
    its surviving rows as a :class:`ColumnSet` when ``vectors`` is set,
    and its surviving row dicts otherwise.  Module-level, so a
    ``partial`` of it pickles into process pools.
    """
    skipped = (
        data_file.skipped_row_groups(predicate) if predicate is not None
        else 0
    )
    if specs is not None:
        piece: object = aggregate_file(
            data_file, specs, labels, predicate, cache
        )
    elif vectors:
        piece = ColumnSet.from_file(data_file, columns, predicate, cache)
    else:
        piece = data_file.scan(predicate, columns, cache=cache)
    return piece, skipped


def _assign(data: ColumnVector, mask: np.ndarray,
            value: object) -> ColumnVector:
    """One SET: a new vector, ``data`` with ``value`` at ``mask``.

    ``data`` may be a cached, read-only vector, so it is copied, never
    written.  A string new to the dictionary is appended to it, which
    moves the NULL code (``len(dictionary)``) one up.
    """
    if isinstance(data, NumericVector):
        values, valid = data.values.copy(), data.valid().copy()
        values[mask] = 0 if value is None else value
        valid[mask] = value is not None
        return NumericVector(values, valid)
    assert isinstance(data, DictStringVector)
    dictionary, codes = data.dictionary, data.codes.copy()
    if value is not None and value not in dictionary:
        codes[codes == len(dictionary)] += 1
        dictionary = [*dictionary, value]
    codes[mask] = (
        len(dictionary) if value is None else dictionary.index(value)
    )
    return DictStringVector(dictionary, codes)


class TableObject:
    """One lakehouse table: data files + commit/snapshot metadata."""

    def __init__(self, info: TableInfo, catalog: Catalog, pool: StoragePool,
                 meta_store: MetadataStore, bus: DataBus, clock: SimClock,
                 row_group_size: int = ROW_GROUP_SIZE,
                 commit_protocol_s: float = 0.0,
                 cache_hierarchy: CacheHierarchy | None = None,
                 context: ExecutionContext | None = None) -> None:
        self.info = info
        self._catalog = catalog
        self._pool = pool
        self._meta = meta_store
        self._bus = bus
        self._clock = clock
        self._row_group_size = row_group_size
        #: every cache tier: data-file reads go through the block and
        #: footer tiers (repeated scans skip the pool, footer-answerable
        #: aggregates skip IO entirely) and chunk decodes through the
        #: chunk tier (repeated SELECTs stop re-decompressing the same
        #: blobs); defaults to the owning execution context's hierarchy
        self._hierarchy = (
            cache_hierarchy if cache_hierarchy is not None
            else default_hierarchy(context)
        )
        #: fixed cost of the ACID commit protocol (OCC validation + durable
        #: snapshot publish) — the "extra metadata management" that makes
        #: StreamLake slower than HDFS on tiny workloads (Section VII-B)
        self.commit_protocol_s = commit_protocol_s
        self.snapshots = SnapshotLog()
        self._file_counter = 0

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def schema(self) -> Schema:
        return self.info.schema

    @property
    def partition_spec(self) -> PartitionSpec:
        return self.info.partition_spec

    @property
    def pool(self) -> StoragePool:
        """The persistence pool backing this table."""
        return self._pool

    @property
    def clock(self) -> SimClock:
        """The simulated clock this table charges its costs against."""
        return self._clock

    @property
    def bus(self) -> DataBus:
        """The data bus result rows are shipped over."""
        return self._bus

    @property
    def cache_hierarchy(self) -> CacheHierarchy:
        """The cache tiers bound to this table."""
        return self._hierarchy

    # --- write path ---------------------------------------------------------

    def begin(self) -> int:
        """Start an optimistic transaction: capture the snapshot version."""
        return self.snapshots.current_version

    def insert(self, rows: list[dict[str, object]]) -> float:
        """INSERT row dicts: one row-to-columns step
        (:func:`~repro.table.colbuild.columns_from_rows`, which raises a
        bad row's :class:`~repro.errors.SchemaError` before anything is
        written), then :meth:`insert_columns`.  Returns simulated seconds.
        """
        return self.insert_columns(*columns_from_rows(self.schema, rows))

    def insert_columns(self, columns: "Mapping[str, object]",
                       num_rows: int) -> float:
        """Vectorized INSERT from per-column data (the reunion write path).

        ``columns`` maps every schema column to a vector or a Python value
        list exactly as :meth:`ColumnarFile.from_columns` accepts; lists
        become vectors on entry (:func:`~repro.table.columnar.
        edge_vectors`) and values are trusted (validated during column
        construction).  Partition keys compute column-at-a-time — numeric
        day/hour transforms run as one NumPy floor-divide — and
        per-partition files build straight from vector gathers, so no row
        dicts exist anywhere on this path.
        """
        if num_rows < 1:
            raise ValueError("insert requires at least one row")
        added = []
        write_costs = []
        for partition, part_columns, part_rows in self._split_partitions(
                edge_vectors(self.schema, columns, num_rows), num_rows):
            meta, write_cost = self._write_columns_file(
                partition, part_columns, part_rows
            )
            added.append(meta)
            write_costs.append(write_cost)
        cost = self._advance_writes(write_costs)
        cost += self._commit("insert", added=added, removed=[])
        return cost

    def _split_partitions(self, columns: dict[str, ColumnVector],
                          num_rows: int
                          ) -> list[tuple[str, dict[str, ColumnVector], int]]:
        """Column data split by partition key: ``(partition, columns,
        rows)`` per key in key order, rows in their input order.

        The one split INSERT and UPDATE share; data in a single
        partition passes through ungathered.
        """
        if not self.partition_spec.is_partitioned:
            return [("all", columns, num_rows)]
        keys = self.partition_spec.keys_of(columns, num_rows)
        partitions = sorted(set(keys))
        if len(partitions) == 1:
            return [(partitions[0], columns, num_rows)]
        rank = dict(zip(partitions, range(len(partitions))))
        codes = np.fromiter(map(rank.__getitem__, keys), dtype=np.intp,
                            count=num_rows)
        # a stable sort keeps each partition's rows in input order
        order = np.argsort(codes, kind="stable")
        bounds = np.cumsum(np.bincount(codes, minlength=len(partitions)))
        out = []
        for partition, indices in zip(partitions,
                                      np.split(order, bounds[:-1])):
            out.append((partition, {
                name: data.gather(indices) for name, data in columns.items()
            }, len(indices)))
        return out

    def _advance_writes(self, write_costs: list[float]) -> float:
        """Charge one operation's data-file writes (one write task, so
        the wave costs their sum)."""
        cost = sum(write_costs)
        self._clock.advance(cost)
        return cost

    def _write_columns_file(self, partition: str,
                            columns: dict[str, ColumnVector],
                            num_rows: int) -> tuple[DataFileMeta, float]:
        """Build and persist one data file; the caller charges the clock."""
        data_file = ColumnarFile.from_columns(
            self.schema, columns, num_rows, self._row_group_size
        )
        path = f"{self.info.path}/data/{partition}/f{self._file_counter}.col"
        self._file_counter += 1
        payload = data_file.to_bytes()
        cost = self._pool.store(path, payload)
        meta = DataFileMeta(
            path=path,
            partition=partition,
            record_count=data_file.num_rows,
            size_bytes=len(payload),
            value_ranges=data_file.file_stats(),
        )
        return meta, cost

    def _commit(self, operation: str, added: list[DataFileMeta],
                removed: list[str],
                expected_version: int | None = None) -> float:
        if expected_version is not None and removed:
            current = self.snapshots.current_version
            if current != expected_version:
                live = {meta.path for meta in self.snapshots.live_files()}
                if any(path not in live for path in removed):
                    raise CommitConflictError(
                        f"{self.name}: commit removes files already replaced "
                        f"(expected v{expected_version}, at v{current})"
                    )
        commit = CommitFile(
            commit_id=self.snapshots.new_commit_id(),
            timestamp=self._clock.now,
            operation=operation,
            added=tuple(added),
            removed=tuple(removed),
        )
        snapshot = self.snapshots.record(commit)
        cost = self._meta.record_commit(self.info.path, commit, snapshot)
        cost += self.commit_protocol_s
        self._clock.advance(self.commit_protocol_s)
        self._catalog.update_snapshot(
            self.name, snapshot.snapshot_id, snapshot.summary, self._clock.now
        )
        return cost

    # --- read path -------------------------------------------------------------

    def scan_plan(self, predicate: Expression | None = None,
                  as_of: float | None = None,
                  memory_budget_bytes: int | None = None,
                  stats: QueryStats | None = None) -> list[DataFileMeta]:
        """Plan a scan: snapshot resolution, metadata cost, file pruning.

        Returns the data files surviving file-level skipping on commit
        value ranges, charging the metadata-read cost and populating
        ``stats``.  Every scan (:meth:`select`, :meth:`column_set`) runs
        this before fetching payloads.

        Raises :class:`~repro.errors.OutOfMemoryError` when planning
        over the file-based metadata path exceeds
        ``memory_budget_bytes`` (the Fig 15(b) compute-side model).
        """
        stats = stats if stats is not None else QueryStats()
        snapshot = (
            self.snapshots.snapshot_at(as_of) if as_of is not None else None
        )
        live = self.snapshots.live_files(snapshot)
        stats.files_total = len(live)
        stats.metadata_cost_s += self._meta.read_state_cost(
            self.info.path,
            num_commits=len(
                snapshot.commit_ids
                if snapshot is not None
                else (self.snapshots.current.commit_ids
                      if self.snapshots.current else ())
            ),
            num_live_files=len(live),
        )
        if (memory_budget_bytes is not None
                and not self.metadata_accelerated):
            planning = len(live) * PLANNING_BYTES_PER_FILE
            if planning > memory_budget_bytes:
                raise OutOfMemoryError(
                    f"{self.name}: planning needs {planning} bytes of compute "
                    f"memory for {len(live)} manifests, budget is "
                    f"{memory_budget_bytes}"
                )
        # file-level skipping on commit value ranges
        candidates = []
        for meta in live:
            if predicate is not None and not predicate.possibly_matches(
                meta.stats()
            ):
                stats.files_skipped += 1
                stats.bytes_skipped += meta.size_bytes
                continue
            candidates.append(meta)
        return candidates

    @property
    def metadata_accelerated(self) -> bool:
        """True when metadata stays storage-side (no compute-side OOM)."""
        return isinstance(self._meta, AcceleratedMetadataStore)

    def _scan(self, predicate: Expression | None, as_of: float | None,
              stats: QueryStats, memory_budget_bytes: int | None,
              work: FileWork, fan_out: FanOut | None = None,
              footer_specs: list[AggregateSpec] | None = None
              ) -> list[object]:
        """The read path (Section V-B): plan, fetch, read; one piece per file.

        Plans against the snapshot (:meth:`scan_plan`), then fetches
        every surviving file in plan order through the block/footer
        tiers and runs ``work`` on it — inline through this table's
        chunk tier, or wherever ``fan_out`` places it.  Footer-
        answerable aggregates (``footer_specs``) fetch only footers and
        fold them here; ``work`` never runs.  Every counter and the read
        wave's sim seconds land in ``stats``; pieces come back in
        scan-plan order.
        """
        candidates = self.scan_plan(
            predicate, as_of=as_of,
            memory_budget_bytes=memory_budget_bytes, stats=stats,
        )
        hierarchy = self._hierarchy
        tiers = {"chunk": hierarchy.chunks.stats,
                 "block": hierarchy.blocks.stats,
                 "footer": hierarchy.footers.stats}
        before = {name: (tier.hits, tier.misses)
                  for name, tier in tiers.items()}
        loaded: list = []
        read_costs: list[float] = []
        for meta in candidates:
            stats.files_scanned += 1
            stats.bytes_scanned += meta.size_bytes
            if footer_specs is not None:
                # metadata fast path: a footer-tier hit answers a whole
                # file with zero IO
                item, read_cost = hierarchy.load_footer(
                    self._pool, meta.path, now=self._clock.now
                )
            else:
                item, read_cost = hierarchy.load_file(
                    self._pool, meta.path, now=self._clock.now
                )
            stats.rows_scanned += item.num_rows
            loaded.append(item)
            read_costs.append(read_cost)
        fanned = footer_specs is None and fan_out is not None
        if footer_specs is not None:
            results = [
                (footer_state(footer, footer_specs), 0) for footer in loaded
            ]
        elif not fanned:
            results = [work(data_file, hierarchy.chunks) for data_file in loaded]
        # the driver's own lookups, folded before a fan-out runs: its
        # shards count theirs in forked contexts and it adds those itself,
        # so their merge back into this context is not counted twice
        for name, tier in tiers.items():
            hits, misses = before[name]
            stats.count_lookups(name, tier.hits - hits, tier.misses - misses)
        if fanned:
            results, wave_s = fan_out(
                [meta.path for meta in candidates], loaded, read_costs, work
            )
        else:
            wave_s = sum(read_costs)
        stats.row_groups_skipped += sum(skipped for _, skipped in results)
        stats.data_cost_s += wave_s
        return [piece for piece, _ in results]

    def select(self, predicate: Expression | None = None,
               columns: list[str] | None = None,
               aggregate: "AggregateSpec | list[AggregateSpec] | None" = None,
               as_of: float | None = None,
               memory_budget_bytes: int | None = None,
               stats: QueryStats | None = None, *,
               fan_out: FanOut | None = None) -> list[dict[str, object]]:
        """SELECT with pushdown; populates ``stats`` when provided.

        ``aggregate`` accepts one :class:`AggregateSpec` or a list of
        specs sharing a GROUP BY (``SELECT COUNT(*), SUM(x) ...``).
        Aggregates run through the vectorized engine
        (:mod:`repro.table.agg`): each file folds into per-row-group
        partial aggregates that merge across files, so only group keys
        and partial scalars — never rows — exist on the compute side.
        Un-predicated, un-grouped COUNT/MIN/MAX queries are answered
        from row-group footers without decoding any data chunk.

        ``fan_out`` decides where each file's read runs (the paper's
        read tasks, Section V-B); by default every file reads inline, in
        one task.  :func:`repro.parallel.query.sharded_select` passes a
        shard fan-out.

        Raises :class:`~repro.errors.OutOfMemoryError` when the compute-side
        planning/working set exceeds ``memory_budget_bytes`` (only possible
        on the file-based metadata path — the acceleration cache
        "partially complements the allocated memory", Section VII-D).
        """
        stats = stats if stats is not None else QueryStats()
        specs: list[AggregateSpec] | None = None
        state: AggregateState | None = None
        if aggregate is not None:
            specs = (
                [aggregate] if isinstance(aggregate, AggregateSpec)
                else list(aggregate)
            )
            state = AggregateState(specs)  # validates the shared GROUP BY
        work = partial(
            read_file, predicate=predicate, columns=columns, specs=specs,
            labels=state.labels if state is not None else None,
            vectors=False,
        )
        footer_only = specs is not None and footer_answerable(
            specs, predicate
        )
        pieces = self._scan(
            predicate, as_of, stats, memory_budget_bytes, work,
            fan_out=fan_out, footer_specs=specs if footer_only else None,
        )
        rows: list[dict[str, object]] = []
        for piece in pieces:
            if state is not None:
                state.merge(piece)
            else:
                rows.extend(piece)
        if memory_budget_bytes is not None and not self.metadata_accelerated:
            # aggregates hold group partials, never rows, on the compute side
            held = len(state.groups) if state is not None else len(rows)
            working = held * EXECUTION_BYTES_PER_ROW
            if working > memory_budget_bytes:
                raise OutOfMemoryError(
                    f"{self.name}: execution working set {working} bytes "
                    f"exceeds budget {memory_budget_bytes}"
                )
        if state is not None:
            aggregation_stats().queries += 1
            result = state.rows()
        else:
            result = rows
        stats.rows_returned = len(result)
        stats.bytes_transferred = result_size_bytes(result)
        stats.data_cost_s += self._bus.transfer(stats.bytes_transferred)
        self._clock.advance(stats.data_cost_s)
        return result

    def column_set(self, predicate: Expression | None = None,
                   columns: list[str] | None = None,
                   as_of: float | None = None,
                   memory_budget_bytes: int | None = None,
                   stats: QueryStats | None = None) -> ColumnSet:
        """Scan into typed vectors — the join engine's table input.

        Runs the same plan/prune/fetch path as :meth:`select` (metadata
        cost, file- and row-group-level skipping, block/footer/chunk
        tiers) but stops *before* row materialization: surviving rows
        stay decoded column vectors, concatenated across files into one
        :class:`ColumnSet`.  The planner joins these directly and only
        the final projection ever builds Python rows.
        """
        stats = stats if stats is not None else QueryStats()
        parts = self._scan(
            predicate, as_of, stats, memory_budget_bytes,
            partial(read_file, predicate=predicate, columns=columns,
                    specs=None, labels=None, vectors=True),
        )
        self._clock.advance(stats.data_cost_s)
        if not parts:
            return ColumnSet.empty(columns or self.schema.names)
        result = concat_column_sets(parts)
        stats.rows_returned = result.num_rows
        return result

    def current_snapshot_id(self) -> int:
        """The current snapshot id (``-1`` before the first commit).

        Result-cache keys embed this: a commit advances it, so stale
        cached results are never returned for the new state.
        """
        return self.snapshots.current_version

    def snapshot_id_at(self, as_of: float | None = None) -> int:
        """The snapshot id a query at ``as_of`` resolves to.

        Time travel resolves to the *historical* id — which is why an
        ``as_of`` query stays warm in the result cache across later
        commits: its key never changes.
        """
        if as_of is None:
            return self.snapshots.current_version
        return self.snapshots.snapshot_at(as_of).snapshot_id

    def read_columns(self) -> tuple[dict[str, ColumnVector], int]:
        """The current snapshot as ``(column vectors, row count)``.

        What statistics collection reads.  It fetches every live file
        straight from the pool and charges no simulated time; each chunk
        decodes once to its typed vector — strings stay dictionary
        vectors — and no row is built.  Nothing it decodes enters the
        query caches.
        """
        scratch = CacheTier("scratch", 1)  # too small to admit a chunk
        live = self.snapshots.live_files()
        # one payload at a time: each file is dropped once it is decoded
        files = (ColumnarFile.from_bytes(self._pool.fetch(meta.path)[0])
                 for meta in live)
        return (decode_columns(self.schema, files, scratch),
                sum(meta.record_count for meta in live))

    # --- mutations ----------------------------------------------------------------

    def delete(self, predicate: Expression) -> float:
        """DELETE rows matching ``predicate`` (Section V-B semantics).

        Files fully covered by the predicate are dropped metadata-only;
        partially matching files are rewritten without the doomed rows.
        """

        def survivors(partition: str, columns: dict[str, ColumnVector],
                      mask: np.ndarray):
            keep = np.flatnonzero(~mask)
            if not keep.size:
                return []
            return [(partition, {
                name: data.gather(keep) for name, data in columns.items()
            }, int(keep.size))]

        # removed files stay in the pool: older snapshots still reference
        # them (time travel); expire_snapshots reclaims the space later
        return self._mutate("delete", predicate, survivors)

    def update(self, predicate: Expression,
               set_values: dict[str, object]) -> float:
        """UPDATE rows matching ``predicate`` with ``set_values``.

        Every SET value is checked against its column before any file
        is read.  Rows whose partition column changes move to their new
        partition's file.
        """
        if not set_values:
            raise ValueError("update requires at least one SET value")
        for name, value in set_values.items():
            self.schema.column(name).validate(value)

        def assign(_partition: str, columns: dict[str, ColumnVector],
                   mask: np.ndarray):
            for name, value in set_values.items():
                columns[name] = _assign(columns[name], mask, value)
            # re-keyed, not the file's partition: a SET may move rows
            return self._split_partitions(columns, len(mask))

        return self._mutate("update", predicate, assign)

    def _mutate(self, operation: str, predicate: Expression,
                rewrite: Callable) -> float:
        """The one DELETE/UPDATE path, on decoded columns.

        Every live file the predicate may touch decodes once through
        the chunk tier, row group by row group in schema order; the
        predicate's mask over those vectors picks the rows.  A file
        with a match is replaced by ``rewrite(partition, columns,
        mask)``'s ``(partition, columns, rows)`` pieces, each written
        through ``from_columns``; a file without one is left alone.
        """
        self.schema.check_columns(predicate.columns())
        expected = self.begin()
        names = self.schema.names
        removed: list[str] = []
        added: list[DataFileMeta] = []
        cost = 0.0
        write_costs: list[float] = []
        for meta in self.snapshots.live_files():
            if not predicate.possibly_matches(meta.stats()):
                continue
            data_file, read_cost = self._hierarchy.load_file(
                self._pool, meta.path, now=self._clock.now
            )
            cost += read_cost
            groups = [
                (vectors, num_rows) for vectors, _, num_rows in
                data_file.select_vectors(names, cache=self._hierarchy.chunks)
            ]
            mask = np.concatenate([
                predicate.mask(vectors, num_rows)
                for vectors, num_rows in groups
            ])
            if not mask.any():
                continue  # statistics overlapped but nothing matched
            removed.append(meta.path)
            columns = {
                name: concat_vectors([vectors[name] for vectors, _ in groups])
                for name in names
            }
            for partition, part_columns, num_rows in rewrite(
                    meta.partition, columns, mask):
                new_meta, write_cost = self._write_columns_file(
                    partition, part_columns, num_rows
                )
                added.append(new_meta)
                write_costs.append(write_cost)
        cost += self._advance_writes(write_costs)
        if not removed:
            return cost
        cost += self._commit(
            operation, added=added, removed=removed, expected_version=expected
        )
        return cost

    def _compaction_plan(self, partition: str, target_file_bytes: int,
                         expected_version: int | None
                         ) -> tuple[int, list[DataFileMeta]]:
        """(expected version, files worth merging) for one compaction."""
        expected = (
            expected_version if expected_version is not None else self.begin()
        )
        # plan against the snapshot the caller observed: a concurrent
        # commit replacing these files then conflicts at commit time
        planning_snapshot = (
            self.snapshots.snapshot_by_id(expected) if expected >= 0 else None
        )
        if planning_snapshot is None:
            return expected, []
        live = [
            meta for meta in self.snapshots.live_files(planning_snapshot)
            if meta.partition == partition
            and meta.size_bytes < target_file_bytes
        ]
        return expected, live

    def compact(self, partition: str, target_file_bytes: int,
                expected_version: int | None = None) -> float:
        """Merge a partition's small files toward ``target_file_bytes``.

        The merge happens at the decoded-vector level: each input file
        decodes to per-column vectors (through the shared chunk cache, so
        recently scanned files merge without re-decompressing), columns
        concatenate with NumPy, and the merged file builds via
        ``from_columns`` — no Python row dict exists anywhere.

        Used by LakeBrain's auto-compaction; conflicts with concurrent
        commits that replaced the same files raise CommitConflictError.
        """
        expected, live = self._compaction_plan(
            partition, target_file_bytes, expected_version
        )
        if len(live) < 2:
            return 0.0
        cost = 0.0
        files = []
        for meta in live:
            data_file, read_cost = self._hierarchy.load_file(
                self._pool, meta.path, now=self._clock.now
            )
            cost += read_cost
            files.append(data_file)
        new_meta, write_cost = self._write_columns_file(
            partition,
            decode_columns(self.schema, files, self._hierarchy.chunks),
            sum(data_file.num_rows for data_file in files),
        )
        cost += self._advance_writes([write_cost])
        removed = [meta.path for meta in live]
        cost += self._commit(
            "compact", added=[new_meta], removed=removed,
            expected_version=expected,
        )
        return cost

    # --- maintenance -----------------------------------------------------------------

    def expire_snapshots(self, older_than: float) -> int:
        """Expire old snapshots; unreferenced data files are deleted.

        Physical deletion is the one event that must also evict the
        block/footer tiers: a later table could legitimately reuse the
        same path (the file counter is per table), and stale cached
        bytes would defeat the content-addressing guarantee the chunk
        cache gets for free.
        """
        dropped, unreferenced = self.snapshots.expire(older_than)
        for path in unreferenced:
            self._hierarchy.invalidate(self._pool, path)
            if self._pool.has_extent(path):
                self._pool.delete(path)
        return dropped

    def live_file_count(self) -> int:
        return len(self.snapshots.live_files())

    def partitions(self) -> dict[str, list[DataFileMeta]]:
        out: dict[str, list[DataFileMeta]] = {}
        for meta in self.snapshots.live_files():
            out.setdefault(meta.partition, []).append(meta)
        return out

    def total_bytes(self) -> int:
        return sum(meta.size_bytes for meta in self.snapshots.live_files())


class Lakehouse:
    """Service facade: catalog + table registry over shared storage."""

    def __init__(self, pool: StoragePool, bus: DataBus, clock: SimClock,
                 catalog_kv: KVEngine | None = None,
                 meta_store: MetadataStore | None = None,
                 row_group_size: int = ROW_GROUP_SIZE,
                 commit_protocol_s: float = 0.0,
                 cache_hierarchy: CacheHierarchy | None = None,
                 context: ExecutionContext | None = None) -> None:
        self._pool = pool
        self._bus = bus
        self._clock = clock
        #: the cache tiers shared by every table in this lakehouse (the
        #: owning execution context's hierarchy unless given explicitly)
        self.cache_hierarchy = (
            cache_hierarchy if cache_hierarchy is not None
            else default_hierarchy(context)
        )
        kv = catalog_kv if catalog_kv is not None else KVEngine("catalog", clock)
        self.catalog = Catalog(kv)
        self.meta_store = (
            meta_store
            if meta_store is not None
            else AcceleratedMetadataStore(
                KVEngine("meta-cache", clock), pool, clock
            )
        )
        self._row_group_size = row_group_size
        self._commit_protocol_s = commit_protocol_s
        self._tables: dict[str, TableObject] = {}

    @property
    def chunk_cache(self) -> CacheTier:
        """The hierarchy's decoded-chunk tier (a read-only view)."""
        return self.cache_hierarchy.chunks

    def create_table(self, name: str, schema: Schema,
                     partition_spec: PartitionSpec | None = None,
                     path: str | None = None) -> TableObject:
        """CREATE TABLE: register in the catalog, create the directories."""
        spec = partition_spec if partition_spec is not None else PartitionSpec()
        info = self._catalog_create(name, schema, spec, path)
        table = TableObject(
            info, self.catalog, self._pool, self.meta_store, self._bus,
            self._clock, self._row_group_size, self._commit_protocol_s,
            cache_hierarchy=self.cache_hierarchy,
        )
        self._tables[name] = table
        return table

    def _catalog_create(self, name: str, schema: Schema, spec: PartitionSpec,
                        path: str | None) -> TableInfo:
        table_path = path if path is not None else f"tables/{name}"
        return self.catalog.create(
            name, table_path, schema, spec, self._clock.now
        )

    def table(self, name: str) -> TableObject:
        table = self._tables.get(name)
        if table is None or not self.catalog.exists(name):
            raise TableNotFoundError(f"no table {name!r}")
        return table

    def drop_table_soft(self, name: str) -> None:
        """Unregister but keep data/metadata for future restoration."""
        self.catalog.soft_delete(name, self._clock.now)

    def restore_table(self, name: str, new_name: str) -> TableObject:
        """Link a new table to a soft-deleted table's path (Section V-B)."""
        info = self.catalog.restore(name, new_name, self._clock.now)
        table = self._tables.pop(name)
        table.info = info
        self._tables[new_name] = table
        # the old name is free for reuse; a table recreated under it
        # restarts its snapshot counter, so its ids could alias cached
        # results of the restored table's history
        self.cache_hierarchy.invalidate_results(name)
        return table

    def drop_table_hard(self, name: str) -> None:
        """Remove data, metadata (cache first, then disk) and catalog entry."""
        table = self._tables.pop(name, None)
        if table is None:
            raise TableNotFoundError(f"no table {name!r}")
        self._meta_drop(table)
        self.catalog.hard_delete(name)

    def _meta_drop(self, table: TableObject) -> None:
        self.meta_store.drop(table.info.path)
        # every retained snapshot's files, not just the current ones: a
        # file an UPDATE superseded would otherwise outlive the table and
        # collide with a recreated table's first file of the same path
        for path in table.snapshots.referenced_paths():
            table.cache_hierarchy.invalidate(self._pool, path)
            if self._pool.has_extent(path):
                self._pool.delete(path)
        # cached results must not survive a physical drop: a recreated
        # table restarts snapshot ids, which would alias the dead keys
        table.cache_hierarchy.invalidate_results(table.name)
        self._pool.garbage_collect()
