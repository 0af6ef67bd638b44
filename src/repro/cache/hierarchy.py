"""The four cache tiers of the read path, under one owner.

A :class:`CacheHierarchy` sits between the table read path and the
storage pool and holds every tier of the cache hierarchy, each a
:class:`~repro.cache.tier.CacheTier` evicting by the one ARC rule:

* the **chunk tier** caches decoded column chunks
  (:class:`~repro.table.vector.ColumnVector`), keyed by content
  (:data:`ChunkKey`: column type, row count and the compressed blob
  itself), so a key is stable across ``ColumnarFile.from_bytes`` round
  trips and can never alias distinct data — a file re-fetched after a
  block-tier eviction still finds its chunks decoded.  A resident file
  hands over the same blob objects on every query and CPython caches a
  bytes object's hash, so its lookups never re-hash a blob.  Each entry
  is charged the vector's real footprint, and :func:`admit_chunk` makes
  an admitted vector's arrays read-only;
* the **block tier** caches opened data files
  (:class:`~repro.table.columnar.ColumnarFile`), each charged its
  serialized payload's length — a hit skips the bus/pool read (and any
  EC reconstruction behind it) and re-opening the file, but still pays
  the chunk decode;
* the **footer tier** caches parsed :class:`~repro.table.columnar.
  FileFooter` objects — repeated pruning, opening a fetched payload and
  the aggregation footer fast path all skip the JSON footer decode, and
  a footer hit on the fast path costs **zero** storage-pool IO;
* the **result tier** caches whole query results under a
  snapshot-keyed statement key (:meth:`result_key`).  An entry is a
  ``tuple`` of read-only rows (:class:`~repro.common.frozen.
  FrozenDict`) that :func:`~repro.table.sql.query` built once; every
  hit returns a fresh ``list`` of those same row objects, so a hit
  copies no row and callers cannot corrupt the entry — a write into a
  row raises instead.

Together they model the paper's "keep hot data close to compute"
hierarchy (SSD/SCM tiers, KV metadata acceleration, decoded working
sets per Fig 15).  The hierarchy also keeps a bounded map from raw SQL
text to its parsed statement (:meth:`statement`), so a repeated
statement skips the SQL front end.

Block and footer entries are keyed by ``(pool token, path)`` — the
token is a process-unique id stamped on each :class:`~repro.storage.
pool.StoragePool` on first use, so two pools that happen to reuse the
same extent path can never alias each other's cached files.  Physical
deletions (snapshot expiry, table drop) must call :meth:`invalidate`;
live snapshots never rewrite a path in place, so cached entries stay
valid for as long as the path exists.

Every file access is also recorded in an :class:`~repro.cache.access.
AccessTracker`, which feeds the LakeBrain prefetcher's hotness scores
(:mod:`repro.cache.prefetch`).

The *default* hierarchy is per execution context
(:func:`default_hierarchy`): tier counters register as
``table.chunk_cache`` / ``table.block_cache`` / ``table.footer_cache``
/ ``table.result_cache`` in the context's cache registry and fold back
additively on shard join.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.cache.access import AccessTracker
from repro.cache.tier import CacheTier
from repro.common.context import CacheConfig, ExecutionContext, current_context

if TYPE_CHECKING:  # pragma: no cover - layering guard (typing only)
    from repro.storage.pool import StoragePool
    from repro.table.columnar import ColumnarFile, FileFooter
    from repro.table.vector import ColumnVector

#: Stats-registry names of the hierarchy tiers.
CHUNK_CACHE_NAME = "table.chunk_cache"
BLOCK_CACHE_NAME = "table.block_cache"
FOOTER_CACHE_NAME = "table.footer_cache"
RESULT_CACHE_NAME = "table.result_cache"

#: Result-tier key: (normalized SQL, ((table, pool token, snapshot id),
#: ...)).  The snapshot ids do the invalidation: a commit advances a
#: table's snapshot, so the *next* query computes a different key and
#: the stale entry simply ages out — while time travel (``as_of``)
#: resolves back to the old snapshot id and stays warm forever.  The
#: pool token keeps same-named tables in *different* lakehouses (whose
#: snapshot counters both start at 0) from aliasing each other.
ResultKey = tuple[str, tuple[tuple[str, int, int], ...]]

#: Chunk-tier key: (column type tag, row count, compressed chunk blob).
ChunkKey = tuple[str, int, bytes]

#: The NumPy arrays a decoded vector may hold (numeric values and
#: validity, dictionary codes); admission makes each read-only.
_VECTOR_ARRAYS = ("values", "_valid", "codes")

#: Parsed statements kept per hierarchy; the oldest is dropped first.
STATEMENT_CACHE_ENTRIES = 1024

_POOL_TOKENS = itertools.count(1)
_Statement = TypeVar("_Statement")


def _pool_token(pool: "StoragePool") -> int:
    """A process-unique, never-reused id for one pool instance.

    ``id(pool)`` can be recycled by the allocator after a pool dies;
    a monotone counter stamped on first use cannot.
    """
    token = getattr(pool, "_cache_token", None)
    if token is None:
        token = next(_POOL_TOKENS)
        pool._cache_token = token  # type: ignore[attr-defined]
    return token


def admit_chunk(chunks: CacheTier, key: ChunkKey,
                vector: "ColumnVector") -> None:
    """Admit one decoded vector to a chunk tier at its real footprint.

    An admitted vector is shared by every later scan of the same chunk,
    so its arrays become read-only: a write into a cached chunk raises
    ``ValueError`` instead of corrupting every later read.
    """
    if chunks.put(key, vector, vector.nbytes):
        for name in _VECTOR_ARRAYS:
            array = getattr(vector, name, None)
            if array is not None:
                array.flags.writeable = False


class CacheHierarchy:
    """Chunk, block, footer and result tiers with byte accounting and
    access tracking."""

    def __init__(self, config: CacheConfig | None = None,
                 context: ExecutionContext | None = None) -> None:
        context = context if context is not None else current_context()
        config = config if config is not None else context.cache_config
        self.config = config
        self.chunks = CacheTier(
            CHUNK_CACHE_NAME, config.chunk_capacity_bytes,
            stats=context.cache_stats(CHUNK_CACHE_NAME),
        )
        self.blocks = CacheTier(
            BLOCK_CACHE_NAME, config.block_capacity_bytes,
            stats=context.cache_stats(BLOCK_CACHE_NAME),
        )
        self.footers = CacheTier(
            FOOTER_CACHE_NAME, config.footer_capacity_bytes,
            stats=context.cache_stats(FOOTER_CACHE_NAME),
        )
        self.results = CacheTier(
            RESULT_CACHE_NAME, config.result_capacity_bytes,
            stats=context.cache_stats(RESULT_CACHE_NAME),
        )
        self.accesses = AccessTracker(window_s=config.access_window_s)
        self._statements: dict[str, object] = {}

    def key_for(self, pool: "StoragePool", path: str) -> tuple[int, str]:
        return (_pool_token(pool), path)

    # --- the read path ------------------------------------------------------

    def load_payload(self, pool: "StoragePool", path: str,
                     now: float | None = None
                     ) -> tuple["ColumnarFile", float]:
        """A data file through the block tier alone, opened.

        Returns ``(file, read_cost_s)`` — the resident file at cost 0.0
        on a block hit (the pool is never touched); a miss opens the
        fetched payload through its freshly parsed footer.  ``now``
        (simulated seconds) records the access for prefetch scoring.
        """
        from repro.table.columnar import FileFooter

        key = self.key_for(pool, path)
        if now is not None:
            self.accesses.record(key, now)
        data_file = self.blocks.get(key)
        if data_file is not None:
            return data_file, 0.0  # type: ignore[return-value]
        return self._fetch(key, pool, path, FileFooter.parse)

    def _fetch(self, key: tuple[int, str], pool: "StoragePool", path: str,
               footer_of: Callable[[bytes], FileFooter]
               ) -> tuple["ColumnarFile", float]:
        """A block miss: fetch, open through ``footer_of(payload)`` and
        admit the file charged ``len(payload)``."""
        from repro.table.columnar import ColumnarFile

        payload, cost = pool.fetch(path)
        data_file = ColumnarFile.from_footer(footer_of(payload), payload)
        self.blocks.put(key, data_file, len(payload))
        return data_file, cost

    def footer_for(self, pool: "StoragePool", path: str,
                   payload: bytes) -> "FileFooter":
        """The parsed footer for a payload already in hand."""
        from repro.table.columnar import FileFooter

        key = self.key_for(pool, path)
        footer = self.footers.get(key)
        if footer is None:
            footer = FileFooter.parse(payload)
            self.footers.put(key, footer, footer.encoded_bytes)
        return footer  # type: ignore[return-value]

    def load_footer(self, pool: "StoragePool", path: str,
                    now: float | None = None
                    ) -> tuple["FileFooter", float]:
        """Footer-first load: a footer hit costs zero storage-pool IO.

        This is the metadata fast path — footer-answerable aggregates
        over a warm table read neither the pool nor the block tier.
        """
        key = self.key_for(pool, path)
        if now is not None:
            self.accesses.record(key, now)
        footer = self.footers.get(key)
        if footer is not None:
            return footer, 0.0  # type: ignore[return-value]
        data_file, cost = self.load_payload(pool, path)
        footer = data_file.footer
        self.footers.put(key, footer, footer.encoded_bytes)
        return footer, cost

    def load_file(self, pool: "StoragePool", path: str,
                  now: float | None = None
                  ) -> tuple["ColumnarFile", float]:
        """An opened :class:`ColumnarFile` through both tiers, one lookup
        each: a block hit returns the resident file itself and puts its
        footer back on a footer miss; a block miss opens the fetched
        payload through the footer tier."""
        key = self.key_for(pool, path)
        if now is not None:
            self.accesses.record(key, now)
        data_file = self.blocks.get(key)
        if data_file is None:
            return self._fetch(
                key, pool, path,
                lambda payload: self.footer_for(pool, path, payload),
            )
        if self.footers.get(key) is None:
            footer = data_file.footer  # type: ignore[attr-defined]
            self.footers.put(key, footer, footer.encoded_bytes)
        return data_file, 0.0  # type: ignore[return-value]

    # --- prefetch + invalidation --------------------------------------------

    def contains_payload(self, pool: "StoragePool", path: str) -> bool:
        """Peek (no counters): is the file resident in the block tier?"""
        return self.key_for(pool, path) in self.blocks

    def admit(self, pool: "StoragePool", path: str, payload: bytes) -> None:
        """Install a payload, opened, + its footer without lookup counters.

        The prefetcher's entry point: promoted files appear as resident
        entries, so the *next* scan counts clean hits — admission itself
        is not a lookup.
        """
        from repro.table.columnar import ColumnarFile, FileFooter

        key = self.key_for(pool, path)
        footer = FileFooter.parse(payload)
        if key not in self.blocks:
            self.blocks.put(key, ColumnarFile.from_footer(footer, payload),
                            len(payload))
        if key not in self.footers:
            self.footers.put(key, footer, footer.encoded_bytes)

    # --- parsed statements --------------------------------------------------

    def statement(self, sql: str,
                  parse: Callable[[str], _Statement]) -> _Statement:
        """``parse(sql)``, remembered by exact text.

        A repeated text returns the first parse's (immutable) statement;
        a text ``parse`` rejects raises and is not remembered.  Holds
        :data:`STATEMENT_CACHE_ENTRIES` statements, dropping the oldest.
        """
        statement = self._statements.get(sql)
        if statement is None:
            statement = parse(sql)
            if len(self._statements) >= STATEMENT_CACHE_ENTRIES:
                del self._statements[next(iter(self._statements))]
            self._statements[sql] = statement
        return statement  # type: ignore[return-value]

    # --- the query result tier ----------------------------------------------

    def result_key(self, normalized_sql: str,
                   refs: "list[tuple[str, StoragePool, int]]") -> ResultKey:
        """The snapshot-keyed cache key for one normalized statement.

        ``refs`` lists every referenced table as ``(name, backing pool,
        resolved snapshot id)`` — the id the query actually reads, so an
        ``as_of`` query keys on its historical snapshot.
        """
        return (
            normalized_sql,
            tuple(sorted(
                (name, _pool_token(pool), snapshot_id)
                for name, pool, snapshot_id in refs
            )),
        )

    def lookup_result(self, key: ResultKey
                      ) -> "list[dict[str, object]] | None":
        """A whole query's result rows, if cached for this exact key.

        A hit is a fresh ``list`` of the cached row objects themselves —
        no row is copied.  The caller may append to, sort or slice its
        list without touching the entry; the rows are read-only
        (:class:`~repro.common.frozen.FrozenDict`), so they cannot be
        corrupted in place either.
        """
        rows = self.results.get(key)
        if rows is None:
            return None
        return list(rows)  # type: ignore[call-overload]

    def store_result(self, key: ResultKey, rows: "list[dict[str, object]]",
                     nbytes: int) -> None:
        """Install a finished query's rows under its snapshot-keyed key.

        ``rows`` must be read-only values (``query`` builds them as
        :class:`~repro.common.frozen.FrozenDict`): the entry keeps the
        same row objects, in a ``tuple`` of its own, and shares them with
        every later hit.  ``nbytes`` is the charge against the tier.
        """
        self.results.put(key, tuple(rows), nbytes)

    def invalidate_results(self, table_name: str) -> int:
        """Drop every cached result referencing ``table_name``.

        Only needed on *physical* table deletion (drop/restore): a
        recreated table restarts its snapshot counter at 0, so without
        this a new table could alias a dead table's cached results.
        Ordinary commits never call it — the snapshot id in the key
        already fences them.
        """
        return self.results.invalidate_where(
            lambda key: any(entry[0] == table_name for entry in key[1])
        )

    def invalidate(self, pool: "StoragePool", path: str) -> None:
        """Drop a physically deleted path from the block/footer tiers."""
        key = self.key_for(pool, path)
        self.blocks.invalidate(key)
        self.footers.invalidate(key)
        self.accesses.forget(key)

    def clear(self) -> None:
        self.chunks.clear()
        self.blocks.clear()
        self.footers.clear()
        self.results.clear()
        self.accesses.clear()
        self._statements.clear()


def default_hierarchy(context: ExecutionContext | None = None
                      ) -> CacheHierarchy:
    """The owning context's hierarchy (created lazily, with capacities
    from ``context.cache_config``), so parallel shards never share tier
    state and their counters fold back on join."""
    context = context if context is not None else current_context()
    hierarchy = context.cache_hierarchy
    if hierarchy is None:
        hierarchy = context.cache_hierarchy = CacheHierarchy(context=context)
    return hierarchy
