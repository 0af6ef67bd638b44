"""Bounded cache of decoded column chunks — the top hierarchy tier.

Decoded chunks are cached *content-addressed* — the key is the
compressed chunk blob itself (plus column type and row count), which is
stable across ``ColumnarFile.from_bytes`` round trips and can never
alias distinct data, so a file re-fetched after a block-tier eviction
still finds its chunks decoded.  A file resident in the block tier
(:mod:`repro.cache.hierarchy`) hands over the same blob objects on every
query, and CPython caches a bytes object's hash, so its lookups never
re-hash a blob.  Repeated scans over the same table then skip both the
zlib decompression and the bytes→NumPy decode entirely.

The cache is a :class:`~repro.cache.tier.CacheTier`: **byte-accurate**
(each entry charges the decoded vector's real footprint — values,
validity mask and dictionary included, via
:attr:`~repro.table.vector.ColumnVector.nbytes`), bounded by a byte
capacity, with pluggable eviction (LRU default; see
:mod:`repro.cache.policy`).  Entries larger than the whole capacity are
rejected rather than evicting the working set.  Its hit/miss/eviction
counters register under ``table.chunk_cache`` in the owning execution
context (:mod:`repro.common.context`); the *default* cache is *per
context*, so parallel shards never share LRU state and their counters
fold back on join.
"""

from __future__ import annotations

from repro.cache.policy import EvictionPolicy
from repro.cache.tier import CacheTier
from repro.common.context import ExecutionContext, current_context
from repro.common.stats import CacheStats
from repro.common.units import MiB
from repro.table.vector import ColumnVector

#: Default decoded-chunk budget in bytes (mirrored by
#: :data:`repro.common.context.DEFAULT_CHUNK_CACHE_CAPACITY`).
DEFAULT_CAPACITY_BYTES = 128 * MiB

#: Cache key: (column type tag, row count, compressed chunk blob).
ChunkKey = tuple[str, int, bytes]

#: The NumPy arrays a decoded vector may hold (numeric values and
#: validity, dictionary codes); admission makes each read-only.
_VECTOR_ARRAYS = ("values", "_valid", "codes")


class ChunkCache(CacheTier):
    """Byte-bounded map from chunk content to its decoded vector."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY_BYTES,
                 stats: CacheStats | None = None,
                 policy: EvictionPolicy | str = "lru") -> None:
        super().__init__(
            "table.chunk_cache", capacity_bytes=capacity,
            policy=policy, stats=stats,
        )

    @property
    def capacity(self) -> int:
        """Byte capacity (alias kept from the entry-counted era)."""
        return self.capacity_bytes

    def get(self, key: ChunkKey) -> ColumnVector | None:
        return super().get(key)  # type: ignore[return-value]

    def put(self, key: ChunkKey, vector: ColumnVector) -> bool:  # type: ignore[override]
        """Admit one decoded vector, charged at its real byte footprint.

        An admitted vector is shared by every later scan of the same
        chunk, so its arrays become read-only: a write into a cached
        chunk raises ``ValueError`` instead of corrupting every later
        read.
        """
        admitted = super().put(key, vector, vector.nbytes)
        if admitted:
            for name in _VECTOR_ARRAYS:
                array = getattr(vector, name, None)
                if array is not None:
                    array.flags.writeable = False
        return admitted


def default_chunk_cache(context: ExecutionContext | None = None) -> ChunkCache:
    """The owning context's cache, used when no explicit cache is passed.

    Created lazily per :class:`~repro.common.context.ExecutionContext`
    (capacity and policy from ``context.cache_config``, counters
    registered as ``table.chunk_cache`` in the context's cache
    registry); the default context's cache keeps the seed's process-wide
    behaviour.
    """
    context = context if context is not None else current_context()
    cache = context.chunk_cache
    if cache is None:
        config = context.cache_config
        cache = context.chunk_cache = ChunkCache(
            config.chunk_capacity_bytes,
            stats=context.cache_stats("table.chunk_cache"),
            policy=config.chunk_policy,
        )
    return cache
