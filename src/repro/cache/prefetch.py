"""LakeBrain-driven cache prefetch.

Section VI: LakeBrain observes access patterns and schedules background
work so foreground queries find their data already staged.  The
:class:`LakeBrainPrefetcher` closes that loop for the cache hierarchy:
the hierarchy's :class:`~repro.cache.access.AccessTracker` records every
file touch during scans, the prefetcher scores live data files by
EWMA frequency with recency decay (the same ``0.8 f + 0.2`` smoothing
LakeBrain's compaction service uses), and promotes the top-K
predicted-hot files that are *not* yet cache-resident — fetching their
payloads from the pool and admitting payload + parsed footer into the
block/footer tiers.

Promotion traffic rides the data bus at
:data:`~repro.storage.bus.BACKGROUND_PRIORITY`, the same lane as tier
migration, so prefetch never delays foreground I/O: the queue drains
foreground-first, and the prefetcher's bytes wait behind it.

Scheduled scans can also :meth:`~LakeBrainPrefetcher.hint` their file
lists ahead of time — a hint is an access-tracker touch, so hinted files
score hot on the next cycle without a real read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.cache.hierarchy import CacheHierarchy
from repro.common.clock import SimClock
from repro.storage.bus import BACKGROUND_PRIORITY, DataBus

if TYPE_CHECKING:  # pragma: no cover - layering guard (typing only)
    from repro.storage.pool import StoragePool


class LakeBrainPrefetcher:
    """Promotes predicted-hot data files into the cache hierarchy."""

    def __init__(self, hierarchy: CacheHierarchy, bus: DataBus,
                 clock: SimClock, *, top_k: int = 4,
                 min_score: float = 0.05) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k!r}")
        if min_score < 0:
            raise ValueError(f"min_score must be >= 0, got {min_score!r}")
        self.hierarchy = hierarchy
        self.bus = bus
        self._clock = clock
        self.top_k = top_k
        self.min_score = min_score
        self.files_prefetched = 0
        self.bytes_prefetched = 0
        self.cycles = 0

    def hint(self, pool: "StoragePool", paths: Iterable[str]) -> None:
        """Mark paths as about-to-be-hot (scheduled-scan hint).

        Each hint is one access-tracker touch — hinted files score like
        recently read ones, so the next :meth:`run_cycle` promotes them
        without waiting for a real access history to accumulate.
        """
        now = self._clock.now
        for path in paths:
            self.hierarchy.accesses.record(
                self.hierarchy.key_for(pool, path), now
            )

    def run_cycle(self, pool: "StoragePool",
                  paths: Iterable[str]) -> list[str]:
        """Score ``paths`` (a table's live files) and promote the top-K.

        Files already resident in the block tier are skipped — prefetch
        only spends pool reads and bus bytes on data the next scan would
        otherwise miss on.  Returns the promoted paths.
        """
        self.cycles += 1
        now = self._clock.now
        candidates: list[tuple[float, str]] = []
        for path in paths:
            if self.hierarchy.contains_payload(pool, path):
                continue
            score = self.hierarchy.accesses.score(
                self.hierarchy.key_for(pool, path), now
            )
            if score >= self.min_score:
                candidates.append((score, path))
        # hottest first; path breaks ties so promotion order is stable
        candidates.sort(key=lambda entry: (-entry[0], entry[1]))
        promoted: list[str] = []
        for _, path in candidates[: self.top_k]:
            payload, _ = pool.fetch(path)
            self.bus.submit(len(payload), BACKGROUND_PRIORITY,
                            description=f"prefetch {path}")
            self.hierarchy.admit(pool, path, payload)
            self.files_prefetched += 1
            self.bytes_prefetched += len(payload)
            promoted.append(path)
        return promoted
