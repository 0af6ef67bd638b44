"""SSD <-> HDD tiering service.

Section III (data service layer): "the tiering service offers static and
dynamic data migration and eviction between the SSD and HDD storage pools
based on tiering policies, which saves a lot of storage costs."

Extents are written hot (SSD); the service demotes extents whose access
recency/frequency falls below policy thresholds to HDD, and promotes
extents that become hot again.  Migration rides the data bus at background
priority so it never starves foreground I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.access import AccessTracker
from repro.common.clock import SimClock
from repro.storage.bus import BACKGROUND_PRIORITY, DataBus
from repro.storage.pool import StoragePool

__all__ = [
    "BACKGROUND_PRIORITY",  # re-exported from repro.storage.bus
    "TieringPolicy",
    "TieringService",
]


@dataclass
class TieringPolicy:
    """Thresholds driving demotion/promotion decisions.

    demote_after_s     — demote extents not accessed for this long.
    promote_hits       — promote after this many accesses inside the window.
    promote_window_s   — the window for counting promote hits.
    """

    demote_after_s: float = 3600.0
    promote_hits: int = 3
    promote_window_s: float = 600.0


class TieringService:
    """Moves extents between a hot (SSD) and a cold (HDD) pool.

    Access recency/frequency is tracked with the cache layer's
    :class:`~repro.cache.access.AccessTracker` — the same sliding-window
    machinery the LakeBrain prefetcher scores from — with the window
    bound to ``policy.promote_window_s``.
    """

    def __init__(self, hot: StoragePool, cold: StoragePool, bus: DataBus,
                 clock: SimClock, policy: TieringPolicy | None = None) -> None:
        self.hot = hot
        self.cold = cold
        self.bus = bus
        self._clock = clock
        self.policy = policy if policy is not None else TieringPolicy()
        self.accesses = AccessTracker(window_s=self.policy.promote_window_s)
        self.demotions = 0
        self.promotions = 0

    # --- extent I/O routed through the tiers --------------------------------

    def store(self, extent_id: str, payload: bytes) -> float:
        """New data always lands hot."""
        cost = self.hot.store(extent_id, payload)
        self.accesses.note_store(extent_id, self._clock.now)
        return cost

    def fetch(self, extent_id: str) -> tuple[bytes, float]:
        """Read from whichever tier holds the extent, tracking access."""
        self.accesses.record(extent_id, self._clock.now)
        if self.hot.has_extent(extent_id):
            return self.hot.fetch(extent_id)
        return self.cold.fetch(extent_id)

    def delete(self, extent_id: str) -> None:
        if self.hot.has_extent(extent_id):
            self.hot.delete(extent_id)
        elif self.cold.has_extent(extent_id):
            self.cold.delete(extent_id)
        self.accesses.forget(extent_id)

    def tier_of(self, extent_id: str) -> str:
        if self.hot.has_extent(extent_id):
            return "hot"
        if self.cold.has_extent(extent_id):
            return "cold"
        raise KeyError(f"extent {extent_id!r} on neither tier")

    # --- background migration ------------------------------------------------

    def run_migration_cycle(self) -> tuple[int, int]:
        """One policy pass: returns (demoted, promoted) extent counts."""
        now = self._clock.now
        # prune every record's hit window so access tracking stays bounded
        # even for extents that are never fetched again (fetch prunes its
        # own record; cold extents only see this tick)
        self.accesses.prune(now)
        demoted = 0
        for extent_id in self.hot.extent_ids():
            last = self.accesses.last_access(extent_id)
            if last is None:
                continue
            if now - last >= self.policy.demote_after_s:
                self._move(extent_id, self.hot, self.cold)
                demoted += 1
                self.demotions += 1
        promoted = 0
        for extent_id in self.cold.extent_ids():
            if extent_id not in self.accesses:
                continue
            if self.accesses.recent_hits(extent_id, now) >= \
                    self.policy.promote_hits:
                self._move(extent_id, self.cold, self.hot)
                promoted += 1
                self.promotions += 1
        return demoted, promoted

    def _move(self, extent_id: str, source: StoragePool,
              target: StoragePool) -> None:
        payload, _ = source.fetch(extent_id)
        self.bus.submit(len(payload), BACKGROUND_PRIORITY,
                        description=f"migrate {extent_id}")
        target.store(extent_id, payload)
        source.delete(extent_id)
        source.garbage_collect()
