"""Shared access recency/frequency tracking.

:class:`AccessTracker` is the bookkeeping the SSD<->HDD tiering service
and the LakeBrain prefetcher share: last access, a bounded sliding hit
window, and an EWMA access frequency (the ``0.8 * f + 0.2`` update
LakeBrain's compaction service uses for its access features).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator

Key = Hashable


@dataclass
class _Access:
    """One tracked key's recency/frequency state."""

    last_access: float
    recent: list[float] = field(default_factory=list)
    freq: float = 0.0  # EWMA access frequency (LakeBrain's 0.8/0.2 update)


class AccessTracker:
    """Bounded access recency/frequency bookkeeping, keyed by anything.

    One instance serves two consumers with the same mechanics:

    * :class:`~repro.storage.tiering.TieringService` demotes extents
      whose :meth:`last_access` went idle and promotes extents whose
      :meth:`recent_hits` cross the policy threshold;
    * :class:`~repro.cache.prefetch.LakeBrainPrefetcher` ranks files by
      :meth:`score` — the EWMA access frequency decayed by idle time —
      and promotes the predicted-hot ones into the cache hierarchy.

    Hit windows are pruned on every touch *and* via :meth:`prune`, so the
    tracker stays bounded even for keys never accessed again.
    """

    def __init__(self, window_s: float = 600.0) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        self.window_s = window_s
        self._records: dict[Key, _Access] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Key) -> bool:
        return key in self._records

    def keys(self) -> Iterator[Key]:
        return iter(self._records)

    def note_store(self, key: Key, now: float) -> None:
        """A key was (re)written: fresh recency, no hit counted."""
        self._records[key] = _Access(last_access=now)

    def record(self, key: Key, now: float) -> None:
        """Count one access at simulated time ``now``."""
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = _Access(last_access=now)
        record.last_access = now
        self._prune_record(record, now)
        record.recent.append(now)
        record.freq = 0.8 * record.freq + 0.2

    def last_access(self, key: Key) -> float | None:
        record = self._records.get(key)
        return record.last_access if record is not None else None

    def recent_hits(self, key: Key, now: float) -> int:
        """Accesses inside the sliding window ending at ``now``."""
        record = self._records.get(key)
        if record is None:
            return 0
        self._prune_record(record, now)
        return len(record.recent)

    def pending_hits(self, key: Key) -> list[float]:
        """The stored (possibly stale) hit window — test observability."""
        record = self._records.get(key)
        return list(record.recent) if record is not None else []

    def score(self, key: Key, now: float) -> float:
        """Predicted-hotness: EWMA frequency decayed by idle time.

        Halves per idle window, so a burst of recent accesses outranks a
        historically busy key gone quiet.
        """
        record = self._records.get(key)
        if record is None:
            return 0.0
        idle = max(0.0, now - record.last_access)
        return record.freq * 0.5 ** (idle / self.window_s)

    def prune(self, now: float) -> None:
        """Drop out-of-window hits everywhere (periodic tick upkeep)."""
        for record in self._records.values():
            self._prune_record(record, now)

    def forget(self, key: Key) -> None:
        self._records.pop(key, None)

    def clear(self) -> None:
        self._records.clear()

    def _prune_record(self, record: _Access, now: float) -> None:
        window_start = now - self.window_s
        if record.recent and record.recent[0] < window_start:
            record.recent = [t for t in record.recent if t >= window_start]
