"""One byte-accurate cache level under the ARC eviction rule.

A :class:`CacheTier` maps hashable keys to values, charging each entry
its *actual* byte footprint (the caller supplies ``nbytes`` — payload
length for opened data files, parsed-footer size for metadata, vector
``nbytes`` for decoded chunks) against a byte capacity, and owns the
:class:`~repro.common.stats.CacheStats` counters.

Every tier evicts by one rule: Megiddo & Modha's adaptive replacement
cache (ARC), byte-denominated.  Resident entries live in two LRU lists —
T1 (seen once: recency) and T2 (seen twice or more: frequency) — sharing
the capacity ``c`` under an adaptive target ``p`` (bytes granted to T1).
An evicted key leaves a *ghost* (key + size, no value) in B1 or B2.  A
miss on a ghost proves that side's eviction premature and moves ``p``
toward it; the ghost stays the marker until a :meth:`~CacheTier.put` of
that key pops it and lands the entry in T2.  So scan-heavy phases grow
T1 and repeat-heavy phases grow T2 with no tuning knob.  Ghost lists are
bounded like the original: T1+B1 never exceeds ``c`` bytes and all four
lists together never exceed ``2c``.

Entries larger than the whole capacity are **rejected** (counted in
``stats.rejections``) instead of evicting everything else first — a
single jumbo scan must never wipe the working set.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Hashable, Iterator

from repro.common.stats import CacheStats

Key = Hashable


class CacheTier:
    """A bounded key->value cache accounted in bytes, evicting by ARC."""

    def __init__(self, name: str, capacity_bytes: int,
                 stats: CacheStats | None = None) -> None:
        if capacity_bytes < 1:
            raise ValueError(
                f"cache capacity must be >= 1 byte, got {capacity_bytes}"
            )
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.stats = stats if stats is not None else CacheStats()
        self._reset()

    def _reset(self) -> None:
        #: resident entries, least recent first: key -> (value, nbytes)
        self.t1: OrderedDict[Key, tuple[object, int]] = OrderedDict()
        self.t2: OrderedDict[Key, tuple[object, int]] = OrderedDict()
        #: ghosts of evicted entries, least recent first: key -> nbytes
        self.b1: OrderedDict[Key, int] = OrderedDict()
        self.b2: OrderedDict[Key, int] = OrderedDict()
        self.t1_bytes = 0
        self.t2_bytes = 0
        self.b1_bytes = 0
        self.b2_bytes = 0
        self.p = 0.0  # adaptive byte target for T1

    # --- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.t1) + len(self.t2)

    def __contains__(self, key: Key) -> bool:
        """Membership *without* touching counters or recency (peek)."""
        return key in self.t2 or key in self.t1

    def __iter__(self) -> Iterator[Key]:
        return chain(self.t1, self.t2)

    @property
    def used_bytes(self) -> int:
        return self.t1_bytes + self.t2_bytes

    def entry_bytes(self, key: Key) -> int | None:
        entry = self.t1.get(key) or self.t2.get(key)
        return entry[1] if entry is not None else None

    # --- the cache protocol -------------------------------------------------

    def get(self, key: Key) -> object | None:
        """The cached value, or None — counted as a hit or a miss.

        A hit in T1 promotes the entry to T2; a miss on a ghost adapts
        ``p`` toward the side that evicted it too early.
        """
        entry = self.t2.get(key)
        if entry is not None:
            self.t2.move_to_end(key)
        else:
            entry = self.t1.pop(key, None)
            if entry is None:
                self._adapt(key)
                self.stats.record_miss()
                return None
            self.t1_bytes -= entry[1]
            self.t2[key] = entry
            self.t2_bytes += entry[1]
        self.stats.record_hit()
        return entry[0]

    def put(self, key: Key, value: object, nbytes: int) -> bool:
        """Admit ``value`` at ``nbytes``; returns False when rejected.

        Oversized entries (``nbytes > capacity_bytes``) are rejected —
        counted, not admitted — so one huge entry can never flush the
        tier.  A ghost key enters T2, any other key T1; re-putting a
        resident key replaces it (the old footprint is released first).
        """
        if nbytes < 0:
            raise ValueError(f"entry size must be >= 0, got {nbytes}")
        if nbytes > self.capacity_bytes:
            self.stats.record_rejection()
            return False
        ghost = self._pop_ghost(key)
        if ghost is None:
            self.invalidate(key)
        while (self.t1_bytes + self.t2_bytes + nbytes > self.capacity_bytes
               and (self.t1 or self.t2)):
            self._evict()
            self.stats.record_eviction()
        if ghost is not None:
            self.t2[key] = (value, nbytes)
            self.t2_bytes += nbytes
        else:
            self.t1[key] = (value, nbytes)
            self.t1_bytes += nbytes
        self._trim_ghosts()
        return True

    def invalidate(self, key: Key) -> bool:
        """Forget one key: its resident entry (no eviction counted) or its
        ghost, so a later miss or put treats it as never seen.  True when
        a resident entry existed."""
        entry = self.t1.pop(key, None)
        if entry is not None:
            self.t1_bytes -= entry[1]
            return True
        entry = self.t2.pop(key, None)
        if entry is not None:
            self.t2_bytes -= entry[1]
            return True
        self._pop_ghost(key)
        return False

    def invalidate_where(self, match) -> int:
        """Forget every key, resident or ghost, satisfying ``match(key)``;
        returns the resident entries dropped."""
        doomed = [
            key for key in chain(self.t1, self.t2, self.b1, self.b2)
            if match(key)
        ]
        return sum(self.invalidate(key) for key in doomed)

    def clear(self) -> None:
        """Drop all entries, ghosts and the learned ``p``: a cleared tier
        evicts exactly as a new one (counters are kept — they are
        cumulative)."""
        self._reset()

    # --- ARC ----------------------------------------------------------------

    def _pop_ghost(self, key: Key) -> int | None:
        """Remove ``key``'s ghost, returning its bytes (None: no ghost)."""
        nbytes = self.b1.pop(key, None)
        if nbytes is not None:
            self.b1_bytes -= nbytes
            return nbytes
        nbytes = self.b2.pop(key, None)
        if nbytes is not None:
            self.b2_bytes -= nbytes
        return nbytes

    def _adapt(self, key: Key) -> None:
        """A miss: a ghost hit moves ``p`` toward the ghost's side, by the
        ghost's bytes scaled by how much the *other* ghost list outweighs
        the rest of its own."""
        nbytes = self.b1.get(key)
        if nbytes is not None:
            rest = self.b1_bytes - nbytes
            ratio = max(self.b2_bytes / rest, 1.0) if rest else 1.0
            self.p = min(float(self.capacity_bytes), self.p + ratio * nbytes)
            return
        nbytes = self.b2.get(key)
        if nbytes is not None:
            rest = self.b2_bytes - nbytes
            ratio = max(self.b1_bytes / rest, 1.0) if rest else 1.0
            self.p = max(0.0, self.p - ratio * nbytes)

    def _evict(self) -> None:
        """Demote one resident entry to a ghost: T1's oldest while T1
        holds more than ``p``, else T2's oldest."""
        if self.t1 and (self.t1_bytes > self.p or not self.t2):
            key, (_, nbytes) = self.t1.popitem(last=False)
            self.t1_bytes -= nbytes
            self.b1[key] = nbytes
            self.b1_bytes += nbytes
        else:
            key, (_, nbytes) = self.t2.popitem(last=False)
            self.t2_bytes -= nbytes
            self.b2[key] = nbytes
            self.b2_bytes += nbytes
        self._trim_ghosts()

    def _trim_ghosts(self) -> None:
        c = self.capacity_bytes
        while self.b1 and self.t1_bytes + self.b1_bytes > c:
            _, nbytes = self.b1.popitem(last=False)
            self.b1_bytes -= nbytes
        while self.b2 and (
            self.t1_bytes + self.t2_bytes
            + self.b1_bytes + self.b2_bytes > 2 * c
        ):
            _, nbytes = self.b2.popitem(last=False)
            self.b2_bytes -= nbytes
