"""Storage Class Memory (persistent memory) cache model.

The paper's Set-2 hardware adds 16 GB of persistent memory per node as an
extra cache and Fig 14(a) shows it lowers message latency at moderate rates
while leaving throughput unchanged (Fig 14(b)) — a capacity-bound cache
cuts the latency of hits but the disk path still bounds sustained rate.

:class:`SCMCache` is a read-through byte cache over one
:class:`~repro.cache.tier.CacheTier` (ARC eviction, byte ledger, oversize
rejection): hits cost an SCM read, misses fall through to the
caller-provided loader and populate the cache.
"""

from __future__ import annotations

from typing import Callable

from repro.cache.tier import CacheTier
from repro.common.clock import SimClock
from repro.common.units import GiB

#: Reading a cached entry from persistent memory.
SCM_READ_S = 1.5e-6


class SCMCache:
    """Read-through persistent-memory cache with hit/miss meters."""

    def __init__(self, clock: SimClock, capacity_bytes: int = 16 * GiB) -> None:
        self._clock = clock
        self._tier = CacheTier("scm", capacity_bytes)

    def get(self, key: str,
            loader: Callable[[], tuple[bytes, float]]) -> tuple[bytes, float]:
        """Return (payload, simulated seconds).

        On a hit the cost is one SCM read; on a miss the ``loader`` runs
        (returning payload and its own cost) and the result is cached.
        """
        payload = self._tier.get(key)
        if payload is not None:
            self._clock.charge("scm", SCM_READ_S)
            return payload, SCM_READ_S
        payload, cost = loader()
        self.put(key, payload)
        return payload, cost

    def put(self, key: str, payload: bytes) -> None:
        """Insert a payload (evicting by ARC; one larger than the device
        is never cached)."""
        self._tier.put(key, payload, len(payload))

    def invalidate(self, key: str) -> None:
        self._tier.invalidate(key)

    @property
    def used_bytes(self) -> int:
        return self._tier.used_bytes

    @property
    def hits(self) -> int:
        return self._tier.stats.hits

    @property
    def misses(self) -> int:
        return self._tier.stats.misses

    @property
    def evictions(self) -> int:
        return self._tier.stats.evictions

    @property
    def hit_rate(self) -> float:
        return self._tier.stats.hit_rate
