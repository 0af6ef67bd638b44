"""The read path's cache hierarchy: one owner, one eviction rule.

The paper's read path wins by keeping hot data close to compute — SSD/SCM
tiers below, KV-accelerated metadata beside, decoded working sets above
(Fig 15).  This package holds that hierarchy:

* :mod:`repro.cache.tier` — :class:`~repro.cache.tier.CacheTier`, one
  byte-accurate bounded cache level with hit/miss/eviction/rejection
  counters, evicting by ARC (the only rule; there is no policy knob);
* :mod:`repro.cache.hierarchy` — :class:`~repro.cache.hierarchy.
  CacheHierarchy`, the one owner of all four tiers (decoded chunks,
  opened data files, parsed footers, query results) wired above the
  storage pool;
* :mod:`repro.cache.access` — the :class:`~repro.cache.access.
  AccessTracker` recency/frequency machinery shared by the tiering
  service and the prefetcher;
* :mod:`repro.cache.prefetch` — the LakeBrain-driven
  :class:`~repro.cache.prefetch.LakeBrainPrefetcher` promoting
  predicted-hot files ahead of scheduled scans at background bus
  priority.

Only the tier and access layers import here: the hierarchy and
prefetcher modules sit above :mod:`repro.table` / :mod:`repro.storage`
and are imported from their own module paths to keep the import graph
acyclic.
"""

from repro.cache.access import AccessTracker
from repro.cache.tier import CacheTier

__all__ = [
    "AccessTracker",
    "CacheTier",
]
