"""Per-shard execution contexts for the sharded data plane.

The seed accumulated every counter in module-global singletons and
shared one process-wide decoded-chunk cache, which capped the simulation
at a single execution stream: two concurrent workers would interleave
their counters and cache entries, and no per-shard result could be
compared against a single-shard oracle.  The paper's deployment avoids exactly this by
spreading slices over 4096 logical shards so the data plane scales out
with nodes (Section IV-A / Fig 4(d)).

An :class:`ExecutionContext` bundles everything a data-plane worker
mutates while processing its shard of the work:

* the per-path counters (:class:`~repro.common.stats.IngestStats`,
  :class:`~repro.common.stats.ConversionStats`,
  :class:`~repro.common.stats.AggregationStats`,
  :class:`~repro.common.stats.FaultStats`) and the named cache-counter
  registry;
* a slot for the cache hierarchy
  (:func:`repro.cache.hierarchy.default_hierarchy` creates it lazily
  per context, so shards never share tier state);
* a seeded :class:`random.Random` for any stochastic decisions a worker
  makes (deterministic per shard);
* a :class:`~repro.common.clock.SimClock` handle, so a shard worker
  advances *its own* simulated time and the driver reconciles the wave
  as an LPT makespan (see :func:`repro.common.clock.lpt_makespan`).

The *current* context is carried in a :class:`contextvars.ContextVar`,
so worker threads (and forked worker processes) activate their shard's
context without threading an argument through every call site; the
module-level accessors in :mod:`repro.common.stats` resolve through it.
Single-stream code that activates nothing counts into one process-wide
default context.

Shard workers are created with :meth:`ExecutionContext.fork` and their
results folded back with :meth:`ExecutionContext.merge`: every counter
class is additive, so per-shard totals merged on join are value-identical
to a single-shard run over the same work.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from repro.common.clock import SimClock
from repro.common.stats import (
    AggregationStats,
    CacheStats,
    ConversionStats,
    FaultStats,
    IngestStats,
    JoinStats,
    ServingStats,
)
from repro.common.units import MiB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cache.hierarchy import CacheHierarchy


@dataclass
class CacheConfig:
    """Per-context byte capacities of the four cache tiers.

    The hierarchy (:mod:`repro.cache.hierarchy`) holds decoded chunks on
    top, opened data files above the pool, parsed footers beside them
    and whole query results; every tier evicts by ARC, so a capacity is
    all a tier takes.  ``access_window_s`` bounds the sliding hit window
    of the hierarchy's access tracker, which feeds the LakeBrain
    prefetcher's hotness scores.
    """

    chunk_capacity_bytes: int = 128 * MiB
    block_capacity_bytes: int = 64 * MiB
    footer_capacity_bytes: int = 8 * MiB
    #: snapshot-keyed query result tier (normalized SQL + snapshot ids)
    result_capacity_bytes: int = 16 * MiB
    access_window_s: float = 600.0


class ExecutionContext:
    """Stats + cache + RNG + clock for one execution stream (shard)."""

    def __init__(self, name: str = "default", *,
                 rng: random.Random | None = None,
                 clock: SimClock | None = None,
                 cache_config: CacheConfig | None = None,
                 ) -> None:
        self.name = name
        self.ingest = IngestStats()
        self.conversion = ConversionStats()
        self.aggregation = AggregationStats()
        self.faults = FaultStats()
        self.joins = JoinStats()
        self.serving = ServingStats()
        self.caches: dict[str, CacheStats] = {}
        self.rng = rng if rng is not None else random.Random(0)
        self.clock = clock if clock is not None else SimClock()
        self.cache_config = (
            cache_config if cache_config is not None else CacheConfig()
        )
        #: lazily created by :func:`repro.cache.hierarchy.default_hierarchy`
        self.cache_hierarchy: "CacheHierarchy | None" = None

    def configure_caches(self, **changes: object) -> CacheConfig:
        """Reconfigure this context's cache tiers (per-context, not global).

        Accepts any :class:`CacheConfig` field as a keyword argument
        (``chunk_capacity_bytes``, ``block_capacity_bytes``, …), applies
        the changes, and drops the lazily-built hierarchy so it rebuilds
        with the new capacities on next use.
        Counters registered in :attr:`caches` survive — they are
        cumulative per context, not per cache instance.
        """
        self.cache_config = replace(self.cache_config, **changes)  # type: ignore[arg-type]
        self.cache_hierarchy = None
        return self.cache_config

    def cache_stats(self, name: str) -> CacheStats:
        """This context's counters for the named cache (created on use)."""
        stats = self.caches.get(name)
        if stats is None:
            stats = self.caches[name] = CacheStats()
        return stats

    def fork(self, name: str, seed: int | None = None) -> "ExecutionContext":
        """A fresh child context for one shard worker.

        The child starts with zeroed counters, an empty cache registry,
        its own RNG (seeded from ``seed``, or deterministically from the
        parent's RNG) and its own :class:`SimClock` starting at the
        parent's current simulated time — so per-shard sim deltas are
        directly comparable when the driver reconciles the wave.
        """
        if seed is None:
            seed = self.rng.getrandbits(64)
        return ExecutionContext(
            name=name,
            rng=random.Random(seed),
            clock=SimClock(start=self.clock.now),
            cache_config=replace(self.cache_config),
        )

    def merge(self, other: "ExecutionContext") -> None:
        """Fold a shard context's counters into this one (on join).

        Only counters merge; the clock does not — the driver charges the
        wave's elapsed sim time explicitly as an LPT makespan, which is
        the whole point of per-shard clocks.
        """
        self.ingest.merge(other.ingest)
        self.conversion.merge(other.conversion)
        self.aggregation.merge(other.aggregation)
        self.faults.merge(other.faults)
        self.joins.merge(other.joins)
        self.serving.merge(other.serving)
        for name, stats in other.caches.items():
            self.cache_stats(name).merge(stats)

    def reset_stats(self) -> None:
        """Zero every counter (cache registry entries included)."""
        self.ingest.reset()
        self.conversion.reset()
        self.aggregation.reset()
        self.faults.reset()
        self.joins.reset()
        self.serving.reset()
        for stats in self.caches.values():
            stats.reset()

    def snapshot(self) -> dict[str, dict[str, float]]:
        """All counters as plain dicts (bench/report serialization)."""
        out: dict[str, dict[str, float]] = {
            "ingest": self.ingest.snapshot(),
            "conversion": self.conversion.snapshot(),
            "aggregation": self.aggregation.snapshot(),
            "faults": self.faults.snapshot(),
            "joins": self.joins.snapshot(),
            "serving": self.serving.snapshot(),
        }
        for name, stats in sorted(self.caches.items()):
            out[f"cache:{name}"] = stats.snapshot()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionContext({self.name!r}, now={self.clock.now:.6f})"


_DEFAULT = ExecutionContext(name="default")

_CURRENT: ContextVar[ExecutionContext] = ContextVar(
    "repro_execution_context", default=_DEFAULT
)


def default_context() -> ExecutionContext:
    """The process-wide default context."""
    return _DEFAULT


def current_context() -> ExecutionContext:
    """The active context (the default unless one was activated)."""
    return _CURRENT.get()


@contextmanager
def use_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Scoped activation: the context is current inside the ``with``."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)
