"""Execution contexts: per-shard counter routing and the process default."""

import threading

import pytest

from repro.cache.hierarchy import default_hierarchy
from repro.common import context as context_module
from repro.common import stats
from repro.common.context import (
    CacheConfig,
    ExecutionContext,
    current_context,
    default_context,
    use_context,
)


def test_default_context_routes_the_accessors():
    """Outside any ``use_context`` the accessors resolve to the default
    context's own counters; no module-level counter instance exists."""
    context = default_context()
    assert current_context() is context
    assert stats.ingest_stats() is context.ingest
    assert stats.conversion_stats() is context.conversion
    assert stats.aggregation_stats() is context.aggregation
    assert stats.fault_stats() is context.faults
    assert stats.join_stats() is context.joins
    assert stats.serving_stats() is context.serving
    assert stats.cache_stats("ctx.test_cache") is context.caches["ctx.test_cache"]
    for name in ("INGEST", "CONVERSION", "AGGREGATION", "FAULTS", "CACHES"):
        assert not hasattr(stats, name)
    assert not hasattr(context_module, "activate_context")
    assert not hasattr(context, "chunk_cache_capacity")
    assert not hasattr(context, "chunk_cache")
    with pytest.raises(TypeError):
        ExecutionContext(name="legacy", ingest=stats.IngestStats())


def test_use_context_isolates_counters():
    context = ExecutionContext(name="iso")
    baseline = stats.ingest_stats().slices_sealed
    with use_context(context):
        assert current_context() is context
        stats.ingest_stats().slices_sealed += 7
    assert context.ingest.slices_sealed == 7
    assert stats.ingest_stats().slices_sealed == baseline
    assert current_context() is default_context()


def test_context_is_thread_local():
    """A context activated in one thread never leaks into another."""
    context = ExecutionContext(name="thread-a")
    seen: list[ExecutionContext] = []

    def worker():
        seen.append(current_context())

    with use_context(context):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen == [default_context()]


def test_fork_starts_zeroed_and_merges_back():
    parent = ExecutionContext(name="parent")
    parent.ingest.slices_sealed = 3
    parent.clock.advance(10.0)
    child = parent.fork("child")
    assert child.ingest.slices_sealed == 0
    assert child.clock.now == parent.clock.now
    child.ingest.slices_sealed = 5
    child.cache_stats("c").record_hit(2)
    parent.merge(child)
    assert parent.ingest.slices_sealed == 8
    assert parent.cache_stats("c").hits == 2


def test_merge_does_not_touch_clock():
    parent = ExecutionContext(name="p")
    child = parent.fork("c")
    child.clock.advance(99.0)
    parent.merge(child)
    assert parent.clock.now == 0.0  # driver charges makespan explicitly


def test_fork_rng_deterministic():
    a = ExecutionContext(name="a")
    b = ExecutionContext(name="b")
    a.rng.seed(42)
    b.rng.seed(42)
    fa = a.fork("f")
    fb = b.fork("f")
    assert [fa.rng.random() for _ in range(3)] == [
        fb.rng.random() for _ in range(3)
    ]


def test_chunk_cache_is_per_context():
    one = ExecutionContext(
        name="one", cache_config=CacheConfig(chunk_capacity_bytes=8)
    )
    two = ExecutionContext(name="two")
    cache_one = default_hierarchy(one).chunks
    cache_two = default_hierarchy(two).chunks
    assert cache_one is not cache_two
    assert cache_one.capacity_bytes == 8
    assert default_hierarchy(one).chunks is cache_one  # memoized per context
    with use_context(one):
        assert default_hierarchy().chunks is cache_one  # ambient resolution


def test_reset_stats_clears_every_counter():
    context = ExecutionContext(name="r")
    context.ingest.slices_sealed = 1
    context.cache_stats("x").record_miss()
    context.reset_stats()
    assert context.ingest.slices_sealed == 0
    assert context.cache_stats("x").misses == 0
