"""The cache hierarchy's tiers wired through the table read path.

What the hierarchy must buy (and must not break):

* a warm scan is served entirely from the block tier — zero storage-pool
  extent reads, cheaper simulated time, identical rows;
* warm footer-answerable aggregates never touch the pool *or* the block
  tier (the metadata fast path is zero-IO);
* physical deletions (snapshot expiry, hard drop) invalidate cached
  entries; logical operations (update, time travel) never do;
* per-context hierarchies fork/merge like every other counter family;
* the LakeBrain prefetcher promotes predicted-hot files at background
  bus priority so the next scan starts warm.
"""

from __future__ import annotations

import random

from repro.cache.hierarchy import CacheHierarchy, default_hierarchy
from repro.cache.prefetch import LakeBrainPrefetcher
from repro.common.clock import SimClock
from repro.common.context import CacheConfig, ExecutionContext, use_context
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.table.columnar import ColumnarFile
from repro.table.expr import Predicate
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.pushdown import AggregateSpec
from repro.table.schema import PartitionSpec, Schema
from repro.table.table import Lakehouse, QueryStats

SCHEMA = Schema.from_dict({"user": "string", "value": "int64"})


def _stack(context: ExecutionContext, batches: int = 3,
           rows_per_batch: int = 300):
    """One full lakehouse stack living inside ``context``."""
    with use_context(context):
        clock = SimClock()
        pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
        pool.add_disks(NVME_SSD_PROFILE, 8)
        bus = DataBus(clock)
        lake = Lakehouse(
            pool, bus, clock,
            meta_store=AcceleratedMetadataStore(
                KVEngine("meta", clock), pool, clock
            ),
            context=context,
        )
        table = lake.create_table("t", SCHEMA, PartitionSpec())
        rng = random.Random(11)
        for _ in range(batches):
            table.insert([
                {"user": f"u{rng.randrange(6)}", "value": rng.randrange(1000)}
                for _ in range(rows_per_batch)
            ])
    return lake, table, pool, clock


def test_warm_scan_is_served_from_block_tier():
    context = ExecutionContext(name="warm-scan")
    _, table, pool, _ = _stack(context)
    with use_context(context):
        cold_stats = QueryStats()
        cold = table.select(stats=cold_stats)
        reads_after_cold = pool.stats.extents_read
        warm_stats = QueryStats()
        warm = table.select(stats=warm_stats)
    assert warm == cold
    assert pool.stats.extents_read == reads_after_cold  # zero pool reads
    assert cold_stats.block_cache_misses == cold_stats.files_scanned > 0
    assert warm_stats.block_cache_hits == warm_stats.files_scanned
    assert warm_stats.block_cache_misses == 0
    assert warm_stats.footer_cache_hits == warm_stats.files_scanned
    assert warm_stats.data_cost_s < cold_stats.data_cost_s


def test_warm_footer_aggregate_is_zero_io():
    context = ExecutionContext(name="warm-footer")
    _, table, pool, _ = _stack(context)
    specs = [AggregateSpec("COUNT", None), AggregateSpec("MAX", "value")]
    with use_context(context):
        cold_stats = QueryStats()
        cold = table.select(aggregate=specs, stats=cold_stats)
        reads_after_cold = pool.stats.extents_read
        block_lookups = (table.cache_hierarchy.blocks.stats.hits
                         + table.cache_hierarchy.blocks.stats.misses)
        warm_stats = QueryStats()
        warm = table.select(aggregate=specs, stats=warm_stats)
    assert warm == cold
    assert pool.stats.extents_read == reads_after_cold
    # footer hits short-circuit before the block tier: zero-IO, zero-decode
    assert (table.cache_hierarchy.blocks.stats.hits
            + table.cache_hierarchy.blocks.stats.misses) == block_lookups
    assert warm_stats.footer_cache_hits == warm_stats.files_scanned > 0
    assert warm_stats.block_cache_hits == warm_stats.block_cache_misses == 0
    assert cold_stats.footer_cache_misses == cold_stats.files_scanned


def test_snapshot_expiry_invalidates_dead_paths():
    context = ExecutionContext(name="expiry")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        table.select()  # warm every live file
        hierarchy = table.cache_hierarchy
        doomed = [meta.path for meta in table.snapshots.live_files()]
        assert all(hierarchy.contains_payload(pool, p) for p in doomed)
        table.delete(Predicate("value", ">=", 0))  # logical: cache keeps all
        assert all(hierarchy.contains_payload(pool, p) for p in doomed)
        clock.advance(1.0)
        table.expire_snapshots(older_than=clock.now)  # physical deletion
    assert not any(hierarchy.contains_payload(pool, p) for p in doomed)


def test_hard_drop_invalidates():
    context = ExecutionContext(name="drop")
    lake, table, pool, _ = _stack(context)
    with use_context(context):
        table.select()
        paths = [meta.path for meta in table.snapshots.live_files()]
        hierarchy = table.cache_hierarchy
        assert all(hierarchy.contains_payload(pool, p) for p in paths)
        lake.drop_table_hard("t")
    assert not any(hierarchy.contains_payload(pool, p) for p in paths)


def test_time_travel_reads_from_cache_after_update():
    context = ExecutionContext(name="time-travel")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        before = table.select()  # warms the pre-update files
        as_of = clock.now
        table.update(Predicate("value", "<", 500), {"user": "rewritten"})
        reads = pool.stats.extents_read
        travelled = table.select(as_of=as_of)
    assert travelled == before
    # the replaced files are only logically dead: time travel is all hits
    assert pool.stats.extents_read == reads


def test_distinct_pools_never_alias_paths():
    context = ExecutionContext(name="alias")
    with use_context(context):
        clock = SimClock()
        pool_a = StoragePool("a", clock, policy=erasure_coding_policy(4, 2))
        pool_a.add_disks(NVME_SSD_PROFILE, 8)
        pool_b = StoragePool("b", clock, policy=erasure_coding_policy(4, 2))
        pool_b.add_disks(NVME_SSD_PROFILE, 8)
        for pool, user in ((pool_a, "alpha"), (pool_b, "beta")):
            pool.store("same/path", ColumnarFile.from_columns(
                SCHEMA, {"user": [user] * 100, "value": [1] * 100}, 100
            ).to_bytes())
        hierarchy = CacheHierarchy(context=context)
        file_a, _ = hierarchy.load_file(pool_a, "same/path")
        file_b, _ = hierarchy.load_file(pool_b, "same/path")
        footer_a, _ = hierarchy.load_footer(pool_a, "same/path")
        footer_b, _ = hierarchy.load_footer(pool_b, "same/path")
    assert file_a.scan(columns=["user"]) == [{"user": "alpha"}] * 100
    assert file_b.scan(columns=["user"]) == [{"user": "beta"}] * 100
    assert footer_a is file_a.footer and footer_b is file_b.footer
    assert hierarchy.blocks.stats.misses == hierarchy.footers.stats.misses == 2


#: one read sequence over four small files and tiers that hold two or
#: three entries; the counts are the ones the payload-holding block tier
#: produced, so opening files once moved no hit, miss or eviction
SCRIPT = ("file f0", "file f1", "file f0", "footer f2", "file f2",
          "file f3", "footer f0", "file f1", "invalidate f1", "file f1",
          "admit f3", "admit f2", "footer f3", "file f2", "footer f1",
          "file f0", "file f0", "invalidate f3", "footer f3", "file f3",
          "file f1")
#: ((block hits, misses, evictions), (footer hits, misses, evictions)).
#: "admit f3" and "admit f2" admit ghosts, which enter T2 like any ghost
#: key; that keeps f2 resident for the later "file f2".
SCRIPT_COUNTS = ((5, 9, 8), (9, 8, 6))


def test_scripted_tier_sequence_counts():
    context = ExecutionContext(name="script")
    with use_context(context):
        pool = StoragePool("ssd", SimClock(),
                           policy=erasure_coding_policy(4, 2))
        pool.add_disks(NVME_SSD_PROFILE, 8)
        payloads = {}
        for n, rows in enumerate((40, 90, 160, 250)):
            payloads[f"f{n}"] = ColumnarFile.from_columns(SCHEMA, {
                "user": [f"u{i % (n + 2)}" for i in range(rows)],
                "value": [i * (n + 1) for i in range(rows)],
            }, rows).to_bytes()
            pool.store(f"f{n}", payloads[f"f{n}"])
        hierarchy = CacheHierarchy(CacheConfig(
            block_capacity_bytes=1000, footer_capacity_bytes=560,
        ))
        opened = []
        for step in SCRIPT:
            op, path = step.split()
            if op == "file":
                opened.append(hierarchy.load_file(pool, path))
            elif op == "footer":
                hierarchy.load_footer(pool, path)
            elif op == "admit":
                hierarchy.admit(pool, path, payloads[path])
            else:
                hierarchy.invalidate(pool, path)
    blocks, footers = hierarchy.blocks.stats, hierarchy.footers.stats
    assert ((blocks.hits, blocks.misses, blocks.evictions),
            (footers.hits, footers.misses, footers.evictions)
            ) == SCRIPT_COUNTS
    # the back-to-back loads of f0: a miss opens it, the hit hands back
    # that very file
    (first, first_cost), (second, second_cost) = opened[-4:-2]
    assert second is first and first_cost > 0.0 == second_cost
    assert first.scan(columns=["value"]) == [
        {"value": i} for i in range(40)
    ]


def test_hierarchy_config_is_per_context():
    context = ExecutionContext(name="config")
    context.configure_caches(block_capacity_bytes=1 << 20,
                             chunk_capacity_bytes=1 << 10)
    with use_context(context):
        hierarchy = default_hierarchy()
        assert hierarchy is context.cache_hierarchy
        assert hierarchy.blocks.capacity_bytes == 1 << 20
        assert hierarchy.chunks.capacity_bytes == 1 << 10
    other = ExecutionContext(name="other")
    with use_context(other):
        assert default_hierarchy().blocks.capacity_bytes == (
            CacheConfig().block_capacity_bytes)


def test_tier_counters_fork_and_merge():
    parent = ExecutionContext(name="parent")
    child = parent.fork("child")
    child.cache_stats("table.block_cache").record_hit(3)
    child.cache_stats("table.footer_cache").record_miss(2)
    parent.merge(child)
    assert parent.cache_stats("table.block_cache").hits == 3
    assert parent.cache_stats("table.footer_cache").misses == 2
    snapshot = parent.snapshot()
    assert snapshot["cache:table.block_cache"]["hits"] == 3
    assert snapshot["cache:table.footer_cache"]["misses"] == 2


# --- LakeBrain prefetch -------------------------------------------------------


def test_prefetcher_promotes_tracked_hot_files():
    context = ExecutionContext(name="prefetch")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        table.select()  # records an access per file in the tracker
        hierarchy = table.cache_hierarchy
        # go cold without losing the access history
        hierarchy.blocks.clear()
        hierarchy.footers.clear()
        prefetcher = LakeBrainPrefetcher(
            hierarchy, table.bus, clock, top_k=8
        )
        live = [meta.path for meta in table.snapshots.live_files()]
        promoted = prefetcher.run_cycle(pool, live)
        assert sorted(promoted) == sorted(live)
        assert prefetcher.files_prefetched == len(live)
        assert prefetcher.bytes_prefetched > 0
        # promotion rides the bus at background priority
        completions = table.bus.drain_queue()
        assert len(completions) == len(live)
        assert all(desc.startswith("prefetch ") for desc, _ in completions)
        # the prefetched scan is fully warm: zero pool reads
        reads = pool.stats.extents_read
        stats = QueryStats()
        table.select(stats=stats)
        assert pool.stats.extents_read == reads
        assert stats.block_cache_hits == stats.files_scanned
        # second cycle: everything resident, nothing to promote
        assert prefetcher.run_cycle(pool, live) == []


def test_prefetcher_hint_marks_files_hot():
    context = ExecutionContext(name="hint")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        hierarchy = table.cache_hierarchy
        prefetcher = LakeBrainPrefetcher(hierarchy, table.bus, clock)
        live = sorted(meta.path for meta in table.snapshots.live_files())
        assert prefetcher.run_cycle(pool, live) == []  # nothing tracked yet
        prefetcher.hint(pool, live[:2])
        promoted = prefetcher.run_cycle(pool, live)
    assert sorted(promoted) == live[:2]
    assert all(hierarchy.contains_payload(pool, path) for path in live[:2])
    assert not hierarchy.contains_payload(pool, live[2])


def test_prefetcher_respects_top_k():
    context = ExecutionContext(name="topk")
    _, table, pool, clock = _stack(context)
    with use_context(context):
        table.select()
        hierarchy = table.cache_hierarchy
        hierarchy.blocks.clear()
        hierarchy.footers.clear()
        prefetcher = LakeBrainPrefetcher(
            hierarchy, table.bus, clock, top_k=1
        )
        live = [meta.path for meta in table.snapshots.live_files()]
        assert len(prefetcher.run_cycle(pool, live)) == 1
