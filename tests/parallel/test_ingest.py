"""The write wave vs the serial oracle, clean and torn.

The contract under test (see :mod:`repro.parallel.ingest`): every PLog
group commit is one write wave, and its width changes *only* the
simulated cost — addresses, index contents, acked keys and counters
stay bit-identical to :func:`serial_commit`, the back-to-back commit
kept here as the oracle — and a tear in any partition acks exactly the
union of per-partition durable prefixes.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import SimClock, lpt_makespan
from repro.common.context import ExecutionContext, use_context
from repro.common.units import MiB
from repro.errors import TornWriteError
from repro.parallel.ingest import _partitioner, sharded_append_batch
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy


def build_plogs(width: int = 1, mode: str = "serial") -> PLogManager:
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    manager = PLogManager(pool, clock, num_shards=64, address_space=1 * MiB)
    manager.configure_write_parallelism(width, mode)
    return manager


def make_items(count: int, seed: int = 0) -> list[tuple[str, bytes]]:
    return [
        (f"k{seed}/{i}", bytes([(seed + i) % 251]) * (512 + 37 * i))
        for i in range(count)
    ]


def serial_commit(manager, items):
    """The oracle: reserve every address, store the whole group through
    one ``store_batch`` (one counted encode), then index the keys.  A
    tear indexes the group's durable prefix and re-raises with keys."""
    placements = manager._reserve(items)
    try:
        cost = manager.pool.store_batch(
            [(address.extent_id(), payload)
             for _, payload, address in placements]
        )
    except TornWriteError as exc:
        durable = placements[: len(exc.durable)]
        manager._index_acked(durable)
        raise TornWriteError(
            "oracle commit torn",
            durable=[key for key, _, __ in durable],
            lost=[key for key, _, __ in placements[len(durable):]],
        ) from exc
    manager._index_acked(placements)
    return [address for *_, address in placements], cost


def run_oracle(items):
    """The oracle run in its own context."""
    context = ExecutionContext("oracle")
    with use_context(context):
        manager = build_plogs()
        addresses, cost = serial_commit(manager, items)
    return manager, addresses, cost, context


def assert_same_plog_state(manager, oracle):
    assert manager.appends == oracle.appends
    assert manager.bytes_appended == oracle.bytes_appended
    assert list(manager.index.scan("addr/")) == list(oracle.index.scan("addr/"))
    assert sorted(manager.pool.extent_ids()) == sorted(oracle.pool.extent_ids())


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_sharded_matches_serial_oracle(workers):
    items = make_items(48)
    oracle, oracle_addresses, oracle_cost, oracle_ctx = run_oracle(items)

    context = ExecutionContext(f"sharded-{workers}")
    with use_context(context):
        manager = build_plogs(workers)
        wave = sharded_append_batch(
            manager, items, num_workers=workers, mode="serial",
        )

    assert wave.addresses == oracle_addresses
    assert_same_plog_state(manager, oracle)
    assert context.snapshot() == oracle_ctx.snapshot()
    # the homogeneous pool makes per-extent costs placement-independent,
    # so the wave's summed cost IS the oracle's back-to-back charge
    assert wave.sim_serial_s == oracle_cost
    assert wave.sim_elapsed_s == lpt_makespan(wave.partition_costs, workers)
    if workers == 1:
        assert wave.sim_elapsed_s == oracle_cost
    else:
        assert wave.sim_elapsed_s < wave.sim_serial_s


def test_append_batch_dispatches_through_committer():
    items = make_items(48, seed=3)
    oracle, oracle_addresses, oracle_cost, oracle_ctx = run_oracle(items)

    context = ExecutionContext("dispatch")
    with use_context(context):
        manager = build_plogs(4, "serial")
        addresses, cost = manager.append_batch(items)

    assert addresses == oracle_addresses
    assert cost < oracle_cost  # makespan, not the serial sum
    assert_same_plog_state(manager, oracle)
    assert context.snapshot() == oracle_ctx.snapshot()


def test_thread_mode_matches_serial_mode():
    items = make_items(48, seed=5)
    oracle, oracle_addresses, _, oracle_ctx = run_oracle(items)

    context = ExecutionContext("threaded")
    with use_context(context):
        manager = build_plogs(8, "thread")
        addresses, _ = manager.append_batch(items)

    assert addresses == oracle_addresses
    assert_same_plog_state(manager, oracle)
    assert context.snapshot() == oracle_ctx.snapshot()


def test_configure_write_parallelism_round_trip():
    """Bad widths and modes raise at configure time, and a direct wave
    call checks them before reserving: no dead address-space holes."""
    manager = build_plogs(1)
    manager.append_batch(make_items(2, seed=7))
    before = manager.shard_utilization()
    for workers, mode in [(0, "serial"), (2, "threads"), (2, "process")]:
        with pytest.raises(ValueError):
            manager.configure_write_parallelism(workers, mode)
        with pytest.raises(ValueError):
            sharded_append_batch(manager, make_items(4, seed=9), workers,
                                 mode=mode)
        assert manager.shard_utilization() == before
    assert (manager.write_parallelism, manager.write_mode) == (1, "serial")

    manager.configure_write_parallelism(8, mode="serial")
    assert manager.write_parallelism == 8
    manager.configure_write_parallelism(1)
    items = make_items(4, seed=9)
    addresses, _ = manager.append_batch(items)
    assert len(addresses) == len(items)


def test_single_item_group_goes_serial():
    """A one-slice group is a one-partition wave: at any width it costs
    exactly what the oracle charges."""
    items = make_items(1)
    _, oracle_addresses, oracle_cost, oracle_ctx = run_oracle(items)
    context = ExecutionContext("single")
    with use_context(context):
        manager = build_plogs(8, "serial")
        addresses, cost = manager.append_batch(items)
    assert addresses == oracle_addresses
    assert cost == oracle_cost
    assert context.snapshot() == oracle_ctx.snapshot()
    assert manager.append_batch([]) == ([], 0.0)


def test_process_mode_rejected():
    manager = build_plogs(1)
    with pytest.raises(ValueError, match="process"):
        sharded_append_batch(manager, make_items(4), 2, mode="process")


def test_width_one_tear_matches_serial_oracle():
    """At width 1 a torn wave acks the group's durable prefix, exactly
    like the oracle's single ``store_batch``."""
    items = make_items(12, seed=13)
    outcomes = []
    for commit in (serial_commit, PLogManager.append_batch):
        context = ExecutionContext("tear")
        with use_context(context):
            manager = build_plogs(1)
            manager.pool.arm_torn_commit(5)
            with pytest.raises(TornWriteError) as info:
                commit(manager, items)
        outcomes.append((info.value.durable, info.value.lost,
                         list(manager.index.scan("addr/")),
                         context.snapshot()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == [key for key, _ in items[:5]]


def expected_tear_outcome(items, workers, armings):
    """Model the per-partition FIFO arming consumption (serial mode).

    Returns (acked positions in input order, partitions that tore).
    Non-empty partitions run in worker order; each pops one arming.
    """
    buckets = _partitioner(workers).partition([key for key, _ in items])
    work = [positions for positions in buckets if positions]
    queue = list(armings)
    acked: list[int] = []
    tears = 0
    for positions in work:
        tear_after = queue.pop(0) if queue else None
        if tear_after is not None and tear_after < len(positions):
            acked.extend(positions[:tear_after])
            tears += 1
        else:
            acked.extend(positions)
    return sorted(acked), tears


def test_partition_tear_leaves_other_partitions_acked():
    """Partition k tears while k+1 succeeds: no cross-partition false
    acks, no cross-partition lost acks."""
    items = make_items(40, seed=11)
    workers = 4
    armings = [1]  # first wave tears after one extent; the rest run clean
    acked_positions, tears = expected_tear_outcome(items, workers, armings)
    assert tears == 1 and 0 < len(acked_positions) < len(items)

    context = ExecutionContext("torn")
    with use_context(context):
        manager = build_plogs(workers, "serial")
        for arming in armings:
            manager.pool.arm_torn_commit(arming)
        with pytest.raises(TornWriteError) as info:
            manager.append_batch(items)

    expected_acked = [items[p][0] for p in acked_positions]
    assert info.value.durable == expected_acked
    assert sorted(info.value.lost) == sorted(
        items[p][0] for p in range(len(items))
        if p not in set(acked_positions)
    )
    # exactly the acked keys were indexed, through the shared bookkeeping
    indexed = [key for key, _ in manager.index.scan("addr/")]
    assert sorted(indexed) == sorted(f"addr/{k}" for k in expected_acked)
    assert manager.appends == len(expected_acked)
    assert context.ingest.plog_appends_acked == len(expected_acked)
    assert context.faults.torn_commits == tears


def test_thread_waves_share_the_callers_counters():
    """Thread partitions write into the caller's context, not into forks:
    under a tiny switch interval every torn partition still counts once.
    Every arming tears after one extent, so which partition pops which
    arming does not change the outcome."""
    items = make_items(64, seed=17)
    workers = 8
    armings = [1] * workers
    acked_positions, tears = expected_tear_outcome(items, workers, armings)
    assert tears > 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            context = ExecutionContext("stress")
            with use_context(context):
                manager = build_plogs(workers, "thread")
                for arming in armings:
                    manager.pool.arm_torn_commit(arming)
                with pytest.raises(TornWriteError) as info:
                    manager.append_batch(items)
            assert info.value.durable == [items[p][0] for p in acked_positions]
            assert context.faults.torn_commits == tears
            assert context.ingest.plog_appends_acked == len(acked_positions)
            assert context.ingest.ec_encode_calls == 1
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 32),
    seed=st.integers(0, 255),
    workers=st.sampled_from([1, 2, 4, 8]),
    armings=st.lists(st.integers(0, 12), min_size=1, max_size=8),
)
def test_torn_sharded_commit_acks_union_of_prefixes(
    count, seed, workers, armings
):
    """Hypothesis pin for the acked-set law: global acked set == union
    of per-partition durable prefixes, torn counters merge exactly."""
    items = make_items(count, seed=seed)
    acked_positions, tears = expected_tear_outcome(items, workers, armings)

    context = ExecutionContext("hyp-torn")
    with use_context(context):
        manager = build_plogs(workers, "serial")
        for arming in armings:
            manager.pool.arm_torn_commit(arming)
        if tears:
            with pytest.raises(TornWriteError) as info:
                manager.append_batch(items)
            durable = info.value.durable
        else:
            addresses, _ = manager.append_batch(items)
            assert len(addresses) == len(items)
            durable = [key for key, _ in items]

    assert durable == [items[p][0] for p in acked_positions]
    assert manager.appends == len(acked_positions)
    assert context.ingest.plog_appends_acked == len(acked_positions)
    assert context.faults.torn_commits == tears
    # every acked payload reads back byte-identical; lost keys are gone
    acked_set = set(durable)
    for position, (key, payload) in enumerate(items):
        if key in acked_set:
            data, _ = manager.read_key(key)
            assert data == payload
        else:
            assert manager.index.get(f"addr/{key}") is None
