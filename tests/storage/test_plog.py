"""Unit tests for persistence logs."""

import pytest

from repro.common.clock import SimClock
from repro.common.units import MiB
from repro.errors import ObjectNotFoundError
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.plog import PLOG_ADDRESS_SPACE, PLogManager, PLogUnit
from repro.storage.pool import StoragePool
from repro.storage.replication import Replication


@pytest.fixture
def manager():
    clock = SimClock()
    pool = StoragePool("p", clock, policy=Replication(2))
    pool.add_disks(NVME_SSD_PROFILE, 3)
    return PLogManager(pool, clock, num_shards=64, address_space=1 * MiB)


def test_address_space_default_is_128mb():
    assert PLOG_ADDRESS_SPACE == 128 * MiB  # per the paper, Section IV-A


def test_unit_reserve_and_seal():
    unit = PLogUnit(shard=3, generation=0, address_space=100)
    assert unit.reserve(60) == 0
    assert unit.reserve(40) == 60
    assert unit.reserve(1) is None  # full
    unit.seal()
    assert unit.sealed


def append(manager, key, payload):
    """A one-item group commit: (address, sim seconds)."""
    addresses, cost = manager.append_batch([(key, payload)])
    return addresses[0], cost


def test_append_read_roundtrip(manager):
    address, cost = append(manager, "stream/a", b"hello")
    assert cost > 0
    assert manager.read(address)[0] == b"hello"


def test_read_by_key(manager):
    manager.append_batch([("stream/a", b"payload-a"),
                          ("stream/b", b"payload-b")])
    assert manager.read_key("stream/a")[0] == b"payload-a"
    assert manager.read_key("stream/b")[0] == b"payload-b"


def test_read_unknown_key_raises(manager):
    with pytest.raises(ObjectNotFoundError):
        manager.read_key("ghost")


def test_delete_key(manager):
    append(manager, "stream/a", b"x")
    manager.delete_key("stream/a")
    with pytest.raises(ObjectNotFoundError):
        manager.read_key("stream/a")


def test_delete_unknown_raises(manager):
    with pytest.raises(ObjectNotFoundError):
        manager.delete_key("ghost")


def test_generation_rollover(manager):
    """Filling a shard's 1 MiB address space opens the next generation."""
    big = b"z" * (600 * 1024)
    first, _ = append(manager, "same-shard-key", big)
    # force the same shard by reusing the key (same hash)
    second, _ = append(manager, "same-shard-key", big)
    assert first.shard == second.shard
    assert second.generation == first.generation + 1
    assert manager.read(first)[0] == big
    assert manager.read(second)[0] == big


def test_oversized_payload_raises(manager):
    with pytest.raises(ValueError):
        append(manager, "k", b"z" * (2 * MiB))


def test_rejected_oversized_payload_keeps_the_active_unit(manager):
    """An oversized payload is refused before it touches the shard's
    active unit: the next append still fills generation 0."""
    first, _ = append(manager, "k", b"a" * 100)
    with pytest.raises(ValueError):
        append(manager, "k", b"z" * (2 * MiB))
    after, _ = append(manager, "k", b"b" * 100)
    assert (after.generation, after.offset) == (0, 100)
    assert after.shard == first.shard


def test_group_with_oversized_member_reserves_nothing(manager):
    """Every member is checked before any address is reserved, so a
    rejected group leaves every shard's address space untouched."""
    append(manager, "k", b"a" * 100)
    before = manager.shard_utilization()
    with pytest.raises(ValueError):
        manager.append_batch([(f"m{i}", b"x" * 50) for i in range(8)]
                             + [("k", b"z" * (2 * MiB))])
    assert manager.shard_utilization() == before
    after, _ = append(manager, "k", b"b" * 100)
    assert (after.generation, after.offset) == (0, 100)


def test_counters(manager):
    append(manager, "a", b"12")
    append(manager, "b", b"345")
    assert manager.appends == 2
    assert manager.bytes_appended == 5


def test_shard_utilization(manager):
    append(manager, "a", b"x" * 1000)
    utilization = manager.shard_utilization()
    assert utilization
    assert all(0 < value <= 1 for value in utilization.values())


def test_keys_spread_over_shards(manager):
    addresses, _ = manager.append_batch(
        [(f"key-{i}", b"x") for i in range(200)]
    )
    assert len({address.shard for address in addresses}) > 30  # even spread
