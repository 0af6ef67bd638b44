"""Unit and property tests for the shard map / DHT."""

import pytest
from hypothesis import given, strategies as st

from repro.storage.dht import NUM_SHARDS, ShardMap, shard_of, shards_of


def test_default_shard_count_is_4096():
    assert NUM_SHARDS == 4096  # the paper's shard count (Fig 4(d))


def test_shard_of_is_stable():
    assert shard_of("topic/0/slice/5") == shard_of("topic/0/slice/5")


def test_shard_of_in_range():
    for key in ("a", "b", "topic/1", ""):
        assert 0 <= shard_of(key) < NUM_SHARDS


@given(keys=st.lists(st.text(max_size=20), max_size=40),
       num_shards=st.integers(min_value=1, max_value=2**40))
def test_shards_of_equals_shard_of_per_key(keys, num_shards):
    """The batch form is exact 64-bit integer arithmetic, not float."""
    assert shards_of(keys, num_shards) == [
        shard_of(key, num_shards) for key in keys]
    assert shards_of(keys) == [shard_of(key) for key in keys]


def test_even_distribution():
    """Slices distribute evenly across shards (Fig 4(d))."""
    counts = [0] * 64
    for i in range(64_000):
        counts[shard_of(f"key-{i}", 64)] += 1
    assert max(counts) < 1.25 * min(counts)


def test_owner_assignment_even():
    shard_map = ShardMap(["n1", "n2", "n3", "n4"])
    load = shard_map.load()
    assert sum(load.values()) == NUM_SHARDS
    assert max(load.values()) < 1.3 * min(load.values())


def test_add_owner_moves_only_its_share():
    shard_map = ShardMap(["n1", "n2", "n3"])
    moved = shard_map.add_owner("n4")
    # rendezvous hashing: the new owner steals ~1/4 of shards, nothing else
    assert moved == shard_map.load()["n4"]
    assert moved < NUM_SHARDS / 3


def test_remove_owner_reassigns_only_its_shards():
    shard_map = ShardMap(["n1", "n2", "n3"])
    before = shard_map.load()
    moved = shard_map.remove_owner("n2")
    assert moved == before["n2"]
    assert "n2" not in shard_map.load()


def test_membership_change_keeps_most_assignments():
    shard_map = ShardMap(["n1", "n2", "n3"])
    before = [shard_map.owner_of(s) for s in range(NUM_SHARDS)]
    shard_map.add_owner("n4")
    after = [shard_map.owner_of(s) for s in range(NUM_SHARDS)]
    unchanged = sum(1 for b, a in zip(before, after) if b == a)
    assert unchanged > 0.7 * NUM_SHARDS  # "minimum data migration"


def test_duplicate_owner_raises():
    shard_map = ShardMap(["n1"])
    with pytest.raises(ValueError):
        shard_map.add_owner("n1")


def test_remove_unknown_owner_raises():
    shard_map = ShardMap(["n1"])
    with pytest.raises(ValueError):
        shard_map.remove_owner("nx")


def test_empty_map_lookup_raises():
    shard_map = ShardMap(num_shards=16)
    with pytest.raises(LookupError):
        shard_map.owner_of(0)


def test_owner_of_key_consistent_with_shard():
    shard_map = ShardMap(["n1", "n2"], num_shards=128)
    key = "stream/7"
    assert shard_map.owner_of_key(key) == shard_map.owner_of(
        shard_of(key, 128)
    )


def test_shards_of_partition_the_space():
    shard_map = ShardMap(["a", "b", "c"], num_shards=256)
    all_shards = sorted(
        s for owner in shard_map.owners for s in shard_map.shards_of(owner)
    )
    assert all_shards == list(range(256))


@given(st.text(min_size=1, max_size=30))
def test_every_key_routable(key):
    shard_map = ShardMap(["n1", "n2", "n3"], num_shards=64)
    assert shard_map.owner_of_key(key) in {"n1", "n2", "n3"}


def test_add_owner_moves_only_to_newcomer():
    """Exact minimal movement: every shard that moves goes to the new owner."""
    shard_map = ShardMap(["n1", "n2", "n3"], num_shards=512)
    before = {s: shard_map.owner_of(s) for s in range(512)}
    moved = shard_map.add_owner("n4")
    after = {s: shard_map.owner_of(s) for s in range(512)}
    changed = {s for s in range(512) if before[s] != after[s]}
    assert len(changed) == moved
    assert all(after[s] == "n4" for s in changed)


def test_remove_then_readd_restores_assignment():
    """Weights are pure functions of (owner, shard): membership round-trips."""
    shard_map = ShardMap(["a", "b", "c", "d"], num_shards=256)
    before = {s: shard_map.owner_of(s) for s in range(256)}
    shard_map.remove_owner("c")
    shard_map.add_owner("c")
    assert {s: shard_map.owner_of(s) for s in range(256)} == before


def test_owner_index_of_key_matches_name_lookup():
    shard_map = ShardMap(["w0", "w1", "w2"], num_shards=128)
    for key in ("files/a", "files/b", "files/c", ""):
        index = shard_map.owner_index_of_key(key)
        assert shard_map.owners[index] == shard_map.owner_of_key(key)


def test_owner_index_of_key_empty_map_raises():
    with pytest.raises(LookupError):
        ShardMap(num_shards=16).owner_index_of_key("k")


def test_vectorized_weights_match_per_shard_winner():
    """The cached-weights argmax agrees with a from-scratch rebuild."""
    owners = ["alpha", "beta", "gamma", "delta", "epsilon"]
    incremental = ShardMap(owners[:3], num_shards=128)
    incremental.add_owner(owners[3])
    incremental.add_owner(owners[4])
    incremental.remove_owner("beta")
    rebuilt = ShardMap(
        [o for o in owners if o != "beta"], num_shards=128
    )
    assert all(
        incremental.owner_of(s) == rebuilt.owner_of(s) for s in range(128)
    )
