"""Distributed hash table for slice placement.

Section IV-A / Fig 4(d): data slices are distributed evenly onto **4096
logical shards**; each shard's space is managed by a PLog unit.  Shards are
mapped onto PLog owners (nodes) by rendezvous (highest-random-weight)
hashing, which gives the two properties the paper leans on:

* **even distribution** — every node owns ~4096/N shards;
* **minimal movement on membership change** — adding a node steals only the
  shards it now wins, so the system "scales with minimum data migration".

The winner sweep is vectorized: each owner's 4096 per-shard weights
derive from **one** blake2b digest of the owner name, expanded with a
splitmix64 mix over the shard indices as a single NumPy pass, and the
map keeps the per-owner weight vectors plus the current best weight per
shard.  Adding an owner is then one vectorized compare against the
incumbent bests (no recomputation for existing owners — the seed
re-hashed every (owner, shard) pair on every membership change), and
removing one re-runs an ``argmax`` only over the shards it owned.
"""

from __future__ import annotations

import hashlib

import numpy as np

NUM_SHARDS = 4096

#: splitmix64 constants (Steele et al.): a measured-avalanche finalizer,
#: so per-shard weights behave as independent uniform draws per owner.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def _hash64(data: str) -> int:
    return int.from_bytes(hashlib.blake2b(data.encode(), digest_size=8).digest(), "big")


def shard_of(key: str, num_shards: int = NUM_SHARDS) -> int:
    """Map a slice key to one of the logical shards."""
    return _hash64(key) % num_shards


def shards_of(keys: list[str], num_shards: int = NUM_SHARDS) -> list[int]:
    """:func:`shard_of` over many keys: one digest per key, the integer
    arithmetic in a single NumPy pass."""
    blake2b = hashlib.blake2b
    digests = b"".join(
        [blake2b(key.encode(), digest_size=8).digest() for key in keys])
    hashes = np.frombuffer(digests, dtype=">u8")
    return (hashes % np.uint64(num_shards)).tolist()


def owner_weights(owner: str, num_shards: int) -> np.ndarray:
    """All of ``owner``'s rendezvous weights in one vectorized pass.

    One blake2b digest of the owner name seeds a splitmix64 finalizer
    applied to every shard index at once — ``num_shards`` weights for
    the cost of a single cryptographic hash plus five NumPy ops.
    """
    z = np.arange(num_shards, dtype=np.uint64) + np.uint64(_hash64(owner))
    z = z + _SM64_GAMMA
    z ^= z >> np.uint64(30)
    z *= _SM64_MIX1
    z ^= z >> np.uint64(27)
    z *= _SM64_MIX2
    z ^= z >> np.uint64(31)
    return z


class ShardMap:
    """Rendezvous-hash mapping of logical shards to named owners."""

    def __init__(self, owners: list[str] | None = None,
                 num_shards: int = NUM_SHARDS) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards
        self._owners: list[str] = []
        #: per-owner weight vectors, computed once at registration
        self._weights: dict[str, np.ndarray] = {}
        #: index into ``_owners`` per shard; -1 while the map is empty
        self._assignment = np.full(num_shards, -1, dtype=np.int64)
        #: the winning owner's weight per shard (meaningless where -1)
        self._best = np.zeros(num_shards, dtype=np.uint64)
        for owner in owners or []:
            self.add_owner(owner)

    @property
    def owners(self) -> list[str]:
        return list(self._owners)

    def _winner(self, shard: int) -> str:
        return max(
            self._owners, key=lambda owner: int(self._weights[owner][shard])
        )

    def add_owner(self, owner: str) -> int:
        """Register an owner; returns how many shards moved to it.

        One vectorized compare against the incumbent best weights: the
        new owner takes exactly the shards it out-weighs (plus every
        shard while the map was empty), nothing else moves.
        """
        if owner in self._owners:
            raise ValueError(f"owner {owner!r} already registered")
        weights = owner_weights(owner, self.num_shards)
        index = len(self._owners)
        self._owners.append(owner)
        self._weights[owner] = weights
        won = (self._assignment < 0) | (weights > self._best)
        self._assignment[won] = index
        self._best[won] = weights[won]
        return int(np.count_nonzero(won))

    def remove_owner(self, owner: str) -> int:
        """Deregister an owner; returns how many shards were reassigned.

        Only the removed owner's shards re-run the winner sweep — one
        ``argmax`` over the remaining owners' cached weight vectors,
        restricted to those shard indices.
        """
        if owner not in self._owners:
            raise ValueError(f"owner {owner!r} not registered")
        index = self._owners.index(owner)
        orphaned = np.flatnonzero(self._assignment == index)
        self._owners.remove(owner)
        del self._weights[owner]
        # re-point indices at the compacted owner list
        shifted = self._assignment > index
        self._assignment[shifted] -= 1
        if not self._owners:
            self._assignment[orphaned] = -1
            self._best[orphaned] = 0
            return int(orphaned.size)
        if orphaned.size:
            stacked = np.stack(
                [self._weights[name][orphaned] for name in self._owners]
            )
            winners = stacked.argmax(axis=0)
            self._assignment[orphaned] = winners
            self._best[orphaned] = stacked[winners, np.arange(orphaned.size)]
        return int(orphaned.size)

    def owner_of(self, shard: int) -> str:
        """Owner currently responsible for ``shard``."""
        index = int(self._assignment[shard])
        if index < 0:
            raise LookupError("shard map has no owners")
        return self._owners[index]

    def owner_of_key(self, key: str) -> str:
        return self.owner_of(shard_of(key, self.num_shards))

    def owner_index_of_key(self, key: str) -> int:
        """Positional owner index for ``key`` (the parallel layer's
        worker number); cheaper than resolving the name and finding it."""
        index = int(self._assignment[shard_of(key, self.num_shards)])
        if index < 0:
            raise LookupError("shard map has no owners")
        return index

    def shards_of(self, owner: str) -> list[int]:
        if owner not in self._owners:
            return []
        index = self._owners.index(owner)
        return np.flatnonzero(self._assignment == index).tolist()

    def load(self) -> dict[str, int]:
        """Shards per owner — used to assert even distribution in tests."""
        counts = np.bincount(
            self._assignment[self._assignment >= 0],
            minlength=len(self._owners),
        )
        return {
            owner: int(counts[index])
            for index, owner in enumerate(self._owners)
        }
