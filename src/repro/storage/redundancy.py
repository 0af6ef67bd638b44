"""Common interface for data redundancy strategies.

A :class:`RedundancyPolicy` turns one logical payload into the fragments
stored on distinct disks, and back.  Two implementations exist:

* :class:`~repro.storage.replication.Replication` — N identical copies
  (HDFS-style, tolerates N-1 losses at N x space);
* erasure coding via :func:`erasure_coding_policy` — RS(k+m) (tolerates m
  losses at (k+m)/k x space).

Fig 14(d) compares exactly these two families, so the interface exposes
``storage_overhead`` and ``fault_tolerance`` for the bench to sweep.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class RedundancyPolicy(ABC):
    """Strategy converting payloads to/from redundant fragments."""

    #: number of fragments produced per payload
    width: int
    #: simultaneous fragment losses tolerated without data loss
    fault_tolerance: int
    #: stored bytes per user byte (>= 1.0)
    storage_overhead: float

    @abstractmethod
    def fragment(self, payload: bytes) -> list[bytes]:
        """Split/copy ``payload`` into ``width`` fragments."""

    def fragment_batch(self, payloads: list[bytes], *,
                       counted: bool = True) -> list[list[bytes]]:
        """Fragment many payloads at once (group commit).

        The default just loops; policies with per-call setup cost (erasure
        coding) override this to amortize it across the batch.
        ``counted=False`` defers the policy's stats charge to a later
        :meth:`count_fragment_batch` call — the write wave encodes per
        partition and charges once per group commit, so the counters do
        not depend on its width.
        """
        del counted  # replication charges no encode counters
        return [self.fragment(payload) for payload in payloads]

    def count_fragment_batch(self, payload_count: int) -> None:
        """Charge the counters one counted :meth:`fragment_batch` of
        ``payload_count`` payloads would have charged (no-op for policies
        without encode counters)."""

    @abstractmethod
    def assemble(self, fragments: list[bytes | None], length: int) -> bytes:
        """Recover the payload from surviving fragments (None = lost)."""

    @abstractmethod
    def repair(self, fragments: list[bytes | None], index: int,
               length: int) -> bytes:
        """Rebuild the fragment at ``index`` from the survivors."""

    def describe(self) -> str:
        return (
            f"{type(self).__name__}(width={self.width}, "
            f"ft={self.fault_tolerance}, overhead={self.storage_overhead:.2f}x)"
        )


def erasure_coding_policy(data_shards: int, parity_shards: int) -> RedundancyPolicy:
    """Build an RS-based policy (import-cycle-free factory)."""
    from repro.storage.ec import ReedSolomon
    from repro.errors import UnrecoverableDataError

    class _ECPolicy(RedundancyPolicy):
        def __init__(self) -> None:
            self._codec = ReedSolomon(data_shards, parity_shards)
            self.width = data_shards + parity_shards
            self.fault_tolerance = parity_shards
            self.storage_overhead = self._codec.storage_overhead

        def fragment(self, payload: bytes) -> list[bytes]:
            return self._codec.encode(payload)

        def fragment_batch(self, payloads: list[bytes], *,
                           counted: bool = True) -> list[list[bytes]]:
            return self._codec.encode_batch(payloads, counted=counted)

        def count_fragment_batch(self, payload_count: int) -> None:
            self._codec.count_batch_encode(payload_count)

        def assemble(self, fragments: list[bytes | None], length: int) -> bytes:
            return self._codec.decode(fragments, length)

        def repair(self, fragments: list[bytes | None], index: int,
                   length: int) -> bytes:
            if all(f is None for f in fragments):
                raise UnrecoverableDataError(
                    "no surviving fragments",
                    failed_shards=list(range(len(fragments))),
                )
            return self._codec.reconstruct_shard(fragments, index, length)

    return _ECPolicy()
