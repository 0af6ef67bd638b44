"""Stream workers: the serving tier between clients and stream objects.

Section V-A: each worker handles multiple streams through a single stream
object client; workers unwrap client messages, wrap them in the stream
object format and push them over the RDMA data bus.  A local cache at the
stream object client speeds up message consumption, and an optional SCM
cache (topic config ``scm_cache``) absorbs re-reads.

Quota enforcement (topic config ``quota``) is a token bucket per stream
refilled from simulated time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.common.clock import SimClock
from repro.errors import QuotaExceededError
from repro.storage.bus import DataBus
from repro.storage.scm import SCMCache
from repro.stream.object import ReadControl, StreamObject
from repro.stream.records import (
    MessageRecord,
    PackedRecordBatch,
    decode_records,
    encode_records,
)

#: per-record CPU in the worker: unwrap client messages, encapsulate them
#: in the stream object data format (Section V-A)
WORKER_CPU_PER_MSG_S = 0.9e-6

#: C-level size summation for wire-byte accounting on hot paths
_size_of = operator.attrgetter("size_bytes")


@dataclass
class _TokenBucket:
    """msgs/second quota; refilled lazily from the simulated clock."""

    rate: float
    tokens: float
    last_refill: float

    def take(self, amount: int, now: float) -> None:
        self.tokens = min(
            self.rate, self.tokens + (now - self.last_refill) * self.rate
        )
        self.last_refill = now
        if amount > self.tokens:
            raise QuotaExceededError(
                f"quota {self.rate:.0f} msg/s exceeded: wanted {amount}, "
                f"have {self.tokens:.0f} tokens"
            )
        self.tokens -= amount


class StreamWorker:
    """Serves produce/consume for the streams assigned to it."""

    def __init__(self, worker_id: str, bus: DataBus, clock: SimClock,
                 scm_cache: SCMCache | None = None) -> None:
        self.worker_id = worker_id
        self._bus = bus
        self._clock = clock
        self._scm = scm_cache
        self._streams: dict[str, StreamObject] = {}
        self._quotas: dict[str, _TokenBucket] = {}
        #: stream id -> {offset: records read from it}; indexed by stream
        #: so a write drops that stream's entries in one step
        self._read_cache: dict[str, dict[int, list[MessageRecord]]] = {}
        self.healthy = True
        self.messages_in = 0
        self.messages_out = 0

    # --- stream management -------------------------------------------------

    def attach_stream(self, stream_id: str, obj: StreamObject,
                      quota_msgs_per_s: float | None = None) -> None:
        self._streams[stream_id] = obj
        if quota_msgs_per_s:
            self._quotas[stream_id] = _TokenBucket(
                rate=quota_msgs_per_s,
                tokens=quota_msgs_per_s,
                last_refill=self._clock.now,
            )

    def detach_stream(self, stream_id: str) -> StreamObject:
        self._quotas.pop(stream_id, None)
        return self._streams.pop(stream_id)

    def streams(self) -> list[str]:
        return list(self._streams)

    def object_of(self, stream_id: str) -> StreamObject:
        return self._streams[stream_id]

    # --- produce path --------------------------------------------------------

    def produce(self, stream_id: str,
                records: list[MessageRecord] | PackedRecordBatch
                ) -> tuple[int, float]:
        """Write a batch to the stream's object; returns (offset, sim s).

        Cost = bus transfer (worker -> store layer, aggregated for small
        batches) + the PLog write if a slice seals.  Producer-packed
        batches carry their wire size, so they skip the per-record sum.
        """
        obj = self._streams[stream_id]
        bucket = self._quotas.get(stream_id)
        if bucket is not None:
            bucket.take(len(records), self._clock.now)
        if isinstance(records, PackedRecordBatch):
            wire_bytes = records.wire_bytes
        else:
            wire_bytes = sum(map(_size_of, records))
        cost = self._bus.transfer(wire_bytes)
        cost += len(records) * WORKER_CPU_PER_MSG_S
        offset, append_cost = obj.append(records)
        self.messages_in += len(records)
        # writes invalidate the consumption caches for this stream
        self._read_cache.pop(stream_id, None)
        return offset, cost + append_cost

    # --- consume path -----------------------------------------------------------

    def consume(self, stream_id: str, offset: int,
                control: ReadControl | None = None
                ) -> tuple[list[MessageRecord], float]:
        """Read records for a consumer; returns (records, sim seconds).

        Order of caches: worker-local read cache (free), SCM cache (if the
        topic enables it), then the stream object / PLog path.
        """
        obj = self._streams[stream_id]
        records = self._read_cache.get(stream_id, {}).get(offset)
        if records is not None:
            self.messages_out += len(records)
            return records, 0.0
        if self._scm is not None:
            scm_key = f"{obj.object_id}@{offset}"
            encoded, cost = self._scm.get(
                scm_key, loader=lambda: self._load_encoded(obj, offset, control)
            )
            records = decode_records(encoded) if encoded else []
        else:
            records, cost = obj.read(offset, control)
        wire_bytes = sum(map(_size_of, records))
        cost += self._bus.transfer(wire_bytes)
        cost += len(records) * WORKER_CPU_PER_MSG_S
        if records:
            # never cache an empty read: an open-transaction barrier can
            # make it non-empty later without any produce on this worker
            self._read_cache.setdefault(stream_id, {})[offset] = records
        elif self._scm is not None:
            self._scm.invalidate(f"{obj.object_id}@{offset}")
        self.messages_out += len(records)
        return records, cost

    def _load_encoded(self, obj: StreamObject, offset: int,
                      control: ReadControl | None) -> tuple[bytes, float]:
        records, cost = obj.read(offset, control)
        return encode_records(records) if records else b"", cost

    def drop_read_cache(self) -> None:
        """Evict the worker-local read cache (memory-pressure simulation)."""
        self._read_cache.clear()

    # --- health ---------------------------------------------------------------

    def heartbeat(self) -> dict[str, object]:
        """Status report exchanged with the dispatcher (Section V-A)."""
        return {
            "worker": self.worker_id,
            "healthy": self.healthy,
            "streams": len(self._streams),
            "messages_in": self.messages_in,
            "messages_out": self.messages_out,
        }
