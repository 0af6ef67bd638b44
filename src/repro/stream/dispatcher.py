"""Stream dispatcher: metadata and routing for the messaging service.

Section V-A: the dispatcher stores the relationships among topics, streams,
stream workers and stream objects as key-value pairs in a fault-tolerant KV
store, updates the topology on any status change, and routes producer and
consumer connections to the right worker.

Elasticity (Fig 14(c)): because serving and storage are decoupled, adding
or removing workers only rewrites stream->worker mappings in the KV store —
**no data migration** — so scaling from 1 000 to 10 000 partitions
completes in seconds.  :meth:`add_worker`/:meth:`remove_worker` return the
number of remapped streams plus the simulated metadata-update time so
benches can report exactly that.
"""

from __future__ import annotations

import json
from collections import Counter

from repro.common.clock import SimClock
from repro.errors import TopicExistsError, TopicNotFoundError
from repro.storage.dht import shard_of
from repro.storage.kv import KVEngine
from repro.stream.config import TopicConfig

#: Metadata update for one stream mapping (a KV write + watch fan-out).
REMAP_COST_PER_STREAM_S = 0.8e-3


class StreamDispatcher:
    """Topology owner: topics -> streams -> workers / stream objects."""

    def __init__(self, kv: KVEngine, clock: SimClock) -> None:
        self._kv = kv
        self._clock = clock
        # the KV store is the source of truth ("fault-tolerant key-value
        # store", Section V-A): a restarted dispatcher recovers the
        # registered workers — and with them all topic/stream/object
        # topology — from it
        self._workers: list[str] = [
            key.removeprefix("worker/") for key, _ in kv.scan("worker/")
        ]
        self._next_worker = 0

    # --- workers ---------------------------------------------------------

    @property
    def workers(self) -> list[str]:
        return list(self._workers)

    def register_worker(self, worker_id: str) -> None:
        if worker_id in self._workers:
            raise ValueError(f"worker {worker_id!r} already registered")
        self._workers.append(worker_id)
        self._kv.put(f"worker/{worker_id}", "alive")

    def add_worker(self, worker_id: str) -> tuple[int, float]:
        """Scale out: register and rebalance. Returns (streams moved, sim s)."""
        self.register_worker(worker_id)
        return self._rebalance()

    def remove_worker(self, worker_id: str) -> tuple[int, float]:
        """Scale in / worker failure: reassign its streams elsewhere."""
        if worker_id not in self._workers:
            raise ValueError(f"worker {worker_id!r} not registered")
        self._workers.remove(worker_id)
        self._kv.delete(f"worker/{worker_id}")
        if not self._workers:
            raise ValueError("cannot remove the last worker")
        moved = 0
        elapsed = 0.0
        for key, value in list(self._kv.scan("assign/")):
            if value != worker_id:
                continue
            stream_id = key.removeprefix("assign/")
            target = self._pick_worker()
            self._kv.put(f"assign/{stream_id}", target)
            moved += 1
            elapsed += REMAP_COST_PER_STREAM_S
        self._clock.advance(elapsed)
        return moved, elapsed

    def _pick_worker(self) -> str:
        worker = self._workers[self._next_worker % len(self._workers)]
        self._next_worker += 1
        return worker

    def _rebalance(self) -> tuple[int, float]:
        """Even out stream counts across workers by remapping only."""
        assignments = {
            key.removeprefix("assign/"): value
            for key, value in self._kv.scan("assign/")
        }
        if not assignments:
            return 0, 0.0
        counts = {worker: 0 for worker in self._workers}
        for worker in assignments.values():
            if worker in counts:
                counts[worker] += 1
        moved = 0
        elapsed = 0.0
        for stream_id, worker in sorted(assignments.items()):
            receiver = min(counts, key=counts.get)  # type: ignore[arg-type]
            orphaned = worker not in counts
            overloaded = (
                not orphaned and counts[worker] - counts[receiver] >= 2
            )
            if not orphaned and not overloaded:
                continue
            if not orphaned:
                counts[worker] -= 1
            counts[receiver] += 1
            self._kv.put(f"assign/{stream_id}", receiver)
            moved += 1
            elapsed += REMAP_COST_PER_STREAM_S
        self._clock.advance(elapsed)
        return moved, elapsed

    # --- topics -----------------------------------------------------------

    def create_topic(self, topic: str, config: TopicConfig) -> list[str]:
        """Declare a topic: create its streams, assign round-robin to workers.

        Returns the stream ids created.
        """
        config.validate()
        if self._kv.get(f"topic/{topic}") is not None:
            raise TopicExistsError(f"topic {topic!r} already exists")
        if not self._workers:
            raise ValueError("no stream workers registered")
        self._kv.put(f"topic/{topic}", json.dumps({"streams": config.stream_num}))
        self._kv.put(f"config/{topic}", config)
        streams = []
        for index in range(config.stream_num):
            stream_id = f"{topic}/{index}"
            worker = self._pick_worker()
            self._kv.put(f"assign/{stream_id}", worker)
            streams.append(stream_id)
        return streams

    def scale_topic(self, topic: str, new_stream_num: int) -> tuple[list[str], float]:
        """Grow a topic's partition count (Fig 14(c) elasticity).

        Purely a metadata operation: new streams are assigned to workers
        round-robin in the KV store; existing streams and their objects
        are untouched, so no data moves.  Returns (new stream ids, sim s).
        """
        config = self.config_of(topic)
        if new_stream_num < config.stream_num:
            raise ValueError(
                f"cannot shrink topic {topic!r} from {config.stream_num} "
                f"to {new_stream_num} streams"
            )
        created = []
        elapsed = 0.0
        for index in range(config.stream_num, new_stream_num):
            stream_id = f"{topic}/{index}"
            worker = self._pick_worker()
            self._kv.put(f"assign/{stream_id}", worker)
            created.append(stream_id)
            elapsed += REMAP_COST_PER_STREAM_S
        config.stream_num = new_stream_num
        self._kv.put(f"config/{topic}", config)
        self._clock.advance(elapsed)
        return created, elapsed

    def delete_topic(self, topic: str) -> list[str]:
        """Drop a topic; returns its stream ids for object cleanup."""
        config = self.config_of(topic)
        self._kv.delete(f"topic/{topic}")
        self._kv.delete(f"config/{topic}")
        streams = []
        for index in range(config.stream_num):
            stream_id = f"{topic}/{index}"
            self._kv.delete(f"assign/{stream_id}")
            self._kv.delete(f"object/{stream_id}")
            streams.append(stream_id)
        return streams

    def topics(self) -> list[str]:
        return [key.removeprefix("topic/") for key, _ in self._kv.scan("topic/")]

    def config_of(self, topic: str) -> TopicConfig:
        config = self._kv.get(f"config/{topic}")
        if config is None:
            raise TopicNotFoundError(f"no topic {topic!r}")
        return config  # type: ignore[return-value]

    def streams_of(self, topic: str) -> list[str]:
        config = self.config_of(topic)
        return [f"{topic}/{index}" for index in range(config.stream_num)]

    # --- routing ------------------------------------------------------------

    def bind_object(self, stream_id: str, object_id: str) -> None:
        """Record stream -> stream object mapping."""
        self._kv.put(f"object/{stream_id}", object_id)

    def object_of(self, stream_id: str) -> str:
        object_id = self._kv.get(f"object/{stream_id}")
        if object_id is None:
            raise TopicNotFoundError(f"stream {stream_id!r} has no object bound")
        return object_id  # type: ignore[return-value]

    def route_key(self, topic: str, key: str) -> str:
        """Producer routing: key -> stream id (stable hash partitioning)."""
        config = self.config_of(topic)
        index = shard_of(key, config.stream_num)
        return f"{topic}/{index}"

    def route_keys(self, topic: str, keys: list[str]) -> dict[str, int]:
        """Records per stream of a keyed request, streams in first-seen order.

        :meth:`route_key` over every key — one topology read each, as a
        producer routing record by record pays — with each distinct key
        hashed once: a request usually carries one key, or few.
        """
        if not keys:
            return {}
        config = self.config_of(topic)
        self._kv.charge_reads(len(keys) - 1)
        per_stream: dict[str, int] = {}
        for key, count in Counter(keys).items():
            stream_id = f"{topic}/{shard_of(key, config.stream_num)}"
            per_stream[stream_id] = per_stream.get(stream_id, 0) + count
        return per_stream

    def worker_of(self, stream_id: str) -> str:
        worker = self._kv.get(f"assign/{stream_id}")
        if worker is None:
            raise TopicNotFoundError(f"stream {stream_id!r} not assigned")
        return worker  # type: ignore[return-value]

    def streams_of_worker(self, worker_id: str) -> list[str]:
        return [
            key.removeprefix("assign/")
            for key, value in self._kv.scan("assign/")
            if value == worker_id
        ]
