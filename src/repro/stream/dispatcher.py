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
from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.clock import SimClock
from repro.errors import TopicExistsError, TopicNotFoundError
from repro.storage.dht import shard_of, shards_of
from repro.storage.kv import KVEngine
from repro.stream.config import TopicConfig

#: Metadata update for one stream mapping (a KV write + watch fan-out).
REMAP_COST_PER_STREAM_S = 0.8e-3


@dataclass(frozen=True)
class RoutePlan:
    """Where the records of one produce request go.

    The front end's throttle check and the producer's batching read the
    same plan, so the per-stream counts one gates on are the records the
    other delivers.
    """

    #: stream id -> positions of its records in the request.  Streams in
    #: first-seen order; inside a stream, keys in first-seen order with
    #: each key's records contiguous — the order the stream object
    #: receives them in.
    streams: dict[str, Sequence[int]]
    #: distinct routing keys in the request
    distinct_keys: int

    def counts(self) -> dict[str, int]:
        """Records per stream, streams in first-seen order."""
        return {
            stream_id: len(positions)
            for stream_id, positions in self.streams.items()
        }


def _plan_routes(topic: str, stream_num: int, keys: list[str]) -> RoutePlan:
    """Hash each distinct key of a non-empty request once."""
    distinct = dict.fromkeys(keys)  # first-seen order
    if len(distinct) == 1:
        # the usual request carries one key: no per-record grouping
        stream_id = f"{topic}/{shard_of(keys[0], stream_num)}"
        return RoutePlan({stream_id: range(len(keys))}, 1)
    shard_of_key = dict(zip(distinct, shards_of(list(distinct), stream_num)))
    runs: dict[int, list[int]] = {}
    for position, key in enumerate(keys):
        shard = shard_of_key[key]
        run = runs.get(shard)
        if run is None:
            runs[shard] = [position]
        else:
            run.append(position)
    if len(distinct) < len(keys):
        # a key repeats: pull each key's records together, keys staying
        # in first-seen order (the sort is stable)
        rank = {key: index for index, key in enumerate(distinct)}
        for run in runs.values():
            run.sort(key=lambda position: rank[keys[position]])
    return RoutePlan(
        {f"{topic}/{shard}": run for shard, run in runs.items()},
        len(distinct),
    )


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

    def route_keys(self, topic: str, keys: list[str]) -> RoutePlan:
        """Route a keyed request as a front end checking it record by
        record pays: one topology read per record.

        Each distinct key is hashed once — a request usually carries one
        key, or few.  Hand the plan to :meth:`route_distinct_keys` (via
        ``Producer.send_batch(plan=...)``) so the producer does not hash
        the keys again.
        """
        if not keys:
            return RoutePlan({}, 0)
        config = self.config_of(topic)
        self._kv.charge_reads(len(keys) - 1)
        return _plan_routes(topic, config.stream_num, keys)

    def route_distinct_keys(self, topic: str, keys: list[str],
                            plan: RoutePlan | None = None) -> RoutePlan:
        """Route a keyed request as a producer routing key by key pays:
        one topology read per distinct key.

        ``plan`` is :meth:`route_keys` of the same request when a front
        end already routed it: the reads are charged, nothing is hashed.
        """
        if plan is not None:
            self._kv.charge_reads(plan.distinct_keys)
            return plan
        if not keys:
            return RoutePlan({}, 0)
        config = self.config_of(topic)
        plan = _plan_routes(topic, config.stream_num, keys)
        self._kv.charge_reads(plan.distinct_keys - 1)
        return plan

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
