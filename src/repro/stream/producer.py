"""Producer client (Fig 7): Kafka-compatible-style publish API.

A producer routes each message through the dispatcher to the worker owning
the target stream.  Messages are stamped with a (producer_id, sequence)
pair so retries after a (simulated) network failure are idempotent, and
optionally with an open transaction id for exactly-once pipelines.

Large ``batch_size`` settings matter beyond amortized dispatch: every
``batch_size`` records the owning stream object seals a *group* of
slices in one PLog group commit, and when the backing
:class:`~repro.storage.plog.PLogManager` is configured with
``write_parallelism > 1`` that group fans out over per-shard write
waves (:mod:`repro.parallel.ingest`) — so the wider the producer
batches, the more partitions each commit can spread across.
"""

from __future__ import annotations

import itertools

from repro.stream.dispatcher import RoutePlan
from repro.stream.records import MessageRecord, pack_values

_producer_ids = itertools.count()


class Producer:
    """Publishes key-value messages to topics."""

    def __init__(self, service: "MessageStreamingService",
                 producer_id: str | None = None,
                 batch_size: int = 1) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._service = service
        self.producer_id = (
            producer_id if producer_id is not None
            else f"producer-{next(_producer_ids)}"
        )
        self.batch_size = batch_size
        self._sequence = 0
        self._batches: dict[str, list[MessageRecord]] = {}
        self._txn_id: str | None = None
        self.sent = 0

    # --- transactions -------------------------------------------------------

    def begin_transaction(self) -> str:
        """Open a transaction; subsequent sends join it until commit/abort."""
        if self._txn_id is not None:
            raise ValueError("a transaction is already open on this producer")
        self._txn_id = self._service.transactions.begin()
        return self._txn_id

    def commit_transaction(self) -> float:
        """Flush and 2PC-commit the open transaction."""
        if self._txn_id is None:
            raise ValueError("no open transaction")
        cost = self.flush()
        cost += self._service.transactions.commit(self._txn_id)
        self._txn_id = None
        return cost

    def abort_transaction(self) -> None:
        if self._txn_id is None:
            raise ValueError("no open transaction")
        self.flush()
        self._service.transactions.abort(self._txn_id)
        self._txn_id = None

    # --- publishing ------------------------------------------------------------

    def send(self, topic: str, value: bytes, key: str = "") -> float:
        """Publish one message; returns simulated seconds spent (0 while
        the message sits in an unflushed batch)."""
        record = MessageRecord(
            topic=topic,
            key=key,
            value=value,
            timestamp=self._service.clock.now,
            producer_id=self.producer_id,
            sequence=self._sequence,
            txn_id=self._txn_id,
        )
        self._sequence += 1
        self.sent += 1
        stream_id = self._service.dispatcher.route_key(topic, key)
        batch = self._batches.setdefault(stream_id, [])
        batch.append(record)
        if len(batch) >= self.batch_size:
            return self._flush_stream(stream_id)
        return 0.0

    def send_batch(self, topic: str, values: list[bytes],
                   keys: list[str] | None = None, *,
                   plan: RoutePlan | None = None) -> float:
        """Publish many messages in one call; returns simulated seconds.

        The destination stream is the unit of batching: keys are walked
        in first-seen order, each key's records join its stream's run,
        and every run is serialized straight into the packed wire format
        (:func:`pack_values`, per-record keys) — no per-record Python
        objects exist on this path.  Runs are shipped in ``batch_size``
        chunks with consecutive sequences so quota/bus accounting matches
        :meth:`send`, and are delivered immediately (a batch IS a flush
        for the records it carries).  Per-key record order is preserved,
        and a stream receives its records as "keys in first-seen order,
        each key's records contiguous".

        ``plan`` is the dispatcher's ``route_keys`` result for these
        ``keys`` when the caller (the serving front end) has already
        routed the request; the keys are then not hashed again.
        """
        if keys is not None and len(keys) != len(values):
            raise ValueError(
                f"got {len(values)} values but {len(keys)} keys"
            )
        if not values:
            return 0.0
        if keys is None:
            keys = [""] * len(values)
        plan = self._service.dispatcher.route_distinct_keys(topic, keys, plan)
        planned = sum(map(len, plan.streams.values()))
        if planned != len(values):
            raise ValueError(
                f"routing plan covers {planned} records, request has "
                f"{len(values)}"
            )
        deliver = self._service.deliver
        now = self._service.clock.now
        txn_id = self._txn_id
        producer_id = self.producer_id
        chunk = max(self.batch_size, 1)
        cost = 0.0
        for stream_id, positions in plan.streams.items():
            # anything this producer buffered via send() must land first
            # to keep the per-stream record order
            cost += self._flush_stream(stream_id)
            if plan.distinct_keys == 1:
                # one key, one stream: the run is the request as it stands
                run_values, run_keys = values, keys
            else:
                run_values = [values[i] for i in positions]
                run_keys = [keys[i] for i in positions]
            for start in range(0, len(run_values), chunk):
                part = run_values[start:start + chunk]
                batch = pack_values(
                    topic, part, run_keys[start:start + chunk], now,
                    producer_id, self._sequence, txn_id,
                )
                self._sequence += len(part)
                cost += deliver(stream_id, batch, txn_id)
        self.sent += len(values)
        return cost

    def resend(self, topic: str, value: bytes, key: str,
               sequence: int) -> float:
        """Simulate a retry of an earlier send (same sequence number).

        The stream object recognizes the duplicate and does not append it
        twice — the idempotence guarantee of Section V-A.
        """
        record = MessageRecord(
            topic=topic,
            key=key,
            value=value,
            timestamp=self._service.clock.now,
            producer_id=self.producer_id,
            sequence=sequence,
            txn_id=self._txn_id,
        )
        stream_id = self._service.dispatcher.route_key(topic, key)
        return self._service.deliver(stream_id, [record], self._txn_id)

    def flush(self) -> float:
        """Deliver all buffered batches."""
        cost = 0.0
        for stream_id in list(self._batches):
            cost += self._flush_stream(stream_id)
        return cost

    def _flush_stream(self, stream_id: str) -> float:
        batch = self._batches.pop(stream_id, [])
        if not batch:
            return 0.0
        return self._service.deliver(stream_id, batch, self._txn_id)

