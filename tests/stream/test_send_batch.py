"""Property tests: ``Producer.send_batch`` batches per destination stream.

A keyed request ships one packed batch per (stream, ``batch_size``
chunk), not one per key.  What must not change with that: per-key record
order, and the order every stream object receives its records in — keys
in first-seen order, each key's records contiguous.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.config import TopicConfig
from repro.stream.consumer import Consumer
from repro.stream.producer import Producer
from repro.stream.records import PackedRecordBatch, pack_values
from repro.stream.service import MessageStreamingService

TOPIC = "events"

routing_keys = st.sampled_from(
    ["", "a", "b", "c", "ключ", "user-1", "user-2", "user-3", "☃"])


def fresh_service(stream_num: int) -> MessageStreamingService:
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    service = MessageStreamingService(
        PLogManager(pool, clock), DataBus(clock), clock, num_workers=2)
    service.create_topic(TOPIC, TopicConfig(stream_num=stream_num))
    return service


def record_delivers(service) -> list[tuple[str, PackedRecordBatch]]:
    """Spy on ``service.deliver``; returns the list the calls land in."""
    delivered: list[tuple[str, PackedRecordBatch]] = []
    deliver = service.deliver

    def spy(stream_id, records, txn_id=None):
        delivered.append((stream_id, records))
        return deliver(stream_id, records, txn_id)

    service.deliver = spy
    return delivered


def expected_stream_order(service, keys: list[str]) -> dict[str, list[int]]:
    """Per stream, the request positions in the order it must receive
    them: keys in first-seen order, each key's records contiguous."""
    streams: dict[str, dict[str, list[int]]] = {}
    for position, key in enumerate(keys):
        stream_id = service.dispatcher.route_key(TOPIC, key)
        streams.setdefault(stream_id, {}).setdefault(key, []).append(position)
    return {
        stream_id: [p for positions in by_key.values() for p in positions]
        for stream_id, by_key in streams.items()
    }


@settings(max_examples=80, deadline=None)
@given(
    keys=st.none() | st.lists(routing_keys, min_size=1, max_size=60),
    stream_num=st.integers(min_value=1, max_value=6),
    batch_size=st.integers(min_value=1, max_value=20),
    count=st.integers(min_value=1, max_value=60),
)
def test_send_batch_ships_one_batch_per_stream_chunk(keys, stream_num,
                                                     batch_size, count):
    service = fresh_service(stream_num)
    delivered = record_delivers(service)
    producer = Producer(service, batch_size=batch_size)
    count = len(keys) if keys is not None else count
    values = [str(index).encode() for index in range(count)]

    producer.send_batch(TOPIC, values, keys)

    order = expected_stream_order(
        service, keys if keys is not None else [""] * count)
    # one deliver per (stream, chunk): a count, not a timing
    def chunks(records: int) -> int:
        return -(-records // batch_size)

    assert len(delivered) == sum(chunks(len(p)) for p in order.values())
    assert len(delivered) <= len(order) * chunks(count)
    assert [stream_id for stream_id, _ in delivered] == [
        stream_id for stream_id, positions in order.items()
        for _ in range(chunks(len(positions)))
    ]
    # sequences: consecutive inside every batch, disjoint across batches
    # and gapless over the request
    sequences: list[int] = []
    received: dict[str, list[int]] = {}
    for stream_id, batch in delivered:
        assert isinstance(batch, PackedRecordBatch)
        assert 1 <= batch.count <= batch_size
        records = batch.records()
        assert [r.sequence for r in records] == list(
            range(batch.base_sequence, batch.base_sequence + batch.count))
        sequences += [r.sequence for r in records]
        for record in records:
            position = int(record.value)
            assert record.key == (keys[position] if keys is not None else "")
            received.setdefault(stream_id, []).append(position)
    assert sequences == list(range(count))
    # every stream received its records in the pinned order, so per-key
    # order is the request's
    assert received == order
    assert producer.sent == count
    # readers see every value exactly once, streams in that same order
    for stream_id, positions in order.items():
        stream_values = service.object_for(stream_id).read_values(0)[0]
        assert [int(value) for value in stream_values] == positions
    consumer = Consumer(service)
    consumer.subscribe(TOPIC)
    consumed = [int(record.value) for record in consumer.drain()[0]]
    assert sorted(consumed) == list(range(count))


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(routing_keys, min_size=1, max_size=40),
       stream_num=st.integers(min_value=1, max_value=4))
def test_single_key_batches_match_per_key_sends(keys, stream_num):
    """Sending each key's records as its own single-key request, keys in
    first-seen order, leaves every stream object holding the same records
    as one multi-key request — only sequence stamps may differ."""
    values = [str(index).encode() for index in range(len(keys))]
    together = fresh_service(stream_num)
    Producer(together, producer_id="p", batch_size=64).send_batch(
        TOPIC, values, keys)
    apart = fresh_service(stream_num)
    producer = Producer(apart, producer_id="p", batch_size=64)
    for key in dict.fromkeys(keys):
        own = [value for value, k in zip(values, keys) if k == key]
        producer.send_batch(TOPIC, own, [key] * len(own))
    for stream_id in together.dispatcher.streams_of(TOPIC):
        left = together.object_for(stream_id).read(0)[0]
        right = apart.object_for(stream_id).read(0)[0]
        assert [(r.key, r.value, r.offset) for r in left] == [
            (r.key, r.value, r.offset) for r in right]


def test_buffered_sends_land_before_the_batch():
    """Records buffered by ``send`` flush ahead of a ``send_batch`` run
    bound for the same stream."""
    service = fresh_service(1)
    producer = Producer(service, batch_size=10)
    producer.send(TOPIC, b"first", key="a")
    producer.send_batch(TOPIC, [b"second", b"third"], ["b", "a"])
    records = service.object_for(f"{TOPIC}/0").read(0)[0]
    assert [(r.key, r.value) for r in records] == [
        ("a", b"first"), ("b", b"second"), ("a", b"third")]
    assert [r.sequence for r in records] == [0, 1, 2]


def test_retried_multi_key_batch_dedupes_record_by_record():
    """A retry that overlaps applied sequences goes through the per-record
    fallback: applied records are skipped, new ones keep their own keys."""
    service = fresh_service(1)
    stream_id = f"{TOPIC}/0"
    producer = Producer(service, producer_id="p", batch_size=100)
    producer.send_batch(TOPIC, [b"v0", b"v1", b"v2", b"v3"],
                        ["a", "b", "a", "c"])
    obj = service.object_for(stream_id)
    assert obj.end_offset == 4
    # routed order is a, a, b, c -> sequences 0..3 hold v0, v2, v1, v3;
    # the retry resends sequences 2..3 and carries two new records
    retry = pack_values(TOPIC, [b"v1", b"v3", b"v4", b"v5"],
                        ["b", "c", "d", "b"], service.clock.now, "p", 2, None)
    service.deliver(stream_id, retry)
    records = obj.read(0)[0]
    assert [(r.sequence, r.key, r.value) for r in records] == [
        (0, "a", b"v0"), (1, "a", b"v2"), (2, "b", b"v1"), (3, "c", b"v3"),
        (4, "d", b"v4"), (5, "b", b"v5"),
    ]
    # replaying the whole retry again appends nothing
    service.deliver(stream_id, retry)
    assert obj.end_offset == 6


def test_send_batch_rejects_a_plan_for_another_request():
    service = fresh_service(2)
    producer = Producer(service)
    plan = service.dispatcher.route_keys(TOPIC, ["a", "b", "c"])
    with pytest.raises(ValueError, match="routing plan"):
        producer.send_batch(TOPIC, [b"x", b"y"], ["a", "b"], plan=plan)
    assert producer.sent == 0
    assert service.object_for(f"{TOPIC}/0").end_offset == 0
    assert service.object_for(f"{TOPIC}/1").end_offset == 0
