"""Failure-injection integration tests: disks, workers, transactions."""

import pytest

from repro import build_streamlake
from repro.errors import UnrecoverableDataError
from repro.stream.config import TopicConfig
from repro.stream.consumer import Consumer
from repro.stream.producer import Producer
from repro.table.expr import Predicate
from repro.table.schema import Column, ColumnType, Schema


def ingest(lake, topic, count):
    producer = Producer(lake.streaming, batch_size=10)
    for index in range(count):
        producer.send(topic, f"v{index}".encode(), key=str(index))
    producer.flush()
    lake.streaming.flush_all()


def drain(lake, topic):
    consumer = Consumer(lake.streaming)
    consumer.subscribe(topic)
    return consumer.drain()[0]


def test_stream_survives_tolerated_disk_failures():
    """EC(4+2) stream storage keeps serving after two disk losses."""
    lake = build_streamlake(ssd_disks=8)
    lake.streaming.create_topic("t", TopicConfig(stream_num=2))
    ingest(lake, "t", 600)
    loaded = [d for d in lake.ssd_pool.disks if d.used_bytes > 0]
    for disk in loaded[:2]:
        disk.fail()
    assert len(drain(lake, "t")) == 600


def test_stream_data_lost_beyond_tolerance_is_detected():
    lake = build_streamlake(ssd_disks=8)
    lake.streaming.create_topic("t", TopicConfig(stream_num=1))
    ingest(lake, "t", 600)
    loaded = [d for d in lake.ssd_pool.disks if d.used_bytes > 0]
    for disk in loaded[:3]:
        disk.fail()
    with pytest.raises(UnrecoverableDataError):
        drain(lake, "t")


def test_repair_then_more_failures():
    lake = build_streamlake(ssd_disks=8)
    lake.streaming.create_topic("t", TopicConfig(stream_num=1))
    ingest(lake, "t", 600)
    loaded = [d for d in lake.ssd_pool.disks if d.used_bytes > 0]
    loaded[0].fail()
    lake.ssd_pool.repair_disk(loaded[0].disk_id)
    # two fresh failures are tolerated again after the repair
    loaded[1].fail()
    loaded[2].fail()
    assert len(drain(lake, "t")) == 600


def test_worker_loss_remaps_without_data_loss():
    lake = build_streamlake(num_workers=3)
    lake.streaming.create_topic("t", TopicConfig(stream_num=6))
    ingest(lake, "t", 300)
    moved, elapsed = lake.streaming.scale_workers(2)
    assert len(lake.streaming.workers) == 2
    assert len(drain(lake, "t")) == 300
    # and scaling back out works too
    lake.streaming.scale_workers(4)
    ingest(lake, "t", 100)
    assert len(drain(lake, "t")) == 400


def test_table_survives_disk_failure():
    lake = build_streamlake(hdd_disks=8)
    schema = Schema([Column("x", ColumnType.INT64)])
    table = lake.lakehouse.create_table("t", schema)
    table.insert([{"x": index} for index in range(100)])
    loaded = [d for d in lake.hdd_pool.disks if d.used_bytes > 0]
    for disk in loaded[:2]:
        disk.fail()
    assert len(table.select(Predicate("x", ">=", 0))) == 100


def test_transaction_atomicity_across_stream_failures():
    """A vetoed participant aborts the txn on every stream object."""
    lake = build_streamlake()
    lake.streaming.create_topic("t", TopicConfig(stream_num=3))
    producer = Producer(lake.streaming, batch_size=1)
    txn = producer.begin_transaction()
    for index in range(9):
        producer.send("t", b"txn", key=str(index))
    producer.flush()
    # one participant refuses at prepare
    enlisted = lake.streaming.transactions._txns[txn].participants
    victim = next(iter(enlisted))
    lake.streaming.transactions.veto(txn, victim)
    from repro.errors import TransactionError

    with pytest.raises(TransactionError):
        producer.commit_transaction()
    assert drain(lake, "t") == []


def test_corrupted_frame_detected():
    """End-to-end corruption detection via the slice checksum: one
    flipped byte in a sealed slice's varlen blob fails its CRC32."""
    from repro.errors import CorruptionError
    from repro.stream.records import MessageRecord, decode_slice, encode_slice

    sealed = bytearray(encode_slice(
        [MessageRecord("t", "k", b"precious bytes")], base_offset=0
    ))
    sealed[-3] ^= 0x40
    with pytest.raises(CorruptionError, match="checksum"):
        decode_slice(bytes(sealed))
