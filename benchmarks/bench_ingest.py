"""Ingestion path: packed batched codec vs the seed's JSON-framed path.

The seed published records one ``send()`` at a time and serialized each
slice as per-record JSON wrapped in three nested length+CRC frames.  The
batched path packs a whole ``send_batch`` straight into the columnar
binary slice format, group-commits sealed slices through one PLog
``append_batch`` (one vectorized EC encode), and decodes reads through
the record bounds the slice's length planes imply.

This bench runs the same 100k-record produce -> seal -> read-back
workload through both paths (plus the packed path over a replicated
pool instead of RS(4+2)), recording records/sec and MB/sec for ingest,
cold read and warm (worker-cache) read into ``BENCH_ingest.json``
together with an :class:`~repro.common.stats.IngestStats` snapshot.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.bench import ResultTable
from repro.common.clock import SimClock
from repro.common.stats import ingest_stats
from repro.storage.bus import DataBus, TransportKind
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.storage.replication import Replication
from repro.stream.object import ReadControl
from repro.stream.producer import Producer
from repro.stream.service import MessageStreamingService

NUM_RECORDS = 100_000
VALUE_BYTES = 100
BATCH_SIZE = 1024
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_ingest.json"

#: the produce -> seal speedup the packed batched path must keep over the
#: seed's per-record JSON path (the bench's acceptance gate)
MIN_INGEST_SPEEDUP = 10.0


def _build_service(codec: str, redundancy: str) -> MessageStreamingService:
    clock = SimClock()
    if redundancy == "replicate":
        policy = Replication(3)
    else:
        policy = erasure_coding_policy(4, 2)
    pool = StoragePool("ssd", clock, policy=policy)
    pool.add_disks(NVME_SSD_PROFILE, 6)
    plogs = PLogManager(pool, clock)
    bus = DataBus(clock, transport=TransportKind.RDMA)
    return MessageStreamingService(
        plogs, bus, clock, num_workers=2, slice_codec=codec
    )


def _read_all(service: MessageStreamingService, topic: str,
              expect: int) -> int:
    control = ReadControl(max_records=4096, max_bytes=64 * 1024 * 1024)
    got = 0
    for stream_id in service.dispatcher.streams_of(topic):
        end = service.object_for(stream_id).end_offset
        offset = 0
        while offset < end:
            records, _ = service.fetch(stream_id, offset, control)
            if not records:
                break
            got += len(records)
            offset = records[-1].offset + 1
    if got != expect:
        raise AssertionError(f"read back {got} records, expected {expect}")
    return got


def _run_mode(codec: str, redundancy: str, batched: bool, num_records: int,
              value_bytes: int) -> dict:
    """One produce -> seal -> read-back run; returns throughput metrics."""
    service = _build_service(codec, redundancy)
    service.create_topic("ingest")
    producer = Producer(service, batch_size=BATCH_SIZE)
    values = [
        b"%08d:" % index + b"x" * (value_bytes - 9)
        for index in range(num_records)
    ]
    ingest_stats().reset()

    start = time.perf_counter()
    if batched:
        producer.send_batch("ingest", values)
    else:
        for value in values:
            producer.send("ingest", value)
    producer.flush()
    service.flush_all()
    ingest_s = time.perf_counter() - start

    start = time.perf_counter()
    _read_all(service, "ingest", num_records)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    _read_all(service, "ingest", num_records)
    warm_s = time.perf_counter() - start

    payload_mb = num_records * value_bytes / 1e6
    return {
        "codec": codec,
        "redundancy": redundancy,
        "batched": batched,
        "ingest_records_per_s": num_records / ingest_s,
        "ingest_mb_per_s": payload_mb / ingest_s,
        "read_cold_records_per_s": num_records / cold_s,
        "read_cold_mb_per_s": payload_mb / cold_s,
        "read_warm_records_per_s": num_records / warm_s,
        "end_to_end_records_per_s": num_records / (ingest_s + cold_s),
        "ingest_stats": ingest_stats().snapshot(),
    }


def run_ingest_bench(num_records: int = NUM_RECORDS,
                     result_path: Path | None = RESULT_PATH) -> dict:
    # the pre-PR path: per-record send() into the JSON-framed slice codec
    legacy = _run_mode("legacy", "ec", batched=False,
                       num_records=num_records, value_bytes=VALUE_BYTES)
    binary = _run_mode("binary", "ec", batched=True,
                       num_records=num_records, value_bytes=VALUE_BYTES)
    replicated = _run_mode("binary", "replicate", batched=True,
                           num_records=num_records, value_bytes=VALUE_BYTES)

    results = {
        "num_records": num_records,
        "value_bytes": VALUE_BYTES,
        "batch_size": BATCH_SIZE,
        "legacy": legacy,
        "binary_ec": binary,
        "binary_replicated": replicated,
        "speedup_ingest": (binary["ingest_records_per_s"]
                           / legacy["ingest_records_per_s"]),
        "speedup_read_cold": (binary["read_cold_records_per_s"]
                              / legacy["read_cold_records_per_s"]),
        "speedup_end_to_end": (binary["end_to_end_records_per_s"]
                               / legacy["end_to_end_records_per_s"]),
    }
    if result_path is not None:
        # merge: bench_ingest_shard.py owns the "sharded_ingest" section
        # of the same file; a rerun here must not clobber it
        merged = {}
        if result_path.exists():
            previous = json.loads(result_path.read_text())
            if "sharded_ingest" in previous:
                merged["sharded_ingest"] = previous["sharded_ingest"]
        merged.update(results)
        result_path.write_text(json.dumps(merged, indent=2) + "\n")

    table = ResultTable(
        f"Ingestion path: {num_records:,} records x {VALUE_BYTES} B",
        ["path", "ingest rec/s", "ingest MB/s", "cold read rec/s",
         "warm read rec/s"],
    )
    for label, mode in (
        ("legacy json + send()", legacy),
        ("packed + send_batch (EC)", binary),
        ("packed + send_batch (3-rep)", replicated),
    ):
        table.add_row(
            label,
            f"{mode['ingest_records_per_s']:,.0f}",
            f"{mode['ingest_mb_per_s']:.1f}",
            f"{mode['read_cold_records_per_s']:,.0f}",
            f"{mode['read_warm_records_per_s']:,.0f}",
        )
    table.show()
    print(
        f"speedups vs legacy: ingest {results['speedup_ingest']:.1f}x, "
        f"cold read {results['speedup_read_cold']:.1f}x, "
        f"end-to-end {results['speedup_end_to_end']:.1f}x"
    )
    print(f"packed ingest stats: {binary['ingest_stats']}")
    return results


def test_ingest_batched(benchmark) -> None:
    from conftest import run_once

    results = run_once(benchmark, run_ingest_bench)
    assert results["speedup_ingest"] >= MIN_INGEST_SPEEDUP
    assert results["binary_ec"]["ingest_stats"]["slices_sealed"] > 0
    assert results["legacy"]["ingest_stats"]["legacy_slices_decoded"] > 0


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_ingest_bench(
        num_records=10_000 if smoke else NUM_RECORDS,
        result_path=None if smoke else RESULT_PATH,
    )
    floor = 4.0 if smoke else MIN_INGEST_SPEEDUP
    if outcome["speedup_ingest"] < floor:
        raise SystemExit(
            f"batched ingest too slow: {outcome['speedup_ingest']:.1f}x "
            f"(need >= {floor:.0f}x)"
        )
