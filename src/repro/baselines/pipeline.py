"""The Fig 12 ETL pipeline on both stacks (Table 1's experiment).

Four jobs — collection, normalization, labeling, query — run over the same
DPI packet rows on:

* :class:`KafkaHdfsPipeline` — the China Mobile baseline.  "As a typical
  ETL practice, a new copy of all data is written to HDFS and Kafka after
  each job" so a failed job can re-read its input: six full copies land in
  storage (Kafka raw/normalized/labeled topics + HDFS raw/normalized/
  labeled files), each replicated 3x.  The query job reads all labeled
  bytes and filters in the compute engine.
* :class:`StreamLakePipeline` — one copy: packets ingest as a stream
  object, convert once to a table object (columnar + erasure coding), and
  each ETL job writes **only updated rows** (time travel supplies job
  re-run inputs).  The query pushes its filters and COUNT down to storage.

Both report the same :class:`PipelineResult` so the bench prints Table 1's
rows: storage usage, stream throughput, batch processing time.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

from dataclasses import replace as dc_replace

from repro.common.clock import SimClock
from repro.storage.bus import DataBus, TransportKind
from repro.storage.disk import DiskProfile, HDD_PROFILE, NVME_SSD_PROFILE
from repro.storage.kv import KVEngine
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.baselines.hdfs import HDFSCluster
from repro.baselines.kafka import KafkaCluster
from repro.stream.config import ConvertToTableConfig, TopicConfig
from repro.stream.records import MessageRecord
from repro.stream.service import MessageStreamingService
from repro.table.colbuild import columns_from_rows
from repro.table.columnar import ColumnarFile
from repro.table.conversion import StreamTableConverter
from repro.table.expr import And, Predicate
from repro.table.metacache import AcceleratedMetadataStore
from repro.table.pushdown import AggregateSpec
from repro.table.schema import PartitionSpec, Schema
from repro.table.table import Lakehouse, QueryStats
from repro.workloads.packets import FIN_APP_URL, BASE_TIMESTAMP, PacketGenerator

#: compute-engine CPU per row for parse/normalize/label/filter work —
#: identical on both stacks (same Spark business logic).
CPU_PER_ROW_S = 4e-6
#: producer batch size on both stacks
PRODUCE_BATCH = 500
#: ACID commit protocol cost per lakehouse commit (OCC + durable snapshot
#: publish) — StreamLake's "extra metadata management" (Section VII-B)
COMMIT_PROTOCOL_S = 0.036
#: streaming warmup (client bootstrap / consumer-group join), already
#: scaled to the bench's packet-count scale
DEFAULT_WARMUP_S = 0.003
#: Workload volumes are scaled down ~5000x from the paper's runs while the
#: number of partition files stays constant, so unscaled per-file seek
#: latencies would dominate where the real experiment is bandwidth-bound.
#: Per-file constants (seeks) shrink by this factor to preserve the
#: full-size run's bandwidth:seek cost structure.
SEEK_SCALE = 1000.0


def _scaled(profile: DiskProfile, seek_scale: float = SEEK_SCALE) -> DiskProfile:
    """A profile with per-access constants scaled to the bench volume."""
    return dc_replace(profile, seek_latency_s=profile.seek_latency_s / seek_scale)


@dataclass
class PipelineResult:
    """Measurements one pipeline run reports (one Table 1 column)."""

    system: str
    num_packets: int
    storage_bytes: int = 0
    stream_seconds: float = 0.0
    batch_seconds: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    query_result: list[dict[str, object]] = field(default_factory=list)

    @property
    def stream_throughput(self) -> float:
        """Messages per simulated second through the streaming path."""
        if self.stream_seconds <= 0:
            return 0.0
        return self.num_packets / self.stream_seconds


def _dau_predicate() -> And:
    """The Fig 13 WHERE clause."""
    return And(
        Predicate("url", "=", FIN_APP_URL),
        Predicate("start_time", ">=", BASE_TIMESTAMP),
        Predicate("start_time", "<", BASE_TIMESTAMP + 86_400),
    )


def _packet_schema() -> Schema:
    return Schema.from_dict(PacketGenerator.SCHEMA)


def _normalize(row: dict[str, object]) -> dict[str, object]:
    if row["dirty"]:
        return {**row, "dirty": False}
    return row


def _label(row: dict[str, object]) -> dict[str, object]:
    if row["app_label"] == "":
        url = str(row["url"])
        return {**row, "app_label": url.split("//")[1].split(".")[0]}
    return row


def _hour_of(row: dict[str, object]) -> int:
    return int(row["start_time"]) // 3600  # type: ignore[arg-type]


def _rows_to_messages(rows: list[dict[str, object]],
                      topic: str) -> list[MessageRecord]:
    return [
        MessageRecord(
            topic=topic,
            key=str(row["user_id"]),
            value=json.dumps(row, separators=(",", ":")).encode(),
        )
        for row in rows
    ]


class KafkaHdfsPipeline:
    """The baseline: independent Kafka (stream) + HDFS (batch) storage."""

    def __init__(self, warmup_s: float = DEFAULT_WARMUP_S,
                 cpu_per_row_s: float = CPU_PER_ROW_S) -> None:
        self.clock = SimClock()
        self.kafka = KafkaCluster(
            self.clock, num_brokers=3, replication_factor=3,
            disk_profile=_scaled(NVME_SSD_PROFILE),
        )
        self.hdfs = HDFSCluster(
            self.clock, num_datanodes=3, replication_factor=3,
            disk_profile=_scaled(HDD_PROFILE),
        )
        self.warmup_s = warmup_s
        self.cpu_per_row_s = cpu_per_row_s
        self._schema = _packet_schema()

    def run(self, rows: list[dict[str, object]]) -> PipelineResult:
        result = PipelineResult(system="HDFS+Kafka", num_packets=len(rows))
        result.stream_seconds = self._collect(rows, result)
        normalized = self._batch_stage(
            "normalization", rows, _normalize, input_prefix="/raw",
            output_prefix="/normalized", result=result,
        )
        labeled = self._batch_stage(
            "labeling", normalized, _label, input_prefix="/normalized",
            output_prefix="/labeled", result=result,
        )
        self._query(labeled, result)
        result.batch_seconds = sum(
            result.stage_seconds[name]
            for name in ("normalization", "labeling", "query")
        )
        result.storage_bytes = (
            self.kafka.storage_bytes() + self.hdfs.storage_bytes()
        )
        return result

    # --- stages --------------------------------------------------------------

    def _collect(self, rows: list[dict[str, object]],
                 result: PipelineResult) -> float:
        """Job (a): stream packets into Kafka, land raw files on HDFS."""
        self.kafka.create_topic("dpi_raw", partitions=3)
        stream_cost = self.warmup_s
        records = _rows_to_messages(rows, "dpi_raw")
        for start in range(0, len(records), PRODUCE_BATCH):
            batch = records[start : start + PRODUCE_BATCH]
            _, cost = self.kafka.produce(
                "dpi_raw", (start // PRODUCE_BATCH) % 3, batch
            )
            stream_cost += cost
        # consumers drain the topic (the real-time branch)
        offset = 0
        for index in range(3):
            while True:
                out, cost = self.kafka.consume("dpi_raw", index, offset)
                stream_cost += cost
                if not out:
                    break
                offset = out[-1].offset + 1
            offset = 0
        # raw landing: one text file per hour on HDFS
        landing_cost = 0.0
        for hour, hour_rows in sorted(self._by_hour(rows).items()):
            text = "\n".join(
                json.dumps(row, separators=(",", ":")) for row in hour_rows
            ).encode()
            size = len(zlib.compress(text, level=1))  # gzip'd landing files
            landing_cost += self.hdfs.write(f"/raw/hour={hour}", size)
        result.stage_seconds["collection"] = landing_cost
        return stream_cost

    @staticmethod
    def _by_hour(rows: list[dict[str, object]]
                 ) -> dict[int, list[dict[str, object]]]:
        by_hour: dict[int, list[dict[str, object]]] = {}
        for row in rows:
            by_hour.setdefault(_hour_of(row), []).append(row)
        return by_hour

    def _batch_stage(self, name: str, rows: list[dict[str, object]],
                     transform, input_prefix: str, output_prefix: str,
                     result: PipelineResult) -> list[dict[str, object]]:
        """Full read -> transform every row -> full write (HDFS + Kafka)."""
        cost = 0.0
        for path in self.hdfs.list_files(input_prefix):
            cost += self.hdfs.read(path)
        out_rows = [transform(row) for row in rows]
        cost += len(rows) * self.cpu_per_row_s
        for hour, hour_rows in sorted(self._by_hour(out_rows).items()):
            data_file = ColumnarFile.from_columns(
                self._schema, *columns_from_rows(self._schema, hour_rows)
            )
            cost += self.hdfs.write(
                f"{output_prefix}/hour={hour}", data_file.size_bytes
            )
        # the stream branch gets its own full copy after the job
        topic = f"dpi{output_prefix.replace('/', '_')}"
        self.kafka.create_topic(topic, partitions=3)
        records = _rows_to_messages(out_rows, topic)
        for start in range(0, len(records), PRODUCE_BATCH):
            self.kafka.produce(
                topic, (start // PRODUCE_BATCH) % 3,
                records[start : start + PRODUCE_BATCH],
            )
        result.stage_seconds[name] = cost
        return out_rows

    def _query(self, rows: list[dict[str, object]],
               result: PipelineResult) -> None:
        """Job (d): read all labeled bytes, filter + aggregate in compute."""
        cost = 0.0
        for path in self.hdfs.list_files("/labeled"):
            cost += self.hdfs.read(path)
        cost += len(rows) * self.cpu_per_row_s
        predicate = _dau_predicate()
        counts: dict[object, int] = {}
        for row in rows:
            if predicate.matches(row):
                counts[row["province"]] = counts.get(row["province"], 0) + 1
        result.query_result = [
            {"province": province, "COUNT": count}
            for province, count in sorted(counts.items())
        ]
        result.stage_seconds["query"] = cost


class StreamLakePipeline:
    """StreamLake: unified stream+batch storage, one copy, pushdown."""

    def __init__(self, warmup_s: float = DEFAULT_WARMUP_S,
                 cpu_per_row_s: float = CPU_PER_ROW_S,
                 commit_protocol_s: float = COMMIT_PROTOCOL_S) -> None:
        self.clock = SimClock()
        self.ssd_pool = StoragePool(
            "ssd", self.clock, policy=erasure_coding_policy(4, 2)
        )
        self.ssd_pool.add_disks(_scaled(NVME_SSD_PROFILE), 6)
        self.hdd_pool = StoragePool(
            "hdd", self.clock, policy=erasure_coding_policy(4, 2)
        )
        self.hdd_pool.add_disks(_scaled(HDD_PROFILE), 6)
        self.bus = DataBus(self.clock, transport=TransportKind.RDMA)
        self.plogs = PLogManager(self.ssd_pool, self.clock)
        self.service = MessageStreamingService(
            self.plogs, self.bus, self.clock, num_workers=3,
            archive_pool=self.hdd_pool,
        )
        self.lakehouse = Lakehouse(
            self.hdd_pool, self.bus, self.clock,
            meta_store=AcceleratedMetadataStore(
                KVEngine("meta-cache", self.clock), self.hdd_pool, self.clock
            ),
            commit_protocol_s=commit_protocol_s,
        )
        self.warmup_s = warmup_s
        self.cpu_per_row_s = cpu_per_row_s

    def run(self, rows: list[dict[str, object]]) -> PipelineResult:
        result = PipelineResult(system="StreamLake", num_packets=len(rows))
        table, converter = self._setup(rows)
        result.stream_seconds = self._collect(rows, result)
        self._convert(converter, result)
        self._normalize(table, result)
        self._labeling(table, result)
        self._query(table, result)
        result.batch_seconds = sum(
            result.stage_seconds[name]
            for name in ("conversion", "normalization", "labeling", "query")
        )
        result.storage_bytes = (
            self.ssd_pool.used_bytes + self.hdd_pool.used_bytes
        )
        return result

    def _setup(self, rows: list[dict[str, object]]):
        config = TopicConfig(
            stream_num=3,
            convert_2_table=ConvertToTableConfig(
                enabled=True,
                table_schema=PacketGenerator.SCHEMA,
                table_path="tables/dpi",
                split_offset=max(1, len(rows)),
                delete_msg=False,
            ),
        )
        self.service.create_topic("dpi_raw", config)
        table = self.lakehouse.create_table(
            "dpi", _packet_schema(), PartitionSpec.by("hour(start_time)"),
            path="tables/dpi",
        )
        converter = StreamTableConverter(
            self.service, "dpi_raw", table, self.clock
        )
        return table, converter

    def _collect(self, rows: list[dict[str, object]],
                 result: PipelineResult) -> float:
        """Job (a): stream into stream objects; no extra landing copy."""
        stream_cost = self.warmup_s
        records = _rows_to_messages(rows, "dpi_raw")
        streams = self.service.dispatcher.streams_of("dpi_raw")
        for start in range(0, len(records), PRODUCE_BATCH):
            batch = records[start : start + PRODUCE_BATCH]
            stream_id = streams[(start // PRODUCE_BATCH) % len(streams)]
            stream_cost += self.service.deliver(stream_id, batch)
        # real-time consumers read the same stream objects
        for stream_id in streams:
            offset = 0
            while True:
                out, cost = self.service.fetch(stream_id, offset)
                stream_cost += cost
                if not out:
                    break
                offset = out[-1].offset + 1
        result.stage_seconds["collection"] = 0.0
        return stream_cost

    def _convert(self, converter: StreamTableConverter,
                 result: PipelineResult) -> None:
        """Stream -> table conversion replaces the raw landing job."""
        report = converter.run_cycle(force=True)
        cost = report.sim_seconds + report.converted * self.cpu_per_row_s
        result.stage_seconds["conversion"] = cost

    def _normalize(self, table, result: PipelineResult) -> None:
        """Only dirty rows' files are rewritten (clustered partitions)."""
        cost = table.update(Predicate("dirty", "=", True), {"dirty": False})
        result.stage_seconds["normalization"] = cost + self._touched_cpu(table)

    def _labeling(self, table, result: PipelineResult) -> None:
        cost = table.update(
            Predicate("app_label", "=", ""), {"app_label": "labeled"}
        )
        result.stage_seconds["labeling"] = cost + self._touched_cpu(table)

    def _touched_cpu(self, table) -> float:
        """CPU for rows in partitions the update touched (delta fraction)."""
        # the update already rewrote only matching files; approximate the
        # stage's compute as CPU over the rewritten rows
        last = table.snapshots.current
        commit = table.snapshots.commit(last.commit_ids[-1])
        return commit.added_records * self.cpu_per_row_s

    def _query(self, table, result: PipelineResult) -> None:
        """Job (d): filters + COUNT pushed down to storage."""
        stats = QueryStats()
        result.query_result = table.select(
            predicate=_dau_predicate(),
            aggregate=AggregateSpec("COUNT", group_by=("province",)),
            stats=stats,
        )
        cost = stats.total_cost_s + stats.rows_scanned * self.cpu_per_row_s
        result.stage_seconds["query"] = cost
