"""Sharded ingest: PLog group commits fanned over write-wave workers.

Every group commit is one write wave (:mod:`repro.parallel.ingest`):
it partitions the sealed slice group by PLog shard ownership and
charges the LPT makespan of the per-partition costs, which at width 1
is their back-to-back sum.  This bench offers a
10M+-record produce load through the full producer -> worker -> stream
object -> group commit path at ``write_parallelism`` 1/2/4/8 and
records, per width:

* **write-path sim seconds** — the summed costs of every PLog group
  commit (the makespan-charged write waves).  The headline
  ``speedup_write_sim`` compares widths on this metric;
* **pipeline sim seconds** — everything ``send_batch`` charges (bus
  transfer + PLog writes), showing how much of the pipeline the write
  path is;
* **wall seconds** — honest wall clock, with ``cores_available``
  recorded so a 1-core CI box is not misread as real 8-way hardware.

Every width must leave bit-identical PLog state to width 1 — same
index contents (which pin the addresses), same
``appends``/``bytes_appended``, same merged ingest counters — a scaling
number for a diverged replica is worthless.  Results merge into
``BENCH_ingest.json`` under ``"sharded_ingest"``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.bench import ResultTable
from repro.common.clock import SimClock
from repro.common.context import ExecutionContext, use_context
from repro.storage.bus import DataBus, TransportKind
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.config import TopicConfig
from repro.stream.producer import Producer
from repro.stream.service import MessageStreamingService

NUM_RECORDS = 10_485_760  # 1280 waves x 8192 records
VALUE_BYTES = 100
BATCH_SIZE = 8_192  # 32 slices per sealed group -> wide write waves
WORKER_COUNTS = [1, 2, 4, 8]
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_ingest.json"


def _build_service(width: int, mode: str) -> MessageStreamingService:
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    plogs = PLogManager(pool, clock)
    plogs.configure_write_parallelism(width, mode)
    bus = DataBus(clock, transport=TransportKind.RDMA)
    return MessageStreamingService(plogs, bus, clock, num_workers=2)


def _run_width(width: int, mode: str, num_records: int,
               values: list[bytes]) -> dict:
    """One full produce run at a write parallelism; returns metrics +
    the PLog state fingerprint compared against width 1."""
    context = ExecutionContext(f"ingest-shard-{width}-{mode}")
    with use_context(context):
        service = _build_service(width, mode)
        # quota sized for the offered load: the bench pumps the whole
        # load inside one sim "instant" (costs propagate by return
        # value), so a rate bucket would starve without refills
        service.create_topic(
            "ingest", TopicConfig(quota_msgs_per_s=2 * NUM_RECORDS)
        )
        # fixed producer id: the id is stamped into the wire format, and
        # the auto-counter would make each width's payloads differ
        producer = Producer(
            service, producer_id="bench-ingest", batch_size=BATCH_SIZE
        )
        plogs = service.plogs

        totals = {"write_sim_s": 0.0, "commits": 0}
        inner_append_batch = plogs.append_batch

        def tracked_append_batch(items):
            addresses, cost = inner_append_batch(items)
            totals["write_sim_s"] += cost
            totals["commits"] += 1
            return addresses, cost

        plogs.append_batch = tracked_append_batch

        pipeline_sim_s = 0.0
        offered = 0
        started = time.perf_counter()
        while offered < num_records:
            wave = values[: min(len(values), num_records - offered)]
            pipeline_sim_s += producer.send_batch("ingest", wave)
            offered += len(wave)
        pipeline_sim_s += producer.flush()
        pipeline_sim_s += service.flush_all()
        wall_s = time.perf_counter() - started

    return {
        "write_parallelism": width,
        "mode": mode,
        "write_sim_s": totals["write_sim_s"],
        "group_commits": totals["commits"],
        "pipeline_sim_s": pipeline_sim_s,
        "wall_s": wall_s,
        "records_per_s": offered / wall_s,
        "_state": {
            "index": list(plogs.index.scan("addr/")),
            "appends": plogs.appends,
            "bytes_appended": plogs.bytes_appended,
            "ingest": context.snapshot()["ingest"],
        },
    }


def run_ingest_shard_bench(num_records: int = NUM_RECORDS,
                           worker_counts: list[int] | None = None,
                           result_path: Path | None = RESULT_PATH) -> dict:
    worker_counts = worker_counts or WORKER_COUNTS
    values = [
        b"%08d:" % index + b"x" * (VALUE_BYTES - 9)
        for index in range(BATCH_SIZE)
    ]

    points = []
    base_state = None
    for width in worker_counts:
        point = _run_width(width, "serial", num_records, values)
        state = point.pop("_state")
        if base_state is None:
            base_state = state
        else:
            assert state["index"] == base_state["index"], (
                f"width {width} diverged from width 1's index"
            )
            assert state["appends"] == base_state["appends"]
            assert state["bytes_appended"] == base_state["bytes_appended"]
            assert state["ingest"] == base_state["ingest"], (
                f"width {width} counters diverged: "
                f"{state['ingest']} != {base_state['ingest']}"
            )
        points.append(point)

    # honesty run: a real thread pool at the top width must match too
    threaded = _run_width(worker_counts[-1], "thread", num_records, values)
    threaded_state = threaded.pop("_state")
    assert threaded_state["index"] == base_state["index"]
    assert threaded_state["ingest"] == base_state["ingest"]

    base, top = points[0], points[-1]
    results = {
        "num_records": num_records,
        "value_bytes": VALUE_BYTES,
        "batch_size": BATCH_SIZE,
        "slices_per_commit": BATCH_SIZE // 256,
        "cores_available": os.cpu_count(),
        "points": points,
        "speedup_write_sim": base["write_sim_s"] / top["write_sim_s"],
        "speedup_pipeline_sim": (
            base["pipeline_sim_s"] / top["pipeline_sim_s"]
        ),
        "thread_pool_width": worker_counts[-1],
        "thread_pool_wall_s": threaded["wall_s"],
        "thread_pool_write_sim_s": threaded["write_sim_s"],
        "state_identical_to_serial": True,
    }
    if result_path is not None:
        merged = {}
        if result_path.exists():
            merged = json.loads(result_path.read_text())
        merged["sharded_ingest"] = results
        result_path.write_text(json.dumps(merged, indent=2) + "\n")

    table = ResultTable(
        f"sharded ingest: {num_records:,} records x {VALUE_BYTES} B, "
        f"{base['group_commits']} group commits of "
        f"{results['slices_per_commit']} slices "
        f"({results['cores_available']} core(s) available)",
        ["width", "write sim", "pipeline sim", "wall", "write speedup"],
    )
    for point in points:
        table.add_row(
            str(point["write_parallelism"]),
            f"{point['write_sim_s'] * 1e3:,.1f} ms",
            f"{point['pipeline_sim_s'] * 1e3:,.1f} ms",
            f"{point['wall_s']:,.1f} s",
            f"{base['write_sim_s'] / point['write_sim_s']:.2f}x",
        )
    table.show()
    print(
        f"write-path sim speedup at {top['write_parallelism']} workers: "
        f"{results['speedup_write_sim']:.2f}x "
        f"(pipeline {results['speedup_pipeline_sim']:.2f}x); "
        f"thread-mode wall {threaded['wall_s']:.1f} s on "
        f"{results['cores_available']} core(s)"
    )
    return results


def test_ingest_shard(benchmark) -> None:
    from conftest import run_once

    results = run_once(benchmark, run_ingest_shard_bench)
    assert results["state_identical_to_serial"]
    assert results["speedup_write_sim"] >= 3.0


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_ingest_shard_bench(
        num_records=131_072 if smoke else NUM_RECORDS,
        worker_counts=[1, 2, 4] if smoke else None,
        result_path=None if smoke else RESULT_PATH,
    )
    floor = 1.5 if smoke else 3.0
    if outcome["speedup_write_sim"] < floor:
        raise SystemExit(
            f"sharded ingest scaling too weak: "
            f"{outcome['speedup_write_sim']:.2f}x < {floor}x"
        )
