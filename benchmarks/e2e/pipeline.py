"""Workload ``pipeline_mixed``: a record's whole journey, writes beside reads.

Four tenants produce DPI packets through the serving front end into a
16-stream topic; every round the stream->table converter turns what was
acked into columnar files of an ``hour(start_time)``-partitioned table
(the paper's Fig 12 pipeline), backpressure is re-observed, and twenty
queries run against the fresh snapshot — two of them ``as_of`` the
previous round.  Then the normalization ``UPDATE`` rewrites the dirty
rows' files, every partition is compacted and forty more queries run.

It is the only workload where commits invalidate the snapshot-keyed
result cache, new files arrive cold in every tier, planner statistics go
stale each round and backpressure is live.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.context import ExecutionContext
from repro.serving import TenantQuota
from repro.stream.config import ConvertToTableConfig, TopicConfig
from repro.table.conversion import StreamTableConverter
from repro.table.expr import Predicate
from repro.table.schema import PartitionSpec

import inputs
from loadgen import (
    Chunk,
    LoadGenerator,
    TenantLoad,
    calibrate_capacity,
    cut_chunks,
)
from querying import QueryLog
from reference import SqlOracle, matches
from stack import (
    PassResult,
    Stack,
    build_stack,
    counters,
    create_topic,
    load_table,
    quantile,
    stack_facts,
    state_digest,
)

TOPIC = "dpi_raw"
TABLE = "dpi"
TABLES = (TABLE, "app_labels", "regions")

DIRTY_LEFT = inputs.Query(
    "q_dirty", "SELECT COUNT(*) AS n FROM dpi WHERE dirty = 1",
    "SELECT COUNT(*) FROM dpi WHERE dirty = 1 AND round_no <= {batch}",
    ("n",), ordered=False,
)
TENANT_COUNTS = inputs.Query(
    "q_tenants",
    "SELECT tenant, COUNT(*) AS n FROM dpi GROUP BY tenant ORDER BY tenant",
    "SELECT tenant, COUNT(*) FROM dpi WHERE round_no <= {batch} "
    "GROUP BY tenant ORDER BY tenant",
    ("tenant", "n"), ordered=True,
)


class PipelineMixed:
    name = "pipeline_mixed"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.sizes = {
            "tenants": 4,
            "streams": 16,
            "request_records": 250,
            "rounds": max(2, int(5 * scale ** 0.5)),
            "round_records": max(1_000, int(16_000 * scale)),
            "round_sim_s": 0.25,
            "pool_packets_per_tenant": max(500, int(8_000 * scale)),
            "hours": 24,
            "mangled_every": 997,
            "queries_per_round": 20,
            "queries_finale": 40,
        }

    # --- inputs -------------------------------------------------------------

    def make_inputs(self) -> dict:
        sizes = self.sizes
        per = sizes["request_records"]
        pools = {}
        chunks = {}
        # one set of hot hours for every tenant: the normalization UPDATE
        # then rewrites the same share of partitions whatever the seed
        hot = inputs.hot_hours(np.random.default_rng([self.seed, 20]),
                               sizes["hours"])
        for index in range(sizes["tenants"]):
            tenant = f"tenant_{index:02d}"
            rng = np.random.default_rng([self.seed, 21, index])
            packets = inputs.dpi_packets(
                rng, sizes["pool_packets_per_tenant"], tenant,
                sizes["hours"], hot, sizes["mangled_every"])
            pools[tenant] = packets
            chunks[tenant] = cut_chunks(packets, per)
        rng = np.random.default_rng([self.seed, 22])
        factory = inputs.DpiQueries(rng, sizes["hours"])
        rounds = [
            inputs.mixed_batch(factory, rng,
                               sizes["queries_per_round"] // 20)
            for _ in range(sizes["rounds"])
        ]
        finale = inputs.mixed_batch(factory, rng,
                                    sizes["queries_finale"] // 20)
        return {
            "pools": pools,
            "chunks": chunks,
            "round_queries": rounds,
            "finale_queries": finale,
            "oracle": None,
            "sha256": inputs.digest(
                [pool.payloads for pool in pools.values()],
                [q.sql for batch in rounds for q in batch],
                [q.sql for q in finale],
            ),
        }

    # --- set-up -------------------------------------------------------------

    def setup(self, data: dict, context: ExecutionContext) -> dict:
        sizes = self.sizes
        shares = inputs.zipf_shares(sizes["tenants"])
        first = next(iter(data["chunks"].values()))
        capacity = calibrate_capacity(first, sizes["streams"])
        mean_bytes = first[0].nbytes / sizes["request_records"]
        offered_total = sizes["round_records"] / sizes["round_sim_s"]
        loads = {}
        quotas = {}
        for (tenant, chunks), share in zip(data["chunks"].items(), shares):
            # quotas sum to the calibrated capacity; what is offered is a
            # fixed record count per round, far inside every quota
            loads[tenant] = TenantLoad(offered_total * share, chunks)
            quotas[tenant] = TenantQuota(
                rate_msgs_per_s=capacity * share,
                rate_bytes_per_s=capacity * share * mean_bytes * 2,
                max_in_flight=1024)
        stack = build_stack(context, quotas)
        create_topic(stack, TOPIC, sizes["streams"], TopicConfig(
            convert_2_table=ConvertToTableConfig(
                enabled=True, table_schema=inputs.DPI_SCHEMA.to_dict(),
                table_path=f"tables/{TABLE}", split_offset=10**9,
                split_time_s=10.0**9)))
        table = stack.lakehouse.create_table(
            TABLE, inputs.DPI_SCHEMA, PartitionSpec.by("hour(start_time)"),
            path=f"tables/{TABLE}")
        for name, (schema, columns) in inputs.dimension_tables().items():
            load_table(stack, name, schema, columns, batch_rows=10_000)
        converter = StreamTableConverter(stack.service, TOPIC, table,
                                         stack.clock)
        stack.frontend.attach_converter(TOPIC, converter)
        return {"stack": stack, "loads": loads, "converter": converter,
                "table": table, "capacity": capacity}

    # --- the measured pass --------------------------------------------------

    def run_pass(self, data: dict, state: dict, tracer) -> PassResult:
        sizes = self.sizes
        stack: Stack = state["stack"]
        loads: dict[str, TenantLoad] = state["loads"]
        converter: StreamTableConverter = state["converter"]
        table = state["table"]
        frontend, clock, lakehouse = stack.frontend, stack.clock, stack.lakehouse
        generator = LoadGenerator(frontend, TOPIC, loads,
                                  sizes["round_sim_s"], tracer)
        log = QueryLog()
        round_host: list[float] = []
        produce_host: list[float] = []
        produce_records: list[int] = []
        convert_host: list[float] = []
        convert_rows: list[int] = []
        freshness: list[float] = []
        snapshot_at: list[float] = []
        acked_chunks: list[list[tuple[str, Chunk]]] = []
        convert_sim = produce_sim = 0.0
        converted = malformed = 0

        before = counters(stack.context)
        reads_before = stack.pool.stats.extents_read
        origin = clock.now
        pass_started = time.perf_counter()
        with tracer.span("driver"):
            for round_no, queries in enumerate(data["round_queries"]):
                round_started = time.perf_counter()
                sim_started = clock.now
                with tracer.span("driver.produce"):
                    produce_records.append(
                        generator.run_round(due=clock.now))
                produce_host.append(time.perf_counter() - round_started)
                produce_sim += clock.now - sim_started
                acked_chunks.append(generator.acked_chunks)
                convert_started = time.perf_counter()
                with tracer.span("driver.convert"):
                    report = converter.run_cycle(force=True)
                    frontend.sync_backpressure(TOPIC)
                convert_host.append(time.perf_counter() - convert_started)
                convert_rows.append(report.converted)
                convert_sim += report.sim_seconds
                converted += report.converted
                malformed += report.malformed
                freshness.extend(clock.now - acked
                                 for acked in generator.acked_at)
                snapshot_at.append(clock.now)
                with tracer.span("driver.query"):
                    for query in queries:
                        back = min(query.as_of_back, round_no)
                        log.run(lakehouse, query, round_no - back,
                                snapshot_at[-1 - back] if back else None)
                round_host.append(time.perf_counter() - round_started)
            last = sizes["rounds"] - 1
            update_started = time.perf_counter()
            with tracer.span("driver.update"):
                update_sim = table.update(Predicate("dirty", "=", True),
                                          {"dirty": False})
            update_host = time.perf_counter() - update_started
            compact_started = time.perf_counter()
            compact_sim = 0.0
            rows_compacted = 0
            with tracer.span("driver.compact"):
                for partition, files in sorted(table.partitions().items()):
                    if len(files) > 1:
                        rows_compacted += sum(
                            meta.record_count for meta in files)
                    compact_sim += table.compact(
                        partition, target_file_bytes=10**12)
            compact_host = time.perf_counter() - compact_started
            finale_started = time.perf_counter()
            with tracer.span("driver.query"):
                for query in [DIRTY_LEFT, TENANT_COUNTS,
                              *data["finale_queries"]]:
                    back = min(query.as_of_back, last)
                    log.run(lakehouse, query, last - back,
                            snapshot_at[-1 - back] if back else None)
            finale_host = time.perf_counter() - finale_started
        pass_host = time.perf_counter() - pass_started

        facts = {
            "capacity_sim_rec_per_s": state["capacity"],
            **generator.facts(),
            "produce_phase_sim_s": produce_sim,
            "pass_sim_s": clock.now - origin,
            "freshness_sim_p90_s": quantile(freshness, 0.90),
            "rows_converted": converted,
            "rows_malformed": malformed,
            "rows_compacted": rows_compacted,
            "convert_sim_s": convert_sim,
            "update_sim_s": update_sim,
            "compact_sim_s": compact_sim,
            "files_live_end": table.live_file_count(),
            **log.facts(),
            "pool_reads": stack.pool.stats.extents_read - reads_before,
            **stack_facts(stack, before),
        }
        acked, end_offsets = facts["records_acked"], generator.end_offsets()
        problems = list(log.raised)
        if not acked == end_offsets == converted + malformed:
            problems.append(
                f"acked {acked} != end offsets {end_offsets} != converted "
                f"{converted} + malformed {malformed}")
        attempted = facts["requests_compliant"]
        refused = facts["requests_compliant_refused"]
        reunion_rows = sum(convert_rows) + rows_compacted
        return PassResult(
            round_host_s=round_host,
            pass_host_s=pass_host,
            tail_host_s=[update_host, compact_host, finale_host],
            attempted=attempted + len(log.queries),
            failed=refused + len(problems),
            facts=facts,
            host={
                "produce_host_s": sum(produce_host),
                "convert_host_s": sum(convert_host),
                "update_host_s": update_host,
                "compact_host_s": compact_host,
                "query_host_s": sum(log.host_s),
                "ingest_krec_per_s": float(np.median(
                    [records / seconds / 1e3 for records, seconds
                     in zip(produce_records, produce_host)])),
                "reunion_krow_per_s": reunion_rows / 1e3 / (
                    sum(convert_host) + compact_host),
                "query_per_s": 1.0 / float(np.median(log.host_s)),
            },
            state_sha256=state_digest(stack, TABLES),
            request_labels=generator.labels,
            problems=problems,
            pending=(log, acked_chunks),
        )

    # --- correctness --------------------------------------------------------

    def _oracle(self, data: dict,
                acked_chunks: list[list[tuple[str, Chunk]]]) -> SqlOracle:
        """sqlite loaded with exactly the records the stack acked, tagged
        with the round that delivered them (built once per run: every
        pass acks the same requests)."""
        if data["oracle"] is None:
            oracle = data["oracle"] = SqlOracle()
            oracle.create(TABLE, inputs.DPI_SCHEMA, "round_no",
                          indexes=("user_id", "start_time"))
            for name, (schema, columns) in inputs.dimension_tables().items():
                oracle.create(name, schema, "load_no")
                oracle.insert(name, columns, 0)
            for round_no, chunks in enumerate(acked_chunks):
                for tenant, chunk in chunks:
                    pool = data["pools"][tenant]
                    start, stop = chunk.source
                    oracle.insert(
                        TABLE,
                        {name: values[start:stop]
                         for name, values in pool.columns.items()},
                        round_no, keep=pool.ok[start:stop])
        return data["oracle"]

    def verify(self, data: dict, state: dict, result: PassResult
               ) -> list[str]:
        """Every query against sqlite; per-tenant row counts against what
        the front end acknowledged."""
        log, acked_chunks = result.pending
        oracle = self._oracle(data, acked_chunks)
        problems = []
        updated = False
        for query, batch, rows in zip(log.queries, log.batches, log.results):
            if rows is None:
                continue  # already counted as raised
            if query is DIRTY_LEFT and not updated:
                # the reference applies the normalization at the same
                # point of the script as the stack did
                oracle.execute("UPDATE dpi SET dirty = 0 WHERE dirty = 1")
                updated = True
            if not matches(query, rows, oracle.answer(query, batch)):
                problems.append(f"wrong result: {query.sql}")
        loads = state["loads"]
        counts = {
            row["tenant"]: row["n"]
            for query, rows in zip(log.queries, log.results)
            if query is TENANT_COUNTS and rows is not None for row in rows
        }
        for tenant, load in loads.items():
            expected = load.acked_records - load.acked_mangled
            if counts.get(tenant, 0) != expected:
                problems.append(
                    f"{tenant}: COUNT(*) {counts.get(tenant, 0)} != acked "
                    f"{load.acked_records} - mangled {load.acked_mangled}")
        return problems
