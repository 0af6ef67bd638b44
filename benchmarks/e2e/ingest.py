"""Workload ``ingest_tenants``: the write plane only.

Twelve compliant tenants with Zipf quotas summing to the calibrated sim
bus capacity each offer half their quota; one abuser offers ten times
the rank-2 quota.  The three smallest tenants key every record by
``user_id`` (one packed batch per record: the slow routing path), the
rest key by request (one batch per request: the fast one), so host time
splits across both.  No converter is attached and no table exists:
``serving`` + ``stream`` + ``storage`` + ``parallel.ingest`` do all the
work.

Arrivals are an open loop in sim time — fixed per-tenant rates per
round, latency timed from the round's due time — and a closed loop with
one client in host time.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.context import ExecutionContext
from repro.serving import TenantQuota

import inputs
from loadgen import LoadGenerator, TenantLoad, calibrate_capacity, cut_chunks
from stack import (
    PassResult,
    Stack,
    build_stack,
    counters,
    create_topic,
    stack_facts,
    state_digest,
)

TOPIC = "dpi_raw"
ABUSER = "abuser"


class IngestTenants:
    name = "ingest_tenants"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.sizes = {
            "tenants": 12,
            "record_key_tenants": 3,
            "streams": 64,
            "request_records": 500,
            "pool_packets": max(2_000, int(128_000 * scale)),
            "rounds": max(3, int(12 * scale)),
            "round_sim_s": 0.05,
            "abuser_factor": 10,
            "abuser_rank": 2,
        }

    # --- inputs -------------------------------------------------------------

    def make_inputs(self) -> dict:
        sizes = self.sizes
        rng = np.random.default_rng([self.seed, 11])
        packets = inputs.dpi_packets(rng, sizes["pool_packets"], tenant="",
                                     hours=48,
                                     hot=inputs.hot_hours(rng, 48))
        return {"chunks": cut_chunks(packets, sizes["request_records"]),
                "sha256": inputs.digest(packets.payloads)}

    # --- set-up -------------------------------------------------------------

    def setup(self, data: dict, context: ExecutionContext) -> dict:
        sizes = self.sizes
        capacity = calibrate_capacity(data["chunks"], sizes["streams"])
        mean_bytes = sum(chunk.nbytes for chunk in data["chunks"]) / (
            len(data["chunks"]) * sizes["request_records"])
        shares = inputs.zipf_shares(sizes["tenants"])
        rates = {f"t{index:02d}": capacity * share
                 for index, share in enumerate(shares)}
        quotas = {
            tenant: TenantQuota(rate_msgs_per_s=rate,
                                rate_bytes_per_s=rate * mean_bytes * 2,
                                max_in_flight=1024)
            for tenant, rate in rates.items()
        }
        abuser_rate = rates[f"t{sizes['abuser_rank']:02d}"]
        quotas[ABUSER] = TenantQuota(
            rate_msgs_per_s=abuser_rate,
            rate_bytes_per_s=abuser_rate * mean_bytes * 2,
            max_in_flight=1024, burst_s=0.25)
        stack = build_stack(context, quotas, max_queue_delay_s=0.25)
        create_topic(stack, TOPIC, sizes["streams"])
        chunks = data["chunks"]
        by_record = set(sorted(rates)[-sizes["record_key_tenants"]:])
        loads = {}
        for index, (tenant, rate) in enumerate(rates.items()):
            # each tenant starts elsewhere in the shared pool
            start = index * len(chunks) // (len(rates) + 1)
            loads[tenant] = TenantLoad(
                rate / 2, chunks, key_per_record=tenant in by_record,
                cursor=start)
        loads[ABUSER] = TenantLoad(
            abuser_rate * sizes["abuser_factor"], chunks,
            cursor=len(rates) * len(chunks) // (len(rates) + 1))
        return {"stack": stack, "capacity": capacity, "loads": loads}

    # --- the measured pass --------------------------------------------------

    def run_pass(self, data: dict, state: dict, tracer) -> PassResult:
        stack: Stack = state["stack"]
        loads: dict[str, TenantLoad] = state["loads"]
        clock = stack.clock
        generator = LoadGenerator(stack.frontend, TOPIC, loads,
                                  self.sizes["round_sim_s"], tracer)
        round_host: list[float] = []
        round_records: list[int] = []
        before = counters(stack.context)
        pass_started = time.perf_counter()
        with tracer.span("driver"):
            with tracer.span("driver.produce"):
                for _ in range(self.sizes["rounds"]):
                    round_started = time.perf_counter()
                    round_records.append(generator.run_round())
                    round_host.append(time.perf_counter() - round_started)
            produce_sim = clock.now - generator.origin
            # seal every open tail so the pool holds all acked bytes
            # before space is measured; its own phase, not a produce cost
            flush_started = time.perf_counter()
            with tracer.span("driver.flush"):
                stack.service.flush_all()
            flush_host = time.perf_counter() - flush_started
        pass_host = time.perf_counter() - pass_started

        facts = {
            "capacity_sim_rec_per_s": state["capacity"],
            **generator.facts(abuser=ABUSER),
            "produce_phase_sim_s": produce_sim,
            "pass_sim_s": clock.now - generator.origin,
            "records_by_record_key": sum(
                load.acked_records for load in loads.values()
                if load.key_per_record),
            **stack_facts(stack, before),
        }
        end_offsets = generator.end_offsets()
        problems = []
        if not (facts["records_acked"] == end_offsets
                == facts["serving.records_admitted"]
                == facts["ingest.records_appended"]):
            problems.append(
                f"acked {facts['records_acked']} != stream end offsets "
                f"{end_offsets} != admitted "
                f"{facts['serving.records_admitted']} != appended "
                f"{facts['ingest.records_appended']}")
        for tenant, load in loads.items():
            admitted = stack.frontend.admission.tenant_counts(
                tenant)["admitted"]
            if admitted != load.attempted - load.refused:
                problems.append(
                    f"{tenant}: admitted {admitted} != attempted "
                    f"{load.attempted} - refused {load.refused}")
        return PassResult(
            round_host_s=round_host,
            pass_host_s=pass_host,
            tail_host_s=[flush_host],
            attempted=facts["requests_compliant"],
            failed=facts["requests_compliant_refused"] + len(problems),
            facts=facts,
            host={
                "produce_host_s": sum(round_host),
                "flush_host_s": flush_host,
                "ingest_krec_per_s": float(np.median(
                    [records / seconds / 1e3 for records, seconds
                     in zip(round_records, round_host)])),
            },
            state_sha256=state_digest(stack),
            request_labels=generator.labels,
            problems=problems,
        )

    def verify(self, data: dict, state: dict, result: PassResult
               ) -> list[str]:
        """Nothing beyond the in-pass reconciliation: no table, no query."""
        return []
