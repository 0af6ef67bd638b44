"""The produce-side load generator shared by the write workloads.

*Open loop in sim time*: every tenant offers a fixed rate, released in
rounds of ``round_sim_s`` simulated seconds whether or not the previous
round's backlog has drained; a request's latency runs from the instant
its round was *due*, so a stall is charged to the requests behind it,
and how late the generator itself ran is reported.  *Closed loop in host
time*: one client, the next round starts when ``drain`` returns.

Refused requests are shed, not retried (a loss system), and counted per
tenant so the abuser's refusals never pollute the compliant share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    AdmissionRejectedError,
    BackpressureThrottledError,
    QuotaExceededError,
)
from repro.common.context import ExecutionContext, use_context
from repro.serving import ServingFrontend, TenantQuota

from inputs import Packets
from stack import build_stack, create_topic, quantile

REFUSALS = (QuotaExceededError, AdmissionRejectedError)
CALIBRATION_REQUESTS = 40


@dataclass
class Chunk:
    """One request's worth of records, cut from the seeded packet pool."""

    values: list[bytes]
    #: per-record routing keys (the packets' ``user_id``)
    record_keys: list[str]
    nbytes: int
    #: how many of ``values`` are not valid JSON (pipeline reconciliation)
    mangled: int = 0
    #: ``[start, stop)`` of these records in the tenant's packet pool
    source: tuple[int, int] = (0, 0)


def cut_chunks(packets: Packets, per: int) -> list[Chunk]:
    """The pool cut into whole requests of ``per`` records."""
    return [
        Chunk(packets.payloads[start:stop], packets.keys[start:stop],
              sum(map(len, packets.payloads[start:stop])),
              mangled=per - sum(packets.ok[start:stop]),
              source=(start, stop))
        for start in range(0, len(packets.payloads) - per + 1, per)
        for stop in [start + per]
    ]


@dataclass
class TenantLoad:
    rate_records_per_s: float
    chunks: list[Chunk]
    #: True: one routing key per record; False: one key per request
    key_per_record: bool = False
    cursor: int = 0
    owed: float = 0.0
    attempted: int = 0
    refused: int = 0
    throttled: int = 0
    acked_records: int = 0
    acked_bytes: int = 0
    acked_mangled: int = 0
    latency_s: list[float] = field(default_factory=list)


def calibrate_capacity(chunks: list[Chunk], streams: int) -> float:
    """Sim bus capacity (records/s) for this request shape.

    Deterministic: a throwaway stack serves a fixed burst from one
    unmetered tenant and the busy period gives the rate, so quotas that
    "sum to capacity" mean the same thing on any machine.
    """
    with use_context(ExecutionContext(name="calibrate")) as context:
        stack = build_stack(context, {"cal": TenantQuota(
            rate_msgs_per_s=1e9, rate_bytes_per_s=1e12,
            max_in_flight=100_000)})
        create_topic(stack, "calibrate", streams)
        started = stack.clock.now
        records = 0
        for index in range(CALIBRATION_REQUESTS):
            values = chunks[index % len(chunks)].values
            stack.frontend.produce(
                "cal", "calibrate", values,
                keys=[f"k{index}"] * len(values), batch_size=len(values))
            records += len(values)
        stack.frontend.drain()
        return records / (stack.clock.now - started)


class LoadGenerator:
    def __init__(self, frontend: ServingFrontend, topic: str,
                 loads: dict[str, TenantLoad], round_sim_s: float,
                 tracer) -> None:
        self.frontend = frontend
        self.topic = topic
        self.loads = loads
        self.round_sim_s = round_sim_s
        self.tracer = tracer
        self.origin = frontend.clock.now
        self.rounds = 0
        self.request_id = 0
        #: request id -> "record_key" / "request_key" (span attribution)
        self.labels: dict[int, str] = {}
        self.waits_s: list[float] = []
        #: sim instant each admitted request was acknowledged, this round
        self.acked_at: list[float] = []
        #: (tenant, chunk) of every request admitted this round
        self.acked_chunks: list[tuple[str, Chunk]] = []
        self.busy_sim_s = 0.0
        self.late_sim_s = 0.0

    def run_round(self, due: float | None = None) -> int:
        """Release one round of arrivals, drain it; returns records acked.

        ``due`` defaults to the fixed schedule ``origin + k * round_sim_s``.
        """
        frontend, tracer = self.frontend, self.tracer
        clock = frontend.clock
        if due is None:
            due = self.origin + self.rounds * self.round_sim_s
        self.rounds += 1
        if clock.now < due:
            clock.advance_to(due)
        late = clock.now - due
        self.late_sim_s = max(self.late_sim_s, late)
        acked = 0
        self.acked_chunks = []
        for tenant, load in self.loads.items():
            load.owed += load.rate_records_per_s * self.round_sim_s
            while True:
                chunk = load.chunks[load.cursor % len(load.chunks)]
                count = len(chunk.values)
                if load.owed < count:
                    break
                load.owed -= count
                load.cursor += 1
                self.request_id += 1
                tracer.request_id = self.request_id
                if load.key_per_record:
                    keys = chunk.record_keys
                    self.labels[self.request_id] = "record_key"
                else:
                    keys = [f"{tenant}/{load.attempted}"] * count
                    self.labels[self.request_id] = "request_key"
                load.attempted += 1
                try:
                    frontend.produce(tenant, self.topic, chunk.values,
                                     keys=keys, batch_size=count)
                except BackpressureThrottledError:
                    load.throttled += 1
                    load.refused += 1
                except REFUSALS:
                    load.refused += 1
                else:
                    acked += count
                    load.acked_records += count
                    load.acked_bytes += chunk.nbytes
                    load.acked_mangled += chunk.mangled
                    self.acked_chunks.append((tenant, chunk))
        tracer.request_id = -1
        last_batch: dict[int, object] = {}
        for dispatch in frontend.drain():
            self.busy_sim_s += dispatch.service_s
            # a request's batches complete in dispatch order, so the last
            # one seen carries the request's latency
            last_batch[id(dispatch.batch.ticket)] = dispatch
        self.acked_at = []
        for dispatch in last_batch.values():
            batch = dispatch.batch
            self.loads[batch.tenant_id].latency_s.append(
                dispatch.latency_s + late)
            self.waits_s.append(dispatch.started_at - batch.enqueued_at
                                + batch.pre_delay_s + late)
            self.acked_at.append(dispatch.completed_at)
        return acked

    # --- what the pass did, for its facts -----------------------------------

    def end_offsets(self) -> int:
        """Records the topic's stream objects hold, all streams summed."""
        service = self.frontend.service
        return sum(service.object_for(stream_id).end_offset
                   for stream_id in service.dispatcher.streams_of(self.topic))

    def facts(self, abuser: str | None = None) -> dict[str, float]:
        """Counts and sim figures of the produce side; ``abuser`` names
        the tenant whose refusals are its own fault, not the system's."""
        loads = list(self.loads.values())
        compliant = [load for tenant, load in self.loads.items()
                     if tenant != abuser]
        pooled = [value for load in compliant for value in load.latency_s]
        out = {
            "records_acked": sum(load.acked_records for load in loads),
            "user_bytes": sum(load.acked_bytes for load in loads),
            "requests_compliant": sum(l.attempted for l in compliant),
            "requests_compliant_refused": sum(l.refused for l in compliant),
            "requests_throttled": sum(load.throttled for load in loads),
            "produce_samples": len(pooled),
            "produce_sim_p50_s": quantile(pooled, 0.50),
            "produce_sim_p99_s": quantile(pooled, 0.99),
            "queue_wait_sim_p99_s": quantile(self.waits_s, 0.99),
            "worst_compliant_p99_s": max(
                quantile(load.latency_s, 0.99) for load in compliant),
            "generator_late_sim_s": self.late_sim_s,
            "busy_sim_s": self.busy_sim_s,
        }
        if abuser is not None:
            out["requests_abuser"] = self.loads[abuser].attempted
            out["requests_abuser_refused"] = self.loads[abuser].refused
        return out
