"""The multi-tenant serving front end.

:class:`ServingFrontend` is the tenant-facing entry point over one
:class:`~repro.stream.service.MessageStreamingService` and the lakehouse
scan path.  A produce flows::

    produce(tenant, topic, values)
      -> StreamDispatcher.route_keys   (the request's RoutePlan: its
                                        records per stream, hashed once)
      -> Backpressure.throttle         (sealed-slice lag gate, per stream
                                        of the plan)
      -> AdmissionController.admit     (token buckets + in-flight cap)
      -> Producer.send_batch           (one packed batch per stream and
                                        batch_size chunk of the plan)
           -> FairScheduler.submit     (per-tenant DRR queue)
    drain()
      -> FairScheduler.drain           (DRR dispatch order)
           -> service.deliver          (worker -> stream object -> group
                                        commit; the existing data path)
      -> SLOTracker.record_produce     (latency = queue + wait + service)

The producer is the plain :class:`~repro.stream.producer.Producer` — the
front end hands it a delegating proxy whose ``deliver`` enqueues into
the scheduler instead of hitting the worker directly, so packing,
per-key and per-stream ordering, idempotence sequences and transactions
all behave exactly as on the unscheduled path.  The one thing the two
share is the routing plan: the per-stream counts the front end gates on
are, by construction, the records the producer delivers per stream.
Scans go through the same admission gate and then
:func:`repro.parallel.sharded_select`, so one tenant's scan storm cannot
starve another tenant's produces at the admission layer.

Backpressure staleness: the lag signal is an *observation cache* —
``sync_backpressure`` refreshes it from the converter frontier, and
every admitted produce conservatively inflates it by the slices the
write could seal.  Between refreshes the signal only over-estimates, so
the high-water bound cannot be broken by stale reads (the hypothesis
invariant machine exercises exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import stats
from repro.parallel.query import ShardedQueryResult, sharded_select
from repro.serving.admission import AdmissionController, AdmissionTicket
from repro.serving.backpressure import Backpressure, sealed_lag
from repro.serving.scheduler import (
    DEFAULT_QUANTUM_BYTES,
    Dispatch,
    FairScheduler,
    ScheduledBatch,
)
from repro.serving.slo import SLOTracker
from repro.serving.tenant import TenantRegistry
from repro.stream.producer import Producer
from repro.stream.records import RECORDS_PER_SLICE, PackedRecordBatch
from repro.stream.service import MessageStreamingService
from repro.table.conversion import StreamTableConverter


class _SchedulingService:
    """Delegating proxy: ``deliver`` enqueues instead of delivering.

    Everything else (clock, dispatcher, transactions, …) passes through
    to the real service, so the unmodified :class:`Producer` works
    against it.  The front end sets the per-call context (tenant,
    ticket, arrival, pre-delay) before invoking the producer.
    """

    def __init__(self, frontend: "ServingFrontend") -> None:
        self._frontend = frontend

    def __getattr__(self, name: str):
        return getattr(self._frontend.service, name)

    def deliver(self, stream_id: str, records, txn_id=None) -> float:
        self._frontend._enqueue(stream_id, records, txn_id)
        return 0.0  # cost is charged at dispatch, not at enqueue


@dataclass
class ScanResult:
    """A tenant scan's rows plus its latency accounting."""

    rows: list[dict[str, object]]
    latency_s: float
    ticket: AdmissionTicket
    sharded: ShardedQueryResult


class ServingFrontend:
    """Quotas, admission, fair scheduling and SLOs over one service."""

    def __init__(self, service: MessageStreamingService,
                 registry: TenantRegistry, *,
                 quantum_bytes: int = DEFAULT_QUANTUM_BYTES,
                 max_queue_delay_s: float = 1.0,
                 backpressure: Backpressure | None = None,
                 slo: SLOTracker | None = None) -> None:
        self.service = service
        self.clock = service.clock
        self.registry = registry
        self.admission = AdmissionController(
            registry, service.clock, max_queue_delay_s=max_queue_delay_s
        )
        self.scheduler = FairScheduler(registry, quantum_bytes=quantum_bytes)
        self.backpressure = (
            backpressure if backpressure is not None else Backpressure()
        )
        self.slo = slo if slo is not None else SLOTracker()
        self._proxy = _SchedulingService(self)
        self._producers: dict[str, Producer] = {}
        #: converters registered per topic (backpressure frontier source)
        self._converters: dict[str, StreamTableConverter] = {}
        # per-call enqueue context (single-threaded simulation)
        self._current_ticket: AdmissionTicket | None = None
        self._current_pre_delay = 0.0
        self._current_arrival = 0.0

    # --- tenants and producers ---------------------------------------------

    def configure_write_parallelism(self, workers: int,
                                    mode: str = "thread") -> None:
        """Fan the PLog group commits behind every tenant ``workers`` wide.

        Dispatched batches drain through the producer/group-commit path
        unchanged; only the width of the backing
        :class:`~repro.storage.plog.PLogManager`'s write waves
        (:func:`repro.parallel.ingest.sharded_append_batch`) changes, and
        with it the charge: the LPT makespan of the per-partition costs
        over ``workers``, which at ``workers=1`` is their sum.  ``mode``
        is ``"serial"`` or ``"thread"``; anything else raises
        ``ValueError`` here.
        """
        self.service.plogs.configure_write_parallelism(workers, mode)

    def producer_for(self, tenant_id: str,
                     batch_size: int = 256) -> Producer:
        """The tenant's producer, bound through the scheduling proxy."""
        self.registry.get(tenant_id)
        producer = self._producers.get(tenant_id)
        if producer is None:
            producer = Producer(
                self._proxy,
                producer_id=f"tenant:{tenant_id}",
                batch_size=batch_size,
            )
            self._producers[tenant_id] = producer
        return producer

    # --- backpressure wiring -----------------------------------------------

    def attach_converter(self, topic: str,
                         converter: StreamTableConverter) -> None:
        """Bind a topic's converter as its backpressure frontier source."""
        self._converters[topic] = converter

    def sync_backpressure(self, topic: str | None = None) -> dict[str, int]:
        """Refresh lag observations from converter frontiers.

        Returns the per-stream lags observed.  Call after conversion
        cycles (and periodically from drivers); between calls the
        signal self-inflates conservatively on every admitted produce.
        The observation itself is also conservative: an unsealed open
        tail counts as one future lagging slice (a flush can seal it at
        any time), so admission can never let the *sealed* lag cross
        the high-water mark.
        """
        lags: dict[str, int] = {}
        topics = (
            [topic] if topic is not None else sorted(self._converters)
        )
        for name in topics:
            converter = self._converters[name]
            positions = converter.positions()
            for stream_id in sorted(positions):
                obj = self.service.object_for(stream_id)
                lag = sealed_lag(obj, positions[stream_id])
                slices = obj.sealed_slices()
                covered = (
                    slices[-1][0] + slices[-1][1] if slices else 0
                )
                if obj.end_offset > covered:
                    lag += 1  # the open tail may seal into one more
                self.backpressure.observe(stream_id, lag)
                lags[stream_id] = lag
        return lags

    # --- produce path -------------------------------------------------------

    def produce(self, tenant_id: str, topic: str, values: list[bytes],
                keys: list[str] | None = None,
                batch_size: int = 256) -> AdmissionTicket:
        """Admit and schedule one produce request.

        Raises :class:`~repro.errors.BackpressureThrottledError`,
        :class:`~repro.errors.AdmissionRejectedError` or
        :class:`~repro.errors.QuotaExceededError` before any token or
        sequence state changes; on success the request's batches sit in
        the scheduler until :meth:`drain`.
        """
        if keys is not None and len(keys) != len(values):
            raise ValueError(f"got {len(values)} values but {len(keys)} keys")
        size_bytes = sum(map(len, values))
        # routed once: the throttle check and lag inflation below count
        # records per stream off the plan the producer batches by
        dispatcher = self.service.dispatcher
        if keys is None:
            # keyless is one key: one topology read, as a producer pays
            plan = dispatcher.route_distinct_keys(topic, [""] * len(values))
        else:
            plan = dispatcher.route_keys(topic, keys)
        per_stream = plan.counts()
        throttle_delay = 0.0
        if topic in self._converters:
            # no converter => no reunion backlog to bound: backpressure
            # only gates topics with an attached conversion frontier
            try:
                for stream_id in sorted(per_stream):
                    throttle_delay += self.backpressure.throttle(
                        stream_id, per_stream[stream_id]
                    )
            except Exception:
                self.slo.record_throttle(tenant_id)
                raise
        try:
            ticket = self.admission.admit(tenant_id, len(values), size_bytes)
        except Exception:
            self.slo.record_rejection(tenant_id)
            raise
        if topic in self._converters:
            # conservative lag inflation: this request's records may
            # seal this many slices before the next observation refresh
            for stream_id, count in per_stream.items():
                self.backpressure.observe(
                    stream_id,
                    self.backpressure.lag_of(stream_id)
                    + -(-count // RECORDS_PER_SLICE),
                )
        producer = self.producer_for(tenant_id, batch_size=batch_size)
        producer.batch_size = batch_size
        self._current_ticket = ticket
        self._current_pre_delay = ticket.delay_s + throttle_delay
        self._current_arrival = self.clock.now
        try:
            producer.send_batch(topic, values, keys, plan=plan)
        finally:
            self._current_ticket = None
        if ticket.outstanding == 0:
            # every record was a duplicate (idempotent retry): nothing
            # reached the scheduler, so the request completes immediately
            self.admission.complete(ticket)
        return ticket

    def _enqueue(self, stream_id: str, records, txn_id) -> None:
        """Called by the proxy's ``deliver``: queue one batch for DRR."""
        if isinstance(records, PackedRecordBatch):
            size_bytes = records.wire_bytes
        else:
            size_bytes = sum(record.size_bytes for record in records)
        ticket = self._current_ticket
        if ticket is not None:
            ticket.outstanding += 1
        service = self.service
        batch = ScheduledBatch(
            tenant_id=(
                ticket.tenant_id if ticket is not None else "(unadmitted)"
            ),
            stream_id=stream_id,
            size_bytes=size_bytes,
            enqueued_at=self._current_arrival,
            dispatch=lambda: service.deliver(stream_id, records, txn_id),
            pre_delay_s=self._current_pre_delay,
            ticket=ticket,
        )
        self.scheduler.submit(batch)

    # --- dispatch -----------------------------------------------------------

    def drain(self, advance_clock: bool = True) -> list[Dispatch]:
        """Run the DRR loop over everything queued; record latencies.

        The busy period starts at ``clock.now``; when ``advance_clock``
        is set, simulated time moves to the last completion (the bus was
        continuously busy for exactly that long — work conservation).
        """
        dispatches = self.scheduler.drain(self.clock.now)
        for dispatch in dispatches:
            ticket = dispatch.batch.ticket
            if isinstance(ticket, AdmissionTicket):
                ticket.outstanding -= 1
                if ticket.outstanding == 0:
                    # a request's batches complete in dispatch order, so
                    # its last batch carries the request latency (one
                    # SLO sample per admitted request, not per batch)
                    self.slo.record_produce(
                        ticket.tenant_id, dispatch.latency_s
                    )
                    self.admission.complete(ticket)
        if advance_clock and dispatches:
            self.clock.advance_to(dispatches[-1].completed_at)
        return dispatches

    # --- scan path ----------------------------------------------------------

    def select(self, tenant_id: str, table, predicate=None, columns=None,
               aggregate=None, *, as_of=None, num_workers: int = 1,
               mode: str = "thread", pool=None) -> ScanResult:
        """Admission-gated SELECT through the sharded scan path.

        A scan request charges one message token (request-rate limiting
        shares the tenant's message bucket) and one in-flight slot; its
        latency is the admission wait plus the scan's simulated data
        cost, recorded against the tenant's scan SLO.
        """
        try:
            ticket = self.admission.admit(tenant_id, 1, 0)
        except Exception:
            self.slo.record_rejection(tenant_id)
            raise
        try:
            result = sharded_select(
                table, predicate=predicate, columns=columns,
                aggregate=aggregate, as_of=as_of,
                num_workers=num_workers, mode=mode, pool=pool,
            )
        finally:
            self.admission.complete(ticket)
        latency = ticket.delay_s + result.stats.data_cost_s
        self.slo.record_scan(tenant_id, latency)
        return ScanResult(
            rows=result.rows,
            latency_s=latency,
            ticket=ticket,
            sharded=result,
        )

    # --- reporting ----------------------------------------------------------

    def report(self) -> dict[str, object]:
        """One structured snapshot: SLOs, counters, scheduler state."""
        return {
            "tenants": self.slo.snapshot(),
            "serving": stats.serving_stats().snapshot(),
            "scheduler_rounds": self.scheduler.rounds,
            "backlog": self.scheduler.backlog,
        }


def topic_lags(service: MessageStreamingService, topic: str,
               positions: dict[str, int]) -> dict[str, int]:
    """Sealed-slice lag per stream of ``topic`` given a frontier map."""
    return {
        stream_id: sealed_lag(
            service.object_for(stream_id), positions.get(stream_id, 0)
        )
        for stream_id in service.dispatcher.streams_of(topic)
    }
