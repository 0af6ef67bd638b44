"""The front end and the producer read one routing plan.

What the throttle check and the lag inflation count per stream is what
the producer delivers per stream; a refused request leaves sequence,
token and backpressure state alone; per tenant, every offered request
is sent, shed or throttled.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.errors import (
    AdmissionRejectedError,
    BackpressureThrottledError,
    QuotaExceededError,
)
from repro.serving import (
    Backpressure,
    ServingFrontend,
    TenantQuota,
    TenantRegistry,
)
from repro.storage.bus import DataBus
from repro.storage.disk import NVME_SSD_PROFILE
from repro.storage.plog import PLogManager
from repro.storage.pool import StoragePool
from repro.storage.redundancy import erasure_coding_policy
from repro.stream.config import TopicConfig
from repro.stream.records import RECORDS_PER_SLICE
from repro.stream.service import MessageStreamingService

TOPIC = "orders"

routing_keys = st.sampled_from(
    ["", "a", "b", "c", "d", "user-1", "user-2", "user-3", "ключ"])


class _Frontier:
    """Stands in for a converter: marks the topic as backpressure-gated."""

    def positions(self) -> dict[str, int]:
        return {}


def build_frontend(stream_num: int = 4, *, high_water: int = 64,
                   quota: TenantQuota | None = None) -> ServingFrontend:
    clock = SimClock()
    pool = StoragePool("ssd", clock, policy=erasure_coding_policy(4, 2))
    pool.add_disks(NVME_SSD_PROFILE, 8)
    service = MessageStreamingService(
        PLogManager(pool, clock), DataBus(clock), clock, num_workers=2)
    service.create_topic(TOPIC, TopicConfig(stream_num=stream_num))
    registry = TenantRegistry()
    for tenant in ("alpha", "beta"):
        registry.register(tenant, quota if quota is not None else TenantQuota(
            rate_msgs_per_s=1e9, rate_bytes_per_s=1e12, max_in_flight=1000))
    frontend = ServingFrontend(
        service, registry,
        backpressure=Backpressure(high_water_slices=high_water))
    frontend.attach_converter(TOPIC, _Frontier())
    return frontend


def end_offsets(frontend: ServingFrontend) -> dict[str, int]:
    service = frontend.service
    return {
        stream_id: service.object_for(stream_id).end_offset
        for stream_id in service.dispatcher.streams_of(TOPIC)
    }


@settings(max_examples=60, deadline=None)
@given(
    keys=st.none() | st.lists(routing_keys, min_size=1, max_size=80),
    stream_num=st.integers(min_value=1, max_value=5),
    batch_size=st.integers(min_value=1, max_value=40),
)
def test_gated_counts_are_delivered_counts(keys, stream_num, batch_size):
    frontend = build_frontend(stream_num)
    backpressure = frontend.backpressure
    throttled: dict[str, int] = {}
    inflated: dict[str, int] = {}
    throttle, observe = backpressure.throttle, backpressure.observe

    def spy_throttle(stream_id, incoming_records):
        throttled[stream_id] = incoming_records
        return throttle(stream_id, incoming_records)

    def spy_observe(stream_id, lag_slices):
        inflated[stream_id] = lag_slices - backpressure.lag_of(stream_id)
        observe(stream_id, lag_slices)

    backpressure.throttle = spy_throttle
    backpressure.observe = spy_observe
    count = len(keys) if keys is not None else 7
    values = [b"v%d" % index for index in range(count)]

    ticket = frontend.produce("alpha", TOPIC, values, keys=keys,
                              batch_size=batch_size)
    queued: dict[str, int] = {}
    dispatches = frontend.drain()
    for dispatch in dispatches:
        stream_id = dispatch.batch.stream_id
        queued[stream_id] = queued.get(stream_id, 0) + 1

    delivered = {s: n for s, n in end_offsets(frontend).items() if n}
    assert throttled == delivered
    assert inflated == {
        stream_id: -(-records // RECORDS_PER_SLICE)
        for stream_id, records in delivered.items()
    }
    # one scheduled batch per (stream, chunk)
    assert queued == {
        stream_id: -(-records // batch_size)
        for stream_id, records in delivered.items()
    }
    assert ticket.records == count == sum(delivered.values())
    assert ticket.outstanding == 0
    assert frontend.admission.in_flight("alpha") == 0


def front_end_state(frontend: ServingFrontend, tenant: str) -> tuple:
    bucket = frontend.admission._bucket(tenant)
    bucket.refill(frontend.clock.now)  # refusals refill too; idempotent
    producer = frontend.producer_for(tenant)
    return (
        producer._sequence, producer.sent,
        bucket.msg_tokens, bucket.byte_tokens, bucket.in_flight,
        bucket.admitted,
        frontend.scheduler.backlog,
        {stream_id: frontend.backpressure.lag_of(stream_id)
         for stream_id in frontend.service.dispatcher.streams_of(TOPIC)},
        end_offsets(frontend),
    )


MULTI_KEY = [f"user-{index % 11}" for index in range(60)]


def test_request_refused_by_backpressure_changes_no_state():
    frontend = build_frontend(high_water=2)
    frontend.produce("alpha", TOPIC, [b"x"] * 60, keys=MULTI_KEY)
    frontend.drain()
    # push one of the request's streams to the high-water mark
    hot = frontend.service.dispatcher.route_key(TOPIC, MULTI_KEY[-1])
    frontend.backpressure.observe(hot, 2)
    before = front_end_state(frontend, "alpha")
    with pytest.raises(BackpressureThrottledError):
        frontend.produce("alpha", TOPIC, [b"y"] * 60, keys=MULTI_KEY)
    assert front_end_state(frontend, "alpha") == before
    assert frontend.slo.snapshot()["alpha"]["throttled"] == 1


@pytest.mark.parametrize("quota, error", [
    (TenantQuota(rate_msgs_per_s=100.0, rate_bytes_per_s=1e9,
                 max_in_flight=100, burst_s=1.0), QuotaExceededError),
    (TenantQuota(rate_msgs_per_s=1e9, rate_bytes_per_s=1e12,
                 max_in_flight=1), AdmissionRejectedError),
])
def test_request_refused_by_admission_changes_no_state(quota, error):
    frontend = build_frontend(quota=quota)
    frontend.produce("alpha", TOPIC, [b"x"] * 60, keys=MULTI_KEY)
    before = front_end_state(frontend, "alpha")
    with pytest.raises(error):
        # over quota (40 tokens left, 1 s queue bound) / over the cap
        frontend.produce("alpha", TOPIC, [b"y"] * 400,
                         keys=[f"user-{index}" for index in range(400)])
    assert front_end_state(frontend, "alpha") == before
    assert frontend.slo.snapshot()["alpha"]["rejected"] == 1
    frontend.drain()
    assert sum(end_offsets(frontend).values()) == 60


@settings(max_examples=25, deadline=None)
@given(requests=st.lists(
    st.tuples(st.sampled_from(["alpha", "beta"]),
              st.lists(routing_keys, min_size=1, max_size=300),
              st.booleans()),
    min_size=1, max_size=25,
))
def test_offered_is_sent_plus_shed_plus_throttled(requests):
    """Per tenant, with multi-key requests refused at both gates."""
    frontend = build_frontend(2, high_water=12, quota=TenantQuota(
        rate_msgs_per_s=400.0, rate_bytes_per_s=1e9, max_in_flight=3,
        burst_s=1.0))
    offered = {"alpha": 0, "beta": 0}
    sent = dict(offered)
    shed = dict(offered)
    throttled = dict(offered)
    acked_records = 0
    for tenant, keys, drain in requests:
        offered[tenant] += 1
        try:
            frontend.produce(tenant, TOPIC, [b"v"] * len(keys), keys=keys)
        except BackpressureThrottledError:
            throttled[tenant] += 1
        except (QuotaExceededError, AdmissionRejectedError):
            shed[tenant] += 1
        else:
            sent[tenant] += 1
            acked_records += len(keys)
        if drain:
            frontend.drain()
    frontend.drain()
    snapshot = frontend.slo.snapshot()
    for tenant in offered:
        assert offered[tenant] == (
            sent[tenant] + shed[tenant] + throttled[tenant])
        recorded = snapshot.get(tenant, {})
        assert recorded.get("admitted", 0) == sent[tenant]
        assert recorded.get("rejected", 0) == shed[tenant]
        assert recorded.get("throttled", 0) == throttled[tenant]
        counts = frontend.admission.tenant_counts(tenant)
        assert counts["admitted"] == sent[tenant] == counts["retired"]
        assert counts["rejected"] == shed[tenant]
    assert sum(end_offsets(frontend).values()) == acked_records
