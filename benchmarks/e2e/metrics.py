"""Metric definitions, and how each value is computed from a run.

Two currencies, never mixed: ``host`` is Python wall seconds on this
box (medians over rounds and passes; it does not repeat), ``sim`` is
:class:`~repro.common.clock.SimClock` seconds of the modelled cluster
(a pure function of the seed; it repeats bit for bit).  ``count`` and
``ratio`` figures are exact.  A host figure is never divided by a sim
figure or added to one.

End-to-end metrics are what the driver gates on, so each is defined on
every workload and is never zero.  Per-layer metrics come from the
traced pass (host self times) and from the counter families the program
already exposes (counts, sim); a layer that a workload does not touch
reports 0.  ``moves`` records, before any optimisation is attempted,
which end-to-end metric a layer metric should move and on which
workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from stack import PassResult


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    currency: str  # host | sim | count | ratio
    better: str
    bound: float | None = None
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "host", "lower", 0.25,
           "stack build, table load, statistics training, cache warm-up; "
           "median over the run's passes"),
    Metric("round_host_ms", "ms", "host", "lower", 0.15,
           "host time of the mean fixed-size round, each round at its "
           "best pass"),
    Metric("pass_host_s", "s", "host", "lower", 0.15,
           "host time of one whole pass, first request to last result: "
           "the sum of its pieces, each at its best pass; a plain total, "
           "kept to catch what the round median hides"),
    Metric("host_peak_rss_mb", "MB", "host", "lower", 0.10,
           "peak resident set of the process"),
    Metric("space_amp", "B/B", "ratio", "lower", 0.05,
           "pool bytes used per user payload byte at the end of a pass"),
)

_ROUND = "round_host_ms"
_ING, _PIPE, _COLD, _WARM = ("ingest_tenants", "pipeline_mixed",
                             "query_cold", "query_warm")

PER_LAYER = (
    # phases of the record's journey, measured untraced
    Metric("phase.ingest_host_krec_per_s", "krec/s", "host", "higher",
           moves=f"{_ROUND} on {_ING}, {_PIPE}"),
    Metric("phase.reunion_host_krow_per_s", "krow/s", "host", "higher",
           moves=f"{_ROUND}, pass_host_s on {_PIPE}"),
    Metric("phase.query_host_per_s", "1/s", "host", "higher",
           moves=f"{_ROUND} on {_PIPE}, {_COLD}, {_WARM}"),
    Metric("phase.ingest_sim_krec_per_s", "krec/s", "sim", "higher"),
    Metric("phase.produce_sim_p50_ms", "ms", "sim", "lower"),
    Metric("phase.produce_sim_p99_ms", "ms", "sim", "lower"),
    Metric("phase.query_sim_p50_ms", "ms", "sim", "lower"),
    Metric("phase.query_sim_p90_ms", "ms", "sim", "lower"),
    Metric("phase.freshness_sim_p90_ms", "ms", "sim", "lower"),
    Metric("phase.pass_sim_s", "s", "sim", "lower"),
    Metric("phase.failed_share", "ratio", "ratio", "lower"),
    # serving
    Metric("serving.admit_host_us_per_req", "us", "host", "lower",
           moves=f"{_ROUND} on {_ING}"),
    Metric("serving.route_host_us_per_krec_request_key", "us", "host",
           "lower", moves=f"{_ROUND} on {_ING}"),
    Metric("serving.route_host_us_per_krec_record_key", "us", "host",
           "lower", moves=f"{_ROUND} on {_ING}"),
    Metric("serving.drr_host_us_per_batch", "us", "host", "lower",
           moves=f"{_ROUND} on {_ING}"),
    Metric("serving.queue_wait_sim_p99_ms", "ms", "sim", "lower"),
    Metric("serving.worst_compliant_p99_ms", "ms", "sim", "lower"),
    Metric("serving.abuser_shed_share", "ratio", "ratio", "higher"),
    Metric("serving.compliant_shed_share", "ratio", "ratio", "lower"),
    Metric("serving.throttled_requests", "count", "count", "lower"),
    Metric("serving.generator_late_sim_ms", "ms", "sim", "lower"),
    # stream
    Metric("stream.pack_host_us_per_krec", "us", "host", "lower",
           moves=f"{_ROUND} on {_ING}"),
    Metric("stream.deliver_host_us_per_krec", "us", "host", "lower",
           moves=f"{_ROUND} on {_ING}"),
    Metric("stream.read_values_host_us_per_krec", "us", "host", "lower",
           moves=f"{_ROUND} on {_PIPE}"),
    Metric("stream.slices_sealed", "count", "count", "lower"),
    Metric("stream.compression_ratio", "B/B", "ratio", "higher",
           moves="space_amp"),
    Metric("stream.other_sim_s", "s", "sim", "lower"),
    # storage
    Metric("storage.plog_append_host_us_per_krec", "us", "host", "lower",
           moves=f"{_ROUND} on {_ING}"),
    Metric("storage.ec_encode_host_us_per_mb", "us", "host", "lower",
           moves=f"{_ROUND} on {_ING}, {_PIPE}"),
    Metric("storage.store_batch_host_us_per_extent", "us", "host", "lower",
           moves=f"{_ROUND} on {_ING}"),
    Metric("storage.group_commits", "count", "count", "lower"),
    Metric("storage.ec_payloads_encoded", "count", "count", "lower"),
    Metric("storage.write_sim_s", "s", "sim", "lower"),
    Metric("storage.bus_sim_s", "s", "sim", "lower"),
    Metric("storage.bytes_written_per_user_byte", "B/B", "ratio", "lower",
           moves="space_amp"),
    Metric("storage.fetch_calls", "count", "count", "lower",
           moves=f"{_ROUND} on {_COLD}; 0 on {_WARM}"),
    Metric("storage.fetch_host_ms", "ms", "host", "lower",
           moves=f"{_ROUND} on {_COLD}"),
    Metric("storage.fetch_sim_s", "s", "sim", "lower"),
    Metric("storage.pool_reads_per_query", "count", "count", "lower",
           moves=f"{_ROUND} on {_COLD}; 0 on {_WARM}"),
    Metric("storage.degraded_reads", "count", "count", "lower"),
    # parallel
    Metric("parallel.ingest_makespan_share", "ratio", "sim", "lower"),
    Metric("parallel.scan_shard_skew", "ratio", "ratio", "lower"),
    Metric("parallel.scan_scheduled_host_s", "s", "host", "lower",
           moves="modelled (slowest shard per scan); never end to end"),
    Metric("parallel.thread_vs_serial_host_ratio", "ratio", "host", "lower"),
    # table
    Metric("table.convert_host_us_per_krow", "us", "host", "lower",
           moves=f"{_ROUND}, pass_host_s on {_PIPE}"),
    Metric("table.json_parse_host_us_per_krow", "us", "host", "lower",
           moves=f"{_ROUND} on {_PIPE}"),
    Metric("table.file_build_host_us_per_krow", "us", "host", "lower",
           moves=f"{_ROUND} on {_PIPE}; setup_s on {_COLD}, {_WARM}"),
    Metric("table.update_host_s", "s", "host", "lower",
           moves=f"pass_host_s on {_PIPE}"),
    Metric("table.compact_host_us_per_krow", "us", "host", "lower",
           moves=f"pass_host_s on {_PIPE}"),
    Metric("table.convert_sim_s", "s", "sim", "lower"),
    Metric("table.compact_sim_s", "s", "sim", "lower"),
    Metric("table.rows_malformed", "count", "count", "lower"),
    Metric("table.files_live_end", "count", "count", "lower"),
    Metric("table.sql_parse_host_us_per_query", "us", "host", "lower",
           moves=f"{_ROUND} on {_WARM}"),
    Metric("table.exec_host_us_per_query", "us", "host", "lower",
           moves=f"{_ROUND} on {_WARM}, {_COLD}"),
    Metric("table.plan_host_ms_per_join", "ms", "host", "lower",
           moves=f"{_ROUND} on {_COLD}, {_WARM}"),
    Metric("table.scan_decode_host_us_per_krow", "us", "host", "lower",
           moves=f"{_ROUND} on {_COLD}"),
    Metric("table.agg_host_us_per_krow", "us", "host", "lower",
           moves=f"{_ROUND} on {_COLD}"),
    Metric("table.join_host_us_per_krow", "us", "host", "lower",
           moves=f"{_ROUND} on {_COLD}, {_WARM}"),
    Metric("table.row_groups_pruned_share", "ratio", "ratio", "higher"),
    Metric("table.rows_examined_per_row_returned", "ratio", "ratio",
           "lower"),
    # cache
    Metric("cache.result_hit_rate", "ratio", "ratio", "higher",
           moves=f"{_ROUND} on {_WARM}; 0 on {_COLD}"),
    Metric("cache.chunk_hit_rate", "ratio", "ratio", "higher",
           moves=f"{_ROUND} on {_WARM}"),
    Metric("cache.block_hit_rate", "ratio", "ratio", "higher"),
    Metric("cache.footer_hit_rate", "ratio", "ratio", "higher"),
    Metric("cache.meta_hit_rate", "ratio", "ratio", "higher"),
    Metric("cache.result_evictions", "count", "count", "lower"),
    Metric("cache.chunk_evictions", "count", "count", "lower"),
    Metric("cache.block_evictions", "count", "count", "lower"),
    Metric("cache.footer_evictions", "count", "count", "lower"),
    Metric("cache.lookup_host_us_per_query", "us", "host", "lower",
           moves=f"{_ROUND} on {_WARM}"),
    # lakebrain
    Metric("lakebrain.spn_train_host_s", "s", "host", "lower",
           moves=f"setup_s on {_COLD}, {_WARM}; {_ROUND} on {_PIPE}"),
    Metric("lakebrain.spn_retrains", "count", "count", "lower"),
    # the trace itself
    Metric("trace.driver_self_share", "ratio", "host", "lower"),
    Metric("trace.overhead_share", "ratio", "host", "lower"),
    Metric("trace.sim_unattributed_share", "ratio", "sim", "lower"),
    Metric("trace.serving_stream_self_share", "ratio", "host", "lower"),
    Metric("trace.storage_parallel_self_share", "ratio", "host", "lower"),
    Metric("trace.table_cache_self_share", "ratio", "host", "lower"),
)


def _div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _best_pieces(passes: list[PassResult]) -> tuple[list[float], list[float]]:
    """Each round's, and each closing piece's, best timing over the passes.

    Every pass runs the same pieces, so piece *k* is timed once per pass.
    On a shared box interference only ever adds time: the best of those
    timings is the steady estimate of piece *k*.
    """
    rounds = [min(timings) for timings in zip(
        *(result.round_host_s for result in passes))]
    tail = [min(timings) for timings in zip(
        *(result.tail_host_s for result in passes))]
    return rounds, tail


def round_host_s(passes: list[PassResult]) -> float:
    """Host seconds of the mean round (a mean, not a median: the literals
    make rounds differ, and which round is the middle one would then
    depend on the seed)."""
    rounds, _ = _best_pieces(passes)
    return sum(rounds) / len(rounds)


def pass_host_s(passes: list[PassResult]) -> float:
    """Host seconds of one whole pass: every round plus whatever follows
    the rounds — a plain total of the same steady estimates."""
    rounds, tail = _best_pieces(passes)
    return sum(rounds) + sum(tail)


def end_to_end(setups: list[float], passes: list[PassResult],
               peak_rss_mb: float) -> dict[str, float]:
    facts = passes[0].facts
    return {
        "setup_s": statistics.median(setups),
        "round_host_ms": 1e3 * round_host_s(passes),
        "pass_host_s": pass_host_s(passes),
        "host_peak_rss_mb": peak_rss_mb,
        "space_amp": facts["pool_used_bytes"] / facts["user_bytes"],
    }


def per_layer(untraced: list[PassResult], traced: list[PassResult],
              spans, extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one workload.

    ``untraced`` passes supply counts, sim figures and phase throughputs;
    ``spans`` (the first traced pass's :class:`~trace.Tracer`) supplies
    host self times; ``extras`` carries what only the runner can measure.
    """
    facts = untraced[0].facts
    names = spans.by_name()
    produce = spans.by_name("driver.produce")

    def fact(name: str) -> float:
        return facts.get(name, 0.0)

    def host(name: str) -> float:
        # throughputs: the best pass, for the reason round_host_s gives
        return max((result.host[name] for result in untraced
                    if name in result.host), default=0.0)

    def self_s(name: str) -> float:
        return names.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return names.get(name, {}).get("calls", 0)

    def sim(table: dict, name: str, key: str = "sim_s") -> float:
        return table.get(name, {}).get(key, 0.0)

    def hit_rate(tier: str) -> float:
        hits = fact(f"cache:table.{tier}_cache.hits")
        return _div(hits, hits + fact(f"cache:table.{tier}_cache.misses"))

    krec = fact("records_acked") / 1e3
    rows_in = (fact("rows_converted") + fact("rows_malformed")) / 1e3
    queries = fact("queries")
    root = names.get("driver", {}).get("total_s", 0.0)
    by_style = {"request_key": 0.0, "record_key": 0.0}
    offered = dict(by_style)
    routed = spans.self_by_request("serving.produce")
    for request_id, label in traced[0].request_labels.items():
        by_style[label] += routed.get(request_id, 0.0)
        offered[label] += 1
    request_records = _div(fact("serving.records_admitted"),
                           fact("serving.requests_admitted"))
    bus_sim = sim(produce, "storage.bus")
    write_sim = sim(produce, "storage.plog_append")
    other_sim = sim(produce, "stream.deliver") - bus_sim - write_sim
    produce_sim = fact("produce_phase_sim_s")

    def layer_share(*prefixes: str) -> float:
        return _div(sum(entry["self_s"] for name, entry in names.items()
                        if name.startswith(prefixes)), root)

    untraced_round = round_host_s(untraced)
    traced_round = round_host_s(traced)

    out = {
        "phase.ingest_host_krec_per_s": host("ingest_krec_per_s"),
        "phase.reunion_host_krow_per_s": host("reunion_krow_per_s"),
        "phase.query_host_per_s": host("query_per_s"),
        "phase.ingest_sim_krec_per_s": _div(krec, fact("busy_sim_s")),
        "phase.produce_sim_p50_ms": 1e3 * fact("produce_sim_p50_s"),
        "phase.produce_sim_p99_ms": 1e3 * fact("produce_sim_p99_s"),
        "phase.query_sim_p50_ms": 1e3 * fact("query_sim_p50_s"),
        "phase.query_sim_p90_ms": 1e3 * fact("query_sim_p90_s"),
        "phase.freshness_sim_p90_ms": 1e3 * fact("freshness_sim_p90_s"),
        "phase.pass_sim_s": fact("pass_sim_s"),
        "phase.failed_share": _div(untraced[0].failed,
                                   untraced[0].attempted),

        "serving.admit_host_us_per_req": 1e6 * _div(
            self_s("serving.admit"), calls("serving.admit")),
        "serving.route_host_us_per_krec_request_key": 1e6 * _div(
            by_style["request_key"],
            offered["request_key"] * request_records / 1e3),
        "serving.route_host_us_per_krec_record_key": 1e6 * _div(
            by_style["record_key"],
            offered["record_key"] * request_records / 1e3),
        "serving.drr_host_us_per_batch": 1e6 * _div(
            self_s("serving.drr") + self_s("serving.drain"),
            fact("serving.batches_scheduled")),
        "serving.queue_wait_sim_p99_ms": 1e3 * fact("queue_wait_sim_p99_s"),
        "serving.worst_compliant_p99_ms":
            1e3 * fact("worst_compliant_p99_s"),
        "serving.abuser_shed_share": _div(
            fact("requests_abuser_refused"), fact("requests_abuser")),
        "serving.compliant_shed_share": _div(
            fact("requests_compliant_refused"), fact("requests_compliant")),
        "serving.throttled_requests": fact("requests_throttled"),
        "serving.generator_late_sim_ms": 1e3 * fact("generator_late_sim_s"),

        "stream.pack_host_us_per_krec": 1e6 * _div(
            self_s("stream.pack"), krec),
        "stream.deliver_host_us_per_krec": 1e6 * _div(
            self_s("stream.deliver"), krec),
        "stream.read_values_host_us_per_krec": 1e6 * _div(
            self_s("stream.read_values"), rows_in),
        "stream.slices_sealed": fact("ingest.slices_sealed"),
        "stream.compression_ratio": _div(
            fact("ingest.bytes_encoded"), fact("ingest.bytes_compressed")),
        "stream.other_sim_s": other_sim,

        "storage.plog_append_host_us_per_krec": 1e6 * _div(
            self_s("storage.plog_append"), krec),
        "storage.ec_encode_host_us_per_mb": 1e6 * _div(
            self_s("storage.ec_encode"), fact("pool_logical_bytes") / 1e6),
        "storage.store_batch_host_us_per_extent": 1e6 * _div(
            self_s("storage.store_batch") + self_s("storage.store"),
            fact("extents_written")),
        "storage.group_commits": fact("ingest.plog_group_commits"),
        "storage.ec_payloads_encoded": fact("ingest.ec_payloads_encoded"),
        "storage.write_sim_s": write_sim,
        "storage.bus_sim_s": bus_sim,
        "storage.bytes_written_per_user_byte": _div(
            fact("pool_used_bytes"), fact("user_bytes")),
        "storage.fetch_calls": calls("storage.fetch"),
        "storage.fetch_host_ms": 1e3 * self_s("storage.fetch"),
        "storage.fetch_sim_s": sim(names, "storage.fetch"),
        "storage.pool_reads_per_query": _div(fact("pool_reads"), queries),
        "storage.degraded_reads": fact("degraded_reads"),

        "parallel.ingest_makespan_share": _div(
            sim(names, "parallel.ingest_wave"),
            sim(names, "parallel.ingest_wave", "aux")),
        "parallel.scan_shard_skew": extras.get("scan_shard_skew", 0.0),
        "parallel.scan_scheduled_host_s":
            extras.get("scan_scheduled_host_s", 0.0),
        "parallel.thread_vs_serial_host_ratio":
            extras.get("thread_vs_serial_host_ratio", 0.0),

        "table.convert_host_us_per_krow": 1e6 * _div(
            self_s("table.convert"), rows_in),
        "table.json_parse_host_us_per_krow": 1e6 * _div(
            self_s("table.json_parse"), rows_in),
        "table.file_build_host_us_per_krow": 1e6 * _div(
            self_s("table.file_build"), fact("rows_converted") / 1e3),
        "table.update_host_s": self_s("table.update"),
        "table.compact_host_us_per_krow": 1e6 * _div(
            self_s("table.compact"), fact("rows_compacted") / 1e3),
        "table.convert_sim_s": fact("convert_sim_s"),
        "table.compact_sim_s": fact("compact_sim_s"),
        "table.rows_malformed": fact("rows_malformed"),
        "table.files_live_end": fact("files_live_end"),
        "table.sql_parse_host_us_per_query": 1e6 * _div(
            self_s("table.sql_parse"), calls("table.sql_parse")),
        "table.exec_host_us_per_query": 1e6 * _div(
            self_s("table.query"), calls("table.query")),
        "table.plan_host_ms_per_join": 1e3 * _div(
            self_s("table.plan"), calls("table.plan")),
        "table.scan_decode_host_us_per_krow": 1e6 * _div(
            self_s("table.decode"), fact("query_rows_scanned") / 1e3),
        "table.agg_host_us_per_krow": 1e6 * _div(
            self_s("table.agg"), fact("aggregation.rows_aggregated") / 1e3),
        "table.join_host_us_per_krow": 1e6 * _div(
            self_s("table.join"),
            (fact("joins.build_rows") + fact("joins.probe_rows")) / 1e3),
        "table.row_groups_pruned_share": _div(
            fact("query_files_skipped") + fact("query_row_groups_skipped"),
            fact("query_files_total")),
        "table.rows_examined_per_row_returned": _div(
            fact("query_rows_scanned"), fact("query_rows_returned")),

        "cache.result_hit_rate": hit_rate("result"),
        "cache.chunk_hit_rate": hit_rate("chunk"),
        "cache.block_hit_rate": hit_rate("block"),
        "cache.footer_hit_rate": hit_rate("footer"),
        "cache.meta_hit_rate": hit_rate("meta"),
        "cache.result_evictions":
            fact("cache:table.result_cache.evictions"),
        "cache.chunk_evictions": fact("cache:table.chunk_cache.evictions"),
        "cache.block_evictions": fact("cache:table.block_cache.evictions"),
        "cache.footer_evictions":
            fact("cache:table.footer_cache.evictions"),
        "cache.lookup_host_us_per_query": 1e6 * _div(
            self_s("cache.lookup") + self_s("cache.load"), queries),

        "lakebrain.spn_train_host_s":
            extras.get("train_host_s", 0.0) + self_s("lakebrain.spn_train"),
        "lakebrain.spn_retrains": calls("lakebrain.spn_train"),

        "trace.driver_self_share": layer_share("driver"),
        "trace.overhead_share": _div(traced_round - untraced_round,
                                     untraced_round),
        "trace.sim_unattributed_share": _div(
            produce_sim - bus_sim - write_sim - other_sim, produce_sim),
        "trace.serving_stream_self_share": layer_share("serving.",
                                                       "stream."),
        "trace.storage_parallel_self_share": layer_share("storage.",
                                                         "parallel."),
        "trace.table_cache_self_share": layer_share("table.", "cache.",
                                                    "lakebrain."),
    }
    return out


def disagreements(first: PassResult, other: PassResult) -> list[str]:
    """Facts (counts, sim figures) and the state hash must be identical
    between any two passes of one seed — traced or not."""
    problems = [
        f"{name}: {first.facts.get(name)!r} != {other.facts.get(name)!r}"
        for name in sorted(set(first.facts) | set(other.facts))
        if first.facts.get(name) != other.facts.get(name)
    ]
    if first.state_sha256 != other.state_sha256:
        problems.append("state_sha256 differs")
    return problems
