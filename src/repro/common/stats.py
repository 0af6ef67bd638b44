"""Small statistics helpers used by the benches and services.

:class:`OnlineStats` keeps running mean/variance without storing samples
(Welford's algorithm); :class:`Percentiles` stores samples for quantile
reporting (latency p50/p99) — bench runs are small enough that storing is
fine and exact quantiles beat sketches for reproducibility.
:class:`CacheStats` counts hits/misses/evictions for the caches in the
system (decoded-chunk cache, metadata cache).

Counters are **per execution context** (see
:mod:`repro.common.context`): the accessors (:func:`ingest_stats`,
:func:`conversion_stats`, :func:`aggregation_stats`, :func:`fault_stats`,
:func:`cache_stats`) resolve through the *current*
:class:`~repro.common.context.ExecutionContext`, so a shard worker that
activates its own context gets private counters that merge back on join.
Every counter class is strictly additive and exposes :meth:`merge`, so
per-shard totals folded together are value-identical to a single-stream
run over the same work.  There are no module-level counter instances:
the accessors are the only way in.
"""

from __future__ import annotations

import math


class _AdditiveCounters:
    """Mixin: fold another instance's counters in, attribute-wise.

    Valid for the plain counter classes below — every instance attribute
    is an additive number (counts or accumulated seconds), so a parallel
    merge is plain addition and is associative and commutative.
    """

    def merge(self, other: "_AdditiveCounters") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


class CacheStats(_AdditiveCounters):
    """Hit/miss/eviction/rejection counters for one cache."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: entries refused admission (larger than the whole capacity)
        self.rejections = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def record_hit(self, count: int = 1) -> None:
        self.hits += count

    def record_miss(self, count: int = 1) -> None:
        self.misses += count

    def record_eviction(self, count: int = 1) -> None:
        self.evictions += count

    def record_rejection(self, count: int = 1) -> None:
        self.rejections += count

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejections = 0

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "hit_rate": self.hit_rate,
        }


class IngestStats(_AdditiveCounters):
    """Counters for the stream ingestion path (produce -> seal -> EC).

    Incremented by the stream object seal path, the PLog group commit
    and the Reed-Solomon codec; the end-to-end benchmark
    (``benchmarks/e2e``) reports a snapshot among each pass's facts.

    ``bytes_encoded`` counts sealed slices in the planar batch layout
    (:mod:`repro.stream.records`): 12 header bytes, 44 header-plane bytes
    per record and the varlen blob.  No per-record offset index is
    stored, so each sealed record counts 4 bytes fewer than under the
    packed layout it replaced.
    """

    def __init__(self) -> None:
        self.records_appended = 0
        self.slices_sealed = 0
        self.bytes_encoded = 0        # slice bytes before compression
        self.bytes_compressed = 0     # slice bytes handed to the PLogs
        self.plog_group_commits = 0   # append_batch calls (group commits)
        self.plog_appends_acked = 0   # appends indexed (acknowledged)
        self.plog_bytes_acked = 0     # payload bytes behind those acks
        self.ec_encode_calls = 0      # ReedSolomon.encode/encode_batch calls
        self.ec_payloads_encoded = 0  # payloads erasure-coded in those calls

    @property
    def compression_ratio(self) -> float:
        """Pre-compression bytes per stored byte (1.0 when nothing sealed)."""
        if not self.bytes_compressed:
            return 1.0
        return self.bytes_encoded / self.bytes_compressed

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict[str, float]:
        return {
            "records_appended": self.records_appended,
            "slices_sealed": self.slices_sealed,
            "bytes_encoded": self.bytes_encoded,
            "bytes_compressed": self.bytes_compressed,
            "compression_ratio": self.compression_ratio,
            "plog_group_commits": self.plog_group_commits,
            "plog_appends_acked": self.plog_appends_acked,
            "plog_bytes_acked": self.plog_bytes_acked,
            "ec_encode_calls": self.ec_encode_calls,
            "ec_payloads_encoded": self.ec_payloads_encoded,
        }


def ingest_stats() -> IngestStats:
    """The current execution context's ingest counters."""
    from repro.common.context import current_context

    return current_context().ingest


class ConversionStats(_AdditiveCounters):
    """Counters for the stream->table conversion path (the reunion path).

    Incremented by :class:`~repro.table.conversion.StreamTableConverter`
    and the vectorized column builder; the end-to-end benchmark's
    ``pipeline_mixed`` workload reports a snapshot among its facts.
    """

    def __init__(self) -> None:
        self.cycles = 0               # run_cycle calls that converted data
        self.slices_consumed = 0      # sealed slices read whole via read_values
        self.rows_converted = 0
        self.rows_malformed = 0
        self.batch_parses = 0         # whole-batch JSON parses that succeeded
        self.row_parse_fallbacks = 0  # batches that fell back to per-row parse
        self.validation_s = 0.0       # wall seconds in parse+validate+build

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict[str, float]:
        return {
            "cycles": self.cycles,
            "slices_consumed": self.slices_consumed,
            "rows_converted": self.rows_converted,
            "rows_malformed": self.rows_malformed,
            "batch_parses": self.batch_parses,
            "row_parse_fallbacks": self.row_parse_fallbacks,
            "validation_s": self.validation_s,
        }


class FaultStats(_AdditiveCounters):
    """Counters for injected faults and the recovery work they trigger.

    Incremented by the fault layer (:mod:`repro.faults`) on the
    injection side and by the storage layer
    (pool degraded reads, rebuild queue, bus) on the recovery side, so the
    chaos tests can assert that recovery machinery actually ran — not just
    that reads happened to succeed.
    """

    def __init__(self) -> None:
        # --- injected faults ---
        self.disk_crashes = 0
        self.sector_errors_injected = 0
        self.fragments_erased = 0        # shard erasures injected into pools
        self.torn_commits = 0            # group commits torn mid-batch
        self.transfers_dropped = 0
        self.link_slowdowns = 0
        self.partitions = 0
        # --- recovery work ---
        self.degraded_reads = 0          # fetches that saw >= 1 missing fragment
        self.sector_errors_detected = 0  # latent errors surfaced by a read/scrub
        self.fragments_reconstructed = 0  # fragments rebuilt via ec.decode/repair
        self.reconstructed_bytes = 0
        self.rebuilds_completed = 0      # rebuild-queue ops that restored an extent
        self.rebuild_retries = 0
        self.rebuild_backoff_s = 0.0
        self.rebuilds_exhausted = 0      # ops that gave up after bounded retries
        self.transfer_timeouts = 0
        self.disks_repaired = 0

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict[str, float]:
        return {
            "disk_crashes": self.disk_crashes,
            "sector_errors_injected": self.sector_errors_injected,
            "fragments_erased": self.fragments_erased,
            "torn_commits": self.torn_commits,
            "transfers_dropped": self.transfers_dropped,
            "link_slowdowns": self.link_slowdowns,
            "partitions": self.partitions,
            "degraded_reads": self.degraded_reads,
            "sector_errors_detected": self.sector_errors_detected,
            "fragments_reconstructed": self.fragments_reconstructed,
            "reconstructed_bytes": self.reconstructed_bytes,
            "rebuilds_completed": self.rebuilds_completed,
            "rebuild_retries": self.rebuild_retries,
            "rebuild_backoff_s": self.rebuild_backoff_s,
            "rebuilds_exhausted": self.rebuilds_exhausted,
            "transfer_timeouts": self.transfer_timeouts,
            "disks_repaired": self.disks_repaired,
        }


class AggregationStats(_AdditiveCounters):
    """Counters for the vectorized storage-side aggregation engine.

    Incremented by :mod:`repro.table.agg` (the GROUP BY kernel and
    footer fast path) and by ``TableObject.select``; the end-to-end
    benchmark reports a snapshot among each pass's facts.
    """

    def __init__(self) -> None:
        self.queries = 0                    # vectorized aggregate SELECTs
        self.row_groups_aggregated = 0      # row groups reduced from data chunks
        self.row_groups_footer_answered = 0  # answered from footer stats alone
        self.rows_aggregated = 0            # rows folded into partials
        self.partials_merged = 0            # group partials merged across files
        self.groups_emitted = 0             # result groups shipped over the bus

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict[str, float]:
        return {
            "queries": self.queries,
            "row_groups_aggregated": self.row_groups_aggregated,
            "row_groups_footer_answered": self.row_groups_footer_answered,
            "rows_aggregated": self.rows_aggregated,
            "partials_merged": self.partials_merged,
            "groups_emitted": self.groups_emitted,
        }


def aggregation_stats() -> AggregationStats:
    """The current execution context's vectorized-aggregation counters."""
    from repro.common.context import current_context

    return current_context().aggregation


class JoinStats(_AdditiveCounters):
    """Counters for the vectorized join engine and cost-based planner.

    Incremented by :mod:`repro.table.join` (build/probe kernel),
    :mod:`repro.table.planner` (plan enumeration) and the SQL front
    end's snapshot-keyed result cache; the end-to-end benchmark reports
    a snapshot among each pass's facts.
    """

    def __init__(self) -> None:
        self.joins_executed = 0       # hash_join kernel invocations
        self.build_rows = 0           # rows folded into build sides
        self.probe_rows = 0           # rows probed against build sides
        self.matches_emitted = 0      # output index pairs produced
        self.queries_planned = 0      # multi-table statements planned
        self.plans_considered = 0     # join orders enumerated and costed
        self.result_cache_hits = 0    # whole queries answered from cache
        self.result_cache_misses = 0

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict[str, float]:
        return {
            "joins_executed": self.joins_executed,
            "build_rows": self.build_rows,
            "probe_rows": self.probe_rows,
            "matches_emitted": self.matches_emitted,
            "queries_planned": self.queries_planned,
            "plans_considered": self.plans_considered,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
        }


def join_stats() -> JoinStats:
    """The current execution context's join/planner counters."""
    from repro.common.context import current_context

    return current_context().joins


class ServingStats(_AdditiveCounters):
    """Counters for the multi-tenant serving front end.

    Incremented by :mod:`repro.serving` — admission control
    (:class:`~repro.serving.admission.AdmissionController`), the
    deficit-round-robin scheduler
    (:class:`~repro.serving.scheduler.FairScheduler`), backpressure and
    the SLO tracker.  Every field is additive, so per-shard serving
    counters fold back through the context fork/merge algebra exactly
    like the other stat families; ``bench_serving.py`` asserts the
    merged sharded snapshot is value-identical to the serial one.
    """

    def __init__(self) -> None:
        # --- admission control ---
        self.requests_admitted = 0    # admit() calls that returned a ticket
        self.records_admitted = 0
        self.bytes_admitted = 0
        self.queued_admissions = 0    # admissions that waited for tokens
        self.queue_delay_s = 0.0      # total token-wait across admissions
        self.rejected_quota = 0       # QuotaExceededError raised
        self.rejected_inflight = 0    # AdmissionRejectedError: in-flight cap
        # --- backpressure ---
        self.throttle_events = 0      # produces refused or delayed by lag
        self.throttle_delay_s = 0.0
        # --- fair scheduler ---
        self.batches_scheduled = 0    # batches dispatched by the DRR loop
        self.bytes_scheduled = 0
        self.scheduler_rounds = 0     # DRR tenant visits
        # --- SLO tracking ---
        self.slo_violations = 0       # latency samples above a tenant target

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> dict[str, float]:
        return {
            "requests_admitted": self.requests_admitted,
            "records_admitted": self.records_admitted,
            "bytes_admitted": self.bytes_admitted,
            "queued_admissions": self.queued_admissions,
            "queue_delay_s": self.queue_delay_s,
            "rejected_quota": self.rejected_quota,
            "rejected_inflight": self.rejected_inflight,
            "throttle_events": self.throttle_events,
            "throttle_delay_s": self.throttle_delay_s,
            "batches_scheduled": self.batches_scheduled,
            "bytes_scheduled": self.bytes_scheduled,
            "scheduler_rounds": self.scheduler_rounds,
            "slo_violations": self.slo_violations,
        }


def serving_stats() -> ServingStats:
    """The current execution context's serving front-end counters."""
    from repro.common.context import current_context

    return current_context().serving


def fault_stats() -> FaultStats:
    """The current execution context's fault/recovery counters."""
    from repro.common.context import current_context

    return current_context().faults


def conversion_stats() -> ConversionStats:
    """The current execution context's stream->table conversion counters."""
    from repro.common.context import current_context

    return current_context().conversion


def cache_stats(name: str) -> CacheStats:
    """The current context's counters for the named cache (created on use)."""
    from repro.common.context import current_context

    return current_context().cache_stats(name)


class OnlineStats:
    """Running count/mean/variance/min/max over a stream of samples."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> None:
        """Fold another accumulator into this one (parallel merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)


class Percentiles:
    """Sample store supporting exact quantile queries.

    ``add`` is O(1): samples append unsorted and a dirty flag defers the
    sort to the first quantile read (the ``KVEngine.put`` lazy-re-sort
    pattern).  Ingesting n samples is O(n) + one O(n log n) sort per
    read burst, instead of the O(n²) the per-sample ``insort`` cost —
    latency trackers record millions of samples and read p50/p99 once.

    Two interpolation rules are supported (``quantile``'s ``method``):

    * ``"linear"`` — the position ``q * (n - 1)`` on the sorted samples,
      linearly interpolated between the two bracketing samples (NumPy's
      default, Hyndman-Fan type 7).  Good for central quantiles, but it
      *underestimates extreme tails on small samples*: with fewer than
      ``1 / (1 - q)`` samples the position lands strictly inside the
      last inter-sample gap, so p999 over 10 samples reports a blend of
      the two largest latencies — a value that never occurred.
    * ``"exact"`` — the inverse empirical CDF (nearest-rank) rule: the
      ``ceil(q * n)``-th smallest sample.  Always an observed sample;
      for ``q > (n - 1) / n`` it is the maximum, which is the honest
      answer for p999 on small samples.

    ``p50``/``p99`` keep the linear rule (central quantiles, stable
    under merge splits); ``p999`` uses the exact rule so SLO tail
    reports never interpolate below the worst observed latency.
    Merging is sample-exact: folding shard stores together and then
    taking a quantile equals taking the quantile of all samples at once
    (both rules) — the merge-then-quantile agreement the sharded SLO
    tracker relies on.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._dirty = False

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._dirty = True

    def extend(self, values: list[float]) -> None:
        """Bulk append (one flag update for a whole latency batch)."""
        self._samples.extend(values)
        self._dirty = True

    def merge(self, other: "Percentiles") -> None:
        """Fold another store's samples in (parallel shard merge)."""
        self._samples.extend(other._samples)
        self._dirty = True

    def __len__(self) -> int:
        return len(self._samples)

    def _sorted(self) -> list[float]:
        if self._dirty:
            self._samples.sort()
            self._dirty = False
        return self._samples

    def quantile(self, q: float, method: str = "linear") -> float:
        """Quantile of the recorded samples; q in [0, 1].

        ``method="linear"`` interpolates at position ``q * (n - 1)``
        (type 7); ``method="exact"`` returns the ``ceil(q * n)``-th
        smallest sample (nearest-rank — always an observed value).  See
        the class docstring for when each rule is appropriate.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if not self._samples:
            raise ValueError("no samples recorded")
        samples = self._sorted()
        if method == "exact":
            rank = math.ceil(q * len(samples))
            return samples[max(rank, 1) - 1]
        if method != "linear":
            raise ValueError(
                f"method must be 'linear' or 'exact', got {method!r}"
            )
        if len(samples) == 1:
            return samples[0]
        position = q * (len(samples) - 1)
        low = int(position)
        high = min(low + 1, len(samples) - 1)
        fraction = position - low
        return samples[low] * (1 - fraction) + samples[high] * fraction

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        """Tail quantile under the exact nearest-rank rule: on fewer
        than 1000 samples this is the observed maximum, never an
        interpolated value below it."""
        return self.quantile(0.999, method="exact")
