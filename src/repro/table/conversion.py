"""Stream <-> table conversion (Section V-B "Stream-to-table conversion").

A background service converts stream-object records to table-object rows —
triggered by an accumulation of ``split_offset`` messages or the passing of
``split_time`` seconds — so one copy of the data serves both stream and
batch processing.  The reverse conversion (table rows back to stream
messages) supports data playback.

Message values are JSON log lines; the topic's ``table_schema`` defines the
expected fields.  Records that fail schema validation are counted and
skipped (production log pipelines always carry some malformed lines).

One conversion path exists, :meth:`StreamTableConverter.run_cycle`:
whole packed slices stream their values out without materializing
records (:meth:`~repro.stream.object.StreamObject.read_values`), the
batch parses as one JSON array and validates column-at-a-time into typed
vectors (:mod:`repro.table.colbuild`), and the table ingests the columns
directly (:meth:`~repro.table.table.TableObject.insert_columns`) — no
per-row Python anywhere between the slice bytes and the row groups.  Its
record-at-a-time oracle (``json.loads`` + ``validate_row`` per record,
then ``insert``) is ``run_cycle_rows`` in ``tests/table/rowwise.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro.common import stats
from repro.common.clock import SimClock
from repro.common.context import ExecutionContext
from repro.stream.records import pack_values
from repro.stream.service import MessageStreamingService
from repro.table.colbuild import columns_from_values
from repro.table.table import TableObject


@dataclass
class ConversionReport:
    """Outcome of one conversion cycle."""

    converted: int = 0
    malformed: int = 0
    triggered_by: str = "none"  # "offset" | "time" | "force" | "none"
    sim_seconds: float = 0.0
    #: sealed slices consumed whole by the vectorized path
    slices_consumed: int = 0
    #: wall seconds spent parsing + validating + building columns
    validation_s: float = 0.0


class StreamTableConverter:
    """Background converter bound to one topic and one table."""

    def __init__(self, service: MessageStreamingService, topic: str,
                 table: TableObject, clock: SimClock,
                 context: ExecutionContext | None = None) -> None:
        self._service = service
        self._topic = topic
        self._table = table
        self._clock = clock
        #: explicit execution context for counters; None resolves the
        #: ambient context at each cycle (so a caller that runs this
        #: converter inside ``use_context`` counts into that context)
        self._context = context
        self._positions: dict[str, int] = {
            stream_id: 0
            for stream_id in service.dispatcher.streams_of(topic)
        }
        self._last_conversion_at = clock.now
        self._playback_sequence = 0
        self.total_converted = 0
        self.total_malformed = 0

    @property
    def clock(self) -> SimClock:
        """The clock this converter's cycle costs are charged against."""
        return self._clock

    # --- stream -> table -----------------------------------------------------

    def positions(self) -> dict[str, int]:
        """Per-stream converted-up-to offsets (the conversion frontier).

        The serving front end's backpressure signal is the sealed-slice
        lag between each stream object's tail and this frontier.
        """
        return dict(self._positions)

    def pending_messages(self) -> int:
        """Messages accumulated since the last conversion."""
        total = 0
        for stream_id, position in self._positions.items():
            total += self._service.object_for(stream_id).end_offset - position
        return total

    def should_convert(self) -> str | None:
        """Which trigger fired, if any ('offset' or 'time')."""
        config = self._service.dispatcher.config_of(self._topic).convert_2_table
        if not config.enabled:
            return None
        if self.pending_messages() >= config.split_offset:
            return "offset"
        if self._clock.now - self._last_conversion_at >= config.split_time_s:
            return "time"
        return None

    def run_cycle(self, force: bool = False) -> ConversionReport:
        """Convert accumulated messages if a trigger fired (or ``force``).

        The vectorized path: slices stream their raw values out whole,
        the batch parses/validates column-at-a-time, and the table
        ingests typed column vectors.
        """
        trigger = self.should_convert()
        if trigger is None and not force:
            return ConversionReport()
        report = ConversionReport(triggered_by=trigger or "force")
        config = self._service.dispatcher.config_of(self._topic).convert_2_table
        values: list[bytes] = []
        for stream_id in sorted(self._positions):
            obj = self._service.object_for(stream_id)
            obj.flush()
            stream_values, position, cost, slices = obj.read_values(
                self._positions[stream_id]
            )
            report.sim_seconds += cost
            report.slices_consumed += slices
            values += stream_values
            self._positions[stream_id] = position
        if values:
            started = time.perf_counter()
            columns, count, malformed = columns_from_values(
                values, self._table.schema
            )
            report.validation_s = time.perf_counter() - started
            report.malformed = malformed
            if count:
                report.sim_seconds += self._table.insert_columns(columns, count)
                report.converted = count
        self._finish_cycle(report, config)
        conversion = (
            self._context.conversion if self._context is not None
            else stats.conversion_stats()
        )
        conversion.cycles += 1
        conversion.slices_consumed += report.slices_consumed
        conversion.rows_converted += report.converted
        conversion.rows_malformed += report.malformed
        conversion.validation_s += report.validation_s
        return report

    def _finish_cycle(self, report: ConversionReport, config) -> None:
        """Shared cycle epilogue: message deletion + counters + timestamps."""
        if config.delete_msg:
            for stream_id in sorted(self._positions):
                obj = self._service.object_for(stream_id)
                for plog_key in obj.trim(self._positions[stream_id]):
                    self._service.plogs.delete_key(plog_key)
        self._last_conversion_at = self._clock.now
        self.total_converted += report.converted
        self.total_malformed += report.malformed

    # --- table -> stream (playback) ----------------------------------------------

    def playback(self, target_topic: str,
                 predicate=None) -> tuple[int, float]:
        """Reverse conversion: replay table rows as stream messages.

        Rows are batched per target stream (round-robin, preserving the
        historical distribution) and each group ships as one
        producer-packed buffer (:func:`~repro.stream.records.pack_values`)
        so playback rides the batched-ingest group-commit path instead of
        issuing one single-record deliver per row.  Replays are stamped
        with a converter-owned producer id and consecutive sequences, so
        a retried playback batch deduplicates like any producer batch.

        Returns (messages produced, simulated seconds).
        """
        rows = self._table.select(predicate=predicate)
        streams = self._service.dispatcher.streams_of(target_topic)
        per_stream: list[list[bytes]] = [[] for _ in streams]
        for index, row in enumerate(rows):
            per_stream[index % len(streams)].append(
                json.dumps(row, separators=(",", ":")).encode()
            )
        cost = 0.0
        produced = 0
        now = self._clock.now
        producer_id = f"playback/{self._topic}/{self._table.name}"
        for stream_id, stream_values in zip(streams, per_stream):
            if not stream_values:
                continue
            batch = pack_values(
                target_topic, stream_values, "", now, producer_id,
                self._playback_sequence, None,
            )
            self._playback_sequence += len(stream_values)
            cost += self._service.deliver(stream_id, batch)
            produced += len(stream_values)
        return produced, cost
