"""Outside-in span tracer: wraps the layers' public callables.

Nothing under ``src/`` knows about spans (ROADMAP item 1 adds them
inside the program).  Until then this module times the calls *into* each
layer from outside: :meth:`Tracer.install` replaces the public callables
listed in :data:`TARGETS` — class attributes, or the module global a
caller resolves at call time — with timing wrappers and
:meth:`Tracer.restore` puts the originals back.  A span is
``[name, parent, request_id, start, end, sim_s, aux]``; spans stay in memory
and are only written out when the run ends.

A layer's *self time* is its span's duration minus the part its child
spans cover, so the tree's self times sum to the root's duration and
every host second of a traced pass belongs to exactly one name.

The tracer keeps one stack, so it is only valid while the stack under
test runs on one thread (every ``ShardPool`` in ``mode="serial"``).
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

NAME, PARENT, REQUEST, START, END, SIM, AUX = range(7)


def _second(result) -> float:
    return result[1]


def _report_sim(result) -> float:
    return result.sim_seconds


def _wave_makespan(wave) -> float:
    return wave.sim_elapsed_s


def _wave_serial(wave) -> float:
    return wave.sim_serial_s


@dataclass(frozen=True)
class Target:
    """One public callable to time, and the span name it reports under."""

    module: str
    #: class holding the callable, or None for a module global
    owner: str | None
    attr: str
    name: str
    #: pulls the simulated seconds out of the call's return value
    sim_of: Callable[[object], float] | None = None
    #: a second figure from the return value (summed as ``aux``)
    aux_of: Callable[[object], float] | None = None
    #: generator functions get one span per resume, not one per call
    generator: bool = False


#: span name = ``<layer>.<what>``; the layer prefix is what per-layer
#: metrics aggregate on.  Module globals are patched where the *caller*
#: looks them up (``from x import f`` binds a second name).
TARGETS = (
    Target("repro.serving.frontend", "ServingFrontend", "produce",
           "serving.produce"),
    Target("repro.serving.admission", "AdmissionController", "admit",
           "serving.admit"),
    Target("repro.serving.frontend", "ServingFrontend", "drain",
           "serving.drain"),
    Target("repro.serving.scheduler", "FairScheduler", "drain",
           "serving.drr"),
    Target("repro.serving.frontend", "ServingFrontend", "sync_backpressure",
           "serving.sync_backpressure"),
    Target("repro.stream.producer", "Producer", "send_batch", "stream.pack"),
    Target("repro.stream.service", "MessageStreamingService", "deliver",
           "stream.deliver", sim_of=float),
    Target("repro.stream.object", "StreamObject", "read_values",
           "stream.read_values"),
    Target("repro.storage.bus", "DataBus", "transfer", "storage.bus",
           sim_of=float),
    Target("repro.storage.plog", "PLogManager", "append_batch",
           "storage.plog_append", sim_of=_second),
    Target("repro.storage.ec", "ReedSolomon", "encode_batch",
           "storage.ec_encode"),
    Target("repro.storage.ec", "ReedSolomon", "encode", "storage.ec_encode"),
    Target("repro.storage.pool", "StoragePool", "store_batch",
           "storage.store_batch"),
    Target("repro.storage.pool", "StoragePool", "store", "storage.store"),
    Target("repro.storage.pool", "StoragePool", "fetch", "storage.fetch",
           sim_of=_second),
    Target("repro.parallel.ingest", None, "sharded_append_batch",
           "parallel.ingest_wave", sim_of=_wave_makespan,
           aux_of=_wave_serial),
    Target("repro.table.conversion", "StreamTableConverter", "run_cycle",
           "table.convert", sim_of=_report_sim),
    Target("repro.table.conversion", None, "columns_from_values",
           "table.json_parse"),
    Target("repro.table.table", "TableObject", "insert_columns",
           "table.file_build"),
    Target("repro.table.table", "TableObject", "update", "table.update",
           sim_of=float),
    Target("repro.table.table", "TableObject", "compact", "table.compact",
           sim_of=float),
    Target("repro.table.sql", None, "query", "table.query"),
    Target("repro.table.sql", None, "parse_select", "table.sql_parse"),
    Target("repro.table.sql", None, "plan_join", "table.plan"),
    Target("repro.table.planner", None, "hash_join", "table.join"),
    Target("repro.table.columnar", "ColumnarFile", "select_vectors",
           "table.decode", generator=True),
    Target("repro.table.columnar", "ColumnarFile", "scan", "table.decode"),
    Target("repro.table.agg", "AggregateState", "update", "table.agg"),
    Target("repro.cache.hierarchy", "CacheHierarchy", "lookup_result",
           "cache.lookup"),
    Target("repro.cache.hierarchy", "CacheHierarchy", "store_result",
           "cache.lookup"),
    Target("repro.cache.hierarchy", "CacheHierarchy", "load_file",
           "cache.load"),
    Target("repro.cache.hierarchy", "CacheHierarchy", "load_footer",
           "cache.load"),
    Target("repro.cache.hierarchy", "CacheHierarchy", "load_payload",
           "cache.load"),
    Target("repro.table.planner", "StatisticsCache", "refresh",
           "lakebrain.spn_train"),
)


class NullTracer:
    """The untraced run's stand-in: same surface, records nothing."""

    request_id = -1

    @contextmanager
    def span(self, name: str):
        yield None


class Tracer:
    """In-memory spans around the callables in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: set by the load generator; every span opened while it is set
        #: carries it, which ties a request's spans together
        self.request_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """An explicit span (the workload's root and phase markers)."""
        spans, stack = self.spans, self._stack
        record = [name, stack[-1] if stack else -1, self.request_id,
                  time.perf_counter(), 0.0, 0.0, 0.0]
        stack.append(len(spans))
        spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, target: Target):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, sim_of, aux_of = target.name, target.sim_of, target.aux_of

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.request_id,
                      clock(), 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if sim_of is not None:
                record[SIM] = sim_of(result)
                if aux_of is not None:
                    record[AUX] = aux_of(result)
            return result

        def traced_generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                record = [name, stack[-1] if stack else -1, self.request_id,
                          clock(), 0.0, 0.0, 0.0]
                stack.append(len(spans))
                spans.append(record)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    record[END] = clock()
                    stack.pop()
                yield item

        wrapper = traced_generator if target.generator else traced
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        """Replace every target with its timing wrapper."""
        for target in TARGETS:
            holder = importlib.import_module(target.module)
            if target.owner is not None:
                holder = getattr(holder, target.owner)
            original = holder.__dict__[target.attr]
            self._patched.append((holder, target.attr, original))
            setattr(holder, target.attr, self._wrap(original, target))

    def restore(self) -> None:
        """Put every original callable back (safe to call twice)."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # --- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        spans = self.spans
        own = [span[END] - span[START] for span in spans]
        for span in spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def by_name(self, phase: str | None = None
                ) -> dict[str, dict[str, float]]:
        """``{name: {calls, self_s, total_s, sim_s, aux}}`` over all spans, or
        over those inside the driver's phase span called ``phase``."""
        out: dict[str, dict[str, float]] = {}
        inside: list[bool] = []
        for span, own in zip(self.spans, self.self_times()):
            if phase is not None:
                parent = span[PARENT]
                inside.append(span[NAME] == phase
                              or (parent >= 0 and inside[parent]))
                if not inside[-1]:
                    continue
            entry = out.get(span[NAME])
            if entry is None:
                entry = out[span[NAME]] = {
                    "calls": 0, "self_s": 0.0, "total_s": 0.0, "sim_s": 0.0,
                    "aux": 0.0,
                }
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += span[END] - span[START]
            entry["sim_s"] += span[SIM]
            entry["aux"] += span[AUX]
        return out

    def self_by_request(self, name: str) -> dict[int, float]:
        """Self seconds of spans called ``name``, keyed by request id."""
        out: dict[int, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span[NAME] == name:
                out[span[REQUEST]] = out.get(span[REQUEST], 0.0) + own
        return out

    def malformed(self) -> list[str]:
        """Why the span tree is not well-formed (empty when it is).

        One root; every child opened and closed inside its parent; self
        times non-negative and summing to the root's duration.
        """
        problems: list[str] = []
        spans = self.spans
        roots = [i for i, span in enumerate(spans) if span[PARENT] < 0]
        if len(roots) != 1:
            problems.append(f"{len(roots)} root spans, expected 1")
        for index, span in enumerate(spans):
            if span[END] < span[START]:
                problems.append(f"span {index} {span[NAME]} ends before "
                                "it starts")
            parent = span[PARENT]
            if parent >= 0:
                if parent >= index:
                    problems.append(f"span {index} opened before its parent")
                elif (span[START] < spans[parent][START]
                      or span[END] > spans[parent][END]):
                    problems.append(f"span {index} {span[NAME]} leaks out "
                                    f"of parent {spans[parent][NAME]}")
        own = self.self_times()
        if any(value < -1e-9 for value in own):
            problems.append("negative self time")
        if len(roots) == 1:
            root = spans[roots[0]]
            total = root[END] - root[START]
            if abs(sum(own) - total) > 1e-6 * max(total, 1.0):
                problems.append(
                    f"self times sum to {sum(own):.6f}s, root lasted "
                    f"{total:.6f}s"
                )
        return problems[:10]

    def dump(self, path) -> None:
        """Write ``{id, parent, request_id, name, start, end}`` records."""
        with open(path, "w") as out:
            out.write("[\n")
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "parent": span[PARENT],
                    "request_id": span[REQUEST], "name": span[NAME],
                    "start": span[START], "end": span[END],
                    "sim_s": span[SIM],
                }))
                out.write(",\n" if index + 1 < len(self.spans) else "\n")
            out.write("]\n")
