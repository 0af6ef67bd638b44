"""Run statements through ``repro.table.sql.query`` and keep the books.

One client, closed loop: the next statement is issued when the previous
one returns.  Every call gets its own :class:`QueryStats`, whose
``total_cost_s`` is the statement's sim latency; results are kept so the
sqlite reference can check each one after the timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# looked up through the module on every call, so the tracer's wrapper
# around ``query`` is the one that runs when tracing is on
from repro.table import sql as sql_layer
from repro.table.table import Lakehouse, QueryStats

from inputs import Query
from stack import quantile

_SUMMED = ("files_total", "files_skipped", "row_groups_skipped",
           "rows_scanned", "rows_returned", "bytes_scanned")


@dataclass
class QueryLog:
    """Per-statement outcomes of one pass, in issue order."""

    queries: list[Query] = field(default_factory=list)
    #: the reference batch (snapshot) each statement was entitled to see
    batches: list[int] = field(default_factory=list)
    results: list[list[dict[str, object]] | None] = field(default_factory=list)
    sim_s: list[float] = field(default_factory=list)
    host_s: list[float] = field(default_factory=list)
    raised: list[str] = field(default_factory=list)
    totals: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_SUMMED, 0))

    def run(self, lakehouse: Lakehouse, query: Query, batch: int,
            as_of: float | None = None) -> None:
        stats = QueryStats()
        started = time.perf_counter()
        try:
            rows = sql_layer.query(lakehouse, query.sql, as_of=as_of,
                                   stats=stats)
        except Exception as error:  # a raised query is a failed query
            rows = None
            self.raised.append(f"{query.template}: {error!r}")
        self.host_s.append(time.perf_counter() - started)
        self.queries.append(query)
        self.batches.append(batch)
        self.results.append(rows)
        self.sim_s.append(stats.total_cost_s)
        for name in _SUMMED:
            self.totals[name] += getattr(stats, name)

    def facts(self) -> dict[str, float]:
        """Counts and sim figures of the statements run so far."""
        return {
            "queries": len(self.queries),
            "query_sim_p50_s": quantile(self.sim_s, 0.50),
            "query_sim_p90_s": quantile(self.sim_s, 0.90),
            "query_sim_total_s": sum(self.sim_s),
            **{f"query_{name}": value
               for name, value in self.totals.items()},
        }
