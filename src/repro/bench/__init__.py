"""Benchmark helpers: result tables shaped like the paper's."""

from repro.bench.reporting import ResultTable

__all__ = ["ResultTable"]
