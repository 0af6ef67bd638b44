"""Worker pools for the sharded data plane.

A :class:`ShardPool` runs one wave of shard tasks over a fixed worker
count in one of three modes:

* ``serial`` — in the calling thread, in task order.  Deterministic and
  dependency-free; the mode tests use, and the degenerate 1-worker case.
* ``thread`` — a :class:`concurrent.futures.ThreadPoolExecutor`.  The
  hot per-shard work is zlib decompression and NumPy kernels, both of
  which release the GIL, so threads overlap on real cores without any
  serialization cost.  The default.
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor` for
  fully isolated workers.  Tasks and results must pickle (the shard
  tasks in :mod:`repro.parallel.query` are module-level functions over
  forked contexts, open files and ``functools.partial`` reads);
  worth it only when per-shard work dwarfs payload shipping.

Whatever the mode, the *simulated* cost of a wave is identical: the
driver charges the LPT makespan of per-shard costs
(:func:`repro.common.clock.lpt_makespan`) against the parent clock, so
sim-seconds depend on the worker count, never on which pool mode (or
how many physical cores) happened to execute the wave.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

from repro.common.clock import lpt_makespan

__all__ = ["ShardPool", "lpt_makespan"]

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: Supported execution modes.
MODES = ("serial", "thread", "process")


class ShardPool:
    """A fixed-size worker pool executing waves of shard tasks."""

    def __init__(self, workers: int | None = None,
                 mode: str = "thread") -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.mode = mode
        self._executor: Executor | None = None

    def _pool(self) -> Executor:
        if self._executor is None:
            if self.mode == "thread":
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            else:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def map(self, fn: Callable[[_Task], _Result],
            tasks: Iterable[_Task]) -> list[_Result]:
        """Run ``fn`` over ``tasks``; results in task order.

        ``serial`` runs inline; the pooled modes submit everything and
        gather, so a wave of n tasks occupies at most ``workers`` slots
        at a time.  Worker exceptions propagate to the caller.
        """
        tasks = list(tasks)
        if self.mode == "serial" or self.workers == 1:
            return [fn(task) for task in tasks]
        return list(self._pool().map(fn, tasks))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardPool(workers={self.workers}, mode={self.mode!r})"
