"""Deterministic simulated clock.

Every component in the reproduction charges its costs (disk seeks, network
transfers, CPU work) against a shared :class:`SimClock` instead of reading
the wall clock.  This keeps all reported latencies and throughputs
deterministic and lets a multi-hour production scenario run in milliseconds.

The clock supports two styles of accounting:

* ``advance(seconds)`` — serial time: the cluster as a whole is busy for
  that long (e.g. a synchronous commit on the critical path).
* ``charge(resource, seconds)`` — parallel time: accumulate busy-time on a
  named resource (a disk, a NIC) without moving global time.  Benches that
  model a parallel phase then advance global time by the *maximum* busy-time
  across the resources involved (see :meth:`drain`).
"""

from __future__ import annotations

from collections import defaultdict


class SimClock:
    """A monotonically increasing simulated clock with per-resource meters."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._busy: dict[str, float] = defaultdict(float)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move global time forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move global time forward to ``timestamp`` (no-op if in the past)."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def charge(self, resource: str, seconds: float) -> None:
        """Accumulate ``seconds`` of busy-time against ``resource``."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds!r}")
        self._busy[resource] += seconds

    def charge_repeated(self, resource: str, seconds: float,
                        times: int) -> None:
        """``times`` charges of ``seconds`` against ``resource`` in one call.

        Added one at a time, so the meter ends on the same float that
        many :meth:`charge` calls leave and sim figures repeat bit for bit.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds!r}")
        if times <= 0:
            return
        busy = self._busy[resource]
        for _ in range(times):
            busy += seconds
        self._busy[resource] = busy

    def busy_time(self, resource: str) -> float:
        """Busy-time accumulated against ``resource`` since the last drain."""
        return self._busy.get(resource, 0.0)

    def drain(self, resources: list[str] | None = None) -> float:
        """Advance global time by the max busy-time of a parallel phase.

        Resets the drained meters.  When ``resources`` is None, drains every
        metered resource.  Returns the elapsed (max) time.
        """
        names = list(self._busy) if resources is None else resources
        elapsed = max((self._busy.get(name, 0.0) for name in names), default=0.0)
        for name in names:
            self._busy.pop(name, None)
        self._now += elapsed
        return elapsed

    def reset(self) -> None:
        """Reset time to zero and clear all meters."""
        self._now = 0.0
        self._busy.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f}, meters={len(self._busy)})"


def lpt_makespan(costs: list[float], parallelism: int) -> float:
    """Makespan of tasks over ``parallelism`` workers (LPT greedy).

    The wave model shared by the table read/write paths and the sharded
    execution layer (:mod:`repro.parallel`): a batch of task costs
    scheduled longest-processing-time-first over a fixed worker pool
    takes the slowest worker's sum, not the total.  With one worker it
    degenerates to the serial sum, so adding workers never changes the
    amount of simulated work — only how it overlaps.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if not costs:
        return 0.0
    if parallelism == 1:
        return sum(costs)
    workers = [0.0] * parallelism
    for cost in sorted(costs, reverse=True):
        workers[workers.index(min(workers))] += cost
    return max(workers)
