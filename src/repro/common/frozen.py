"""A read-only ``dict``: the value type of shared results.

A :class:`FrozenDict` is a ``dict`` in every way a reader can tell —
``isinstance(row, dict)``, ``==`` against plain dicts, ``json.dumps``,
``row | other`` and ``dict(row)`` all work — but every in-place write
raises :class:`TypeError`.  Objects that several owners share (a query
result served from the result tier to every caller, a snapshot's
summary) are therefore protected by refusal, not by copying:
``dict(row)`` is the mutable copy for a caller that wants one.
"""

from __future__ import annotations

from typing import NoReturn


class FrozenDict(dict):
    """A ``dict`` whose contents cannot change after construction."""

    __slots__ = ()

    def _refuse(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError(
            f"{type(self).__name__} is read-only; "
            "use dict(row) for a mutable copy"
        )

    __setitem__ = _refuse
    __delitem__ = _refuse
    __ior__ = _refuse
    update = _refuse
    pop = _refuse
    popitem = _refuse
    clear = _refuse
    setdefault = _refuse

    def __reduce__(self) -> tuple[type, tuple[dict]]:
        # the default protocol rebuilds a dict subclass item by item
        # through __setitem__; rebuild from one plain dict instead, which
        # also serves copy.copy and copy.deepcopy
        return (type(self), (dict(self),))
