"""Typed column vectors for the vectorized scan engine.

A :class:`ColumnVector` is one decoded column chunk kept in its typed
in-memory form — an int64/float64/bool NumPy array with a validity mask,
or dictionary-coded strings (distinct values + uint32 codes) — instead of
a Python object list.  Predicates evaluate against vectors as single
NumPy comparisons (:meth:`ColumnVector.compare`), and rows materialize to
Python objects only for the indices that survive the predicate mask
(:meth:`ColumnVector.take` — late materialization).

Comparison semantics mirror row-wise :meth:`~repro.table.expr.Predicate.
matches` exactly: null values never match, ``IN`` uses membership with
Python ``==`` semantics, and ordering a column against an incomparable
literal raises :class:`TypeError` (NumPy's ``UFuncTypeError`` is a
``TypeError`` subclass, so callers can fall back to row-wise evaluation).
"""

from __future__ import annotations

import operator

import numpy as np

_ORDER_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _scalar_compare(value: object, op: str, literal: object) -> bool:
    """Python-semantics comparison of one non-null value (may raise)."""
    if op == "=":
        return value == literal
    if op == "IN":
        return value in literal  # type: ignore[operator]
    return _ORDER_OPS[op](value, literal)


class ColumnVector:
    """One decoded column chunk in typed form."""

    __slots__ = ()

    def __len__(self) -> int:
        raise NotImplementedError

    def valid(self) -> np.ndarray:
        """Boolean mask of non-null positions."""
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Decoded in-memory footprint, incl. validity/dictionary arrays.

        This is what the byte-accurate chunk cache charges per entry —
        the resident cost of keeping the vector hot, not the compressed
        chunk size.
        """
        raise NotImplementedError

    def compare(self, op: str, literal: object) -> np.ndarray:
        """Vectorized predicate mask; null positions are always False.

        Raises :class:`TypeError` when the comparison is incomparable,
        matching the row-wise evaluator.
        """
        raise NotImplementedError

    def take(self, indices: np.ndarray) -> list[object]:
        """Materialize Python objects at the given row indices."""
        raise NotImplementedError

    def gather(self, indices: "np.ndarray | slice") -> "ColumnVector":
        """A new vector holding the given rows, still in typed form.

        Unlike :meth:`take`, nothing materializes to Python objects —
        this is how late materialization flows *through* a join: both
        sides gather surviving row indices as vectors, and only the
        final projection calls :meth:`take`.  ``indices`` is anything
        NumPy indexes with: row indices, a boolean mask, or a slice
        (whose arrays are views).
        """
        raise NotImplementedError

    def to_list(self) -> list[object]:
        """Materialize the whole chunk as Python objects."""
        raise NotImplementedError

    def factorize(self, indices: np.ndarray | None = None
                  ) -> tuple[np.ndarray, list[object]]:
        """Dense GROUP BY codes: ``(codes, uniques)`` over selected rows.

        ``uniques`` holds distinct Python values — with ``None`` appended
        last when the selection contains nulls — and ``codes`` is an intp
        array (one entry per selected row, all rows when ``indices`` is
        None) indexing into it.  Used by the aggregation kernel to turn
        group keys into ``np.bincount``/``reduceat`` segment ids.
        """
        raise NotImplementedError


class NumericVector(ColumnVector):
    """INT64/TIMESTAMP, FLOAT64 or BOOL values with a validity mask."""

    __slots__ = ("values", "_valid")

    def __init__(self, values: np.ndarray, valid: np.ndarray) -> None:
        self.values = values
        self._valid = valid

    def __len__(self) -> int:
        return len(self.values)

    def valid(self) -> np.ndarray:
        return self._valid

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes) + int(self._valid.nbytes)

    def compare(self, op: str, literal: object) -> np.ndarray:
        if op == "IN":
            # np.isin with non-numeric candidates silently returns False
            # instead of using Python == semantics; filter to the numeric
            # members (everything else can never equal a numeric value)
            candidates = [
                v for v in literal  # type: ignore[union-attr]
                if isinstance(v, (bool, int, float))
            ]
            if not candidates:
                return np.zeros(len(self.values), dtype=bool)
            mask = np.isin(self.values, candidates)
        elif op == "=":
            mask = np.asarray(self.values == literal)
        else:
            if literal is None:
                raise TypeError(f"ordering comparison {op!r} against None")
            mask = np.asarray(_ORDER_OPS[op](self.values, literal))
        if mask.shape != self.values.shape:
            # NumPy collapsed an incompatible comparison to a scalar
            mask = np.full(self.values.shape, bool(mask), dtype=bool)
        return mask & self._valid

    def take(self, indices: np.ndarray) -> list[object]:
        values = self.values[indices].tolist()
        valid = self._valid[indices].tolist()
        return [v if ok else None for v, ok in zip(values, valid)]

    def gather(self, indices: np.ndarray) -> "NumericVector":
        return NumericVector(self.values[indices], self._valid[indices])

    def to_list(self) -> list[object]:
        values = self.values.tolist()
        valid = self._valid.tolist()
        return [v if ok else None for v, ok in zip(values, valid)]

    def factorize(self, indices: np.ndarray | None = None
                  ) -> tuple[np.ndarray, list[object]]:
        values = self.values if indices is None else self.values[indices]
        valid = self._valid if indices is None else self._valid[indices]
        present, inverse = np.unique(values[valid], return_inverse=True)
        # nulls (if any) share the one code just past the present values
        codes = np.full(len(values), len(present), dtype=np.intp)
        codes[valid] = inverse
        uniques: list[object] = present.tolist()
        if not bool(valid.all()):
            uniques.append(None)
        return codes, uniques


class DictStringVector(ColumnVector):
    """Dictionary-coded strings: distinct values + uint32 codes.

    Nulls are the code ``len(dictionary)``.  Dictionary entries are
    distinct but in no particular order, and a vector may leave some
    unused (a gathered or sliced vector keeps its source's dictionary).
    Predicates evaluate once per *distinct* value (Python semantics, so
    arbitrary literal types behave exactly like the row-wise path), then
    broadcast through the codes — the classic trick that makes
    low-cardinality columns nearly free to filter.
    """

    __slots__ = ("dictionary", "codes")

    def __init__(self, dictionary: list[object], codes: np.ndarray) -> None:
        self.dictionary = dictionary
        self.codes = codes

    @classmethod
    def from_values(cls, values: list[object]) -> "DictStringVector":
        """Factorize Python values (None = NULL): distinct values in
        first-seen order, NULL the code past them."""
        mapping = dict.fromkeys(values)
        mapping.pop(None, None)
        dictionary = list(mapping)
        mapping.update(zip(dictionary, range(len(dictionary))))
        mapping[None] = len(dictionary)
        codes = np.fromiter(
            map(mapping.__getitem__, values), dtype=np.uint32,
            count=len(values),
        )
        return cls(dictionary, codes)

    def __len__(self) -> int:
        return len(self.codes)

    def valid(self) -> np.ndarray:
        return self.codes != len(self.dictionary)

    @property
    def nbytes(self) -> int:
        dictionary_bytes = sum(
            len(value) if isinstance(value, str) else 8
            for value in self.dictionary
        )
        return int(self.codes.nbytes) + dictionary_bytes

    def compare(self, op: str, literal: object) -> np.ndarray:
        truth = np.empty(len(self.dictionary) + 1, dtype=bool)
        for code, value in enumerate(self.dictionary):
            truth[code] = _scalar_compare(value, op, literal)
        truth[len(self.dictionary)] = False  # nulls never match
        return truth[self.codes]

    def take(self, indices: np.ndarray) -> list[object]:
        return self._values(self.codes[indices])

    def gather(self, indices: np.ndarray) -> "DictStringVector":
        return DictStringVector(self.dictionary, self.codes[indices])

    def to_list(self) -> list[object]:
        return self._values(self.codes)

    def _values(self, codes: np.ndarray) -> list[object]:
        """Values of ``codes`` (None for the null code): one ``map``, or a
        lookup per code when that beats copying the dictionary."""
        if len(codes) < len(self.dictionary):
            null_code = len(self.dictionary)
            return [None if code == null_code else self.dictionary[code]
                    for code in codes.tolist()]
        return list(map([*self.dictionary, None].__getitem__, codes.tolist()))

    def factorize(self, indices: np.ndarray | None = None
                  ) -> tuple[np.ndarray, list[object]]:
        codes = self.codes if indices is None else self.codes[indices]
        null_code = len(self.dictionary)
        # a code is used iff its bin is non-empty; the running count of
        # used codes renumbers them densely in code order, and the null
        # code is the largest, so nulls (when present) land in the last
        # slot — the factorize contract
        mask = np.bincount(codes, minlength=null_code + 1) > 0
        dense = np.cumsum(mask, dtype=np.intp) - 1
        used = np.flatnonzero(mask[:-1]).tolist()
        uniques: list[object] = [self.dictionary[code] for code in used]
        if mask[-1]:
            uniques.append(None)
        return dense[codes], uniques


def concat_vectors(parts: list[ColumnVector]) -> ColumnVector:
    """One vector spanning several chunks of the same column.

    A lone part comes back as it is (it may be a cached, read-only
    vector).  Numeric parts concatenate value/validity arrays; string
    parts remap each chunk's dictionary into the sorted union dictionary
    (chunk dictionaries are per-row-group, so they rarely agree).
    """
    if not parts:
        raise ValueError("cannot concatenate zero vectors")
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], NumericVector):
        numeric = [part for part in parts if isinstance(part, NumericVector)]
        return NumericVector(
            np.concatenate([part.values for part in numeric]),
            np.concatenate([part.valid() for part in numeric]),
        )
    union: list[object] = sorted(
        {value for part in parts for value in part.dictionary}  # type: ignore[attr-defined]
    )
    index = {value: position for position, value in enumerate(union)}
    null_code = len(union)
    chunks = []
    for part in parts:
        assert isinstance(part, DictStringVector)
        remap = np.array(
            [index[value] for value in part.dictionary] + [null_code],
            dtype=np.uint32,
        )
        chunks.append(remap[part.codes])
    return DictStringVector(union, np.concatenate(chunks))
