"""stdlib ``sqlite3`` as the independent reference for every query.

The same rows the stack ingests are loaded here with one extra column —
the load batch (or pipeline round) that delivered them — so a statement
that must see only snapshot *k* (a query issued before later commits, or
an ``as_of`` read) becomes ``... AND batch <= k`` on the reference side.
Nobody in this repository wrote the evaluator, which is the point.
"""

from __future__ import annotations

import math
import sqlite3

from repro.table.schema import ColumnType, Schema

from inputs import Query

_SQL_TYPES = {
    ColumnType.INT64: "INTEGER",
    ColumnType.TIMESTAMP: "INTEGER",
    ColumnType.FLOAT64: "REAL",
    ColumnType.BOOL: "INTEGER",
    ColumnType.STRING: "TEXT",
}

#: floats may differ by summation order only
REL_TOL = 1e-9


class SqlOracle:
    """An in-memory sqlite database mirroring the stack's tables."""

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._answers: dict[tuple[str, int], list[tuple]] = {}

    def close(self) -> None:
        self._db.close()

    def create(self, name: str, schema: Schema, batch_column: str,
               indexes: tuple[str, ...] = ()) -> None:
        columns = ", ".join(
            f"{column.name} {_SQL_TYPES[column.type]}"
            for column in schema.columns
        )
        self._db.execute(
            f"CREATE TABLE {name} ({columns}, {batch_column} INTEGER)"
        )
        for column in indexes:
            self._db.execute(
                f"CREATE INDEX {name}_{column} ON {name} ({column})"
            )

    def insert(self, name: str, columns: dict[str, list], batch: int,
               keep=None) -> int:
        """Load one batch; ``keep`` (bool per row) drops mangled lines."""
        rows = zip(*columns.values())
        if keep is not None:
            rows = (row for row, ok in zip(rows, keep) if ok)
        marks = ", ".join("?" for _ in range(len(columns) + 1))
        cursor = self._db.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            (row + (batch,) for row in rows),
        )
        return cursor.rowcount

    def execute(self, sql: str) -> list[tuple]:
        return self._db.execute(sql).fetchall()

    def answer(self, query: Query, batch: int) -> list[tuple]:
        """The reference rows for ``query`` at snapshot ``batch`` (cached:
        every pass of a run asks the same questions)."""
        key = (query.reference_sql, batch)
        rows = self._answers.get(key)
        if rows is None:
            rows = self._answers[key] = self.execute(
                query.reference_sql.format(batch=batch)
            )
        return rows


def _same(left: object, right: object) -> bool:
    if isinstance(left, float) or isinstance(right, float):
        if left is None or right is None:
            return left is right
        return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=1e-12)
    return left == right


def _sort_key(row: tuple) -> tuple:
    return tuple((value is None, value) for value in row)


def matches(query: Query, rows: list[dict[str, object]],
            expected: list[tuple]) -> bool:
    """Does the stack's result equal the reference's?

    Ordered where the statement has ORDER BY, as a multiset otherwise;
    floats to ``REL_TOL`` relative.
    """
    try:
        got = [tuple(row[name] for name in query.outputs) for row in rows]
    except KeyError:
        return False
    if len(got) != len(expected):
        return False
    if not query.ordered:
        got = sorted(got, key=_sort_key)
        expected = sorted(expected, key=_sort_key)
    return all(
        len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
        for a, b in zip(got, expected)
    )
