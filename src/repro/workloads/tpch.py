"""TPC-H-schema data and query generator (Fig 16's test bed).

A pure-Python dbgen for the ``lineitem`` table (plus a light ``orders``)
following the TPC-H specification's value domains: quantities 1..50,
discounts 0..0.10, ship dates uniform over 1992-01-02..1998-12-01, etc.
Scale factor SF nominally means 6M x SF lineitem rows; the generator takes
``rows_per_sf`` so benches can run scaled-down while keeping the paper's
SF labels.

The query workload follows the paper's method ([47]): random conjunctive
range predicates over the table's numeric/date columns — the pushdown
predicates that drive both auto-compaction training and predicate-aware
partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.table.expr import And, Expression, Predicate
from repro.table.schema import Column, ColumnType, Schema

#: 1992-01-01 and 1998-12-01 as epoch seconds (the TPC-H date domain).
SHIPDATE_LOW = 694_224_000
SHIPDATE_HIGH = 912_470_400
_DAY = 86_400

LINEITEM_SCHEMA = Schema([
    Column("l_orderkey", ColumnType.INT64),
    Column("l_partkey", ColumnType.INT64),
    Column("l_suppkey", ColumnType.INT64),
    Column("l_linenumber", ColumnType.INT64),
    Column("l_quantity", ColumnType.INT64),
    Column("l_extendedprice", ColumnType.FLOAT64),
    Column("l_discount", ColumnType.FLOAT64),
    Column("l_tax", ColumnType.FLOAT64),
    Column("l_returnflag", ColumnType.STRING),
    Column("l_linestatus", ColumnType.STRING),
    Column("l_shipdate", ColumnType.TIMESTAMP),
    Column("l_commitdate", ColumnType.TIMESTAMP),
    Column("l_receiptdate", ColumnType.TIMESTAMP),
    Column("l_shipmode", ColumnType.STRING),
])

ORDERS_SCHEMA = Schema([
    Column("o_orderkey", ColumnType.INT64),
    Column("o_custkey", ColumnType.INT64),
    Column("o_orderstatus", ColumnType.STRING),
    Column("o_totalprice", ColumnType.FLOAT64),
    Column("o_orderdate", ColumnType.TIMESTAMP),
    Column("o_orderpriority", ColumnType.STRING),
])

SUPPLIER_SCHEMA = Schema([
    Column("s_suppkey", ColumnType.INT64),
    Column("s_nationkey", ColumnType.INT64),
    Column("s_name", ColumnType.STRING),
    Column("s_acctbal", ColumnType.FLOAT64),
])

_SHIPMODES = ("AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR")
_RETURNFLAGS = ("R", "A", "N")
_LINESTATUS = ("O", "F")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")

#: Columns eligible for random range predicates (numeric/date domains).
PREDICATE_COLUMNS: dict[str, tuple[float, float]] = {
    "l_quantity": (1, 50),
    "l_discount": (0.0, 0.10),
    "l_extendedprice": (900.0, 105_000.0),
    "l_shipdate": (SHIPDATE_LOW, SHIPDATE_HIGH),
    "l_suppkey": (1, 10_000),
}


@dataclass
class TPCHGenerator:
    """Deterministic TPC-H-shaped row generator."""

    scale_factor: float = 1.0
    rows_per_sf: int = 60_000
    seed: int = 42

    @property
    def lineitem_rows(self) -> int:
        return max(1, int(self.scale_factor * self.rows_per_sf))

    def lineitem(self) -> list[dict[str, object]]:
        """Generate the lineitem table."""
        rng = np.random.default_rng(self.seed)
        count = self.lineitem_rows
        orderkeys = rng.integers(1, max(2, count // 4), size=count)
        quantities = rng.integers(1, 51, size=count)
        extended = rng.uniform(900.0, 105_000.0, size=count)
        discounts = rng.integers(0, 11, size=count) / 100.0
        taxes = rng.integers(0, 9, size=count) / 100.0
        shipdays = rng.integers(
            0, (SHIPDATE_HIGH - SHIPDATE_LOW) // _DAY, size=count
        )
        commit_lag = rng.integers(1, 90, size=count)
        receipt_lag = rng.integers(1, 30, size=count)
        rows = []
        for index in range(count):
            shipdate = SHIPDATE_LOW + int(shipdays[index]) * _DAY
            rows.append({
                "l_orderkey": int(orderkeys[index]),
                "l_partkey": int(rng.integers(1, 200_000)),
                "l_suppkey": int(rng.integers(1, 10_000)),
                "l_linenumber": index % 7 + 1,
                "l_quantity": int(quantities[index]),
                "l_extendedprice": round(float(extended[index]), 2),
                "l_discount": float(discounts[index]),
                "l_tax": float(taxes[index]),
                "l_returnflag": _RETURNFLAGS[int(rng.integers(0, 3))],
                "l_linestatus": _LINESTATUS[int(rng.integers(0, 2))],
                "l_shipdate": shipdate,
                "l_commitdate": shipdate + int(commit_lag[index]) * _DAY,
                "l_receiptdate": shipdate + int(receipt_lag[index]) * _DAY,
                "l_shipmode": _SHIPMODES[int(rng.integers(0, len(_SHIPMODES)))],
            })
        return rows

    def orders(self) -> list[dict[str, object]]:
        rng = np.random.default_rng(self.seed + 1)
        count = max(1, self.lineitem_rows // 4)
        rows = []
        for index in range(count):
            rows.append({
                "o_orderkey": index + 1,
                "o_custkey": int(rng.integers(1, 150_000)),
                "o_orderstatus": _LINESTATUS[int(rng.integers(0, 2))],
                "o_totalprice": round(float(rng.uniform(900.0, 500_000.0)), 2),
                "o_orderdate": SHIPDATE_LOW
                + int(rng.integers(0, (SHIPDATE_HIGH - SHIPDATE_LOW) // _DAY))
                * _DAY,
                "o_orderpriority": _PRIORITIES[int(rng.integers(0, 5))],
            })
        return rows

    def supplier(self) -> list[dict[str, object]]:
        """The supplier dimension: covers lineitem's full 1..10000
        ``l_suppkey`` domain, so supplier joins never lose rows."""
        rng = np.random.default_rng(self.seed + 2)
        rows = []
        for index in range(10_000):
            rows.append({
                "s_suppkey": index + 1,
                "s_nationkey": int(rng.integers(0, 25)),
                "s_name": f"Supplier#{index + 1:09d}",
                "s_acctbal": round(float(rng.uniform(-999.99, 9_999.99)), 2),
            })
        return rows


def generate_query_workload(num_queries: int, seed: int = 0,
                            max_predicates: int = 3,
                            columns: dict[str, tuple[float, float]] | None = None
                            ) -> list[Expression]:
    """Random conjunctive range queries over lineitem (the method of [47]).

    Each query picks 1..max_predicates distinct columns; date columns get
    window predicates (>= low AND < high), numeric columns get one-sided
    or two-sided ranges.
    """
    domains = columns if columns is not None else PREDICATE_COLUMNS
    rng = np.random.default_rng(seed)
    names = list(domains)
    workload: list[Expression] = []
    for _ in range(num_queries):
        width = min(max_predicates, len(names))
        chosen = rng.choice(
            len(names),
            size=int(rng.integers(1, width + 1)),
            replace=False,
        )
        atoms: list[Predicate] = []
        for column_index in chosen:
            name = names[int(column_index)]
            low, high = domains[name]
            width = (high - low) * float(rng.uniform(0.02, 0.3))
            start = float(rng.uniform(low, high - width))
            if name in ("l_shipdate",):
                start = low + round((start - low) / _DAY) * _DAY
                width = max(_DAY, round(width / _DAY) * _DAY)
                atoms.append(Predicate(name, ">=", int(start)))
                atoms.append(Predicate(name, "<", int(start + width)))
            elif name in ("l_quantity", "l_suppkey"):
                atoms.append(Predicate(name, ">=", int(start)))
                atoms.append(Predicate(name, "<", int(start + width) + 1))
            else:
                atoms.append(Predicate(name, ">=", round(start, 4)))
                atoms.append(Predicate(name, "<", round(start + width, 4)))
        workload.append(And(*atoms) if len(atoms) > 1 else atoms[0])
    return workload

