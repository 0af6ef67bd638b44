"""Seeded inputs: DPI packets, TPC-H-shaped columns and query texts.

Everything a workload feeds the stack is built here from ``--seed`` and
nothing else, so the same seed gives byte-identical payloads and query
texts (``inputs_sha256`` pins that).  Generation is column-at-a-time
NumPy: the library's row-wise generators (``repro.workloads``) cost
~19 us per packet and ~15 us per lineitem row, which would turn set-up
into the longest phase of every run.  Value domains and schemas are the
library's own (``repro.workloads.packets`` / ``repro.workloads.tpch``).

Each query is generated once as a :class:`Query` holding the statement
the stack runs, the statement stdlib ``sqlite3`` runs as the independent
reference, and how to compare the two results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.table.schema import Column, ColumnType, Schema
from repro.workloads.packets import BASE_TIMESTAMP, FIN_APP_URL, PROVINCES
from repro.workloads.tpch import (
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    SHIPDATE_HIGH,
    SHIPDATE_LOW,
    SUPPLIER_SCHEMA,
)

_DAY = 86_400

URLS = [
    FIN_APP_URL,
    "http://video.example.com",
    "http://social.example.com",
    "http://shop.example.com",
    "http://news.example.com",
    "http://game.example.com",
    "http://map.example.com",
    "http://mail.example.com",
]

DPI_SCHEMA = Schema([
    Column("url", ColumnType.STRING),
    Column("start_time", ColumnType.TIMESTAMP),
    Column("province", ColumnType.STRING),
    Column("user_id", ColumnType.INT64),
    Column("bytes_up", ColumnType.INT64),
    Column("bytes_down", ColumnType.INT64),
    Column("app_label", ColumnType.STRING),
    Column("dirty", ColumnType.BOOL),
    Column("tenant", ColumnType.STRING),
])

APP_LABELS_SCHEMA = Schema([
    Column("app_url", ColumnType.STRING),
    Column("category", ColumnType.STRING),
    Column("weight", ColumnType.INT64),
])

REGIONS_SCHEMA = Schema([
    Column("region_province", ColumnType.STRING),
    Column("region", ColumnType.STRING),
])

_CATEGORIES = ["finance", "media", "media", "retail", "media", "games",
               "utility", "utility"]

_PACKET_LINE = (
    '{"url":"%s","start_time":%d,"province":"%s","user_id":%d,'
    '"bytes_up":%d,"bytes_down":%d,"app_label":"%s","dirty":%s,'
    '"tenant":"%s"}'
)

#: query template shares (ISSUE: 30/30/5/15/10/10), as counts out of 20
TEMPLATE_MIX = (
    ("q_point", 6),
    ("q_groupby", 6),
    ("q_footer", 1),
    ("q_join2", 3),
    ("q_join3", 2),
    ("q_timetravel", 2),
)


def zipf_shares(count: int) -> list[float]:
    """Zipf(1) shares over ``count`` ranks, summing to 1."""
    weights = [1.0 / (rank + 1) for rank in range(count)]
    total = sum(weights)
    return [weight / total for weight in weights]


@dataclass
class Packets:
    """A pool of DPI packets: wire payloads beside their parsed columns."""

    payloads: list[bytes]
    #: one routing key per packet (the ``user_id``, as the paper's DPI
    #: producers key by subscriber)
    keys: list[str]
    #: parsed column values, aligned with ``payloads``; mangled lines
    #: have ``ok`` False and must not reach any table
    columns: dict[str, list]
    ok: list[bool]


def hot_hours(rng: np.random.Generator, hours: int) -> np.ndarray:
    """The quarter of the hours whose packets arrive dirty and unlabeled
    (clustered, as in ``repro.workloads.packets``)."""
    return rng.permutation(hours)[: max(1, hours // 4)]


def dpi_packets(rng: np.random.Generator, count: int, tenant: str,
                hours: int, hot: np.ndarray,
                mangled_every: int = 0) -> Packets:
    """``count`` DPI packets of one tenant; every ``mangled_every``-th
    is a mangled log line, not JSON."""
    hour = rng.integers(0, hours, size=count)
    in_hot = np.isin(hour, hot)
    dirty = in_hot & (rng.random(count) < 0.6)
    unlabeled = in_hot & (rng.random(count) < 0.8)
    url_index = rng.integers(0, len(URLS), size=count)
    user_id = rng.integers(0, 1_000_000, size=count)
    start_time = BASE_TIMESTAMP + hour * 3600 + rng.integers(
        0, 3600, size=count)
    province_index = rng.integers(0, len(PROVINCES), size=count)
    bytes_up = rng.integers(100, 100_000, size=count)
    bytes_down = rng.integers(100, 1_000_000, size=count)
    labels = [url.split("//")[1].split(".")[0] for url in URLS]
    columns = {
        "url": [URLS[i] for i in url_index.tolist()],
        "start_time": start_time.tolist(),
        "province": [PROVINCES[i] for i in province_index.tolist()],
        "user_id": user_id.tolist(),
        "bytes_up": bytes_up.tolist(),
        "bytes_down": bytes_down.tolist(),
        "app_label": [
            "" if blank else labels[i]
            for i, blank in zip(url_index.tolist(), unlabeled.tolist())
        ],
        "dirty": dirty.tolist(),
        "tenant": [tenant] * count,
    }
    payloads = [
        (_PACKET_LINE % (u, s, p, uid, up, down, label,
                         "true" if d else "false", t)).encode()
        for u, s, p, uid, up, down, label, d, t in zip(*columns.values())
    ]
    ok = [True] * count
    if mangled_every:
        for index in range(mangled_every - 1, count, mangled_every):
            payloads[index] = b"@@ mangled log line %d" % index
            ok[index] = False
    return Packets(
        payloads=payloads,
        keys=[str(uid) for uid in columns["user_id"]],
        columns=columns,
        ok=ok,
    )


def dimension_tables() -> dict[str, tuple[Schema, dict[str, list]]]:
    """The two small dimensions ``pipeline_mixed`` joins the DPI table to."""
    return {
        "app_labels": (APP_LABELS_SCHEMA, {
            "app_url": list(URLS),
            "category": list(_CATEGORIES),
            "weight": list(range(1, len(URLS) + 1)),
        }),
        "regions": (REGIONS_SCHEMA, {
            "region_province": list(PROVINCES),
            "region": [f"region_{index % 6}"
                       for index in range(len(PROVINCES))],
        }),
    }


_SHIPMODES = ("AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR")
_RETURNFLAGS = ("R", "A", "N")
_LINESTATUS = ("O", "F")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")


def _pick(rng: np.random.Generator, domain: tuple[str, ...],
          count: int) -> list[str]:
    return [domain[i] for i in rng.integers(0, len(domain), count).tolist()]


def tpch_tables(rng: np.random.Generator, lineitem_rows: int,
                suppliers: int) -> dict[str, tuple[Schema, dict[str, list]]]:
    """TPC-H ``lineitem``/``orders``/``supplier`` columns as plain lists."""
    n = lineitem_rows
    orders = max(1, n // 4)
    shipdate = SHIPDATE_LOW + rng.integers(
        0, (SHIPDATE_HIGH - SHIPDATE_LOW) // _DAY, size=n) * _DAY
    lineitem = {
        "l_orderkey": rng.integers(1, orders + 1, size=n).tolist(),
        "l_partkey": rng.integers(1, 200_000, size=n).tolist(),
        "l_suppkey": rng.integers(1, suppliers + 1, size=n).tolist(),
        "l_linenumber": (np.arange(n) % 7 + 1).tolist(),
        "l_quantity": rng.integers(1, 51, size=n).tolist(),
        "l_extendedprice": np.round(
            rng.uniform(900.0, 105_000.0, size=n), 2).tolist(),
        "l_discount": (rng.integers(0, 11, size=n) / 100.0).tolist(),
        "l_tax": (rng.integers(0, 9, size=n) / 100.0).tolist(),
        "l_returnflag": _pick(rng, _RETURNFLAGS, n),
        "l_linestatus": _pick(rng, _LINESTATUS, n),
        "l_shipdate": shipdate.tolist(),
        "l_commitdate": (shipdate + rng.integers(1, 90, size=n) * _DAY
                         ).tolist(),
        "l_receiptdate": (shipdate + rng.integers(1, 30, size=n) * _DAY
                          ).tolist(),
        "l_shipmode": _pick(rng, _SHIPMODES, n),
    }
    orders_columns = {
        "o_orderkey": list(range(1, orders + 1)),
        "o_custkey": rng.integers(1, 150_000, size=orders).tolist(),
        "o_orderstatus": _pick(rng, _LINESTATUS, orders),
        "o_totalprice": np.round(
            rng.uniform(900.0, 500_000.0, size=orders), 2).tolist(),
        "o_orderdate": (SHIPDATE_LOW + rng.integers(
            0, (SHIPDATE_HIGH - SHIPDATE_LOW) // _DAY, size=orders) * _DAY
        ).tolist(),
        "o_orderpriority": _pick(rng, _PRIORITIES, orders),
    }
    supplier = {
        "s_suppkey": list(range(1, suppliers + 1)),
        "s_nationkey": rng.integers(0, 25, size=suppliers).tolist(),
        "s_name": [f"Supplier#{index + 1:09d}" for index in range(suppliers)],
        "s_acctbal": np.round(
            rng.uniform(-999.99, 9_999.99, size=suppliers), 2).tolist(),
    }
    return {
        "lineitem": (LINEITEM_SCHEMA, lineitem),
        "orders": (ORDERS_SCHEMA, orders_columns),
        "supplier": (SUPPLIER_SCHEMA, supplier),
    }


class Spread:
    """Seeded low-discrepancy draws in [0, 1)^2 (the R2 sequence).

    Literals drawn independently make one seed's mix mostly narrow
    ranges and another's mostly wide ones, and the pass's total work —
    the thing being timed — would swing with the seed.  Successive
    points of this sequence cover the unit square evenly from the first
    few on, so every seed asks for nearly the same amount of work while
    no two seeds (the start is seeded) ask the same questions.
    """

    _STEP = (0.7548776662466927, 0.5698402909980532)

    def __init__(self, rng: np.random.Generator) -> None:
        self._start = rng.random(2).tolist()
        self._count = 0

    def next(self) -> tuple[float, float]:
        self._count += 1
        return tuple((start + self._count * step) % 1.0
                     for start, step in zip(self._start, self._STEP))


@dataclass
class Query:
    """One statement, in the stack's dialect and in sqlite's."""

    template: str
    sql: str
    #: the same question for sqlite; ``{batch}`` is replaced by the load
    #: batch (or pipeline round) the statement may see, which is how the
    #: reference models snapshot isolation and ``as_of``
    reference_sql: str
    #: output column names in SELECT order (the stack returns dicts)
    outputs: tuple[str, ...]
    ordered: bool
    #: how many load batches back ``as_of`` reaches (0 = current snapshot)
    as_of_back: int = 0


class _QueryFactory:
    """Statement factory: one ``_<template>`` method per template."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._draws = {name: Spread(rng) for name, _ in TEMPLATE_MIX}
        self._serial = 0
        self._seen: set[str] = set()

    def make(self, template: str) -> Query:
        """A statement no earlier call returned (literals are redrawn on
        the rare collision, so "fresh" always means unseen)."""
        while True:
            self._serial += 1
            query = getattr(self, f"_{template}")()
            if query.sql not in self._seen:
                self._seen.add(query.sql)
                return query

    def _q_groupby(self) -> Query:
        return self._groupby("q_groupby", 0)

    def _q_timetravel(self) -> Query:
        return self._groupby("q_timetravel", 1)


class TpchQueries(_QueryFactory):
    """Seeded literals for the six templates over the TPC-H tables."""

    batch_column = {"lineitem": "l_batch", "orders": "o_batch",
                    "supplier": "s_batch"}
    #: the reference evaluates the join once and every join statement
    #: filters and aggregates that relation: sqlite's nested-loop join
    #: costs ~40 ms per statement at these sizes, a single scan ~5 ms
    reference_join = (
        "CREATE TABLE joined AS SELECT l.l_returnflag, l.l_quantity, "
        "l.l_extendedprice, l.l_batch, o.o_totalprice, o.o_orderpriority, "
        "s.s_acctbal FROM lineitem l "
        "JOIN orders o ON l.l_orderkey = o.o_orderkey "
        "JOIN supplier s ON l.l_suppkey = s.s_suppkey"
    )

    def __init__(self, rng: np.random.Generator, suppliers: int) -> None:
        super().__init__(rng)
        self._suppliers = suppliers

    def _q_point(self) -> Query:
        width = max(1, self._suppliers // 200)  # 0.5% of the key domain
        u, _ = self._draws["q_point"].next()
        low = 1 + int(u * (self._suppliers - width))
        where = f"l_suppkey >= {low} AND l_suppkey < {low + width}"
        select = "SELECT l_orderkey, l_extendedprice, l_quantity FROM lineitem"
        return Query(
            "q_point", f"{select} WHERE {where}",
            f"{select} WHERE {where} AND l_batch <= {{batch}}",
            ("l_orderkey", "l_extendedprice", "l_quantity"), ordered=False,
        )

    def _groupby(self, template: str, back: int) -> Query:
        span = (SHIPDATE_HIGH - SHIPDATE_LOW) // _DAY
        u, v = self._draws[template].next()
        width = span // 50 + int(u * (span // 3 - span // 50))
        start = SHIPDATE_LOW + int(v * (span - width)) * _DAY
        where = (f"l_shipdate >= {start} "
                 f"AND l_shipdate < {start + width * _DAY}")
        select = (
            "SELECT l_returnflag, COUNT(*) AS n, "
            "SUM(l_extendedprice) AS revenue, AVG(l_discount) AS avg_disc "
            "FROM lineitem"
        )
        tail = "GROUP BY l_returnflag ORDER BY l_returnflag"
        return Query(
            template, f"{select} WHERE {where} {tail}",
            f"{select} WHERE {where} AND l_batch <= {{batch}} {tail}",
            ("l_returnflag", "n", "revenue", "avg_disc"), ordered=True,
            as_of_back=back,
        )

    def _q_footer(self) -> Query:
        # no literal to vary, so the serial number in the aliases is what
        # keeps one un-predicated statement from repeating another
        tag = self._serial
        low = ("l_quantity", "l_shipdate", "l_partkey")[tag % 3]
        high = ("l_extendedprice", "l_receiptdate", "l_suppkey")[tag // 3 % 3]
        select = (f"SELECT COUNT(*) AS n_{tag}, MIN({low}) AS lo_{tag}, "
                  f"MAX({high}) AS hi_{tag} FROM lineitem")
        return Query(
            "q_footer", select, f"{select} WHERE l_batch <= {{batch}}",
            (f"n_{tag}", f"lo_{tag}", f"hi_{tag}"), ordered=False,
        )

    def _q_join2(self) -> Query:
        u, v = self._draws["q_join2"].next()
        quantity = 5 + int(u * 46)
        price = round(900.0 + v * 399_100.0, 2)
        select = (
            "SELECT l.l_returnflag, COUNT(*) AS n, SUM(l.l_quantity) AS qty "
            "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey"
        )
        where = f"l.l_quantity < {quantity} AND o.o_totalprice >= {price}"
        return Query(
            "q_join2", f"{select} WHERE {where} GROUP BY l.l_returnflag",
            "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM joined "
            f"WHERE l_quantity < {quantity} AND o_totalprice >= {price} "
            "AND l_batch <= {batch} GROUP BY l_returnflag",
            ("l.l_returnflag", "n", "qty"), ordered=False,
        )

    def _q_join3(self) -> Query:
        u, v = self._draws["q_join3"].next()
        quantity = 5 + int(u * 46)
        balance = round(-900.0 + v * 6_900.0, 2)
        select = (
            "SELECT o.o_orderpriority, COUNT(*) AS n, "
            "SUM(l.l_extendedprice) AS revenue "
            "FROM lineitem l "
            "JOIN orders o ON l.l_orderkey = o.o_orderkey "
            "JOIN supplier s ON l.l_suppkey = s.s_suppkey"
        )
        where = f"l.l_quantity < {quantity} AND s.s_acctbal >= {balance}"
        return Query(
            "q_join3", f"{select} WHERE {where} GROUP BY o.o_orderpriority",
            "SELECT o_orderpriority, COUNT(*), SUM(l_extendedprice) "
            f"FROM joined WHERE l_quantity < {quantity} "
            f"AND s_acctbal >= {balance} AND l_batch <= {{batch}} "
            "GROUP BY o_orderpriority",
            ("o.o_orderpriority", "n", "revenue"), ordered=False,
        )


class DpiQueries(_QueryFactory):
    """The same six templates over the DPI table and its dimensions."""

    def __init__(self, rng: np.random.Generator, hours: int) -> None:
        super().__init__(rng)
        self._hours = hours

    def _q_point(self) -> Query:
        u, _ = self._draws["q_point"].next()
        low = int(u * 995_000)
        where = f"user_id >= {low} AND user_id < {low + 5_000}"
        select = "SELECT user_id, bytes_down, province FROM dpi"
        return Query(
            "q_point", f"{select} WHERE {where}",
            f"{select} WHERE {where} AND round_no <= {{batch}}",
            ("user_id", "bytes_down", "province"), ordered=False,
        )

    def _groupby(self, template: str, back: int) -> Query:
        u, v = self._draws[template].next()
        width = 2 + int(u * max(1, self._hours // 3 - 2))
        first = int(v * (self._hours - width))
        start = BASE_TIMESTAMP + first * 3600
        where = (f"start_time >= {start} "
                 f"AND start_time < {start + width * 3600}")
        select = (
            "SELECT province, COUNT(*) AS n, SUM(bytes_down) AS down, "
            "AVG(bytes_up) AS up FROM dpi"
        )
        tail = "GROUP BY province ORDER BY province"
        return Query(
            template, f"{select} WHERE {where} {tail}",
            f"{select} WHERE {where} AND round_no <= {{batch}} {tail}",
            ("province", "n", "down", "up"), ordered=True, as_of_back=back,
        )

    def _q_footer(self) -> Query:
        tag = self._serial
        low = ("start_time", "bytes_up", "user_id")[tag % 3]
        high = ("bytes_down", "start_time", "user_id")[tag // 3 % 3]
        select = (f"SELECT COUNT(*) AS n_{tag}, MIN({low}) AS lo_{tag}, "
                  f"MAX({high}) AS hi_{tag} FROM dpi")
        return Query(
            "q_footer", select, f"{select} WHERE round_no <= {{batch}}",
            (f"n_{tag}", f"lo_{tag}", f"hi_{tag}"), ordered=False,
        )

    def _q_join2(self) -> Query:
        u, _ = self._draws["q_join2"].next()
        ceiling = 10_000 + int(u * 90_000)
        select = (
            "SELECT a.category, COUNT(*) AS n, SUM(d.bytes_down) AS down "
            "FROM dpi d JOIN app_labels a ON d.url = a.app_url"
        )
        where = f"d.bytes_up < {ceiling}"
        return Query(
            "q_join2", f"{select} WHERE {where} GROUP BY a.category",
            f"{select} WHERE {where} AND d.round_no <= {{batch}} "
            "GROUP BY a.category",
            ("a.category", "n", "down"), ordered=False,
        )

    def _q_join3(self) -> Query:
        u, _ = self._draws["q_join3"].next()
        ceiling = 100_000 + int(u * 900_000)
        select = (
            "SELECT r.region, COUNT(*) AS n, SUM(d.bytes_up) AS up "
            "FROM dpi d JOIN app_labels a ON d.url = a.app_url "
            "JOIN regions r ON d.province = r.region_province"
        )
        where = f"d.bytes_down < {ceiling} AND a.weight >= 3"
        return Query(
            "q_join3", f"{select} WHERE {where} GROUP BY r.region",
            f"{select} WHERE {where} AND d.round_no <= {{batch}} "
            "GROUP BY r.region",
            ("r.region", "n", "up"), ordered=False,
        )


def mixed_batch(factory, rng: np.random.Generator, batches: int
                ) -> list[Query]:
    """``batches`` x 20 queries, each batch holding the exact template
    shares in a seeded order (so every round does comparable work)."""
    out: list[Query] = []
    names = [name for name, count in TEMPLATE_MIX for _ in range(count)]
    for _ in range(batches):
        order = rng.permutation(len(names)).tolist()
        out.extend(factory.make(names[index]) for index in order)
    return out


def digest(*parts) -> str:
    """sha256 over byte strings, texts and lists of either."""
    sha = hashlib.sha256()

    def feed(part) -> None:
        if isinstance(part, (list, tuple)):
            for item in part:
                feed(item)
        elif isinstance(part, bytes):
            sha.update(len(part).to_bytes(4, "little"))
            sha.update(part)
        else:
            feed(str(part).encode())

    feed(parts)
    return sha.hexdigest()
