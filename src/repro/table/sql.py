"""A minimal SQL SELECT front end (the paper's Fig 13 query, verbatim).

Supported grammar (case-insensitive keywords)::

    SELECT <item> [, <item>...]
    FROM <table> [alias]
         [{[LEFT [OUTER]] JOIN} <table> [alias] ON <a.x = b.y> [AND ...]]...
    [WHERE <ref> <op> <literal> [AND ...]]
    [GROUP BY <ref> [, <ref>...]]
    [ORDER BY <ref|alias> [DESC]]
    [LIMIT <n>]

where ``<item>`` is ``*``, a column reference, or ``COUNT(*)|SUM(c)|
AVG(c)|MIN(c)|MAX(c)`` with an optional ``AS alias`` (several aggregates
may share one statement); ``<ref>`` is a column, optionally qualified as
``alias.column``; ``<op>`` is one of ``= < <= > >= IN``; literals are
ints, floats or quoted strings.  SQL comments (``-- ...``) are stripped,
so the paper's annotated listing parses as printed.

Multi-table FROM clauses also accept the comma form (``FROM a, b WHERE
a.x = b.y``) — equality conjuncts between two column references are
lifted out of WHERE as join conditions.  Joined queries route through
the cost-based planner (:mod:`repro.table.planner`): join *order* comes
from SPN cardinality estimates, execution from the vectorized kernel
(:mod:`repro.table.join`).

Single-table statements remain a thin veneer over
:meth:`~repro.table.table.TableObject.select` — predicates and
aggregates still push down to the storage side.

:func:`query` additionally consults the **snapshot-keyed result cache**
(:class:`~repro.cache.hierarchy.CacheHierarchy`): results key on the
normalized statement plus every referenced table's resolved snapshot id,
so a repeated query answers from cache with zero chunk decodes and zero
pool reads, a commit to any referenced table silently misses (new
snapshot id → new key), and time travel stays warm forever.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.stats import join_stats
from repro.errors import SchemaError
from repro.table.agg import AggregateState
from repro.table.expr import And, Expression, Predicate, split_conjuncts
from repro.table.planner import (
    JoinCondition,
    JoinQuery,
    StatisticsCache,
    TableRef,
    execute_plan,
    plan_join,
)
from repro.table.pushdown import AggregateSpec, result_labels, result_size_bytes
from repro.table.table import Lakehouse, QueryStats, TableObject

_AGG_RE = re.compile(
    r"^(COUNT|SUM|AVG|MIN|MAX)\s*"
    r"\(\s*(\*|[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)\s*\)$",
    re.IGNORECASE,
)
_CLAUSE_RE = re.compile(
    r"^\s*SELECT\s+(?P<select>.+?)\s+FROM\s+(?P<from>.+?)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?"
    r"(?:\s+GROUP\s+BY\s+(?P<group>.+?))?"
    r"(?:\s+ORDER\s+BY\s+(?P<order>.+?))?"
    r"(?:\s+LIMIT\s+(?P<limit>\d+))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_JOIN_SPLIT_RE = re.compile(
    r"\s+(LEFT(?:\s+OUTER)?\s+JOIN|INNER\s+JOIN|JOIN)\s+", re.IGNORECASE
)
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")
_TABLE_NAME_RE = re.compile(r"^[A-Za-z_][\w.]*$")
_COLREF_RE = re.compile(r"^(?:([A-Za-z_]\w*)\.)?([A-Za-z_]\w*)$")
_COLUMN_ITEM_RE = re.compile(r"^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?$")
_WHERE_ATOM_RE = re.compile(
    r"^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)\s*(<=|>=|=|<|>|IN)\s*(.+)$",
    re.IGNORECASE,
)
_EQUI_JOIN_RE = re.compile(r"^([\w.]+)\s*=\s*([\w.]+)$")


class SQLError(SchemaError):
    """A statement failed to parse or referenced unknown names."""


@dataclass
class _SelectItem:
    column: str | None  # None for aggregates / '*'
    aggregate: tuple[str, str | None] | None  # (function, column)
    alias: str | None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if self.aggregate:
            return self.aggregate[0]
        return self.column or "*"


@dataclass
class SelectStatement:
    """A parsed single-table SELECT, ready to execute."""

    table: str
    items: list[_SelectItem]
    predicate: Expression | None
    group_by: tuple[str, ...]
    order_by: str | None
    order_desc: bool
    limit: int | None
    star: bool = field(default=False)


@dataclass
class JoinSelectStatement:
    """A parsed multi-table SELECT; column refs are still raw text.

    Binding (resolving refs against table schemas, lifting WHERE
    equality conjuncts into join conditions) happens at execution time
    in :func:`execute_join_select`, where the lakehouse is in hand.
    """

    tables: tuple[TableRef, ...]
    hows: tuple[str, ...]  # join type joining tables[i + 1], SQL order
    on_pairs: tuple[tuple[str, str], ...]  # raw "a.x" = "b.y" ref pairs
    items: list[_SelectItem]
    where_atoms: tuple[Predicate, ...]  # columns possibly qualified
    group_by: tuple[str, ...]  # raw refs
    order_by: str | None
    order_desc: bool
    limit: int | None
    star: bool = field(default=False)


def _strip_comments(sql: str) -> str:
    return "\n".join(line.split("--", 1)[0] for line in sql.splitlines())


def normalize_sql(sql: str) -> str:
    """The result-cache text key: comments stripped, whitespace collapsed.

    Case is preserved — string literals are case-sensitive, and keyword
    case differences merely cost a duplicate cache entry, never a wrong
    answer.
    """
    return " ".join(_strip_comments(sql).split())


def _parse_literal(text: str) -> object:
    text = text.strip()
    if (text.startswith("'") and text.endswith("'")) or (
        text.startswith('"') and text.endswith('"')
    ):
        return text[1:-1]
    if text.startswith("(") and text.endswith(")"):
        return tuple(_parse_literal(part) for part in text[1:-1].split(","))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as error:
        raise SQLError(f"cannot parse literal {text!r}") from error


def _parse_where(clause: str) -> Expression:
    atoms: list[Predicate] = []
    # quote-aware split: a literal like 'black and white' must not be cut
    for part in split_conjuncts(clause):
        part = part.strip()
        match = re.match(
            r"^([A-Za-z_][\w]*)\s*(<=|>=|=|<|>|IN)\s*(.+)$",
            part, re.IGNORECASE,
        )
        if match is None:
            raise SQLError(f"cannot parse WHERE clause near {part!r}")
        column, op, literal_text = match.groups()
        atoms.append(
            Predicate(column, op.upper(), _parse_literal(literal_text))
        )
    return atoms[0] if len(atoms) == 1 else And(*atoms)


def _parse_join_where(
    clause: str,
) -> tuple[list[tuple[str, str]], list[Predicate]]:
    """Split a multi-table WHERE into join pairs and per-table atoms.

    An equality between two column references (``a.x = b.y``) is a join
    condition; everything else must be ``<ref> <op> <literal>``.
    """
    pairs: list[tuple[str, str]] = []
    atoms: list[Predicate] = []
    for part in split_conjuncts(clause):
        part = part.strip()
        equality = _EQUI_JOIN_RE.match(part)
        if (
            equality
            and _COLREF_RE.match(equality.group(1))
            and _COLREF_RE.match(equality.group(2))
        ):
            pairs.append((equality.group(1), equality.group(2)))
            continue
        match = _WHERE_ATOM_RE.match(part)
        if match is None:
            raise SQLError(f"cannot parse WHERE clause near {part!r}")
        column, op, literal_text = match.groups()
        atoms.append(
            Predicate(column, op.upper(), _parse_literal(literal_text))
        )
    return pairs, atoms


def _parse_table_ref(text: str) -> TableRef:
    parts = text.strip().split()
    if len(parts) == 3 and parts[1].upper() == "AS":
        name, alias = parts[0], parts[2]
    elif len(parts) == 2:
        name, alias = parts
    elif len(parts) == 1:
        name = alias = parts[0]
    else:
        raise SQLError(f"cannot parse table reference {text.strip()!r}")
    if not _TABLE_NAME_RE.match(name):
        raise SQLError(f"cannot parse table name {name!r}")
    if not _IDENT_RE.match(alias):
        raise SQLError(
            f"table alias {alias!r} must be a bare identifier"
            + (" (dotted table names need an alias)" if alias == name else "")
        )
    return TableRef(name, alias)


def _parse_from(
    clause: str,
) -> tuple[tuple[TableRef, ...], tuple[str, ...],
           tuple[tuple[str, str], ...]]:
    """Parse a multi-table FROM clause into refs, join types, ON pairs."""
    pieces = _JOIN_SPLIT_RE.split(clause)
    if len(pieces) == 1:  # comma syntax: conditions come from WHERE
        refs = tuple(
            _parse_table_ref(part) for part in _split_commas(clause)
        )
        return refs, tuple("inner" for _ in refs[1:]), ()
    if "," in pieces[0]:
        raise SQLError("cannot mix comma-form FROM with JOIN syntax")
    refs = [_parse_table_ref(pieces[0])]
    hows: list[str] = []
    on_pairs: list[tuple[str, str]] = []
    for keyword, rest in zip(pieces[1::2], pieces[2::2]):
        match = re.match(r"^(.+?)\s+ON\s+(.+)$", rest.strip(),
                         re.IGNORECASE | re.DOTALL)
        if match is None:
            raise SQLError(
                f"JOIN {rest.strip()[:40]!r} is missing its ON clause"
            )
        refs.append(_parse_table_ref(match.group(1)))
        hows.append(
            "left" if keyword.upper().startswith("LEFT") else "inner"
        )
        for conjunct in split_conjuncts(match.group(2)):
            conjunct = conjunct.strip()
            equality = _EQUI_JOIN_RE.match(conjunct)
            if (
                equality is None
                or not _COLREF_RE.match(equality.group(1))
                or not _COLREF_RE.match(equality.group(2))
            ):
                raise SQLError(
                    "only column = column equi-join conditions are "
                    f"supported in ON, got {conjunct!r}"
                )
            on_pairs.append((equality.group(1), equality.group(2)))
    return tuple(refs), tuple(hows), tuple(on_pairs)


def _parse_select_items(clause: str) -> tuple[list[_SelectItem], bool]:
    items: list[_SelectItem] = []
    star = False
    for raw in _split_commas(clause):
        raw = raw.strip()
        alias = None
        alias_match = re.match(r"^(.*?)\s+AS\s+([A-Za-z_][\w]*)$", raw,
                               re.IGNORECASE)
        if alias_match:
            raw, alias = alias_match.group(1).strip(), alias_match.group(2)
        if raw == "*":
            star = True
            continue
        agg_match = _AGG_RE.match(raw)
        if agg_match:
            function = agg_match.group(1).upper()
            column = agg_match.group(2)
            column = None if column == "*" else column
            if function != "COUNT" and column is None:
                raise SQLError(f"{function}(*) is not supported")
            items.append(_SelectItem(column=None,
                                     aggregate=(function, column),
                                     alias=alias))
        elif _COLUMN_ITEM_RE.match(raw):
            items.append(_SelectItem(column=raw, aggregate=None, alias=alias))
        else:
            raise SQLError(f"cannot parse select item {raw!r}")
    return items, star


def _split_commas(clause: str) -> list[str]:
    """Split on commas not inside parentheses."""
    parts, depth, current = [], 0, []
    for char in clause:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def _parse_order(order_clause: str) -> tuple[str, bool]:
    """Validate ORDER BY: exactly one output column, optional ASC/DESC.

    Anything else — several columns, an expression, a function call —
    previously slid through as a bogus sort key that silently ordered
    nothing; now it is a loud :class:`SQLError`.
    """
    order_clause = order_clause.strip()
    if "," in order_clause:
        raise SQLError(
            "multi-column ORDER BY is not supported; "
            f"order by one output column, got {order_clause!r}"
        )
    order_desc = bool(re.search(r"\s+DESC$", order_clause, re.IGNORECASE))
    order_by = re.sub(r"\s+(DESC|ASC)$", "", order_clause,
                      flags=re.IGNORECASE).strip()
    if not _COLUMN_ITEM_RE.match(order_by):
        raise SQLError(
            f"unsupported ORDER BY expression {order_clause!r}; only a "
            "single output column (optionally DESC) is supported"
        )
    return order_by, order_desc


def parse_select(sql: str) -> SelectStatement | JoinSelectStatement:
    """Parse one SELECT statement (single- or multi-table)."""
    cleaned = normalize_sql(sql)
    unquoted = re.sub(r"'[^']*'|\"[^\"]*\"", " ", cleaned)
    for keyword in ("OFFSET", "HAVING", "UNION"):
        if re.search(rf"\b{keyword}\b", unquoted, re.IGNORECASE):
            raise SQLError(
                f"{keyword} is not supported; the grammar is SELECT ... "
                "FROM ... [WHERE ...] [GROUP BY ...] [ORDER BY ref "
                "[DESC]] [LIMIT n]"
            )
    match = _CLAUSE_RE.match(cleaned)
    if match is None:
        raise SQLError(f"cannot parse statement: {sql.strip()[:80]!r}")
    items, star = _parse_select_items(match.group("select"))
    if not items and not star:
        raise SQLError("empty select list")
    group_by: tuple[str, ...] = ()
    if match.group("group"):
        group_by = tuple(
            part.strip() for part in match.group("group").split(",")
        )
    order_by, order_desc = None, False
    if match.group("order"):
        order_by, order_desc = _parse_order(match.group("order"))
    limit = int(match.group("limit")) if match.group("limit") else None
    aggregates = [item for item in items if item.aggregate]
    if aggregates and star:
        raise SQLError("cannot mix * with aggregates")

    from_clause = match.group("from").strip()
    multi = bool(_JOIN_SPLIT_RE.search(f" {from_clause} ")) or (
        len(_split_commas(from_clause)) > 1
    )
    if not multi:
        if not _TABLE_NAME_RE.match(from_clause):
            raise SQLError(f"cannot parse FROM clause {from_clause!r}")
        predicate = (
            _parse_where(match.group("where"))
            if match.group("where") else None
        )
        return SelectStatement(
            table=from_clause,
            items=items,
            predicate=predicate,
            group_by=group_by,
            order_by=order_by,
            order_desc=order_desc,
            limit=limit,
            star=star,
        )
    tables, hows, on_pairs = _parse_from(from_clause)
    where_pairs: list[tuple[str, str]] = []
    where_atoms: list[Predicate] = []
    if match.group("where"):
        where_pairs, where_atoms = _parse_join_where(match.group("where"))
    return JoinSelectStatement(
        tables=tables,
        hows=hows,
        on_pairs=on_pairs + tuple(where_pairs),
        items=items,
        where_atoms=tuple(where_atoms),
        group_by=group_by,
        order_by=order_by,
        order_desc=order_desc,
        limit=limit,
        star=star,
    )


def execute_select(statement: SelectStatement, lakehouse: Lakehouse,
                   as_of: float | None = None,
                   stats: QueryStats | None = None
                   ) -> list[dict[str, object]]:
    """Run a parsed single-table statement against a lakehouse table."""
    table: TableObject = lakehouse.table(statement.table)
    aggregates = [item for item in statement.items if item.aggregate]
    if aggregates:
        specs = [
            AggregateSpec(item.aggregate[0], item.aggregate[1],  # type: ignore[index]
                          group_by=statement.group_by)
            for item in aggregates
        ]
        rows = table.select(
            predicate=statement.predicate,
            aggregate=specs[0] if len(specs) == 1 else specs,
            as_of=as_of, stats=stats,
        )
        # a single aggregate keeps its bare-function key unless aliased;
        # multiple aggregates already carry distinct FUNCTION(col) keys
        rename = {
            label: item.alias
            for label, item in zip(result_labels(specs), aggregates)
            if item.alias
        }
        if rename:
            rows = [
                {rename.get(key, key): value for key, value in row.items()}
                for row in rows
            ]
    else:
        if statement.group_by:
            raise SQLError("GROUP BY requires an aggregate")
        columns = (
            None if statement.star
            else [item.column for item in statement.items]  # type: ignore[misc]
        )
        rows = table.select(
            predicate=statement.predicate, columns=columns,
            as_of=as_of, stats=stats,
        )
        renames = {
            item.column: item.alias
            for item in statement.items
            if item.alias and item.column
        }
        if renames:
            rows = [
                {renames.get(key, key): value for key, value in row.items()}
                for row in rows
            ]
    return _order_and_limit(rows, statement.order_by, statement.order_desc,
                            statement.limit)


def _order_and_limit(rows: list[dict[str, object]], order_by: str | None,
                     order_desc: bool, limit: int | None
                     ) -> list[dict[str, object]]:
    if order_by:
        rows.sort(
            key=lambda row: (row.get(order_by) is None, row.get(order_by)),
            reverse=order_desc,
        )
    if limit is not None:
        rows = rows[:limit]
    return rows


def _bind_join(statement: JoinSelectStatement, lakehouse: Lakehouse
               ) -> tuple[JoinQuery, "_Binder"]:
    """Resolve raw refs against schemas; build the planner's JoinQuery."""
    binder = _Binder(statement.tables, lakehouse)
    conditions = []
    for left_raw, right_raw in statement.on_pairs:
        left_alias, left_column = binder.resolve(left_raw)
        right_alias, right_column = binder.resolve(right_raw)
        if left_alias == right_alias:
            raise SQLError(
                f"join condition {left_raw} = {right_raw} does not "
                "connect two tables"
            )
        conditions.append(
            JoinCondition(left_alias, left_column, right_alias, right_column)
        )
    # WHERE filters on the nullable side of a LEFT JOIN would silently
    # turn it into an inner join here (we push filters into scans);
    # refuse instead of mis-answering.
    nullable = {
        statement.tables[position + 1].alias
        for position, how in enumerate(statement.hows)
        if how == "left"
    }
    per_alias: dict[str, list[Expression]] = {}
    for atom in statement.where_atoms:
        alias, column = binder.resolve(atom.column)
        if alias in nullable:
            raise SQLError(
                f"WHERE filter on {atom.column!r} targets the nullable "
                "side of a LEFT JOIN; filter in a subquery or use an "
                "inner join"
            )
        per_alias.setdefault(alias, []).append(
            atom.rename({atom.column: column})
        )
    predicates = tuple(
        (alias, atoms[0] if len(atoms) == 1 else And(*atoms))
        for alias, atoms in per_alias.items()
    )
    query_spec = JoinQuery(
        tables=statement.tables,
        conditions=tuple(conditions),
        predicates=predicates,
        hows=statement.hows,
    )
    return query_spec, binder


class _Binder:
    """Raw ``[alias.]column`` text → a resolved ``(alias, column)``."""

    def __init__(self, tables: tuple[TableRef, ...],
                 lakehouse: Lakehouse) -> None:
        aliases = [ref.alias for ref in tables]
        if len(set(aliases)) != len(aliases):
            raise SQLError(f"duplicate table aliases in {aliases}")
        self.tables = tables
        self.aliases = aliases
        self.schemas = {
            ref.alias: lakehouse.table(ref.name).schema.names
            for ref in tables
        }

    def resolve(self, raw: str) -> tuple[str, str]:
        match = _COLREF_RE.match(raw)
        if match is None:
            raise SQLError(f"cannot parse column reference {raw!r}")
        alias, column = match.groups()
        if alias is not None:
            if alias not in self.schemas:
                raise SQLError(f"unknown table alias in {raw!r}")
            if column not in self.schemas[alias]:
                raise SQLError(f"table {alias!r} has no column {column!r}")
            return alias, column
        owners = [
            candidate for candidate in self.aliases
            if column in self.schemas[candidate]
        ]
        if not owners:
            raise SQLError(f"unknown column {column!r}")
        if len(owners) > 1:
            raise SQLError(
                f"ambiguous column {column!r} (in {owners}); qualify it"
            )
        return owners[0], column


def execute_join_select(statement: JoinSelectStatement, lakehouse: Lakehouse,
                        as_of: float | None = None,
                        stats: QueryStats | None = None,
                        statistics: StatisticsCache | None = None,
                        join_kernel=None) -> list[dict[str, object]]:
    """Plan and run a parsed multi-table statement.

    ``join_kernel`` forwards to :func:`~repro.table.planner.execute_plan`
    so callers can swap in the sharded kernel.
    """
    query_spec, binder = _bind_join(statement, lakehouse)
    aggregates = [item for item in statement.items if item.aggregate]
    needed: dict[str, set[str]] = {alias: set() for alias in binder.aliases}
    output_items: list[tuple[str, str]] = []  # (qualified, output name)
    if statement.star:
        bare_counts: dict[str, int] = {}
        for alias in binder.aliases:
            for column in binder.schemas[alias]:
                bare_counts[column] = bare_counts.get(column, 0) + 1
        for ref in statement.tables:
            for column in binder.schemas[ref.alias]:
                needed[ref.alias].add(column)
                name = (
                    column if bare_counts[column] == 1
                    else f"{ref.alias}.{column}"
                )
                output_items.append((f"{ref.alias}.{column}", name))
    else:
        for item in statement.items:
            if item.aggregate:
                continue
            alias, column = binder.resolve(item.column)  # type: ignore[arg-type]
            needed[alias].add(column)
            output_items.append((f"{alias}.{column}", item.output_name))
    group_refs: list[tuple[str, str]] = []
    for raw in statement.group_by:
        alias, column = binder.resolve(raw)
        needed[alias].add(column)
        group_refs.append((f"{alias}.{column}", raw))
    specs: list[AggregateSpec] = []
    for item in aggregates:
        function, raw_column = item.aggregate  # type: ignore[misc]
        qualified = None
        if raw_column is not None:
            alias, column = binder.resolve(raw_column)
            needed[alias].add(column)
            qualified = f"{alias}.{column}"
        specs.append(
            AggregateSpec(
                function, qualified,
                group_by=tuple(name for name, _ in group_refs),
            )
        )

    plan = plan_join(lakehouse, query_spec, statistics=statistics,
                     as_of=as_of, stats=stats)
    joined = execute_plan(
        lakehouse, plan,
        {alias: sorted(columns) for alias, columns in needed.items()},
        as_of=as_of, stats=stats, join_kernel=join_kernel,
    )
    if aggregates:
        state = AggregateState(specs, result_labels(specs))
        state.update(joined.columns, joined.num_rows, None)
        rows = state.rows()
        rename = {qualified: raw for qualified, raw in group_refs}
        rename.update({
            label: item.alias
            for label, item in zip(result_labels(specs), aggregates)
            if item.alias
        })
        rows = [
            {rename.get(key, key): value for key, value in row.items()}
            for row in rows
        ]
    else:
        if statement.group_by:
            raise SQLError("GROUP BY requires an aggregate")
        materialized = joined.to_rows(
            [qualified for qualified, _ in output_items]
        )
        rows = [
            {name: row[qualified] for qualified, name in output_items}
            for row in materialized
        ]
    if stats is not None:
        stats.rows_returned = len(rows)
    return _order_and_limit(rows, statement.order_by, statement.order_desc,
                            statement.limit)


def query(lakehouse: Lakehouse, sql: str, as_of: float | None = None,
          stats: QueryStats | None = None,
          use_result_cache: bool = True) -> list[dict[str, object]]:
    """Parse and execute in one call (the public entry point).

    Consults the snapshot-keyed result tier first: the key is the
    normalized statement plus each referenced table's *resolved*
    snapshot id (``as_of`` resolves to its historical snapshot, so time
    travel hits a warm entry forever).  A hit returns finished rows —
    zero scans, zero decodes, zero pool reads.
    """
    statement = parse_select(sql)
    names = (
        [statement.table] if isinstance(statement, SelectStatement)
        else [ref.name for ref in statement.tables]
    )
    key = None
    if use_result_cache:
        refs = []
        for name in dict.fromkeys(names):
            table = lakehouse.table(name)
            refs.append((name, table.pool, table.snapshot_id_at(as_of)))
        key = lakehouse.cache_hierarchy.result_key(normalize_sql(sql), refs)
        cached = lakehouse.cache_hierarchy.lookup_result(key)
        if cached is not None:
            join_stats().result_cache_hits += 1
            if stats is not None:
                stats.rows_returned = len(cached)
            return cached
        join_stats().result_cache_misses += 1
    stats = stats if stats is not None else QueryStats()
    if isinstance(statement, SelectStatement):
        rows = execute_select(statement, lakehouse, as_of, stats)
    else:
        rows = execute_join_select(statement, lakehouse, as_of=as_of,
                                   stats=stats)
    if key is not None:
        # ``table.select`` already sized a single-table result for the
        # bus; renames and ORDER BY keep its values, only LIMIT drops any
        sized = (isinstance(statement, SelectStatement)
                 and len(rows) == stats.rows_returned)
        lakehouse.cache_hierarchy.store_result(
            key, rows,
            stats.bytes_transferred if sized else result_size_bytes(rows),
        )
    return rows
