"""Vectorized aggregation engine: oracle equivalence + edge cases.

The load-bearing property mirrors the scan engine's: on randomized
schemas, rows, predicates and aggregate lists, ``aggregate_file``
(factorized group keys + bincount/reduceat segmented reductions over
per-row-group partials) returns result rows identical to
``execute_pushdown_multi`` over ``scan_rows`` (the row-at-a-time
oracle) — same keys, same Python types, same order.  Float SUM/AVG
compare approximately: partials associate additions differently than
the sequential accumulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.tier import CacheTier
from repro.common.stats import aggregation_stats
from repro.common.units import MiB
from repro.table.agg import AggregateState, aggregate_file, footer_answerable
from repro.table.expr import And, Or, Predicate
from repro.table.pushdown import (
    AggregateSpec,
    execute_pushdown_multi,
    result_labels,
)
from repro.table.schema import Column, ColumnType, Schema
from rowwise import file_from_rows, scan_rows


def chunk_tier(capacity: int = 128 * MiB) -> CacheTier:
    """A private chunk tier, so no other test's entries can hit."""
    return CacheTier("table.chunk_cache", capacity)


COLUMN_POOL = [
    Column("i", ColumnType.INT64, nullable=True),
    Column("f", ColumnType.FLOAT64, nullable=True),
    Column("s", ColumnType.STRING, nullable=True),
    Column("b", ColumnType.BOOL, nullable=True),
    Column("t", ColumnType.TIMESTAMP, nullable=True),
]

# -0.0 normalizes to 0.0: the two are equal as group keys (one group),
# but their reprs differ, which would flip the repr-ordered output
_VALUE_STRATEGIES = {
    "i": st.one_of(st.none(), st.integers(-1000, 1000)),
    "f": st.one_of(
        st.none(),
        st.floats(-100.0, 100.0, allow_nan=False,
                  allow_infinity=False).map(lambda v: v + 0.0),
    ),
    "s": st.one_of(st.none(), st.sampled_from(["ab", "cd", "ef", "zz", ""])),
    "b": st.one_of(st.none(), st.booleans()),
    "t": st.one_of(st.none(), st.integers(0, 10_000)),
}

_TYPED_LITERALS = {
    "i": st.integers(-1000, 1000),
    "f": st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    "s": st.sampled_from(["ab", "cd", "zz", ""]),
    "b": st.booleans(),
    "t": st.integers(0, 10_000),
}


@st.composite
def _atoms(draw, names):
    column = draw(st.sampled_from(names))
    op = draw(st.sampled_from(["<=", ">=", "<", ">", "=", "IN"]))
    if op == "IN":
        literal = tuple(
            draw(st.lists(_TYPED_LITERALS[column], min_size=0, max_size=4))
        )
    else:
        literal = draw(_TYPED_LITERALS[column])
    return Predicate(column, op, literal)


def _expressions(names):
    return st.recursive(
        _atoms(names),
        lambda children: st.one_of(
            st.lists(children, min_size=0, max_size=3).map(lambda c: And(*c)),
            st.lists(children, min_size=0, max_size=3).map(lambda c: Or(*c)),
        ),
        max_leaves=6,
    )


@st.composite
def _specs(draw, names):
    group_by = tuple(
        draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    )
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        function = draw(st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]))
        if function == "COUNT" and draw(st.booleans()):
            column = None
        else:
            column = draw(st.sampled_from(names))
        specs.append(AggregateSpec(function, column, group_by=group_by))
    return specs


@st.composite
def _tables(draw):
    columns = draw(
        st.lists(st.sampled_from(COLUMN_POOL), min_size=1, max_size=5,
                 unique_by=lambda c: c.name)
    )
    schema = Schema(columns)
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {c.name: _VALUE_STRATEGIES[c.name] for c in columns}
            ),
            min_size=0,
            max_size=60,
        )
    )
    group_size = draw(st.integers(1, 20))
    return schema, rows, group_size


def _oracle(data_file, specs, predicate=None):
    needed = sorted({n for s in specs for n in s.columns()}) or []
    return execute_pushdown_multi(
        scan_rows(data_file, predicate, needed), specs
    )


def _assert_rows_match(actual, expected, specs):
    labels = result_labels(specs)
    approximate = {
        label for spec, label in zip(specs, labels)
        if spec.function in ("SUM", "AVG")
    }
    assert len(actual) == len(expected)
    for actual_row, expected_row in zip(actual, expected):
        assert set(actual_row) == set(expected_row)
        for key, wanted in expected_row.items():
            got = actual_row[key]
            if key in approximate and isinstance(wanted, float):
                assert got == pytest.approx(wanted, rel=1e-9, abs=1e-9)
            else:
                assert got == wanted
                # catches NumPy scalars leaking instead of int/float/bool
                assert repr(got) == repr(wanted)


@settings(max_examples=150, deadline=None)
@given(table=_tables(), data=st.data())
def test_aggregate_file_matches_row_wise_oracle(table, data):
    schema, rows, group_size = table
    data_file = file_from_rows(schema, rows, row_group_size=group_size)
    predicate = data.draw(
        st.one_of(st.none(), _expressions(schema.names))
    )
    specs = data.draw(_specs(schema.names))
    state = aggregate_file(
        data_file, specs, predicate=predicate, cache=chunk_tier(8)
    )
    _assert_rows_match(state.rows(), _oracle(data_file, specs, predicate), specs)


@settings(max_examples=60, deadline=None)
@given(table=_tables(), data=st.data())
def test_merged_partials_match_single_file_oracle(table, data):
    """Splitting rows across files and merging states equals one big file."""
    schema, rows, group_size = table
    specs = data.draw(_specs(schema.names))
    cut = len(rows) // 2
    state = AggregateState(specs)
    for part in (rows[:cut], rows[cut:]):
        if not part:
            continue
        part_file = file_from_rows(
            schema, part, row_group_size=group_size
        )
        state.merge(aggregate_file(part_file, specs, cache=chunk_tier()))
    whole = file_from_rows(schema, rows, row_group_size=group_size)
    _assert_rows_match(state.rows(), _oracle(whole, specs), specs)


# --- directed edge cases -------------------------------------------------


def _file(rows, schema=None, group_size=10):
    schema = schema if schema is not None else Schema([
        Column("k", ColumnType.STRING, nullable=True),
        Column("v", ColumnType.INT64, nullable=True),
        Column("f", ColumnType.FLOAT64, nullable=True),
    ])
    return file_from_rows(schema, rows, row_group_size=group_size)


def test_empty_table_pads_the_ungrouped_group():
    data_file = _file([])
    specs = [AggregateSpec("COUNT"), AggregateSpec("SUM", "v"),
             AggregateSpec("AVG", "v"), AggregateSpec("MIN", "v")]
    out = aggregate_file(data_file, specs, cache=chunk_tier()).rows()
    assert out == [{"COUNT(*)": 0, "SUM(v)": 0.0, "AVG(v)": None,
                    "MIN(v)": None}]
    assert out == _oracle(data_file, specs)


def test_empty_table_grouped_returns_no_rows():
    data_file = _file([])
    specs = [AggregateSpec("COUNT", group_by=("k",))]
    assert aggregate_file(data_file, specs, cache=chunk_tier()).rows() == []


def test_all_null_column():
    rows = [{"k": "a", "v": None, "f": None} for _ in range(25)]
    data_file = _file(rows)
    specs = [
        AggregateSpec("COUNT", group_by=("k",)),
        AggregateSpec("COUNT", "v", group_by=("k",)),
        AggregateSpec("SUM", "v", group_by=("k",)),
        AggregateSpec("AVG", "v", group_by=("k",)),
        AggregateSpec("MIN", "f", group_by=("k",)),
        AggregateSpec("MAX", "f", group_by=("k",)),
    ]
    out = aggregate_file(data_file, specs, cache=chunk_tier()).rows()
    assert out == [{
        "k": "a", "COUNT(*)": 25, "COUNT(v)": 0, "SUM(v)": 0.0,
        "AVG(v)": None, "MIN(f)": None, "MAX(f)": None,
    }]
    assert out == _oracle(data_file, specs)


def test_group_by_nullable_key_keeps_none_group():
    rows = [
        {"k": None if i % 3 == 0 else f"g{i % 2}", "v": i, "f": None}
        for i in range(30)
    ]
    data_file = _file(rows)
    specs = [AggregateSpec("COUNT", group_by=("k",)),
             AggregateSpec("SUM", "v", group_by=("k",))]
    out = aggregate_file(data_file, specs, cache=chunk_tier()).rows()
    assert out == _oracle(data_file, specs)
    assert {row["k"] for row in out} == {None, "g0", "g1"}


def test_group_by_nullable_numeric_and_multi_column_keys():
    rows = [
        {"k": f"g{i % 2}", "v": None if i % 4 == 0 else i % 3, "f": 1.0}
        for i in range(40)
    ]
    data_file = _file(rows)
    specs = [AggregateSpec("COUNT", group_by=("k", "v")),
             AggregateSpec("SUM", "f", group_by=("k", "v"))]
    out = aggregate_file(data_file, specs, cache=chunk_tier()).rows()
    assert out == _oracle(data_file, specs)
    assert any(row["v"] is None for row in out)


def test_sum_mixes_int_and_bool_like_the_oracle():
    schema = Schema([
        Column("v", ColumnType.INT64, nullable=True),
        Column("b", ColumnType.BOOL, nullable=True),
    ])
    rows = [{"v": i, "b": i % 2 == 0} for i in range(10)]
    data_file = file_from_rows(schema, rows, row_group_size=4)
    specs = [AggregateSpec("SUM", "v"), AggregateSpec("SUM", "b")]
    out = aggregate_file(data_file, specs, cache=chunk_tier()).rows()
    # bools sum as 1.0/0.0 (isinstance(True, int)), ints promote to float
    assert out == [{"SUM(v)": 45.0, "SUM(b)": 5.0}]
    assert out == _oracle(data_file, specs)


def test_sum_of_string_column_stays_zero():
    rows = [{"k": "a", "v": 1, "f": None}] * 3
    data_file = _file(rows)
    specs = [AggregateSpec("SUM", "k"), AggregateSpec("AVG", "k")]
    out = aggregate_file(data_file, specs, cache=chunk_tier()).rows()
    # the accumulator never adds non-numerics, so SUM is 0.0 and
    # AVG = 0.0 / non-null count — the vectorized path must agree
    assert out == [{"SUM(k)": 0.0, "AVG(k)": 0.0}]
    assert out == _oracle(data_file, specs)


def test_min_max_strings_follow_python_order_not_dictionary_order():
    # dictionary order is insertion order ("zebra" first); MIN/MAX must
    # reduce over string ranks instead
    rows = (
        [{"k": "zebra", "v": 1, "f": None}] * 3
        + [{"k": "apple", "v": 2, "f": None}] * 3
        + [{"k": None, "v": 3, "f": None}] * 3
    )
    data_file = _file(rows, group_size=4)
    specs = [AggregateSpec("MIN", "k"), AggregateSpec("MAX", "k")]
    out = aggregate_file(
        data_file, specs, predicate=Predicate("v", ">", 0),
        cache=chunk_tier(),
    ).rows()
    assert out == [{"MIN(k)": "apple", "MAX(k)": "zebra"}]
    assert out == _oracle(data_file, specs, Predicate("v", ">", 0))


def test_footer_fast_path_touches_no_data_chunk():
    rows = [
        {"k": f"g{i % 4}", "v": None if i % 5 == 0 else i, "f": i * 0.5}
        for i in range(50)
    ]
    data_file = _file(rows, group_size=8)
    specs = [AggregateSpec("COUNT"), AggregateSpec("COUNT", "v"),
             AggregateSpec("MIN", "v"), AggregateSpec("MAX", "f"),
             AggregateSpec("MIN", "k")]
    assert footer_answerable(specs, None)
    cache = chunk_tier()
    counters = aggregation_stats()
    footer_before = counters.row_groups_footer_answered
    decoded_before = counters.row_groups_aggregated
    out = aggregate_file(data_file, specs, cache=cache).rows()
    assert cache.stats.lookups == 0  # no chunk was decoded or even looked up
    assert counters.row_groups_footer_answered - footer_before == 7
    assert counters.row_groups_aggregated == decoded_before
    assert out == _oracle(data_file, specs)


def test_footer_path_not_taken_with_predicate_group_or_sum():
    assert not footer_answerable([AggregateSpec("COUNT")],
                                 Predicate("v", ">", 0))
    assert not footer_answerable([AggregateSpec("COUNT", group_by=("k",))],
                                 None)
    assert not footer_answerable([AggregateSpec("SUM", "v")], None)


def test_footer_stats_cast_to_column_type():
    # FLOAT64 stats written from integral floats must come back as floats
    rows = [{"k": "a", "v": 1, "f": float(i)} for i in range(5)]
    data_file = _file(rows)
    out = aggregate_file(
        data_file, [AggregateSpec("MIN", "f"), AggregateSpec("MAX", "f")],
        cache=chunk_tier(),
    ).rows()
    assert repr(out[0]["MIN(f)"]) == "0.0"
    assert repr(out[0]["MAX(f)"]) == "4.0"


def test_predicate_pruned_row_groups_never_decode_aggregate_columns():
    # row groups ruled out by footer stats skip before any decode
    rows = [{"k": f"g{i}", "v": i, "f": None} for i in range(40)]
    data_file = _file(rows, group_size=10)
    cache = chunk_tier()
    counters = aggregation_stats()
    before = counters.row_groups_aggregated
    state = aggregate_file(
        data_file, [AggregateSpec("SUM", "v")],
        predicate=Predicate("v", ">=", 35), cache=cache,
    )
    assert counters.row_groups_aggregated - before == 1  # 3 of 4 pruned
    assert state.rows() == [{"SUM": sum(range(35, 40))}]


def test_mismatched_group_by_raises():
    with pytest.raises(ValueError):
        AggregateState([
            AggregateSpec("COUNT", group_by=("k",)),
            AggregateSpec("SUM", "v"),
        ])
    with pytest.raises(ValueError):
        AggregateState([])


def test_aggregation_counters_advance():
    rows = [{"k": f"g{i % 2}", "v": i, "f": None} for i in range(20)]
    data_file = _file(rows, group_size=5)
    counters = aggregation_stats()
    before = counters.snapshot()
    state = AggregateState([AggregateSpec("SUM", "v", group_by=("k",))])
    state.merge(aggregate_file(
        data_file, state.specs, predicate=Predicate("v", ">=", 0),
        cache=chunk_tier(),
    ))
    out = state.rows()
    after = counters.snapshot()
    assert after["row_groups_aggregated"] - before["row_groups_aggregated"] == 4
    assert after["rows_aggregated"] - before["rows_aggregated"] == 20
    assert after["partials_merged"] - before["partials_merged"] == 2
    assert after["groups_emitted"] - before["groups_emitted"] == len(out) == 2


# --- vector factorization ------------------------------------------------


def test_numeric_factorize_appends_null_last():
    from repro.table.vector import NumericVector

    vector = NumericVector(
        np.array([3, 1, 3, 7], dtype=np.int64),
        np.array([True, True, False, True]),
    )
    codes, uniques = vector.factorize()
    assert uniques == [1, 3, 7, None]
    assert codes.tolist() == [1, 0, 3, 2]


def test_dict_string_factorize_respects_selection():
    from repro.table.vector import DictStringVector

    vector = DictStringVector(
        ["b", "a"], np.array([0, 1, 2, 0, 1], dtype=np.uint32)
    )
    codes, uniques = vector.factorize(np.array([1, 2, 4]))
    assert uniques == ["a", None]
    assert codes.tolist() == [0, 1, 0]


def _unique_factorize(vector, indices=None):
    """The sorting factorize (``np.unique``): the oracle for the
    ``bincount`` kernel in ``DictStringVector.factorize``."""
    codes = vector.codes if indices is None else vector.codes[indices]
    used, inverse = np.unique(codes, return_inverse=True)
    null_code = len(vector.dictionary)
    uniques = [
        vector.dictionary[code] for code in used.tolist()
        if code != null_code
    ]
    if used.size and int(used[-1]) == null_code:
        uniques.append(None)
    return inverse.astype(np.intp, copy=False), uniques


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dict_string_factorize_matches_unique_oracle(data):
    from repro.table.vector import DictStringVector

    size = data.draw(st.integers(0, 12), label="dictionary size")
    # code ``size`` is NULL
    codes = data.draw(st.lists(st.integers(0, size), max_size=40),
                      label="codes")
    vector = DictStringVector(
        [f"v{index}" for index in range(size)],
        np.array(codes, dtype=np.uint32),
    )
    indices = data.draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, max(len(codes) - 1, 0)),
                 max_size=40 if codes else 0)
        .map(lambda picks: np.array(picks, dtype=np.intp)),
    ), label="indices")
    got_codes, got_uniques = vector.factorize(indices)
    want_codes, want_uniques = _unique_factorize(vector, indices)
    assert got_codes.dtype == np.intp
    assert got_codes.tolist() == want_codes.tolist()
    assert got_uniques == want_uniques
