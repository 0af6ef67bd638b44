"""Vectorized hash join vs the nested-loop oracle in :mod:`rowwise`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.context import ExecutionContext, use_context
from repro.table.join import (
    DIRECT_SPAN_FACTOR,
    ColumnSet,
    build_directory,
    concat_column_sets,
    gather_with_nulls,
    hash_join,
    join_codes,
)
from repro.table.schema import Column, ColumnType, Schema
from repro.table.vector import DictStringVector, NumericVector
from rowwise import column_set_from_rows, join_rows

INT_SCHEMA = Schema([
    Column("k", ColumnType.INT64, nullable=True),
    Column("v", ColumnType.INT64),
])
TWO_KEY_SCHEMA = Schema([
    Column("k", ColumnType.INT64, nullable=True),
    Column("s", ColumnType.STRING, nullable=True),
    Column("v", ColumnType.INT64),
])


def _int_rows(keys: list[int | None]) -> list[dict[str, object]]:
    return [{"k": key, "v": position} for position, key in enumerate(keys)]


def _oracle_pairs(left_rows, right_rows, left_on, right_on, how):
    """Oracle output as (left v, right v | None) pairs."""
    return [
        (left["v"], None if right is None else right["v"])
        for left, right in join_rows(
            left_rows, right_rows, left_on, right_on, how
        )
    ]


def _kernel_pairs(left_rows, right_rows, schema_left, schema_right,
                  left_on, right_on, how):
    left = column_set_from_rows(schema_left, left_rows)
    right = column_set_from_rows(schema_right, right_rows)
    result = hash_join(left, right, left_on, right_on, how)
    left_v = left.columns["v"].gather(result.left_indices).to_list()
    right_v = gather_with_nulls(
        right.columns["v"], result.right_indices
    ).to_list()
    return list(zip(left_v, right_v))


nullable_keys = st.lists(
    st.one_of(st.none(), st.integers(min_value=-5, max_value=8)),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(left_keys=nullable_keys, right_keys=nullable_keys,
       how=st.sampled_from(["inner", "left"]))
def test_int_keys_match_oracle(left_keys, right_keys, how):
    """Duplicate keys, NULL keys, empty sides — all match the oracle."""
    left_rows = _int_rows(left_keys)
    right_rows = _int_rows(right_keys)
    assert _kernel_pairs(
        left_rows, right_rows, INT_SCHEMA, INT_SCHEMA, ["k"], ["k"], how
    ) == _oracle_pairs(left_rows, right_rows, ["k"], ["k"], how)


string_keys = st.lists(
    st.one_of(st.none(), st.sampled_from(["ab", "cd", "ef", "g", ""])),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(left_keys=string_keys, right_keys=string_keys,
       how=st.sampled_from(["inner", "left"]))
def test_string_keys_match_oracle(left_keys, right_keys, how):
    """Dictionary-encoded string keys remap into one shared code space."""
    schema = Schema([
        Column("k", ColumnType.STRING, nullable=True),
        Column("v", ColumnType.INT64),
    ])
    left_rows = _int_rows(left_keys)
    right_rows = _int_rows(right_keys)
    assert _kernel_pairs(
        left_rows, right_rows, schema, schema, ["k"], ["k"], how
    ) == _oracle_pairs(left_rows, right_rows, ["k"], ["k"], how)


@settings(max_examples=40, deadline=None)
@given(
    left=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
            st.one_of(st.none(), st.sampled_from(["x", "y"])),
        ),
        max_size=25,
    ),
    right=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
            st.one_of(st.none(), st.sampled_from(["x", "y"])),
        ),
        max_size=25,
    ),
    how=st.sampled_from(["inner", "left"]),
)
def test_multi_column_keys_match_oracle(left, right, how):
    """Composite (int, string) keys: any NULL component kills the match."""
    left_rows = [
        {"k": key, "s": tag, "v": position}
        for position, (key, tag) in enumerate(left)
    ]
    right_rows = [
        {"k": key, "s": tag, "v": position}
        for position, (key, tag) in enumerate(right)
    ]
    assert _kernel_pairs(
        left_rows, right_rows, TWO_KEY_SCHEMA, TWO_KEY_SCHEMA,
        ["k", "s"], ["k", "s"], how,
    ) == _oracle_pairs(left_rows, right_rows, ["k", "s"], ["k", "s"], how)


# --- both coding strategies + directory edge cases, vector-level -----------
# Key columns are built as vectors (not through a file) so a *valid* NaN
# can be a key; the oracle sees the same values through ``to_rows``.

_NAN = float("nan")
KEY_DOMAINS = {
    # span within the guard: direct addressing (value - build_min)
    "dense": st.integers(min_value=-5, max_value=8),
    # span >> rows: coded against np.unique of the build side
    "sparse": st.sampled_from(
        [-2**62, -10**12, -7, 0, 3, 10**9, 2**53, 2**53 + 1, 2**62]
    ),
    "bool": st.booleans(),
    "float": st.sampled_from(
        [-7.0, -1.5, -0.0, 0.0, 0.5, 1.0, 3.0, 2.0**53, 1e300,
         float("inf"), _NAN]
    ),
    "string": st.sampled_from(["ab", "cd", "ef", ""]),
}
_DTYPES = {"dense": np.int64, "sparse": np.int64, "bool": bool,
           "float": np.float64}


def _key_vector(kind: str, values: list[object]):
    if kind == "string":
        dictionary = sorted({value for value in values if value is not None})
        codes = [
            len(dictionary) if value is None else dictionary.index(value)
            for value in values
        ]
        return DictStringVector(dictionary, np.array(codes, dtype=np.uint32))
    return NumericVector(
        np.array([0 if value is None else value for value in values],
                 dtype=_DTYPES[kind]),
        np.array([value is not None for value in values], dtype=bool),
    )


def _relation(kinds: list[str], rows: list[tuple]) -> ColumnSet:
    """Key columns ``k0..`` of the given kinds plus a row-position ``v``."""
    columns = {
        f"k{position}": _key_vector(kind, [row[position] for row in rows])
        for position, kind in enumerate(kinds)
    }
    columns["v"] = NumericVector(
        np.arange(len(rows), dtype=np.int64), np.ones(len(rows), dtype=bool)
    )
    return ColumnSet(columns, len(rows))


def _assert_kernel_matches_oracle(left: ColumnSet, right: ColumnSet,
                                  how: str) -> None:
    on = [name for name in left.columns if name != "v"]
    result = hash_join(left, right, on, on, how)
    assert result.left_indices.dtype == np.intp
    assert result.right_indices.dtype == np.intp
    kernel = [
        (probe, None if build < 0 else build)
        for probe, build in zip(result.left_indices.tolist(),
                                result.right_indices.tolist())
    ]
    assert kernel == _oracle_pairs(
        left.to_rows(), right.to_rows(), on, on, how
    )


def _keys(kind: str, unique: bool = False):
    return st.lists(st.one_of(st.none(), KEY_DOMAINS[kind]), max_size=30,
                    unique=unique)


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       probe_kind=st.sampled_from(["dense", "sparse", "bool", "float"]),
       build_kind=st.sampled_from(["dense", "sparse", "bool", "float"]),
       unique_build=st.booleans(),
       how=st.sampled_from(["inner", "left"]))
def test_numeric_key_kinds_match_oracle(data, probe_kind, build_kind,
                                        unique_build, how):
    """Dense/sparse ints, bools, floats (NaN, inf, -0.0) and every
    int-vs-float pairing; duplicate and unique build keys; probe keys
    outside the build range; empty and all-NULL sides."""
    probe = data.draw(_keys(probe_kind))
    build = data.draw(_keys(build_kind, unique=unique_build))
    _assert_kernel_matches_oracle(
        _relation([probe_kind], [(key,) for key in probe]),
        _relation([build_kind], [(key,) for key in build]),
        how,
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       kinds=st.lists(st.sampled_from(sorted(KEY_DOMAINS)), min_size=2,
                      max_size=3),
       how=st.sampled_from(["inner", "left"]))
def test_wide_multi_column_keys_match_oracle(data, kinds, how):
    """Composite keys whose combined width overflows the span guard
    (two ~14-wide columns over <= 40 rows) re-code against the build
    side; narrow ones (bool x bool) combine directly."""
    row = st.tuples(*[st.one_of(st.none(), KEY_DOMAINS[kind])
                      for kind in kinds])
    probe = data.draw(st.lists(row, max_size=20))
    build = data.draw(st.lists(row, max_size=20))
    _assert_kernel_matches_oracle(
        _relation(kinds, probe), _relation(kinds, build), how
    )


def test_int64_float64_keys_compare_exactly():
    """Regression: casting both sides to float64 joined 2**53 + 1 with
    2.0**53.  An int the float side cannot represent, or a non-integral
    float, equals nothing on the other side."""
    ints = [2**53, 2**53 + 1, 3, -4]
    floats = [2.0**53, 3.0, 3.5, -4.0, _NAN]
    expected = [(0, 0), (2, 1), (3, 3)]
    for how in ("inner", "left"):
        _assert_kernel_matches_oracle(
            _relation(["sparse"], [(key,) for key in ints]),
            _relation(["float"], [(key,) for key in floats]), how,
        )
        _assert_kernel_matches_oracle(
            _relation(["float"], [(key,) for key in floats]),
            _relation(["sparse"], [(key,) for key in ints]), how,
        )
    result = hash_join(
        _relation(["sparse"], [(key,) for key in ints]),
        _relation(["float"], [(key,) for key in floats]), ["k0"], ["k0"],
    )
    assert list(zip(result.left_indices.tolist(),
                    result.right_indices.tolist())) == expected


def test_bool_and_timestamp_keys_through_files():
    """BOOL and TIMESTAMP columns decoded from a file join like ints."""
    schema = Schema([
        Column("flag", ColumnType.BOOL, nullable=True),
        Column("at", ColumnType.TIMESTAMP, nullable=True),
        Column("v", ColumnType.INT64),
    ])
    base = 1_700_000_000_000_000
    left_rows = [
        {"flag": flag, "at": at, "v": position}
        for position, (flag, at) in enumerate([
            (True, base), (False, base + 5), (None, base), (True, None),
            (True, base + 10**12),
        ])
    ]
    right_rows = [
        {"flag": flag, "at": at, "v": position}
        for position, (flag, at) in enumerate([
            (True, base), (True, base), (False, base + 5), (False, None),
        ])
    ]
    for on in (["flag"], ["at"], ["flag", "at"]):
        for how in ("inner", "left"):
            assert _kernel_pairs(
                left_rows, right_rows, schema, schema, on, on, how
            ) == _oracle_pairs(left_rows, right_rows, on, on, how)


def test_coding_strategy_follows_the_observed_span():
    """Direct addressing inside the span guard, build-side ranks beyond."""
    probe = _relation(["dense"], [(3,), (99,), (None,), (5,)])
    dense = _relation(["dense"], [(5,), (3,), (None,), (7,)])
    probe_codes, build_codes, width = join_codes(
        probe, dense, ["k0"], ["k0"]
    )
    assert width == 7 - 3 + 1  # the build side's span, holes included
    assert build_codes.tolist() == [2, 0, -1, 4]
    assert probe_codes.tolist() == [0, -1, -1, 2]  # 99 is out of range

    limit = DIRECT_SPAN_FACTOR * (4 + 4)
    sparse = _relation(["dense"], [(5,), (3,), (None,), (3 + limit,)])
    probe_codes, build_codes, width = join_codes(
        probe, sparse, ["k0"], ["k0"]
    )
    assert width == 3  # distinct build keys, not their span
    assert build_codes.tolist() == [1, 0, -1, 2]
    assert probe_codes.tolist() == [0, -1, -1, 1]


def test_directory_marks_unique_builds_and_drops_nulls():
    unique = build_directory(np.array([2, -1, 0], dtype=np.int64), 3)
    assert unique.unique
    assert unique.order.tolist() == [2, 0]
    assert unique.counts.tolist() == [1, 0, 1, 0]  # trailing empty bucket
    fanned = build_directory(np.array([1, 0, 1, -1, 1], dtype=np.int64), 2)
    assert not fanned.unique
    assert fanned.order.tolist() == [1, 0, 2, 4]  # build-row order per key
    assert fanned.starts.tolist()[:2] == [0, 1]


def test_all_null_build_side_matches_nothing():
    left = _relation(["dense"], [(1,), (None,), (2,)])
    right = _relation(["dense"], [(None,), (None,)])
    assert hash_join(left, right, ["k0"], ["k0"], "inner").num_rows == 0
    padded = hash_join(left, right, ["k0"], ["k0"], "left")
    assert padded.left_indices.tolist() == [0, 1, 2]
    assert padded.right_indices.tolist() == [-1, -1, -1]


def test_empty_build_side_left_outer_pads_all_rows():
    left_rows = _int_rows([1, 2, None])
    result = _kernel_pairs(left_rows, [], INT_SCHEMA, INT_SCHEMA,
                           ["k"], ["k"], "left")
    assert result == [(0, None), (1, None), (2, None)]


def test_empty_probe_side_emits_nothing():
    right_rows = _int_rows([1, 1, 2])
    for how in ("inner", "left"):
        assert _kernel_pairs([], right_rows, INT_SCHEMA, INT_SCHEMA,
                             ["k"], ["k"], how) == []


def test_null_keys_never_match_even_each_other():
    left_rows = _int_rows([None, 1])
    right_rows = _int_rows([None, 1])
    assert _kernel_pairs(left_rows, right_rows, INT_SCHEMA, INT_SCHEMA,
                         ["k"], ["k"], "inner") == [(1, 1)]


def test_cross_type_keys_never_match():
    """An int column joined against a string column matches nothing."""
    left = column_set_from_rows(INT_SCHEMA, _int_rows([1, 2]))
    right_schema = Schema([
        Column("k", ColumnType.STRING, nullable=True),
        Column("v", ColumnType.INT64),
    ])
    right = column_set_from_rows(right_schema, [{"k": "1", "v": 0}])
    assert hash_join(left, right, ["k"], ["k"], "inner").num_rows == 0


def test_unknown_join_type_rejected():
    left = column_set_from_rows(INT_SCHEMA, _int_rows([1]))
    with pytest.raises(ValueError, match="unsupported join type"):
        hash_join(left, left, ["k"], ["k"], "right")


def test_join_counters_accumulate():
    context = ExecutionContext("join-counters")
    left_rows = _int_rows([1, 1, 2, None])
    right_rows = _int_rows([1, 3])
    with use_context(context):
        _kernel_pairs(left_rows, right_rows, INT_SCHEMA, INT_SCHEMA,
                      ["k"], ["k"], "inner")
    snapshot = context.joins.snapshot()
    assert snapshot["joins_executed"] == 1
    assert snapshot["build_rows"] == 2
    assert snapshot["probe_rows"] == 4
    assert snapshot["matches_emitted"] == 2


def test_output_order_is_probe_major_build_minor():
    """Probe rows ascending; duplicate build keys keep build-row order."""
    left = column_set_from_rows(INT_SCHEMA, _int_rows([2, 1]))
    right = column_set_from_rows(INT_SCHEMA, _int_rows([1, 2, 1]))
    result = hash_join(left, right, ["k"], ["k"], "inner")
    assert result.left_indices.tolist() == [0, 1, 1]
    assert result.right_indices.tolist() == [1, 0, 2]


def test_concat_column_sets_roundtrip():
    rows = _int_rows([1, None, 3, 4, 5])
    parts = [
        column_set_from_rows(INT_SCHEMA, rows[:2]),
        column_set_from_rows(INT_SCHEMA, rows[2:]),
    ]
    merged = concat_column_sets(parts)
    assert merged.num_rows == 5
    assert merged.to_rows() == rows


def test_gather_with_nulls_string_vector():
    vector = DictStringVector(["a", "b"], np.array([0, 1, 2],
                                                   dtype=np.uint32))
    gathered = gather_with_nulls(vector, np.array([1, -1, 0], dtype=np.intp))
    assert gathered.to_list() == ["b", None, "a"]


def test_gather_with_nulls_numeric_vector():
    vector = NumericVector(np.array([10, 20]), np.array([True, False]))
    gathered = gather_with_nulls(vector, np.array([0, -1, 1], dtype=np.intp))
    assert gathered.to_list() == [10, None, None]
