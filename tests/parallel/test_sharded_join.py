"""Sharded probe fan-out must reunite identically to the serial kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.context import ExecutionContext, use_context
from repro.table.join import ColumnSet, hash_join
from repro.table.schema import Column, ColumnType, Schema
from repro.parallel.query import sharded_hash_join, sharded_join_kernel

SCHEMA = Schema([
    Column("k", ColumnType.INT64, nullable=True),
    Column("v", ColumnType.INT64),
])


def _column_set(keys: list[int | None]) -> ColumnSet:
    return ColumnSet.from_rows(
        SCHEMA,
        [{"k": key, "v": position} for position, key in enumerate(keys)],
    )


def _serial(left: ColumnSet, right: ColumnSet, how: str):
    context = ExecutionContext("serial-join")
    with use_context(context):
        result = hash_join(left, right, ["k"], ["k"], how)
    return result, context.joins.snapshot()


def _key_lists(keys):
    return st.lists(st.one_of(st.none(), keys), max_size=60)


nullable_keys = st.one_of(
    # span within the guard: buckets addressed directly
    _key_lists(st.integers(min_value=0, max_value=12)),
    # span >> rows: ranks among the build side's distinct values
    _key_lists(st.sampled_from(
        [-2**62, -10**12, -7, 0, 3, 10**9, 2**53, 2**53 + 1, 2**62]
    )),
)


@settings(max_examples=50, deadline=None)
@given(left_keys=nullable_keys, right_keys=nullable_keys,
       how=st.sampled_from(["inner", "left"]),
       workers=st.integers(min_value=1, max_value=5))
def test_sharded_join_identical_to_serial(left_keys, right_keys, how,
                                          workers):
    left = _column_set(left_keys)
    right = _column_set(right_keys)
    serial, serial_counters = _serial(left, right, how)
    context = ExecutionContext("sharded-join")
    sharded = sharded_hash_join(
        left, right, ["k"], ["k"], how,
        num_workers=workers, context=context,
    )
    assert np.array_equal(sharded.left_indices, serial.left_indices)
    assert np.array_equal(sharded.right_indices, serial.right_indices)
    assert context.joins.snapshot() == serial_counters


def _mode_cases() -> dict[str, tuple[ColumnSet, ColumnSet]]:
    """Probe/build pairs that ship each kind of directory to the shards."""
    rng = np.random.default_rng(9)
    probe = [int(key) for key in rng.integers(0, 60, 400)] + [None, 10**12]
    return {
        # duplicate build keys: fan-out expansion on every shard
        "fanout": (_column_set(probe),
                   _column_set([int(key) for key in rng.integers(0, 60, 120)]
                               + [None])),
        # unique build keys (a PK-FK join): the no-expansion path
        "unique": (_column_set(probe),
                   _column_set([int(key)
                                for key in rng.permutation(60)[:45]])),
        # sparse build keys: ranks among the build side's distinct values
        "sparse": (_column_set(probe),
                   _column_set([int(key) * 10**9
                                for key in rng.integers(0, 60, 80)] + [7])),
    }


@pytest.mark.parametrize("mode", ["serial", "thread", "process"])
@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("case", ["fanout", "unique", "sparse"])
def test_sharded_join_modes(mode, how, case):
    left, right = _mode_cases()[case]
    serial, serial_counters = _serial(left, right, how)
    for workers in (1, 2, 4):
        context = ExecutionContext(f"sharded-{mode}")
        sharded = sharded_hash_join(
            left, right, ["k"], ["k"], how,
            num_workers=workers, mode=mode, context=context,
        )
        assert np.array_equal(sharded.left_indices, serial.left_indices)
        assert np.array_equal(sharded.right_indices, serial.right_indices)
        assert sharded.left_indices.dtype == serial.left_indices.dtype
        assert sharded.right_indices.dtype == serial.right_indices.dtype
        assert context.joins.snapshot() == serial_counters


def test_empty_probe_side():
    left = _column_set([])
    right = _column_set([1, 2, 3])
    context = ExecutionContext("sharded-empty")
    sharded = sharded_hash_join(
        left, right, ["k"], ["k"], "inner",
        num_workers=3, context=context,
    )
    assert sharded.num_rows == 0
    assert context.joins.snapshot()["joins_executed"] == 1


def test_kernel_adapter_matches_direct_call():
    rng = np.random.default_rng(4)
    left = _column_set([int(key) for key in rng.integers(0, 20, 150)])
    right = _column_set([int(key) for key in rng.integers(0, 25, 60)])
    serial, _ = _serial(left, right, "left")
    kernel = sharded_join_kernel(3)
    result = kernel(left, right, ["k"], ["k"], "left")
    assert np.array_equal(result.left_indices, serial.left_indices)
    assert np.array_equal(result.right_indices, serial.right_indices)
