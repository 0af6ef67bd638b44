"""Unit tests for schemas and partition specs."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.table.columnar import numeric_vector
from repro.table.schema import (
    Column,
    ColumnType,
    PartitionField,
    PartitionSpec,
    Schema,
)
from repro.table.vector import DictStringVector, NumericVector


def make_schema():
    return Schema([
        Column("name", ColumnType.STRING),
        Column("age", ColumnType.INT64),
        Column("score", ColumnType.FLOAT64, nullable=True),
        Column("active", ColumnType.BOOL),
        Column("joined", ColumnType.TIMESTAMP),
    ])


def test_empty_schema_raises():
    with pytest.raises(SchemaError):
        Schema([])


def test_duplicate_columns_raise():
    with pytest.raises(SchemaError):
        Schema([Column("a", ColumnType.INT64), Column("a", ColumnType.STRING)])


def test_names_and_lookup():
    schema = make_schema()
    assert schema.names == ["name", "age", "score", "active", "joined"]
    assert schema.column("age").type is ColumnType.INT64
    assert "age" in schema
    assert "ghost" not in schema
    with pytest.raises(SchemaError):
        schema.column("ghost")


def test_validate_good_row():
    make_schema().validate_row({
        "name": "ada", "age": 36, "score": 9.5, "active": True,
        "joined": 1656806400,
    })


def test_validate_rejects_wrong_type():
    with pytest.raises(SchemaError):
        make_schema().validate_row({
            "name": 42, "age": 36, "score": 1.0, "active": True, "joined": 0,
        })


def test_validate_rejects_bool_as_int():
    with pytest.raises(SchemaError):
        make_schema().validate_row({
            "name": "x", "age": True, "score": 1.0, "active": True,
            "joined": 0,
        })


def test_validate_rejects_int_as_bool():
    with pytest.raises(SchemaError):
        make_schema().validate_row({
            "name": "x", "age": 1, "score": 1.0, "active": 1, "joined": 0,
        })


def test_nullable_column_accepts_none_and_absence():
    schema = make_schema()
    schema.validate_row({
        "name": "x", "age": 1, "score": None, "active": False, "joined": 0,
    })
    schema.validate_row({
        "name": "x", "age": 1, "active": False, "joined": 0,
    })


def test_non_nullable_missing_raises():
    with pytest.raises(SchemaError):
        make_schema().validate_row({"name": "x", "score": 1.0,
                                    "active": True, "joined": 0})


def test_unknown_column_raises():
    with pytest.raises(SchemaError):
        make_schema().validate_row({
            "name": "x", "age": 1, "score": 1.0, "active": True, "joined": 0,
            "extra": 1,
        })


def test_float_accepts_int_value():
    make_schema().validate_row({
        "name": "x", "age": 1, "score": 3, "active": True, "joined": 0,
    })


def test_dict_roundtrip():
    schema = make_schema()
    restored = Schema.from_dict(schema.to_dict())
    assert restored.names == schema.names
    assert restored.column("joined").type is ColumnType.TIMESTAMP


def test_partition_identity():
    spec = PartitionSpec.by("name")
    names = DictStringVector.from_values(["beijing"])
    assert spec.keys_of({"name": names}, 1) == ["name=beijing"]


def test_partition_day_transform():
    spec = PartitionSpec.by("day(joined)")
    vector = NumericVector(np.array([86_400 * 10 + 5, 0]),
                           np.array([True, False]))
    assert spec.keys_of({"joined": vector}, 2) == [
        "day_joined=10", "day_joined=__null__"]


def test_partition_hour_transform():
    spec = PartitionSpec.by("hour(joined)")
    joined = numeric_vector([7200 + 30], ColumnType.TIMESTAMP)
    assert spec.keys_of({"joined": joined}, 1) == ["hour_joined=2"]


def test_partition_multi_field():
    spec = PartitionSpec.by("name", "day(joined)")
    keys = spec.keys_of({
        "name": DictStringVector.from_values(["x", "y"]),
        "joined": numeric_vector([86_400, 0], ColumnType.TIMESTAMP),
    }, 2)
    assert keys == ["name=x/day_joined=1", "name=y/day_joined=0"]


def test_unpartitioned_key():
    spec = PartitionSpec()
    assert not spec.is_partitioned
    assert spec.keys_of({"anything": [1, 2]}, 2) == ["all", "all"]


def test_null_partition_value():
    spec = PartitionSpec.by("name")
    names = DictStringVector.from_values([None])
    assert spec.keys_of({"name": names}, 1) == ["name=__null__"]


def test_unknown_transform_raises():
    field = PartitionField(column="x", transform="month")
    with pytest.raises(SchemaError):
        field.apply_value(1)
