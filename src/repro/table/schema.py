"""Table schemas and partition specifications.

A schema types every column; a partition spec maps each row of column
data to the partition directory it belongs to (Fig 5: "each
sub-directory name represents its partition range").  Supported
transforms: ``identity`` (value as-is),
``day`` (epoch-seconds timestamp -> day number, the paper's hour/day log
partitioning) and ``hour``.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.errors import SchemaError
from repro.table.vector import ColumnVector, NumericVector


class ColumnType(enum.Enum):
    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    BOOL = "bool"
    #: epoch seconds, stored as int64 but eligible for day/hour transforms
    TIMESTAMP = "timestamp"

    @property
    def python_types(self) -> tuple[type, ...]:
        if self in (ColumnType.INT64, ColumnType.TIMESTAMP):
            return (int,)
        if self is ColumnType.FLOAT64:
            return (int, float)
        if self is ColumnType.STRING:
            return (str,)
        return (bool,)


@dataclass(frozen=True)
class Column:
    """One typed, optionally nullable column."""

    name: str
    type: ColumnType
    nullable: bool = False

    def validate(self, value: object) -> None:
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if self.type is ColumnType.BOOL and not isinstance(value, bool):
            raise SchemaError(
                f"column {self.name!r} expects bool, got {type(value).__name__}"
            )
        if self.type is not ColumnType.BOOL and isinstance(value, bool):
            raise SchemaError(f"column {self.name!r}: bool is not a valid value")
        if not isinstance(value, self.type.python_types):
            raise SchemaError(
                f"column {self.name!r} expects {self.type.value}, "
                f"got {type(value).__name__}"
            )


class Schema:
    """Ordered collection of columns."""

    def __init__(self, columns: list[Column]) -> None:
        if not columns:
            raise SchemaError("a schema needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self.columns = list(columns)
        self._by_name = {column.name: column for column in columns}

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> list[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        column = self._by_name.get(name)
        if column is None:
            raise SchemaError(f"no column {name!r} in schema {self.names}")
        return column

    def check_columns(self, names: set[str]) -> None:
        """Raise :class:`SchemaError` naming every column not in the schema."""
        unknown = names - self._by_name.keys()
        if unknown:
            raise SchemaError(f"scan references unknown columns {sorted(unknown)}")

    def validate_row(self, row: dict[str, object]) -> None:
        """Check a row dict has exactly the schema's columns, typed right."""
        extra = set(row) - set(self._by_name)
        if extra:
            raise SchemaError(f"unknown columns {sorted(extra)}")
        for column in self.columns:
            if column.name not in row:
                if not column.nullable:
                    raise SchemaError(f"missing column {column.name!r}")
                continue
            column.validate(row[column.name])

    def to_dict(self) -> dict[str, str]:
        return {column.name: column.type.value for column in self.columns}

    @classmethod
    def from_dict(cls, raw: dict[str, str]) -> "Schema":
        """Parse the topic-config shape: {name: type_string}."""
        return cls(
            [Column(name, ColumnType(type_name)) for name, type_name in raw.items()]
        )


_SECONDS_PER_DAY = 86_400
_SECONDS_PER_HOUR = 3_600

_TRANSFORMS = {
    "identity": lambda value: value,
    "day": lambda value: int(value) // _SECONDS_PER_DAY,
    "hour": lambda value: int(value) // _SECONDS_PER_HOUR,
}


@dataclass(frozen=True)
class PartitionField:
    """One (column, transform) partition dimension."""

    column: str
    transform: str = "identity"

    def apply_value(self, value: object) -> object:
        """Transform one value (NULL is the ``__null__`` directory)."""
        if self.transform not in _TRANSFORMS:
            raise SchemaError(f"unknown partition transform {self.transform!r}")
        if value is None:
            return "__null__"
        return _TRANSFORMS[self.transform](value)

    @property
    def label(self) -> str:
        """Directory-name prefix for this field, e.g. ``day_start_time``."""
        return (
            self.column if self.transform == "identity"
            else f"{self.transform}_{self.column}"
        )


@dataclass(frozen=True)
class PartitionSpec:
    """Maps rows to partition keys (directory names under /data)."""

    fields: tuple[PartitionField, ...] = ()

    @classmethod
    def by(cls, *specs: str) -> "PartitionSpec":
        """Build from strings like 'province' or 'day(start_time)'."""
        fields = []
        for spec in specs:
            if "(" in spec:
                transform, _, rest = spec.partition("(")
                column = rest.rstrip(")")
                fields.append(PartitionField(column=column, transform=transform))
            else:
                fields.append(PartitionField(column=spec))
        return cls(fields=tuple(fields))

    @property
    def is_partitioned(self) -> bool:
        return bool(self.fields)

    def keys_of(self, columns: "Mapping[str, ColumnVector]",
                num_rows: int) -> list[str]:
        """Per-row partition directory names of column vectors, e.g.
        ``'province=11/day_start_time=19400'`` (``'all'`` unpartitioned).

        Day/hour transforms of a numeric vector run as one NumPy
        floor-divide, so no row dict is built.
        """
        if not self.fields:
            return ["all"] * num_rows
        per_field: list[list[object]] = []
        for field_ in self.fields:
            data = columns[field_.column]
            if (isinstance(data, NumericVector)
                    and field_.transform in ("day", "hour")):
                divisor = (_SECONDS_PER_DAY if field_.transform == "day"
                           else _SECONDS_PER_HOUR)
                transformed = (
                    data.values.astype(np.int64) // divisor
                ).tolist()
                per_field.append([
                    value if ok else "__null__"
                    for value, ok in zip(transformed, data.valid().tolist())
                ])
            else:
                per_field.append(
                    [field_.apply_value(v) for v in data.to_list()]
                )
        labels = [field_.label for field_ in self.fields]
        if len(per_field) == 1:
            label = labels[0]
            return [f"{label}={value}" for value in per_field[0]]
        return [
            "/".join(
                f"{label}={value}" for label, value in zip(labels, values)
            )
            for values in zip(*per_field)
        ]
