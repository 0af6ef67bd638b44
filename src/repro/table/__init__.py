"""Lakehouse: table objects with ACID operations (Sections IV-B, V-B).

A table object is a directory of columnar data files plus commit/snapshot
metadata, with the catalog in a distributed KV engine.  The metadata
acceleration write cache combines small metadata I/O; predicate and
aggregate pushdown run storage-side; stream<->table conversion bridges to
the messaging service.
"""

from repro.table.schema import Column, ColumnType, PartitionSpec, Schema
from repro.table.vector import ColumnVector, DictStringVector, NumericVector
from repro.table.expr import And, Or, Predicate, parse_predicate
from repro.table.columnar import ColumnarFile, FileFooter, ROW_GROUP_SIZE
from repro.table.commit import CommitFile, DataFileMeta
from repro.table.snapshot import Snapshot, SnapshotLog
from repro.table.catalog import Catalog, TableInfo
from repro.table.metacache import (AcceleratedMetadataStore,
    FileMetadataStore, MetadataStore)
from repro.table.pushdown import (AggregateSpec, execute_pushdown,
    execute_pushdown_multi, result_labels)
from repro.table.agg import AggregateState, aggregate_file, footer_answerable
from repro.table.table import Lakehouse, QueryStats, TableObject
from repro.table.conversion import StreamTableConverter
from repro.table.join import (ColumnSet, JoinResult, concat_column_sets,
    gather_with_nulls, hash_join)
from repro.table.planner import (JoinCondition, JoinPlan, JoinQuery,
    StatisticsCache, TableRef, execute_plan, plan_join, planner_statistics)
from repro.table.sql import SQLError, parse_select, query

__all__ = [
    "Column",
    "ColumnType",
    "Schema",
    "PartitionSpec",
    "Predicate",
    "And",
    "Or",
    "parse_predicate",
    "ColumnarFile",
    "FileFooter",
    "ROW_GROUP_SIZE",
    "ColumnVector",
    "NumericVector",
    "DictStringVector",
    "CommitFile",
    "DataFileMeta",
    "Snapshot",
    "SnapshotLog",
    "Catalog",
    "TableInfo",
    "MetadataStore",
    "AcceleratedMetadataStore",
    "FileMetadataStore",
    "AggregateSpec",
    "execute_pushdown",
    "execute_pushdown_multi",
    "result_labels",
    "AggregateState",
    "aggregate_file",
    "footer_answerable",
    "TableObject",
    "Lakehouse",
    "QueryStats",
    "StreamTableConverter",
    "query",
    "parse_select",
    "SQLError",
    "ColumnSet",
    "JoinResult",
    "concat_column_sets",
    "gather_with_nulls",
    "hash_join",
    "JoinCondition",
    "JoinPlan",
    "JoinQuery",
    "StatisticsCache",
    "TableRef",
    "execute_plan",
    "plan_join",
    "planner_statistics",
]
