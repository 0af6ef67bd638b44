"""Sum-product network cardinality estimator (Section VI-B).

"we use the sum-product network [12] as the estimator" — this is a
single-table SPN in the style of DeepDB: the structure is learned by
recursively either splitting *columns* into independent groups (a product
node) or clustering *rows* (a sum node); leaves are per-column histograms.
Probability of a conjunctive range predicate is computed bottom-up:
leaves integrate their histogram over the range, product nodes multiply,
sum nodes take the weighted mean.

Estimates feed the QD-tree partitioner, replacing the exact-but-slow
scan/sample approach the paper criticizes in related work [28].
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.table.expr import And, Expression, Predicate

_MIN_INSTANCES = 64
_INDEPENDENCE_THRESHOLD = 0.3
_LEAF_BINS = 64


@dataclass
class _ColumnData:
    """One column as numeric codes plus (for categoricals) the code map."""

    name: str
    values: np.ndarray  # float codes
    categories: dict[object, int] | None  # None for native numerics


class _Node(ABC):
    @abstractmethod
    def probability(self, ranges: dict[str, tuple[float, float]]) -> float:
        """P(row satisfies all per-column [lo, hi] ranges)."""


class _Leaf(_Node):
    """Histogram over one column."""

    def __init__(self, column: _ColumnData) -> None:
        self.name = column.name
        values = column.values
        low, high = float(values.min()), float(values.max())
        if high <= low:
            high = low + 1.0
        self.edges = np.linspace(low, high, _LEAF_BINS + 1)
        counts, _ = np.histogram(values, bins=self.edges)
        self.fractions = counts / max(1, len(values))

    def probability(self, ranges: dict[str, tuple[float, float]]) -> float:
        bounds = ranges.get(self.name)
        if bounds is None:
            return 1.0
        low, high = bounds
        bin_lows, bin_highs = self.edges[:-1], self.edges[1:]
        overlap = np.minimum(high, bin_highs) - np.maximum(low, bin_lows)
        width = bin_highs - bin_lows
        keep = (overlap > 0) & (width > 0)
        if not keep.any():
            return 0.0
        terms = self.fractions[keep] * np.minimum(
            1.0, overlap[keep] / width[keep])
        # summed left to right in bin order (np.sum's pairwise order can
        # move the last ulp, and join plans rank on these estimates)
        return float(min(1.0, np.cumsum(terms)[-1]))


class _Product(_Node):
    def __init__(self, children: list[_Node]) -> None:
        self.children = children

    def probability(self, ranges: dict[str, tuple[float, float]]) -> float:
        out = 1.0
        for child in self.children:
            out *= child.probability(ranges)
        return out


class _Sum(_Node):
    def __init__(self, weights: list[float], children: list[_Node]) -> None:
        self.weights = weights
        self.children = children

    def probability(self, ranges: dict[str, tuple[float, float]]) -> float:
        return sum(
            weight * child.probability(ranges)
            for weight, child in zip(self.weights, self.children)
        )


class SPN:
    """Learned joint distribution of a table's columns."""

    def __init__(self, root: _Node, columns: list[_ColumnData],
                 row_count: int) -> None:
        self._root = root
        self._columns = {column.name: column for column in columns}
        self.row_count = row_count

    # --- learning -------------------------------------------------------------

    @classmethod
    def learn(cls, rows: list[dict[str, object]], columns: list[str],
              seed: int = 0, min_instances: int = _MIN_INSTANCES) -> "SPN":
        """Learn an SPN from sampled rows over the named columns."""
        if not rows:
            raise ValueError("cannot learn an SPN from zero rows")
        rng = np.random.default_rng(seed)
        data = [cls._encode_column(rows, name) for name in columns]
        matrix = np.stack([column.values for column in data], axis=1)
        root = cls._build(matrix, data, rng, min_instances)
        return cls(root, data, len(rows))

    @staticmethod
    def _encode_column(rows: list[dict[str, object]],
                       name: str) -> _ColumnData:
        raw = [row.get(name) for row in rows]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in raw):
            return _ColumnData(
                name, np.array(raw, dtype=np.float64), categories=None
            )
        categories: dict[object, int] = {}
        codes = np.empty(len(raw), dtype=np.float64)
        for index, value in enumerate(raw):
            codes[index] = categories.setdefault(value, len(categories))
        return _ColumnData(name, codes, categories=categories)

    @classmethod
    def _build(cls, matrix: np.ndarray, columns: list[_ColumnData],
               rng: np.random.Generator, min_instances: int) -> _Node:
        num_rows, num_cols = matrix.shape
        if num_cols == 1:
            return _Leaf(
                _ColumnData(columns[0].name, matrix[:, 0], columns[0].categories)
            )
        if num_rows <= min_instances:
            return _Product([
                _Leaf(_ColumnData(c.name, matrix[:, i], c.categories))
                for i, c in enumerate(columns)
            ])
        groups = cls._independent_groups(matrix)
        if len(groups) > 1:
            children = []
            for group in groups:
                sub_matrix = matrix[:, group]
                sub_columns = [columns[i] for i in group]
                children.append(
                    cls._build(sub_matrix, sub_columns, rng, min_instances)
                )
            return _Product(children)
        labels = cls._two_means(matrix, rng)
        if labels.all() or not labels.any():
            # clustering failed to split: fall back to independence
            return _Product([
                _Leaf(_ColumnData(c.name, matrix[:, i], c.categories))
                for i, c in enumerate(columns)
            ])
        children = []
        weights = []
        for flag in (False, True):
            mask = labels == flag
            weights.append(float(mask.mean()))
            children.append(
                cls._build(matrix[mask], columns, rng, min_instances)
            )
        return _Sum(weights, children)

    @staticmethod
    def _independent_groups(matrix: np.ndarray) -> list[list[int]]:
        """Connected components of |corr| > threshold (union-find)."""
        num_cols = matrix.shape[1]
        with np.errstate(invalid="ignore"):
            corr = np.corrcoef(matrix, rowvar=False)
        corr = np.nan_to_num(corr)
        parent = list(range(num_cols))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(num_cols):
            for j in range(i + 1, num_cols):
                if abs(corr[i, j]) > _INDEPENDENCE_THRESHOLD:
                    parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for index in range(num_cols):
            groups.setdefault(find(index), []).append(index)
        return list(groups.values())

    @staticmethod
    def _two_means(matrix: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """2-means row clustering on standardized data (a few iterations)."""
        std = matrix.std(axis=0)
        std[std == 0] = 1.0
        normalized = (matrix - matrix.mean(axis=0)) / std
        indices = rng.choice(len(normalized), size=2, replace=False)
        centers = normalized[indices].copy()
        labels = np.zeros(len(normalized), dtype=bool)
        for _ in range(8):
            distances = np.stack([
                ((normalized - center) ** 2).sum(axis=1) for center in centers
            ])
            new_labels = distances[1] < distances[0]
            if (new_labels == labels).all():
                break
            labels = new_labels
            for flag in (False, True):
                mask = labels == flag
                if mask.any():
                    centers[int(flag)] = normalized[mask].mean(axis=0)
        return labels

    # --- estimation ---------------------------------------------------------------

    def selectivity(self, expression: Expression) -> float:
        """P(row matches) for a conjunction of atomic range predicates."""
        ranges = self._ranges_of(expression)
        return self._root.probability(ranges)

    def cardinality(self, expression: Expression,
                    table_rows: int | None = None) -> float:
        """Estimated matching rows (scaled to ``table_rows`` when given)."""
        total = table_rows if table_rows is not None else self.row_count
        return self.selectivity(expression) * total

    def _ranges_of(self, expression: Expression
                   ) -> dict[str, tuple[float, float]]:
        if isinstance(expression, Predicate):
            atoms = [expression]
        elif isinstance(expression, And):
            atoms = expression.atoms()
        else:
            raise ValueError(
                "SPN estimation supports conjunctions of atomic predicates"
            )
        ranges: dict[str, tuple[float, float]] = {}
        for atom in atoms:
            low, high = self._atom_range(atom)
            if atom.column in ranges:
                old_low, old_high = ranges[atom.column]
                ranges[atom.column] = (max(low, old_low), min(high, old_high))
            else:
                ranges[atom.column] = (low, high)
        return ranges

    def _atom_range(self, atom: Predicate) -> tuple[float, float]:
        epsilon = self._epsilon_of(atom.column)
        if atom.op == "IN":  # the literal is a tuple: code each member
            codes = [
                self._code_of(atom.column, value) for value in atom.literal  # type: ignore[union-attr]
            ]
            return min(codes) - epsilon / 2, max(codes) + epsilon / 2
        code = self._code_of(atom.column, atom.literal)
        if atom.op == "=":
            return code - epsilon / 2, code + epsilon / 2
        if atom.op in ("<", "<="):
            return -np.inf, code if atom.op == "<" else code + epsilon / 2
        return (code if atom.op == ">" else code - epsilon / 2), np.inf

    def _code_of(self, column: str, value: object) -> float:
        data = self._columns.get(column)
        if data is None or data.categories is None:
            return float(value)  # type: ignore[arg-type]
        code = data.categories.get(value)
        if code is None:
            return -1.0  # unseen category: mass outside any bin
        return float(code)

    def _epsilon_of(self, column: str) -> float:
        data = self._columns.get(column)
        if data is None:
            return 1.0
        if data.categories is not None:
            return 1.0
        spread = float(data.values.max() - data.values.min())
        return max(spread / (_LEAF_BINS * 4), 1e-9)
