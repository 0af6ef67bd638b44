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

    @classmethod
    def coded(cls, name: str,
              sample: "np.ndarray | list[object]") -> "_ColumnData":
        """A float64 array, or a list of non-bool ints/floats, is a numeric
        column; any other list is coded categorically in first-seen order."""
        if not isinstance(sample, np.ndarray) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in sample):
            sample = np.array(sample, dtype=np.float64)
        if isinstance(sample, np.ndarray):
            return cls(name, sample, categories=None)
        categories = dict(zip(dict.fromkeys(sample), range(len(sample))))
        codes = np.fromiter(map(categories.__getitem__, sample),
                            dtype=np.float64, count=len(sample))
        return cls(name, codes, categories=categories)


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
        self._widths = self.edges[1:] - self.edges[:-1]

    def probability(self, ranges: dict[str, tuple[float, float]]) -> float:
        bounds = ranges.get(self.name)
        if bounds is None:
            return 1.0
        low, high = bounds
        overlap = (np.minimum(high, self.edges[1:])
                   - np.maximum(low, self.edges[:-1]))
        keep = (overlap > 0) & (self._widths > 0)
        if not keep.any():
            return 0.0
        terms = self.fractions[keep] * np.minimum(
            1.0, overlap[keep] / self._widths[keep])
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


def _leaves(matrix: np.ndarray, columns: list[_ColumnData]) -> _Node:
    """One histogram leaf per column, a product over several."""
    leaves = [_Leaf(_ColumnData(c.name, matrix[:, i], c.categories))
              for i, c in enumerate(columns)]
    return leaves[0] if len(leaves) == 1 else _Product(leaves)


class SPN:
    """Learned joint distribution of a table's columns."""

    def __init__(self, root: _Node, columns: list[_ColumnData],
                 row_count: int) -> None:
        self._root = root
        #: per column: its category code map, None for a native numeric
        self._categories = {c.name: c.categories for c in columns}
        #: per column: the width of an ``=`` range, fixed at training — one
        #: code, or a quarter of a leaf bin over the sample's spread
        self._epsilons = {
            c.name: 1.0 if c.categories is not None else max(
                float(c.values.max() - c.values.min()) / (_LEAF_BINS * 4),
                1e-9)
            for c in columns
        }
        self.row_count = row_count

    # --- learning -------------------------------------------------------------

    @classmethod
    def learn(cls, rows: list[dict[str, object]], columns: list[str],
              seed: int = 0, min_instances: int = _MIN_INSTANCES) -> "SPN":
        """Learn an SPN from sampled rows over the named columns: a
        rows-to-columns step in front of :meth:`learn_columns`."""
        return cls.learn_columns(
            {name: [row.get(name) for row in rows] for name in columns},
            seed=seed, min_instances=min_instances,
        )

    @classmethod
    def learn_columns(cls, samples: "dict[str, np.ndarray | list[object]]",
                      seed: int = 0,
                      min_instances: int = _MIN_INSTANCES) -> "SPN":
        """Learn an SPN from equal-length column samples, in dict order
        (see :meth:`_ColumnData.coded` for how each is coded)."""
        data = [_ColumnData.coded(name, sample)
                for name, sample in samples.items()]
        if not data or not len(data[0].values):
            raise ValueError("cannot learn an SPN from zero rows")
        rng = np.random.default_rng(seed)
        matrix = np.stack([column.values for column in data], axis=1)
        root = cls._build(matrix, data, rng, min_instances)
        return cls(root, data, len(matrix))

    @classmethod
    def _build(cls, matrix: np.ndarray, columns: list[_ColumnData],
               rng: np.random.Generator, min_instances: int) -> _Node:
        num_rows, num_cols = matrix.shape
        if num_cols == 1 or num_rows <= min_instances:
            return _leaves(matrix, columns)
        groups = cls._independent_groups(matrix)
        if len(groups) > 1:
            return _Product([
                cls._build(matrix[:, group], [columns[i] for i in group],
                           rng, min_instances)
                for group in groups
            ])
        labels = cls._two_means(matrix, rng)
        if labels.all() or not labels.any():
            # clustering failed to split: fall back to independence
            return _leaves(matrix, columns)
        masks = (~labels, labels)
        return _Sum([float(mask.mean()) for mask in masks], [
            cls._build(matrix[mask], columns, rng, min_instances)
            for mask in masks
        ])

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
            new_labels = (((normalized - centers[1]) ** 2).sum(axis=1)
                          < ((normalized - centers[0]) ** 2).sum(axis=1))
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
        epsilon = self._epsilons.get(atom.column, 1.0)
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
        categories = self._categories.get(column)
        if categories is None:
            return float(value)  # type: ignore[arg-type]
        code = categories.get(value)
        if code is None:
            return -1.0  # unseen category: mass outside any bin
        return float(code)
