"""Unit and property tests for the SPN cardinality estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lakebrain.cardinality import SPNEstimator
from repro.lakebrain.spn import SPN, _ColumnData, _Leaf, _Sum
from repro.table.expr import And, Or, Predicate
from repro.table.vector import DictStringVector, NumericVector


def uniform_rows(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {"x": float(rng.uniform(0, 100)), "y": float(rng.uniform(0, 10)),
         "cat": f"c{int(rng.integers(0, 4))}"}
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def spn():
    return SPN.learn(uniform_rows(3000), ["x", "y", "cat"], seed=1)


def test_learn_empty_raises():
    with pytest.raises(ValueError):
        SPN.learn([], ["x"])


def test_selectivity_in_unit_interval(spn):
    for predicate in (
        Predicate("x", "<", 50.0),
        Predicate("x", ">", 200.0),
        Predicate("cat", "=", "c1"),
        And(Predicate("x", ">", 10.0), Predicate("y", "<", 5.0)),
    ):
        assert 0.0 <= spn.selectivity(predicate) <= 1.0


def test_full_range_near_one(spn):
    assert spn.selectivity(Predicate("x", ">=", -1.0)) > 0.95
    assert spn.selectivity(Predicate("x", "<=", 101.0)) > 0.95


def test_empty_range_near_zero(spn):
    assert spn.selectivity(Predicate("x", ">", 100.5)) < 0.05
    assert spn.selectivity(Predicate("x", "<", -0.5)) < 0.05


def test_uniform_range_estimates_close(spn):
    # uniform [0, 100): P(x < 25) ~ 0.25
    assert spn.selectivity(Predicate("x", "<", 25.0)) == pytest.approx(
        0.25, abs=0.07
    )
    assert spn.selectivity(Predicate("x", "<", 75.0)) == pytest.approx(
        0.75, abs=0.07
    )


def test_categorical_equality(spn):
    # 4 equally likely categories
    assert spn.selectivity(Predicate("cat", "=", "c2")) == pytest.approx(
        0.25, abs=0.1
    )


def test_unseen_category_near_zero(spn):
    assert spn.selectivity(Predicate("cat", "=", "never-seen")) < 0.05


def test_independent_columns_product(spn):
    p_x = spn.selectivity(Predicate("x", "<", 50.0))
    p_y = spn.selectivity(Predicate("y", "<", 5.0))
    joint = spn.selectivity(
        And(Predicate("x", "<", 50.0), Predicate("y", "<", 5.0))
    )
    assert joint == pytest.approx(p_x * p_y, abs=0.1)


def test_cardinality_scaling(spn):
    predicate = Predicate("x", "<", 50.0)
    base = spn.cardinality(predicate)
    scaled = spn.cardinality(predicate, table_rows=spn.row_count * 10)
    assert scaled == pytest.approx(base * 10)


def test_correlated_columns_better_than_independence():
    """On y = x data, the SPN should beat a naive independence estimate."""
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(3000):
        x = float(rng.uniform(0, 100))
        rows.append({"x": x, "y": x + float(rng.normal(0, 2.0))})
    spn = SPN.learn(rows, ["x", "y"], seed=2)
    # P(x < 20 AND y < 20) ~ 0.2 on this data; independence says 0.04
    joint = spn.selectivity(
        And(Predicate("x", "<", 20.0), Predicate("y", "<", 20.0))
    )
    truth = sum(1 for r in rows if r["x"] < 20 and r["y"] < 20) / len(rows)
    independence_error = abs(0.2 * 0.2 - truth)
    spn_error = abs(joint - truth)
    assert spn_error < independence_error


def test_disjunction_unsupported(spn):
    with pytest.raises(ValueError):
        spn.selectivity(Or(Predicate("x", "<", 1.0), Predicate("y", ">", 9.0)))


def test_conflicting_conjunction_zero(spn):
    joint = spn.selectivity(
        And(Predicate("x", "<", 10.0), Predicate("x", ">", 90.0))
    )
    assert joint < 0.02


@settings(max_examples=20, deadline=None)
@given(low=st.floats(min_value=0, max_value=99),
       width=st.floats(min_value=0.5, max_value=50))
def test_range_estimates_track_truth(low, width):
    rows = uniform_rows(2000, seed=9)
    spn = SPN.learn(rows, ["x", "y"], seed=4)
    predicate = And(
        Predicate("x", ">=", low), Predicate("x", "<", low + width)
    )
    truth = sum(1 for r in rows if low <= r["x"] < low + width) / len(rows)
    assert spn.selectivity(predicate) == pytest.approx(truth, abs=0.15)


@pytest.fixture(scope="module")
def integer_spn():
    """A uniform integer column over 0..256: its spread over 256 is 1, so
    one ``=`` range covers exactly one integer."""
    rng = np.random.default_rng(5)
    rows = [
        {"q": int(rng.integers(0, 257)), "cat": f"c{int(rng.integers(0, 4))}"}
        for _ in range(3000)
    ]
    return SPN.learn(rows, ["q", "cat"], seed=1)


@pytest.mark.parametrize("column, members", [
    ("q", (40, 41, 42)),
    ("q", (7,)),
    ("q", tuple(range(100, 108))),
    ("cat", ("c1", "c2")),
    ("cat", ("c0",)),
])
def test_in_estimates_the_sum_of_its_equalities(integer_spn, column, members):
    """``IN`` is the hull of its members' ``=`` ranges: for adjacent
    members it estimates what their equalities add up to."""
    estimate = integer_spn.selectivity(Predicate(column, "IN", members))
    equalities = sum(
        integer_spn.selectivity(Predicate(column, "=", value))
        for value in members
    )
    assert estimate == pytest.approx(equalities, abs=0.07)
    conjunction = And(Predicate(column, "IN", members),
                      Predicate("q", ">=", 0))
    assert 0.0 <= integer_spn.selectivity(conjunction) <= 1.0


def loop_probability(leaf, ranges):
    """A histogram leaf integrated bin by bin: the oracle for the
    vectorized ``_Leaf.probability``."""
    bounds = ranges.get(leaf.name)
    if bounds is None:
        return 1.0
    low, high = bounds
    total = 0.0
    for index in range(len(leaf.fractions)):
        bin_low = leaf.edges[index]
        bin_high = leaf.edges[index + 1]
        overlap = min(high, bin_high) - max(low, bin_low)
        width = bin_high - bin_low
        if overlap <= 0 or width <= 0:
            continue
        total += leaf.fractions[index] * min(1.0, overlap / width)
    return float(min(1.0, total))


_BOUNDS = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([-np.inf, np.inf]),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3),
                       min_size=1, max_size=200),
       data=st.data())
def test_leaf_probability_matches_loop_bit_for_bit(values, data):
    leaf = _Leaf(_ColumnData("x", np.array(values), None))
    # finite, infinite, or exactly on a bin edge
    bound = st.one_of(_BOUNDS, st.sampled_from(leaf.edges.tolist()))
    low, high = data.draw(bound, label="low"), data.draw(bound, label="high")
    ranges = {"x": (low, high)}
    assert (leaf.probability(ranges).hex()
            == loop_probability(leaf, ranges).hex())
    assert leaf.probability({"y": (low, high)}) == 1.0


# --- the column path against the row path --------------------------------


class ColumnRows:
    """Column data seen as a sequence of row dicts, each built when it is
    indexed: the row path the column path is checked against.
    ``indexed`` logs each index asked for, so a test sees the sample in
    draw order."""

    def __init__(self, columns, num_rows):
        self._columns = columns
        self._num_rows = num_rows
        self.indexed = []

    def __len__(self):
        return self._num_rows

    def __getitem__(self, index):
        self.indexed.append(index)
        row = {}
        for name, data in self._columns.items():
            if isinstance(data, DictStringVector):
                row[name] = data.take(np.array([index]))[0]
            elif data.valid()[index]:
                row[name] = data.values[index].item()
            else:
                row[name] = None
        return row


_INT64 = st.one_of(
    st.integers(-1000, 1000),
    st.sampled_from([-2**63, 2**63 - 1, 2**53 + 1, -2**53 - 1]),
)
_FLOAT64 = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([-0.0, 0.0, 1e150, -1e150, 5e-324]),
)
_STRING = st.sampled_from(["a", "b", "c", "", "zz"])
_KINDS = {
    # kind -> (value strategy, NumPy dtype or None for a string column)
    "int": (_INT64, np.int64),
    "timestamp": (st.integers(1_600_000_000, 1_700_000_000), np.int64),
    "float": (_FLOAT64, np.float64),
    "bool": (st.booleans(), np.bool_),
    "string": (_STRING, None),
    "dict_string": (_STRING, None),
}
#: a dictionary entry no drawn row uses, as a merged dictionary can hold
_UNUSED = "unused"


@st.composite
def column_tables(draw):
    """Typed column data as ``read_columns`` returns it, plus its size."""
    num_rows = draw(st.integers(1, 200), label="num_rows")
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1,
                          max_size=4), label="kinds")
    columns = {}
    for index, kind in enumerate(kinds):
        strategy, dtype = _KINDS[kind]
        values = draw(st.lists(strategy, min_size=num_rows,
                               max_size=num_rows), label=kind)
        # no NULL, a few (a sample may miss them all) or any number
        nulls = draw(st.one_of(
            st.just(set()),
            st.sets(st.integers(0, num_rows - 1), max_size=2),
            st.sets(st.integers(0, num_rows - 1)),
        ), label=f"{kind} nulls")
        values = [None if i in nulls else v for i, v in enumerate(values)]
        name = f"{kind}{index}"
        if kind == "string":
            # sorted with an unused entry, as concat_vectors merges them
            dictionary = sorted({v for v in values if v is not None}
                                | {_UNUSED})
            codes = [len(dictionary) if v is None else dictionary.index(v)
                     for v in values]
            columns[name] = DictStringVector(
                dictionary, np.array(codes, dtype=np.uint32))
        elif kind == "dict_string":
            dictionary = list(dict.fromkeys(v for v in values if v is not None))
            codes = [len(dictionary) if v is None else dictionary.index(v)
                     for v in values]
            columns[name] = DictStringVector(
                dictionary, np.array(codes, dtype=np.uint32))
        else:
            valid = np.array([v is not None for v in values], dtype=bool)
            filler = dtype(0)
            columns[name] = NumericVector(
                np.array([filler if v is None else v for v in values],
                         dtype=dtype), valid)
    return columns, num_rows


def spn_structure(node):
    """A node's whole model, floats as bytes/hex (bit-for-bit equality)."""
    if isinstance(node, _Leaf):
        return ("leaf", node.name, node.edges.tobytes(),
                node.fractions.tobytes())
    children = tuple(spn_structure(child) for child in node.children)
    if isinstance(node, _Sum):
        return ("sum", tuple(w.hex() for w in node.weights), children)
    return ("product", children)


def category_maps(spn, columns):
    """Each column's code map in insertion order, keys by type and repr
    (so ``-0.0`` kept in place of ``0.0`` is a difference)."""
    return {
        name: None if spn._categories[name] is None else [
            (type(key).__name__, repr(key), code)
            for key, code in spn._categories[name].items()
        ]
        for name in columns
    }


def first_seen_codes(values):
    """The categorical oracle: number values one by one, first seen first."""
    codes = {}
    for value in values:
        codes.setdefault(value, len(codes))
    return [(type(key).__name__, repr(key), code)
            for key, code in codes.items()]


@st.composite
def predicates_over(draw, columns, num_rows):
    atoms = []
    for name in draw(st.lists(st.sampled_from(sorted(columns)), min_size=1,
                              max_size=3), label="predicate columns"):
        data = columns[name]
        row = draw(st.integers(0, num_rows - 1), label="literal row")
        literal = ColumnRows(columns, num_rows)[row][name]
        if literal is None:  # a NULL-free sample may code it as a number
            literal = 0 if isinstance(data, NumericVector) else "a"
        op = draw(st.sampled_from(["=", "<", "<=", ">", ">=", "IN"]))
        atoms.append(Predicate(name, op, (literal,) if op == "IN" else literal))
    return atoms[0] if len(atoms) == 1 else And(*atoms)


@settings(max_examples=100, deadline=None)
@given(table=column_tables(),
       sample_fraction=st.sampled_from([0.01, 0.3, 1.0]),
       seed=st.integers(0, 3), data=st.data())
def test_column_path_learns_the_row_path_model_bit_for_bit(
        table, sample_fraction, seed, data):
    columns, num_rows = table
    names = list(columns)
    rows = ColumnRows(columns, num_rows)
    oracle = SPNEstimator(rows, names, sample_fraction=sample_fraction,
                          seed=seed)
    learned = SPNEstimator(columns, names, sample_fraction=sample_fraction,
                           seed=seed)
    assert (spn_structure(learned._spn._root)
            == spn_structure(oracle._spn._root))
    assert (category_maps(learned._spn, names)
            == category_maps(oracle._spn, names))
    assert learned._spn.row_count == oracle._spn.row_count == num_rows
    assert learned.training_cost_s.hex() == oracle.training_cost_s.hex()
    sample = [ColumnRows(columns, num_rows)[i] for i in rows.indexed]
    for name in names:
        if learned._spn._categories[name] is not None:
            assert (category_maps(learned._spn, [name])[name]
                    == first_seen_codes(row[name] for row in sample))
        assert (learned._spn._epsilons[name].hex()
                == oracle._spn._epsilons[name].hex())
    for _ in range(4):
        predicate = data.draw(predicates_over(columns, num_rows))
        assert (learned.cardinality(predicate).hex()
                == oracle.cardinality(predicate).hex())
