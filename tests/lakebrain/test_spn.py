"""Unit and property tests for the SPN cardinality estimator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lakebrain.spn import SPN
from repro.table.expr import And, Or, Predicate


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
