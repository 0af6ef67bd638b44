"""DictStringVector materialization against its per-row definition."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.table.vector import DictStringVector


def materialize(dictionary, codes):
    """Code by code: the null code is None, any other its dictionary
    entry (the definition ``take``/``to_list`` must keep)."""
    null_code = len(dictionary)
    return [None if code == null_code else dictionary[code]
            for code in codes.tolist()]


@st.composite
def vectors(draw):
    dictionary = draw(st.lists(st.text(max_size=4), unique=True, max_size=6))
    # every code, the null code (== len(dictionary)) included
    codes = draw(st.lists(st.integers(0, len(dictionary)), max_size=40))
    return DictStringVector(dictionary, np.array(codes, dtype=np.uint32))


@settings(max_examples=200, deadline=None)
@given(vector=vectors(), data=st.data())
def test_take_and_to_list_match_the_per_row_definition(vector, data):
    # repeated and out-of-order indices, or none at all
    indices = np.array(data.draw(st.lists(
        st.integers(0, max(0, len(vector) - 1)),
        max_size=60 if len(vector) else 0,
    )), dtype=np.intp)
    taken = vector.take(indices)
    expected = materialize(vector.dictionary, vector.codes[indices])
    assert taken == expected
    # the very objects of the dictionary, not equal copies
    assert all(a is b for a, b in zip(taken, expected))
    whole = vector.to_list()
    expected = materialize(vector.dictionary, vector.codes)
    assert whole == expected
    assert all(a is b for a, b in zip(whole, expected))


def test_all_null_and_empty_vectors():
    nulls = DictStringVector([], np.zeros(3, dtype=np.uint32))
    assert nulls.to_list() == [None, None, None]
    assert nulls.take(np.array([2, 2], dtype=np.intp)) == [None, None]
    empty = DictStringVector(["a"], np.zeros(0, dtype=np.uint32))
    assert empty.to_list() == []
    assert empty.take(np.zeros(0, dtype=np.intp)) == []
