"""The read-only ``dict`` that shared results and summaries are made of."""

import copy
import json
import pickle

import pytest

from repro.common.frozen import FrozenDict

_WRITES = [
    ("setitem", lambda row: row.__setitem__("a", 9)),
    ("delitem", lambda row: row.__delitem__("a")),
    ("update", lambda row: row.update(a=9)),
    ("pop", lambda row: row.pop("a")),
    ("popitem", lambda row: row.popitem()),
    ("clear", lambda row: row.clear()),
    ("setdefault", lambda row: row.setdefault("c", 3)),
    ("ior", lambda row: row.__ior__({"c": 3})),
]


@pytest.mark.parametrize("name, write", _WRITES, ids=[n for n, _ in _WRITES])
def test_every_write_raises_and_leaves_the_row(name, write):
    row = FrozenDict({"a": 1, "b": "x"})
    with pytest.raises(TypeError, match=r"dict\(row\)"):
        write(row)
    assert row == {"a": 1, "b": "x"}


def test_reads_like_a_dict():
    row = FrozenDict({"a": 1, "b": None})
    assert isinstance(row, dict)
    assert row == {"a": 1, "b": None} and {"a": 1, "b": None} == row
    assert repr(row) == repr({"a": 1, "b": None})
    assert json.dumps(row) == '{"a": 1, "b": null}'
    merged = row | {"c": 2}
    assert merged == {"a": 1, "b": None, "c": 2}
    assert type(merged) is dict and row == {"a": 1, "b": None}


def test_dict_copy_is_mutable():
    row = FrozenDict({"a": 1})
    mutable = dict(row)
    mutable["a"] = 2
    assert type(mutable) is dict
    assert (mutable, row) == ({"a": 2}, {"a": 1})


@pytest.mark.parametrize("round_trip", [
    lambda row: pickle.loads(pickle.dumps(row)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_round_trips_keep_the_type(round_trip):
    row = FrozenDict({"a": 1, "b": [1, 2]})
    again = round_trip(row)
    assert type(again) is FrozenDict
    assert again == row
    with pytest.raises(TypeError):
        again["a"] = 2
