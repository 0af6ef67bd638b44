"""Unit tests for the benches' result tables."""

import pytest

from repro.bench.reporting import ResultTable


def test_result_table_renders_aligned():
    table = ResultTable("Demo", ["name", "value"])
    table.add_row("alpha", 1.5)
    table.add_row("beta-long-name", 1234567)
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "== Demo =="
    assert "alpha" in text and "1,234,567" in text
    # all data lines share the header width
    assert len({len(line) for line in lines[1:2]}) == 1


def test_result_table_rejects_wrong_arity():
    table = ResultTable("Demo", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_render_small_and_zero_floats():
    table = ResultTable("t", ["v"])
    table.add_row(0.0)
    table.add_row(0.00012)
    text = table.render()
    assert "0" in text and "0.0001" in text
