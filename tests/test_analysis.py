"""Tests for the report/table rendering helpers."""

import pytest

from repro.analysis.report import Table, normalized


def test_table_renders_aligned_columns():
    table = Table("Demo", ["name", "value"])
    table.add_row("short", 1)
    table.add_row("a-much-longer-name", 123.456)
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert "name" in lines[1] and "value" in lines[1]
    # All data rows equally wide header separation.
    assert "a-much-longer-name" in text
    assert "123.5" in text  # >=100: one decimal place


def test_table_rejects_wrong_cell_count():
    table = Table("Demo", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")


def test_table_float_formatting():
    table = Table("t", ["x"])
    table.add_row(1.23456)
    table.add_row(12345.6)
    text = table.render()
    assert "1.235" in text
    assert "12345.6" in text


def test_table_str_equals_render():
    table = Table("t", ["x"])
    table.add_row("v")
    assert str(table) == table.render()


def test_normalized():
    values = {"base": 2.0, "fast": 1.0, "slow": 8.0}
    norm = normalized(values, "base")
    assert norm == {"base": 1.0, "fast": 0.5, "slow": 4.0}


def test_normalized_zero_baseline_rejected():
    with pytest.raises(ValueError):
        normalized({"base": 0.0}, "base")
