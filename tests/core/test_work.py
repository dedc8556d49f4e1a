"""Tests for WorkUnits accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.work import WorkUnits


def _total(units):
    return sum(count for _, count in units.items())


def test_empty_total():
    assert _total(WorkUnits()) == 0.0


def test_add_accumulates():
    units = WorkUnits()
    units.add("instr", 10).add("instr", 5).add("hash_probe")
    assert units.get("instr") == 15.0
    assert units.get("hash_probe") == 1.0


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        WorkUnits({"instr": -1})
    with pytest.raises(ValueError):
        WorkUnits().add("instr", -2)


def test_merge():
    a = WorkUnits({"instr": 1, "dfa_byte": 2})
    b = WorkUnits({"dfa_byte": 3, "aes_block": 4})
    a.merge(b)
    assert a.get("dfa_byte") == 5.0
    assert a.get("aes_block") == 4.0


def test_scaled_returns_new_object():
    a = WorkUnits({"instr": 10})
    b = a.scaled(0.5)
    assert b.get("instr") == 5.0
    assert a.get("instr") == 10.0


def test_scaled_rejects_negative():
    with pytest.raises(ValueError):
        WorkUnits({"instr": 1}).scaled(-1)


def test_equality():
    assert WorkUnits({"a": 1}) == WorkUnits({"a": 1})
    assert WorkUnits({"a": 1}) != WorkUnits({"a": 2})


def test_get_missing_kind_is_zero():
    assert WorkUnits().get("nothing") == 0.0


def test_repr_sorted():
    text = repr(WorkUnits({"b": 2, "a": 1}))
    assert text.index("a=1") < text.index("b=2")


@given(st.dictionaries(st.sampled_from("abcde"), st.floats(0, 1e6), max_size=5),
       st.floats(0, 10))
@settings(max_examples=50, deadline=None)
def test_scaling_scales_total(counts, factor):
    units = WorkUnits(counts)
    assert _total(units.scaled(factor)) == pytest.approx(
        _total(units) * factor)
