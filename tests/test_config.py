"""Tests for environment-variable cap overrides."""

import pytest
from braid_reference import torus_braid

from quandlequiver.colorings import enumerate_colorings_linear
from quandlequiver.config import enumeration_cap, integer, oracle_cap, positive_integer
from quandlequiver.counting import evaluate_cells
from quandlequiver.errors import CapExceededError


def test_defaults():
    assert enumeration_cap() == 10**6
    assert oracle_cap() == 10**7


def test_env_overrides_read_at_call_time(monkeypatch):
    monkeypatch.setenv("QUANDLEQUIVER_ENUM_CAP", "123")
    monkeypatch.setenv("QUANDLEQUIVER_ORACLE_CAP", "456")
    assert enumeration_cap() == 123
    assert oracle_cap() == 456


def test_invalid_override_rejected(monkeypatch):
    monkeypatch.setenv("QUANDLEQUIVER_ENUM_CAP", "0")
    with pytest.raises(ValueError):
        enumeration_cap()
    monkeypatch.setenv("QUANDLEQUIVER_ENUM_CAP", "-5")
    with pytest.raises(ValueError):
        enumeration_cap()


def test_positive_integer_rule():
    assert positive_integer("7") == 7
    assert positive_integer(" 12 ") == 12
    for raw in ("0", "-1", "+5", "1.5", "abc", ""):
        with pytest.raises(ValueError, match="positive integer"):
            positive_integer(raw)


def test_integer_rule():
    # an optional ASCII sign, then ASCII digits; what int() takes beyond
    # that (other scripts' digits, underscores) is refused
    assert [integer(raw) for raw in ("7", " -12 ", "+3", "0", "007")] == [7, -12, 3, 0, 7]
    for raw in ("３", "1_0", "٣", "+", "-", "", "- 3", "+-3", "1.5", "x", "0x10"):
        with pytest.raises(ValueError, match="must be an integer"):
            integer(raw)


def test_env_cap_governs_backends(monkeypatch):
    monkeypatch.setenv("QUANDLEQUIVER_ORACLE_CAP", "100")
    with pytest.raises(CapExceededError):
        list(evaluate_cells([torus_braid(3, 0)], [5], linear=False, oracle_ns=[5]))
    monkeypatch.setenv("QUANDLEQUIVER_ENUM_CAP", "100")
    with pytest.raises(CapExceededError) as exc:
        enumerate_colorings_linear(torus_braid(3, 0), 5)
    assert exc.value.count == 125
