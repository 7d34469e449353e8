"""Tests for the package's public namespace."""

import quandlequiver


def test_every_public_name_resolves():
    for name in quandlequiver.__all__:
        assert hasattr(quandlequiver, name), name
    namespace = {}
    exec("from quandlequiver import *", namespace)
    assert set(quandlequiver.__all__) <= set(namespace)
