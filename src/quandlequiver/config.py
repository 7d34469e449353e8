"""Default size caps, overridable through environment variables.

Every cap guards an enumeration whose size is known before any work is
done, so exceeding one raises CapExceededError immediately instead of
grinding away at a hopeless loop.  There are two:
QUANDLEQUIVER_ENUM_CAP on the colorings the linear backend lists, and
QUANDLEQUIVER_ORACLE_CAP on the candidate tops the oracle walks.
"""

from __future__ import annotations

import os

_DEFAULTS = {
    "QUANDLEQUIVER_ENUM_CAP": 10**6,      # kernel vectors materialized per call
    "QUANDLEQUIVER_ORACLE_CAP": 10**7,    # candidate top states propagated per call
}


def positive_integer(raw: str) -> int:
    """A cap or count given as text: decimal digits for an integer of at least 1."""
    text = raw.strip()
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise ValueError(f"must be a positive integer, got {raw!r}")
    return int(text)


def integer(raw: str) -> int:
    """An integer given as text: an optional ASCII sign, then ASCII digits."""
    text = raw.strip()
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"must be an integer, got {raw!r}")
    return int(text)


def _get(name: str) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return _DEFAULTS[name]
    try:
        return positive_integer(raw)
    except ValueError as exc:
        raise ValueError(f"{name} {exc}") from None


def check_environment() -> None:
    """Read every cap once, so a malformed variable fails before any work."""
    for name in _DEFAULTS:
        _get(name)


def enumeration_cap() -> int:
    return _get("QUANDLEQUIVER_ENUM_CAP")


def oracle_cap() -> int:
    return _get("QUANDLEQUIVER_ORACLE_CAP")

