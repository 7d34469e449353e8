"""Shared exception types."""

from __future__ import annotations


# a count below this is written out in messages; a larger one is named by
# the power it was computed as: its digits would fill the line, and past
# 4300 of them int -> str raises ValueError
SHORT_COUNT = 10**30


def count_text(count: int, power: str) -> str:
    """`power`, the expression `count` was computed as (such as "5^4"),
    followed by " = " and the count in decimal when it is short."""
    return f"{power} = {count}" if count < SHORT_COUNT else power


class CapExceededError(RuntimeError):
    """A configured size cap would be exceeded; carries the offending count,
    exact, and `size`, the count as a message writes it: in decimal when
    short, else `power`, the expression it was computed as."""

    def __init__(self, message: str, count: int, power: str):
        super().__init__(message)
        self.count = count
        self.size = str(count) if count < SHORT_COUNT else power


class AmbiguousCountError(ValueError):
    """The closed-form count is ambiguous for these parameters.

    Carries both candidate counts; callers should compute the actual count
    with a backend and dispatch on that instead.
    """

    def __init__(self, message: str, candidates: tuple[int, ...]):
        super().__init__(message)
        self.candidates = candidates


class InternalConsistencyError(RuntimeError):
    """A structural invariant that should hold by construction failed."""
