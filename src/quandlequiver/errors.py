"""Shared exception types."""

from __future__ import annotations


# a count below this is written out in messages; a larger one is named by
# the power it was computed as: its digits would fill the line, and past
# 4300 of them int -> str raises ValueError
SHORT_COUNT = 10**30


def count_text(count: int | None, power: str) -> str:
    """`power`, the expression `count` was computed as (such as "5^4"),
    followed by " = " and the count in decimal when it is known and short."""
    return f"{power} = {count}" if count is not None and count < SHORT_COUNT else power


class CapExceededError(RuntimeError):
    """A configured size cap would be exceeded; carries the offending count,
    exact, or None when it is past the cap by its bit length and was never
    computed, and `size`, the count as a message writes it: in decimal when
    short, else `power`, the expression it was computed as."""

    def __init__(self, message: str, count: int | None, power: str):
        super().__init__(message)
        self.count = count
        self.size = str(count) if count is not None and count < SHORT_COUNT else power


class CountTooLong(Exception):
    """A count with more than `limit` decimal digits, the most the
    interpreter writes out (sys.get_int_max_str_digits): exit 4, one line
    on stderr."""

    def __init__(self, n: int, limit: int):
        super().__init__(
            f"the count for n={n} has more than {limit} digits, "
            "the interpreter's limit for writing an integer in decimal"
        )


class InternalConsistencyError(RuntimeError):
    """A structural invariant that should hold by construction failed."""
