"""Shared exception types."""

from __future__ import annotations


class CapExceededError(RuntimeError):
    """A configured size cap would be exceeded; carries the offending count."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


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
