"""Error types shared across the package."""

from __future__ import annotations

from typing import Any


class ImpossibleByLemmaError(RuntimeError):
    """A construction that is guaranteed to succeed failed to.

    Every solver branch verifies its own output before returning, so
    raising this signals an implementation bug (or a genuinely
    interesting counterexample).  The witness payload captures enough
    state to replay the failure.
    """

    def __init__(self, message: str, witness: dict[str, Any] | None = None):
        super().__init__(message)
        self.witness = witness or {}
