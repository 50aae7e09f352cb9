"""Exception types shared across the package.

Plain argument errors (bad sizes, malformed text, unknown labels) raise
ValueError; the classes here cover failures that callers are expected to
branch on.
"""


class TangleError(Exception):
    """Base class for package-specific failures."""


class InvalidLayoutError(TangleError):
    """A leaf order is not a tree-consistent permutation of the leaves."""


class BudgetExceededError(TangleError):
    """An exhaustive operation was asked to run above its size cap
    (``cap``), or past its deadline (``cap`` is None)."""

    def __init__(self, message: str, cap: int | None = None):
        super().__init__(message)
        self.cap = cap
