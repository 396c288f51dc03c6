"""Shared exception types and the cell budget."""

CELL_BUDGET = 10**6  # the most cells a builder makes; each counts first


class CubeworksError(Exception):
    """Base class for all workbench errors."""


class GuardError(CubeworksError):
    """A resource guard (dimension, enumeration size, word bound, rewrite
    steps) was exceeded.  Guards are hard errors, never silent truncation."""


class ValidationError(CubeworksError):
    """A structural invariant failed (face identities, map compatibility,
    malformed presentation data)."""
