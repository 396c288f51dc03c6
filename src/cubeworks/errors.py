"""Shared exception types, the cell budget and the builders' collector pause."""

import gc
from functools import wraps

CELL_BUDGET = 10**6  # the most cells a builder makes; each counts first


def bulk(fn):
    """Run builder fn with the cyclic garbage collector paused, since all it builds stays alive;
    a caller's pause is kept.  Process-wide: builds run on one thread, --jobs in processes."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class CubeworksError(Exception):
    """Base class for all workbench errors."""


class GuardError(CubeworksError):
    """A resource guard (dimension, enumeration size, word bound, rewrite
    steps) was exceeded.  Guards are hard errors, never silent truncation."""


class ValidationError(CubeworksError):
    """A structural invariant failed (face identities, map compatibility,
    malformed presentation data)."""
