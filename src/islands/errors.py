"""Exception types shared across the library."""


class IslandError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(IslandError, ValueError):
    """Bricks or shapes of different dimension were mixed in one operation."""


class CapExceeded(IslandError, RuntimeError):
    """A configured resource cap was hit; carries the partial statistics.

    Raised instead of silently truncating a search: a verifier must never
    report a value computed from an incomplete enumeration.
    """

    def __init__(self, message, *, nodes_explored=0, memo_hits=0):
        super().__init__(message)
        self.nodes_explored = nodes_explored
        self.memo_hits = memo_hits


class EngineFault(IslandError, RuntimeError):
    """An engine invariant failed, so no report may be printed; the message says which."""
