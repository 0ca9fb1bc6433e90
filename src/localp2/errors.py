"""Exception hierarchy shared across the package."""

from __future__ import annotations


class LocalP2Error(Exception):
    """Base class of every error the package raises."""


class InputError(LocalP2Error):
    """Bad user input: malformed files, out-of-range constructor arguments."""


class ShapeError(InputError):
    """A matrix shape does not match the dimension vector."""


class HeartMismatchError(InputError):
    """Two representations living in different hearts were combined."""


class HeartRangeError(InputError):
    """Constructor asked for a window slot outside its valid heart range."""


class MembershipError(InputError):
    """A twist was requested where window membership fails."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


class MissingVariableError(InputError):
    """A character was evaluated without a value for some dimension variable."""


class ScalarModeError(InputError):
    """Invalid scalar-mode configuration (e.g. prime too small)."""


class InternalCheckError(LocalP2Error):
    """A construction postcondition failed; indicates a bug, not bad input."""
