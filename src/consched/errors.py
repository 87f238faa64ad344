"""Exceptions shared across the package, the CLI's exit codes and the DP's default size guard."""

from __future__ import annotations

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class ProfileError(ValueError):
    """Malformed profile, precedence, or time-window input.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InfeasibleError(Exception):
    """No schedule satisfies the requested constraints (windows/precedences)."""


class SizeLimitError(Exception):
    """Instance exceeds a solver's configured size guard."""


# The CLI's exit code for each outcome: a ValueError (ProfileError included) is a
# usage error, and the other two classes above have their own codes.
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_SIZE_LIMIT = 3

DEFAULT_DP_LIMIT = 20  # largest n the subset DP runs without an explicit size_limit
