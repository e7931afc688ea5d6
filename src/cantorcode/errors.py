"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: InputError -> 2, PreconditionError -> 3,
InternalError -> 4.  Any other exception escaping a command is a bug, and the
CLI reports it as an internal error with exit code 4 as well.
"""

from __future__ import annotations


class CantorcodeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CantorcodeError):
    """Malformed file, unparsable flag value, or bad user-supplied data."""


class PreconditionError(CantorcodeError):
    """An operation's stated precondition does not hold (budget, length, size cap...)."""


class InternalError(CantorcodeError):
    """An invariant the construction guarantees was observed to fail; indicates a bug."""
