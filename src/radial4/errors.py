"""Exception taxonomy shared across the package.

Every library-raised error derives from Radial4Error so callers (and the
CLI exit-code mapping) can tell solver failures apart from bugs.
"""

from __future__ import annotations


class Radial4Error(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(Radial4Error):
    """Inputs violate a documented precondition (bad parameters, bad grid)."""


class DomainError(Radial4Error):
    """A quantity left its mathematical domain (negative v, bad radicand)."""


class PoleError(DomainError):
    """Gamma/Beta evaluated at a nonpositive-integer pole."""


class TailError(Radial4Error):
    """A weighted integral does not decay at the quadrature window ends."""

    def __init__(self, message: str, end: str):
        super().__init__(message)
        self.end = end


class ConvergenceError(Radial4Error):
    """An iteration hit its budget without meeting its tolerance."""


class RegimeError(Radial4Error):
    """Parameters lie outside the regime the requested solver supports."""


class NoExplicitSolutionError(RegimeError):
    """Coefficients do not satisfy the closed-form solvability relation."""
