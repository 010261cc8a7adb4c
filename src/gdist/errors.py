"""Exception types shared across the package."""


class GdistError(Exception):
    """Base class for all package-specific errors."""


class StateFormatError(GdistError):
    """A state description (JSON or dict) or GDIST_TOL is malformed; the message names the field."""


class NonPhysicalStateError(GdistError):
    """A state violates the uncertainty bound gamma >= 1 (C positive-definite, det C >= 1)."""


class TruncationError(GdistError):
    """Fock-space truncation too small; probability leaked past the cutoff."""


class UnsupportedPairError(GdistError):
    """State pair falls outside the classified regimes (squeezed, unequal means)."""
