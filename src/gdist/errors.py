"""Exception types shared across the package."""


class GdistError(Exception):
    """Base class for all package-specific errors."""


class StateFormatError(GdistError):
    """A state description (JSON or dict) is malformed.

    ``field`` names the offending key so CLI diagnostics can point at it.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NonPhysicalStateError(GdistError):
    """Covariance matrix violates the uncertainty bound det >= 1."""


class TruncationError(GdistError):
    """Fock-space truncation too small; probability leaked past the cutoff."""


class UnsupportedPairError(GdistError):
    """State pair falls outside the classified regimes (squeezed, unequal means)."""
