"""Exception hierarchy shared by all cvmet modules.

Exit-code mapping used by the CLI: ValidationError -> 1, an input outside
the numerical envelope (EnvelopeError with its subclass
TruncationLeakageError), outside the declared large-N regime
(LargeNGateError) or at an operating point where the parameter cannot be
estimated (UnidentifiableParameterError) -> 2, any other CvmetError -> 3.
A dimension loop or Richardson ladder that does not settle is reported as a
status on its result, never raised.
"""


class CvmetError(Exception):
    """Base class for all package errors."""


class ValidationError(CvmetError):
    """Bad user input: malformed config, empty sweep, unknown field."""


class InvalidDimensionError(CvmetError):
    """Fock truncation too small for the requested operation."""


class ContractViolationError(CvmetError):
    """An internal invariant failed (norm drift, hermiticity loss, ...)."""


class EnvelopeError(CvmetError):
    """Input outside the numerical envelope: the truncated basis or the node
    grid cannot hold it, so results would not be trustworthy."""


class TruncationLeakageError(EnvelopeError):
    """Probe preparation leaks more mass past the truncation than allowed."""


class UnsupportedConfigurationError(CvmetError):
    """The requested combination is outside the implemented scope."""


class UnidentifiableParameterError(CvmetError):
    """Fisher information or signal derivative vanished at this point."""


class LargeNGateError(CvmetError):
    """Asymptotic comparison requested outside its declared large-N regime."""


class DomainError(CvmetError):
    """Numeric input outside the mathematical domain (e.g. log of y <= 0)."""
