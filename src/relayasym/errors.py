"""Exception and warning types; the numerical failures are ArithmeticErrors, none a ValueError."""


class RelayAsymError(Exception):
    """Base class for all library-specific errors."""


class PoleAtArgumentError(RelayAsymError, ArithmeticError):
    """A function was evaluated at (or too close to) one of its poles."""


class ArgumentRangeError(RelayAsymError, ArithmeticError):
    """Argument outside the supported evaluation range of a special function."""


class SeriesDivergenceError(RelayAsymError, ArithmeticError):
    """A series evaluation was requested at a point where it diverges."""


class ModelValidationError(RelayAsymError, ValueError):
    """Unsupported fading family or parameter out of range."""


class IllConditionedContourError(RelayAsymError, ArithmeticError):
    """Integrand magnitude varies too wildly on a residue-extraction circle."""


class QuadratureConvergenceError(RelayAsymError, ArithmeticError):
    """A quadrature rule could not reach its stated tolerance."""


class ConditioningWarning(UserWarning):
    """Nearly coincident poles: results may be ill-conditioned."""


class TruncationWarning(UserWarning):
    """Adjacent truncation orders disagree strongly: formal series divergence."""
