"""High-SNR outage asymptotics for N-hop fixed-gain amplify-and-forward chains.

The outage probability of such a chain decays like a power of the average
SNR, possibly dampened by a logarithm; both the power and the log degree are
read off the poles of the product of per-hop gain moments.  This package
computes those pole structures and the corresponding truncated asymptotic
expansions, and validates them against Monte Carlo simulation and exact
quadrature oracles.
"""

from .channels import FadingModel, HopConfig, validate_model
from .errors import (
    ConditioningWarning,
    IllConditionedContourError,
    ModelValidationError,
    PoleAtArgumentError,
    QuadratureConvergenceError,
    TruncationWarning,
)
from .mellin import (
    AsymptoteTerm,
    AsymptoticExpansion,
    NetworkConfig,
    build_expansion,
    evaluate_expansion,
    leading_pole,
    leading_term,
)
from .montecarlo import OutageEstimate, estimate_outage, oracle_outage, philox
from .analysis import SweepRow, finite_diversity, sweep_compare

__version__ = "0.1.0"

__all__ = [
    "AsymptoteTerm",
    "AsymptoticExpansion",
    "ConditioningWarning",
    "FadingModel",
    "HopConfig",
    "IllConditionedContourError",
    "ModelValidationError",
    "NetworkConfig",
    "OutageEstimate",
    "PoleAtArgumentError",
    "QuadratureConvergenceError",
    "SweepRow",
    "TruncationWarning",
    "build_expansion",
    "estimate_outage",
    "evaluate_expansion",
    "finite_diversity",
    "leading_pole",
    "leading_term",
    "oracle_outage",
    "philox",
    "sweep_compare",
    "validate_model",
]
