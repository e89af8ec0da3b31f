"""Short-range-dependence certification for infinitely divisible
moving-average random fields.

The package decides, by deterministic quadrature, whether a stationary
field X(t) = integral f(t - x) L(dx) satisfies a sufficient short-range-
dependence condition, and validates the underlying characteristic-function
inequalities by Monte Carlo sampling.
"""

from .certify import (
    CertificateReport,
    IntegralEstimate,
    SrdEstimate,
    ThresholdChoice,
    certify,
    choose_threshold,
    frequency_integral,
    srd_integral,
)
from .errors import (
    ConfigError,
    DivergentNormError,
    QuadratureError,
    RejectionError,
    SrdcertError,
)
from .kernels import (
    Kernel,
    box_kernel,
    check_integrability,
    gaussian_kernel,
    powerlaw_kernel,
    tabulated_kernel,
    tent_kernel,
)
from .levy import (
    CompoundPoisson,
    LevyTriplet,
    NO_JUMPS,
    SymmetricStable,
    TabulatedMeasure,
    check_negdef_inequalities,
    cumulant,
    cumulant_re,
    gaussian_triplet,
    poisson_triplet,
    stable_triplet,
)
from .simulate import (
    FieldSample,
    ProbeMeasure,
    SimConfig,
    covariance_bound_check,
    empirical_char,
    factorization_check,
    finite_discrete,
    gaussian_quantiles,
    point_mass,
    probe_smoothed_cov,
    sample_field,
)
from .spectral import (
    SpectralProfile,
    build_profile,
    char_marginal,
    marginal_exponent_sq,
    max_dependence_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateReport", "IntegralEstimate", "SrdEstimate", "ThresholdChoice",
    "certify", "choose_threshold", "frequency_integral", "srd_integral",
    "ConfigError", "DivergentNormError", "QuadratureError", "RejectionError",
    "SrdcertError",
    "Kernel", "box_kernel", "check_integrability", "gaussian_kernel",
    "powerlaw_kernel", "tabulated_kernel", "tent_kernel",
    "CompoundPoisson", "LevyTriplet", "NO_JUMPS", "SymmetricStable",
    "TabulatedMeasure", "check_negdef_inequalities", "cumulant",
    "cumulant_re", "gaussian_triplet", "poisson_triplet", "stable_triplet",
    "FieldSample", "ProbeMeasure", "SimConfig", "covariance_bound_check",
    "empirical_char", "factorization_check", "finite_discrete",
    "gaussian_quantiles", "point_mass", "probe_smoothed_cov", "sample_field",
    "SpectralProfile", "build_profile", "char_marginal",
    "marginal_exponent_sq", "max_dependence_ratio",
    "__version__",
]
