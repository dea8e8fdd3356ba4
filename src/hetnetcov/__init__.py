"""Coverage and rate analysis of K-tier Poisson cellular networks.

Closed-form (piecewise-linear-approximation) coverage probability and
average achievable rate under Nakagami-m fading, with two independent
oracles: the exact forms of the displacement theorem (one kernel
quadrature for coverage, none for rate) and a seeded Monte Carlo
simulation of the Poisson network.
"""

from .analysis import (
    average_rate,
    coverage_probability,
    coverage_rayleigh,
    coverage_reference,
    rate_exact,
    rate_rayleigh,
)
from .model import (
    NetworkParams,
    TierParams,
    interference_constant,
    rate_constant,
    tier_script_I,
    validate,
)
from .mcsim import Estimate, SimConfig, mc_conditional_rate, mc_coverage
from .pla import (
    PlaAccuracyWarning,
    PlaCoefficients,
    QuadratureError,
    approx_gamma_kernel_integral,
    approx_kernel_error_bound,
    exact_gamma_kernel_integral,
    pla_coefficients,
)

__version__ = "0.1.0"
