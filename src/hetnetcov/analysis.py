"""Coverage probability and average achievable rate of the typical user.

Closed forms (PLA-based) and exact references from the displacement
theorem that bypass both the piecewise-linear step and the paper's
triple sum.  Rates are in nats per channel use.  The paper's Rayleigh
corollary is the closed form at M_i = 1; there the I_i are equal, so
they cancel from the rate, which is then `rate_exact`.

Each route is called as route(params, thresholds=None, noises=None).
`params` fixes alpha and each tier's density, power and Nakagami shape.
Given an (n, K) array of thresholds and an (n,) array of noise powers,
the route evaluates those n points and returns an (n,) array; given
neither, it evaluates `params`' own thresholds and noise power and
returns a float; given one alone, it raises ValueError (`model._points`).
The threshold-free part (the closed form's I_i, `model._script_i_at`'s
one PLA kernel call for every exponent of the triple sum, or the
reference's one exact kernel) is built once per distinct noise power
(`model._per_distinct`), as one array evaluation, and shared by every
threshold of the sweep.  The float is the one-point array's element, so
element j of an array result equals, bit for bit, the route called on
the network of point j.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import model, pla
from .model import NetworkParams

__all__ = [
    "coverage_probability",
    "coverage_reference",
    "average_rate",
    "rate_exact",
]

# A closed-form probability outside [0,1] by more than this is a formula
# bug, not floating-point noise.
_CLAMP_TOL = 1e-9


def _finite_rates(values: np.ndarray, context: str) -> np.ndarray:
    """`values`, unless one of them is not finite."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ArithmeticError(f"{context} is {float(bad[0])}, not finite")
    return values


def _clamp_probability(p: np.ndarray, context: str) -> np.ndarray:
    # Written so that NaN, for which every comparison is false, fails too.
    bad = ~((-_CLAMP_TOL <= p) & (p <= 1.0 + _CLAMP_TOL))
    if bad.any():
        raise ArithmeticError(f"{context} produced probability {float(p[bad][0])}, "
                              "outside [0,1]")
    return p.clip(0.0, 1.0)


def _tier_weights(params: NetworkParams, thresholds: np.ndarray, factors,
                  scale: float = 1.0) -> list[np.ndarray]:
    """scale lambda_i P_i^(2/a) beta_i^(-2/a) f_i for each tier, at each point.

    `thresholds` is (K, n), and factors[i] is a float or an (n,) array: the
    closed form's I_i or, for the exact forms, E[h_i^(2/a)].  These are the
    tiers' coverage masses; scale = pi makes them the tiers' coverage terms.
    """
    e = 2.0 / params.alpha
    return [
        scale * t.density * t.power**e * beta ** -e * f
        for t, beta, f in zip(params.tiers, thresholds, factors)
    ]


def coverage_probability(params: NetworkParams, thresholds=None, noises=None):
    """P_c = sum_i pi lambda_i P_i^(2/a) beta_i^(-2/a) I_i (PLA closed form).

    Points as in the module docstring; the I_i are built by
    `model._script_i_at`'s triple sum, once, over the distinct noise
    powers.  Its one kernel call raises at most one PlaAccuracyWarning per
    t-exponent, carrying the noise powers that exponent flags.
    """
    thresholds, noises, finish = model._points(params, thresholds, noises)
    script_i = model._per_distinct(partial(model._script_i_at, params), noises)
    p = sum(_tier_weights(params, thresholds, script_i, scale=math.pi))
    return finish(_clamp_probability(p, "coverage"))


def _fading_moments(params: NetworkParams) -> list[float]:
    """E[h_i^(2/a)] = Gamma(M_i + 2/a) / Gamma(M_i) for each tier's Gamma(M_i, 1) power."""
    e = 2.0 / params.alpha
    return [math.gamma(t.nakagami_m + e) / math.gamma(t.nakagami_m) for t in params.tiers]


def _exact_kernel_at(params: NetworkParams, noises: np.ndarray) -> np.ndarray:
    """K(sigma^2, a Gamma(1-d), 0) of `coverage_reference` at each noise power, in one
    `pla.exact_gamma_kernel_integral` call."""
    e = 2.0 / params.alpha
    a_total = math.pi * sum(t.density * t.power**e * g
                            for t, g in zip(params.tiers, _fading_moments(params)))
    return pla.exact_gamma_kernel_integral(
        noises, a_total * math.gamma(1.0 - e), 0.0, params.alpha)


def coverage_reference(params: NetworkParams, thresholds=None, noises=None):
    """Exact coverage from the displacement theorem, with one kernel quadrature.

    The received powers P_i h |x|^(-alpha) of tier i form a Poisson process
    on (0, inf) with intensity measure a_i y^(-d) on [y, inf), where
    d = 2/alpha and a_i = pi lambda_i P_i^d E[h_i^d].  With every
    beta_i > 1 at most one BS covers, so (Dhillon, Ganti, Baccelli &
    Andrews, IEEE JSAC 2012, for Rayleigh fading; Blaszczyszyn & Keeler,
    arXiv:1401.4005, for any fading)

        P_c = sum_i a_i beta_i^(-d) (alpha/2) / Gamma(d) K(sigma^2, a Gamma(1-d), 0),

    with a = sum_i a_i and K the exact kernel integral at t-exponent 0.
    It shares neither the PLA nor the paper's triple sum with the closed
    form, so it is the yardstick for both; quadrature failures surface as
    QuadratureError.  Points as in the module docstring; one kernel
    quadrature (`_exact_kernel_at`'s) serves every distinct noise power.
    """
    thresholds, noises, finish = model._points(params, thresholds, noises)
    kernel = model._per_distinct(partial(_exact_kernel_at, params), noises)
    e = 2.0 / params.alpha
    masses = _tier_weights(params, thresholds, _fading_moments(params), scale=math.pi)  # a_i beta_i^(-d)
    p = sum(masses) * (params.alpha / 2.0) / math.gamma(e) * kernel
    return finish(_clamp_probability(p, "coverage reference"))


def _mean_rate_constant(params: NetworkParams, thresholds: np.ndarray, factors,
                        context: str) -> np.ndarray:
    """The per-tier rate constants averaged with the tiers' coverage masses, at each point."""
    weights = _tier_weights(params, thresholds, factors)
    rate_constants = [model.rate_constants_at(params.alpha, beta) for beta in thresholds]
    mean = sum(w * c for w, c in zip(weights, rate_constants)) / sum(weights)
    return _finite_rates(mean, context)


def average_rate(params: NetworkParams, thresholds=None, noises=None):
    """R = weighted mean of the per-tier rate constants, weights ~ coverage mass.

    Points, I_i and warnings as in `coverage_probability`.
    """
    thresholds, noises, finish = model._points(params, thresholds, noises)
    script_i = model._per_distinct(partial(model._script_i_at, params), noises)
    return finish(_mean_rate_constant(params, thresholds, script_i, "rate"))


def rate_exact(params: NetworkParams, thresholds=None, noises=None):
    """Exact rate: the rate constants averaged with weights a_i beta_i^(-2/a).

    In the displacement picture of `coverage_reference` the SINR given
    coverage has the noise-free CCDF sum_i a_i max(y, beta_i)^(-d) /
    sum_i a_i beta_i^(-d), so the rate needs neither kernel nor quadrature.
    At M_i = 1 it is the closed form's rate.  Points as in the module
    docstring, the noise powers checked but not used.
    """
    thresholds, _, finish = model._points(params, thresholds, noises)
    return finish(_mean_rate_constant(params, thresholds, _fading_moments(params),
                                      "exact rate"))
