"""Coverage probability and average achievable rate of the typical user.

Closed forms (PLA-based), the Rayleigh specialisations, and exact
references from the displacement theorem that bypass both the
piecewise-linear step and the paper's triple sum.  Rates are in nats per
channel use.

Each route behind a CLI column (the closed, Rayleigh and reference forms of
coverage and of rate) has an `_at` form that evaluates it at the n
points of a sweep as arrays: `params` fixes alpha and each tier's density,
power and Nakagami shape, and the points give an (n, K) array of
thresholds and an (n,) array of noise powers.  The threshold-free part
(the closed form's I_i, `model._script_i_at`, or the reference's one
exact kernel) is built once per distinct noise power, as one array
evaluation, and shared by every threshold of the sweep.  The
single-network route is the `_at` form called at the network's own point,
so element j of an `_at` result equals, bit for bit, the route called on
the network of point j.  The `_at` forms are the way to share that work
across a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import model, pla
from .model import NetworkParams

__all__ = [
    "Method",
    "CoverageResult",
    "RateResult",
    "coverage_probability",
    "coverage_probability_at",
    "coverage_rayleigh",
    "coverage_rayleigh_at",
    "coverage_reference",
    "coverage_reference_at",
    "average_rate",
    "average_rate_at",
    "rate_rayleigh",
    "rate_rayleigh_at",
    "rate_exact",
    "rate_exact_at",
]

# A closed-form probability outside [0,1] by more than this is a formula
# bug, not floating-point noise.
_CLAMP_TOL = 1e-9


class Method(Enum):
    CLOSED_FORM = "closed_form"
    RAYLEIGH_CLOSED_FORM = "rayleigh_closed_form"
    QUADRATURE_REFERENCE = "quadrature_reference"


@dataclass(frozen=True)
class CoverageResult:
    value: float
    method: Method


@dataclass(frozen=True)
class RateResult:
    value: float
    method: Method

    def __post_init__(self):
        _finite_rates(np.array([self.value]), self.method)


def _finite_rates(values: np.ndarray, method: Method) -> np.ndarray:
    """`values`, unless one of them is not finite."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ArithmeticError(f"{method.value} rate is {float(bad[0])}, not finite")
    return values


def _clamp_probability(p: np.ndarray, context: str) -> np.ndarray:
    # Written so that NaN, for which every comparison is false, fails too.
    bad = ~((-_CLAMP_TOL <= p) & (p <= 1.0 + _CLAMP_TOL))
    if bad.any():
        raise ArithmeticError(f"{context} produced probability {float(p[bad][0])}, "
                              "outside [0,1]")
    return np.clip(p, 0.0, 1.0)


def _own_point(params: NetworkParams) -> tuple[list, list]:
    """The thresholds and noise power of `params`, as the one point of an `_at` form."""
    return [[t.threshold for t in params.tiers]], [params.noise]


def _per_noise(build, noises: np.ndarray) -> np.ndarray:
    """build(distinct noise powers), one column per point: one build per distinct noise power."""
    distinct, at = np.unique(noises, return_inverse=True)
    return build(distinct)[..., at]


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


def _coverage_closed(params: NetworkParams, thresholds: np.ndarray, script_i) -> np.ndarray:
    p = sum(_tier_weights(params, thresholds, script_i, scale=math.pi))
    return _clamp_probability(p, "coverage")


def coverage_probability(params: NetworkParams) -> CoverageResult:
    """P_c = sum_i pi lambda_i P_i^(2/a) beta_i^(-2/a) I_i (PLA closed form).

    The length-1 case of `coverage_probability_at`.
    """
    p = coverage_probability_at(params, *_own_point(params))
    return CoverageResult(value=p.item(), method=Method.CLOSED_FORM)


def coverage_probability_at(params: NetworkParams, thresholds, noises) -> np.ndarray:
    """`coverage_probability` at each of n points, as an (n,) array.

    `thresholds` is (n, K) and `noises` (n,), as in the module docstring;
    the I_i are built by `model._script_i_at`'s triple sum, once, over the
    distinct noise powers.  Each of its kernel calls raises at most
    one PlaAccuracyWarning, carrying the noise powers it flags.
    """
    thresholds, noises = model._points(params, thresholds, noises)
    return _coverage_closed(params, thresholds,
                            _per_noise(partial(model._script_i_at, params), noises))


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


def _coverage_reference(params: NetworkParams, thresholds: np.ndarray, kernel) -> np.ndarray:
    e = 2.0 / params.alpha
    masses = _tier_weights(params, thresholds, _fading_moments(params), scale=math.pi)  # a_i beta_i^(-d)
    p = sum(masses) * (params.alpha / 2.0) / math.gamma(e) * kernel
    return _clamp_probability(p, "coverage reference")


def coverage_reference(params: NetworkParams) -> CoverageResult:
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
    QuadratureError.  The length-1 case of `coverage_reference_at`.
    """
    p = coverage_reference_at(params, *_own_point(params))
    return CoverageResult(value=p.item(), method=Method.QUADRATURE_REFERENCE)


def coverage_reference_at(params: NetworkParams, thresholds, noises) -> np.ndarray:
    """`coverage_reference` at each of n points, as an (n,) array.

    Arguments as in `coverage_probability_at`; one kernel quadrature
    (`_exact_kernel_at`'s) serves every distinct noise power.
    """
    thresholds, noises = model._points(params, thresholds, noises)
    return _coverage_reference(params, thresholds,
                               _per_noise(partial(_exact_kernel_at, params), noises))


def coverage_rayleigh(params: NetworkParams) -> CoverageResult:
    """Explicit exponential closed form for all-Rayleigh networks (M_i = 1).

    Algebraically identical to `coverage_probability` with the incomplete
    gammas expanded; V is the Rayleigh interference constant and U the
    noise power.  Being the same p = 0 PLA kernel, it raises the same
    PlaAccuracyWarning outside the kernel's regime: one per call, carrying
    the flagged noise powers.  The length-1 case of `coverage_rayleigh_at`.
    """
    p = coverage_rayleigh_at(params, *_own_point(params))
    return CoverageResult(value=p.item(), method=Method.RAYLEIGH_CLOSED_FORM)


def coverage_rayleigh_at(params: NetworkParams, thresholds, noises) -> np.ndarray:
    """`coverage_rayleigh` at each of n points, as an (n,) array.

    Arguments as in `coverage_probability_at`; the kernel's bracket and
    its regime check are evaluated once per distinct noise power.
    """
    thresholds, noises = model._points(params, thresholds, noises)
    if any(t.nakagami_m != 1 for t in params.tiers):
        raise ValueError("coverage_rayleigh requires M_i = 1 for every tier")

    a = params.alpha
    e = 2.0 / a
    v = (
        (2.0 * math.pi / a)
        * math.gamma(e)
        * math.gamma(1.0 - e)
        * sum(t.density * t.power**e for t in params.tiers)
    )

    def bracket(u):
        pla.check_kernel_regime(u, v, 0.0, a)
        co = pla.pla_coefficients(a)
        u_e = u**e
        w = v / u_e
        e1 = np.exp(-w * co.x1)
        e2 = np.exp(-w * co.x2)
        return (
            (1.0 - e1)
            + co.c * (e1 - e2)
            + co.m * (e1 * (co.x1 + u_e / v) - e2 * (co.x2 + u_e / v))
        )

    masses = _tier_weights(params, thresholds, (1.0,) * params.n_tiers, scale=math.pi)
    p = sum(m / v for m in masses) * _per_noise(bracket, noises)
    return _clamp_probability(p, "rayleigh coverage")


def _mean_rate_constant(params: NetworkParams, thresholds: np.ndarray, factors,
                        method: Method) -> np.ndarray:
    """The per-tier rate constants averaged with the tiers' coverage masses, at each point."""
    weights = _tier_weights(params, thresholds, factors)
    rate_constants = [model.rate_constants_at(params.alpha, beta) for beta in thresholds]
    mean = sum(w * c for w, c in zip(weights, rate_constants)) / sum(weights)
    return _finite_rates(mean, method)


def average_rate(params: NetworkParams) -> RateResult:
    """R = weighted mean of the per-tier rate constants, weights ~ coverage mass.

    The length-1 case of `average_rate_at`.
    """
    value = average_rate_at(params, *_own_point(params))
    return RateResult(value=value.item(), method=Method.CLOSED_FORM)


def average_rate_at(params: NetworkParams, thresholds, noises) -> np.ndarray:
    """`average_rate` at each of n points, as an (n,) array.

    Arguments, I_i and warnings as in `coverage_probability_at`.
    """
    thresholds, noises = model._points(params, thresholds, noises)
    return _mean_rate_constant(params, thresholds,
                               _per_noise(partial(model._script_i_at, params), noises),
                               Method.CLOSED_FORM)


def rate_rayleigh(params: NetworkParams) -> RateResult:
    """Rayleigh rate: I_i is tier-independent and cancels; no noise dependence.

    The length-1 case of `rate_rayleigh_at`.
    """
    value = rate_rayleigh_at(params, *_own_point(params))
    return RateResult(value=value.item(), method=Method.RAYLEIGH_CLOSED_FORM)


def rate_rayleigh_at(params: NetworkParams, thresholds, noises) -> np.ndarray:
    """`rate_rayleigh` at each of n points, as an (n,) array; arguments as in
    `coverage_probability_at`, the noise powers checked but not used."""
    thresholds, _ = model._points(params, thresholds, noises)
    if any(t.nakagami_m != 1 for t in params.tiers):
        raise ValueError("rate_rayleigh requires M_i = 1 for every tier")
    return _mean_rate_constant(params, thresholds, (1.0,) * params.n_tiers,
                               Method.RAYLEIGH_CLOSED_FORM)


def rate_exact(params: NetworkParams) -> RateResult:
    """Exact rate: the rate constants averaged with weights a_i beta_i^(-2/a).

    In the displacement picture of `coverage_reference` the SINR given
    coverage has the noise-free CCDF sum_i a_i max(y, beta_i)^(-d) /
    sum_i a_i beta_i^(-d), so the rate needs neither kernel nor quadrature.
    `rate_rayleigh` is its M_i = 1 case.  Tagged as the reference route.
    The length-1 case of `rate_exact_at`.
    """
    value = rate_exact_at(params, *_own_point(params))
    return RateResult(value=value.item(), method=Method.QUADRATURE_REFERENCE)


def rate_exact_at(params: NetworkParams, thresholds, noises) -> np.ndarray:
    """`rate_exact` at each of n points, as an (n,) array; arguments as in
    `coverage_probability_at`, the noise powers checked but not used."""
    thresholds, _ = model._points(params, thresholds, noises)
    return _mean_rate_constant(params, thresholds, _fading_moments(params),
                               Method.QUADRATURE_REFERENCE)
