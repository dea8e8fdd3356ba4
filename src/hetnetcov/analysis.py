"""Coverage probability and average achievable rate of the typical user.

Closed forms (PLA-based), the Rayleigh specialisations, and exact
references from the displacement theorem that bypass both the
piecewise-linear step and the paper's triple sum.  Rates are in nats per
channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from scipy import integrate

from . import model, pla
from .model import DerivedConstants, NetworkParams
from .pla import QuadratureError

__all__ = [
    "Method",
    "CoverageResult",
    "RateResult",
    "coverage_probability",
    "coverage_rayleigh",
    "ReferenceKernel",
    "reference_kernel",
    "coverage_reference",
    "conditional_ccdf",
    "average_rate",
    "rate_rayleigh",
    "rate_exact",
    "rate_reference",
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
        if not math.isfinite(self.value):
            raise ArithmeticError(f"{self.method.value} rate is {self.value}, not finite")


def _clamp_probability(p: float, context: str) -> float:
    # Written so that NaN, for which every comparison is false, fails too.
    if not -_CLAMP_TOL <= p <= 1.0 + _CLAMP_TOL:
        raise ArithmeticError(f"{context} produced probability {p}, outside [0,1]")
    return min(max(p, 0.0), 1.0)


def _tier_weights(params: NetworkParams, factors, scale: float = 1.0,
                  y: float = 0.0) -> list[float]:
    """scale lambda_i P_i^(2/a) max(y, beta_i)^(-2/a) f_i for each tier.

    f_i is the closed form's I_i or, for the exact forms, E[h_i^(2/a)].
    With y = 0 (below every threshold) these are the tiers' coverage
    masses; scale = pi makes them the tiers' coverage terms.
    """
    e = 2.0 / params.alpha
    return [
        scale * t.density * t.power**e * max(y, t.threshold) ** -e * f
        for t, f in zip(params.tiers, factors)
    ]


def _conditional_ccdf(params: NetworkParams, factors):
    """y -> P(X > y | coverage) = sum_i w_i(y) / sum_i w_i(0), w_i from `_tier_weights`."""
    den = sum(_tier_weights(params, factors))
    return lambda y: sum(_tier_weights(params, factors, y=y)) / den


def _constants_for(params: NetworkParams, constants: DerivedConstants | None) -> DerivedConstants:
    """`constants` if given (checked against `params`), else built."""
    if constants is None:
        return model.derived_constants(params)
    model.require_valid(params)
    constants.require_fits(params)
    return constants


def coverage_probability(params: NetworkParams, *,
                         constants: DerivedConstants | None = None) -> CoverageResult:
    """P_c = sum_i pi lambda_i P_i^(2/a) beta_i^(-2/a) I_i (PLA closed form).

    `constants` from `model.derived_constants`, built at any thresholds,
    are used instead of being rebuilt; constants built for another network
    raise ValueError.
    """
    script_i = _constants_for(params, constants).script_i
    p = sum(_tier_weights(params, script_i, scale=math.pi))
    return CoverageResult(value=_clamp_probability(p, "coverage"), method=Method.CLOSED_FORM)


def _fading_moments(params: NetworkParams) -> list[float]:
    """E[h_i^(2/a)] = Gamma(M_i + 2/a) / Gamma(M_i) for each tier's Gamma(M_i, 1) power."""
    e = 2.0 / params.alpha
    return [math.gamma(t.nakagami_m + e) / math.gamma(t.nakagami_m) for t in params.tiers]


@dataclass(frozen=True)
class ReferenceKernel:
    """The exact kernel K(sigma^2, a Gamma(1-d), 0) of `coverage_reference`.

    Like `model.DerivedConstants` it involves no threshold: one object
    serves every point of a threshold sweep.
    """

    value: float
    network: tuple  # model._threshold_free of the network it was built for

    def fits(self, params: NetworkParams) -> bool:
        """Whether this was built for `params`, whatever its thresholds."""
        return model._threshold_free(params) == self.network


def reference_kernel(params: NetworkParams) -> ReferenceKernel:
    """The one kernel quadrature of `coverage_reference`, for reuse across thresholds."""
    model.require_valid(params)
    e = 2.0 / params.alpha
    a_total = math.pi * sum(t.density * t.power**e * g
                            for t, g in zip(params.tiers, _fading_moments(params)))
    k = pla.exact_gamma_kernel_integral(params.noise, a_total * math.gamma(1.0 - e),
                                        0.0, params.alpha)
    return ReferenceKernel(value=k, network=model._threshold_free(params))


def coverage_reference(params: NetworkParams, *,
                       kernel: ReferenceKernel | None = None) -> CoverageResult:
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
    QuadratureError.  A `kernel` from `reference_kernel`, built at any
    thresholds, is used instead of the quadrature; one built for another
    network raises ValueError.
    """
    if kernel is None:
        kernel = reference_kernel(params)
    else:
        model.require_valid(params)
        if not kernel.fits(params):
            raise ValueError(
                "reference kernel was built for another alpha, noise power, "
                "density, power or Nakagami shape than this network's"
            )
    e = 2.0 / params.alpha
    masses = _tier_weights(params, _fading_moments(params), scale=math.pi)  # a_i beta_i^(-d)
    p = sum(masses) * (params.alpha / 2.0) / math.gamma(e) * kernel.value
    return CoverageResult(value=_clamp_probability(p, "coverage reference"),
                          method=Method.QUADRATURE_REFERENCE)


def coverage_rayleigh(params: NetworkParams) -> CoverageResult:
    """Explicit exponential closed form for all-Rayleigh networks (M_i = 1).

    Algebraically identical to `coverage_probability` with the incomplete
    gammas expanded; V is the Rayleigh interference constant and U the
    noise power.  Being the same p = 0 PLA kernel, it raises the same
    PlaAccuracyWarning outside the kernel's regime.
    """
    model.require_valid(params)
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
    u = params.noise
    pla.check_kernel_regime(u, v, 0.0, a)
    co = pla.pla_coefficients(a)
    w = v / u**e
    e1 = math.exp(-w * co.x1)
    e2 = math.exp(-w * co.x2)
    bracket = (
        (1.0 - e1)
        + co.c * (e1 - e2)
        + co.m * (e1 * (co.x1 + u**e / v) - e2 * (co.x2 + u**e / v))
    )
    p = sum(
        math.pi * t.density * t.power**e * t.threshold**-e / v for t in params.tiers
    ) * bracket
    return CoverageResult(value=_clamp_probability(p, "rayleigh coverage"), method=Method.RAYLEIGH_CLOSED_FORM)


def conditional_ccdf(params: NetworkParams, y: float) -> float:
    """P(X > y | coverage): raised-threshold coverage over baseline coverage.

    Equals 1 for y <= min_i beta_i, is non-increasing, and -> 0 as y -> inf.
    """
    model.require_valid(params)
    if y < 0:
        raise ValueError(f"conditional_ccdf requires y >= 0, got {y}")
    return _conditional_ccdf(params, model.derived_constants(params).script_i)(y)


def _mean_rate_constant(params: NetworkParams, factors) -> float:
    """The per-tier rate constants averaged with the tiers' coverage masses."""
    weights = _tier_weights(params, factors)
    rate_constants = [model.rate_constant(params, i) for i in range(params.n_tiers)]
    return sum(w * c for w, c in zip(weights, rate_constants)) / sum(weights)


def average_rate(params: NetworkParams, *,
                 constants: DerivedConstants | None = None) -> RateResult:
    """R = weighted mean of the per-tier rate constants, weights ~ coverage mass.

    `constants` as in `coverage_probability`.
    """
    script_i = _constants_for(params, constants).script_i
    return RateResult(value=_mean_rate_constant(params, script_i), method=Method.CLOSED_FORM)


def rate_rayleigh(params: NetworkParams) -> RateResult:
    """Rayleigh rate: I_i is tier-independent and cancels; no noise dependence."""
    model.require_valid(params)
    if any(t.nakagami_m != 1 for t in params.tiers):
        raise ValueError("rate_rayleigh requires M_i = 1 for every tier")
    value = _mean_rate_constant(params, (1.0,) * params.n_tiers)
    return RateResult(value=value, method=Method.RAYLEIGH_CLOSED_FORM)


def rate_exact(params: NetworkParams) -> RateResult:
    """Exact rate: the rate constants averaged with weights a_i beta_i^(-2/a).

    In the displacement picture of `coverage_reference` the SINR given
    coverage has the noise-free CCDF sum_i a_i max(y, beta_i)^(-d) /
    sum_i a_i beta_i^(-d), so the rate needs neither kernel nor quadrature.
    `rate_rayleigh` is its M_i = 1 case.  Tagged as the reference route.
    """
    model.require_valid(params)
    value = _mean_rate_constant(params, _fading_moments(params))
    return RateResult(value=value, method=Method.QUADRATURE_REFERENCE)


def rate_reference(params: NetworkParams, rel_tol: float = 1e-8, *,
                   constants: DerivedConstants | None = None) -> RateResult:
    """Quadrature of int_0^inf P(X > y | C) / (1 + y) dy.

    Integrated piecewise between the tier thresholds (the CCDF has kinks
    there) plus an analytic-free tail integral; agrees with `average_rate`
    to quadrature accuracy since the closed form integrates the same CCDF
    exactly.  It integrates the PLA closed form's CCDF, with `constants`
    as in `coverage_probability`; `rate_exact` is the exact rate.
    """
    ccdf = _conditional_ccdf(params, _constants_for(params, constants).script_i)
    thresholds = sorted({t.threshold for t in params.tiers})

    total = 0.0
    # Below min beta the CCDF is exactly 1.
    total += math.log1p(thresholds[0])
    for lo, hi in zip(thresholds, thresholds[1:]):
        part, err = integrate.quad(lambda y: ccdf(y) / (1.0 + y), lo, hi,
                                   epsabs=0.0, epsrel=rel_tol * 0.01, limit=200)
        _check_quad(part, err, rel_tol)
        total += part
    tail, err = integrate.quad(lambda y: ccdf(y) / (1.0 + y), thresholds[-1],
                               math.inf, epsabs=0.0, epsrel=rel_tol * 0.01, limit=200)
    _check_quad(tail, err, rel_tol)
    total += tail
    return RateResult(value=total, method=Method.QUADRATURE_REFERENCE)


def _check_quad(value: float, abserr: float, rel_tol: float) -> None:
    if value != 0.0 and abserr > rel_tol * abs(value):
        raise QuadratureError(
            f"rate quadrature did not converge: value={value}, abserr={abserr}"
        )
