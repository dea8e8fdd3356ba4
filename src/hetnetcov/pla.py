"""Piecewise-linear surrogate for exp(-x^(alpha/2)) and the kernel integral.

The canonical integral

    int_0^inf exp(-V t - U t^(alpha/2)) t^p dt        (alpha > 2, U, V > 0)

shows up in every term of the coverage sum.  Replacing exp(-x^(alpha/2))
by a three-piece linear surrogate (1 below x1, m x + c between the knots,
0 above x2) turns each term into a short combination of lower incomplete
gamma functions.  `exact_gamma_kernel_integral` is the adaptive-quadrature
reference used to measure the approximation loss.

The surrogate is accurate only where the integrand mass sits near the
origin.  `approx_kernel_error_bound` bounds its relative error a priori, in
closed form, and `approx_gamma_kernel_integral` raises `PlaAccuracyWarning`
whenever that bound exceeds `PLA_WARN_BOUND`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from scipy import integrate, special

__all__ = [
    "PLA_WARN_BOUND",
    "PlaAccuracyWarning",
    "PlaCoefficients",
    "QuadratureError",
    "pla_coefficients",
    "pla_surrogate",
    "approx_gamma_kernel_integral",
    "approx_kernel_error_bound",
    "check_kernel_regime",
    "exact_gamma_kernel_integral",
    "lower_incomplete_gamma",
]

# exp(-746) underflows in float64; nothing representable lies beyond this.
_EXP_UNDERFLOW = 745.0

# A closed-form kernel whose a-priori relative error bound exceeds this
# raises PlaAccuracyWarning.
PLA_WARN_BOUND = 0.05


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class PlaAccuracyWarning(UserWarning):
    """The PLA kernel is outside its regime: its error bound exceeds PLA_WARN_BOUND."""


@dataclass(frozen=True)
class PlaCoefficients:
    """Knots and line parameters of the surrogate for exp(-x^(alpha/2))."""

    alpha: float
    m: float   # slope, negative
    c: float   # intercept
    x0: float  # inflection point, where the line is tangent
    x1: float  # left knot: m x1 + c = 1
    x2: float  # right knot: m x2 + c = 0


@functools.lru_cache(maxsize=64)
def pla_coefficients(alpha: float) -> PlaCoefficients:
    """Line through the inflection point of exp(-x^(alpha/2)), clipped to [0, 1].

    x0 = (1 - 2/alpha)^(2/alpha) is the inflection point, m the derivative
    there, c the matching intercept; x1, x2 solve m x + c = 1 and 0.
    Cached: every kernel evaluation of a sweep shares one alpha.
    """
    if not (alpha > 2):
        raise ValueError(f"pla_coefficients requires alpha > 2, got {alpha}")
    s = 1.0 - 2.0 / alpha  # in (0, 1)
    x0 = s ** (2.0 / alpha)
    m = -(alpha / 2.0) * s ** s * math.exp(-s)
    c = (alpha / 2.0) * math.exp(-s)
    x1 = (1.0 - c) / m
    x2 = -c / m
    return PlaCoefficients(alpha=alpha, m=m, c=c, x0=x0, x1=x1, x2=x2)


def pla_surrogate(x: float, coeff: PlaCoefficients) -> float:
    """The three-piece approximation itself (used by tests and plots)."""
    if x <= coeff.x1:
        return 1.0
    if x >= coeff.x2:
        return 0.0
    return coeff.m * x + coeff.c


def approx_gamma_kernel_integral(u: float, v: float, power: float, alpha: float) -> float:
    """Closed-form approximation of int_0^inf e^(-v t - u t^(alpha/2)) t^power dt.

    `power` is the (real, >= 0) exponent of t; the classical statement with
    integrand t^(n/2) corresponds to power = n/2.  Raises PlaAccuracyWarning
    when `approx_kernel_error_bound` exceeds PLA_WARN_BOUND; the returned
    value is the same either way.
    """
    _check_kernel_args(u, v, power, alpha)
    coeff = pla_coefficients(alpha)
    w, bracket = _scaled_bracket(u, v, power, coeff)
    _warn_outside_regime(_error_bound(w, bracket, power, coeff), u, v, power, alpha)
    return bracket / v ** (power + 1.0)


def approx_kernel_error_bound(u: float, v: float, power: float, alpha: float) -> float:
    """A-priori bound on |approx - exact| / exact for the kernel integral.

    Substituting x = u^(2/alpha) t scales out u: the relative error depends
    only on w = v / u^(2/alpha), the power p and alpha.  With
    f(x) = exp(-x^(alpha/2)), g the surrogate and A (resp. A_hat) the
    integral of e^(-w x) x^p against f (resp. g), the error is
    A_hat - A = D_left - D_right, split at the inflection point x0 where the
    surrogate's line is tangent:

    * On [0, x0] f is concave, so g >= f, and g - f <= 1 - f <= x^(alpha/2):
        D_left <= B_left = gamma(p + alpha/2 + 1, w x0) / w^(p + alpha/2 + 1).
    * On [x0, inf) f is convex, so 0 <= g <= f, and f - g <= f.  Since
      x^(alpha/2) is convex, x^(alpha/2) >= x0^(alpha/2) + kappa (x - x0)
      with kappa = (alpha/2) x0^(alpha/2 - 1), so f(x) <= f(x0) e^(-kappa (x - x0)):
        D_right <= B_right = f(x0) e^(kappa x0) Gamma(p + 1, (w + kappa) x0) / (w + kappa)^(p + 1).

    An underestimate has A = A_hat + d with 0 <= d <= D_right, an
    overestimate A = A_hat - d with 0 <= d <= D_left, and d / A is
    increasing in d in both cases, so

        |A_hat - A| / A <= max(B_right / (A_hat + B_right), B_left / (A_hat - B_left)),

    read as infinite when B_left >= A_hat.  Both B are incomplete gammas and
    A_hat is the closed form itself: no quadrature and no fitted constant.
    The bound is tight as w -> inf, where the overshoot near the origin
    dominates, and loose at small w.
    """
    _check_kernel_args(u, v, power, alpha)
    coeff = pla_coefficients(alpha)
    w, bracket = _scaled_bracket(u, v, power, coeff)
    return _error_bound(w, bracket, power, coeff)


def check_kernel_regime(u: float, v: float, power: float, alpha: float) -> float:
    """Return `approx_kernel_error_bound`, raising PlaAccuracyWarning above PLA_WARN_BOUND.

    For closed forms that expand the PLA kernel inline instead of calling
    `approx_gamma_kernel_integral`.
    """
    bound = approx_kernel_error_bound(u, v, power, alpha)
    _warn_outside_regime(bound, u, v, power, alpha)
    return bound


def lower_incomplete_gamma(s: float, x: float) -> float:
    """gamma(s, x) = int_0^x t^(s-1) e^(-t) dt for s > 0, x >= 0.

    scipy's regularized `gammainc` times Gamma(s).
    """
    if not (s > 0):
        raise ValueError(f"lower_incomplete_gamma requires s > 0, got s={s}")
    if x < 0:
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got x={x}")
    return float(special.gammainc(s, x) * math.gamma(s))


def _scaled_bracket(u: float, v: float, power: float, coeff: PlaCoefficients):
    """(w, bracket): the closed form is bracket / v^(power+1), or bracket / w^(power+1) scaled."""
    alpha = coeff.alpha
    w = v / u ** (2.0 / alpha)  # scaled knot argument

    g1_x1 = lower_incomplete_gamma(power + 1.0, w * coeff.x1)
    g1_x2 = lower_incomplete_gamma(power + 1.0, w * coeff.x2)
    g2_x1 = lower_incomplete_gamma(power + 2.0, w * coeff.x1)
    g2_x2 = lower_incomplete_gamma(power + 2.0, w * coeff.x2)

    bracket = (
        g1_x1
        + coeff.c * (g1_x2 - g1_x1)
        + (u ** (2.0 / alpha) / v) * coeff.m * (g2_x2 - g2_x1)
    )
    return w, bracket


def _error_bound(w: float, bracket: float, power: float, coeff: PlaCoefficients) -> float:
    """The bound of `approx_kernel_error_bound`, with B_left and B_right taken relative to A_hat."""
    if not bracket > 0.0:
        return math.inf
    half_alpha = coeff.alpha / 2.0
    x0 = coeff.x0
    kappa = half_alpha * x0 ** (half_alpha - 1.0)
    # B_left / A_hat and B_right / A_hat, with A_hat = bracket / w^(p+1)
    s_left = power + half_alpha + 1.0
    left = special.gammainc(s_left, w * x0) * math.gamma(s_left) / (bracket * w**half_alpha)
    if left >= 1.0:
        return math.inf
    right = (
        special.gammaincc(power + 1.0, (w + kappa) * x0) * math.gamma(power + 1.0)
        * math.exp(kappa * x0 - x0**half_alpha) * (w / (w + kappa)) ** (power + 1.0)
        / bracket
    )
    return max(right / (1.0 + right), left / (1.0 - left))


def _warn_outside_regime(bound: float, u: float, v: float, power: float, alpha: float) -> None:
    if bound > PLA_WARN_BOUND:
        warnings.warn(
            f"PLA kernel error bound {bound:.1%} exceeds {PLA_WARN_BOUND:.0%} at "
            f"U={u:.6g}, V={v:.6g}, power={power:g}, alpha={alpha:g} "
            f"(w = V/U^(2/alpha) = {v / u ** (2.0 / alpha):.4g}); the closed form "
            "may be far from the exact integral",
            PlaAccuracyWarning,
            stacklevel=3,
        )


def exact_gamma_kernel_integral(
    u: float, v: float, power: float, alpha: float, rel_tol: float = 1e-10
) -> float:
    """Adaptive quadrature of int_0^inf e^(-v t - u t^(alpha/2)) t^power dt.

    The upper limit is truncated where the exponent reaches the float64
    underflow bound, so no representable tail mass is discarded.  Raises
    QuadratureError if the estimated error exceeds `rel_tol` relative.
    """
    _check_kernel_args(u, v, power, alpha)

    half_alpha = alpha / 2.0

    def integrand(t: float) -> float:
        if t <= 0.0:
            return 1.0 if power == 0 else 0.0
        e = -v * t - u * t ** half_alpha + power * math.log(t)
        return math.exp(e) if e > -_EXP_UNDERFLOW else 0.0

    t_max = _underflow_point(u, v, half_alpha)

    # Interior maximum of the full integrand, handed to quad as a breakpoint.
    points = []
    if power > 0:
        t_peak = power / v  # peak of t^p e^(-vt); good enough as a hint
        if 0.0 < t_peak < t_max:
            points.append(t_peak)

    result, abserr = integrate.quad(
        integrand, 0.0, t_max, points=points or None, limit=500,
        epsabs=0.0, epsrel=rel_tol * 0.1,
    )
    if result <= 0.0 or abserr > rel_tol * abs(result):
        raise QuadratureError(
            f"kernel quadrature (u={u}, v={v}, power={power}, alpha={alpha}) "
            f"did not converge: result={result}, abserr={abserr}"
        )
    return result


def _underflow_point(u: float, v: float, half_alpha: float) -> float:
    """Solve v t + u t^(alpha/2) = underflow bound by bisection; the upper end.

    Up to 200 halvings; the loop stops early once the midpoint equals an
    end, since from then on no halving changes either end.
    """
    lo, hi = 0.0, 1.0
    while v * hi + u * hi ** half_alpha < _EXP_UNDERFLOW:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if v * mid + u * mid ** half_alpha < _EXP_UNDERFLOW:
            lo = mid
        else:
            hi = mid
    return hi


def _check_kernel_args(u: float, v: float, power: float, alpha: float) -> None:
    if not (u > 0):
        raise ValueError(f"kernel integral requires U > 0, got {u}")
    if not (v > 0):
        raise ValueError(f"kernel integral requires V > 0, got {v}")
    if power < 0:
        raise ValueError(f"kernel integral requires power >= 0, got {power}")
    if not (alpha > 2):
        raise ValueError(f"kernel integral requires alpha > 2, got {alpha}")
