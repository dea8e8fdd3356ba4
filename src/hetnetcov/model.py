"""Network configuration and the derived constants of the closed forms.

A K-tier network is a path-loss exponent, a noise power, and per-tier
(density, power, SINR threshold, Nakagami shape) tuples.  From these the
closed-form coverage/rate expressions need three derived quantities:

* the interference constant A (tier-summed Beta-function coefficient of
  the aggregate-interference Laplace transform),
* the per-tier coverage kernel I_i (a triple alternating sum of kernel
  integrals; depends on the tier only through its Nakagami shape),
* the per-tier rate constant A_i = ln(1+beta_i) + (alpha/2) 2F1(...).

A and the I_i involve no threshold; `derived_constants` builds them once
as a `DerivedConstants`, which every threshold of a sweep can share.

Thresholds and powers are linear-scale throughout; dB conversion is the
CLI's job.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import pla
from .specfun import beta_function, d_sequence, hyp2f1_rate, partial_bell

__all__ = [
    "TierParams",
    "NetworkParams",
    "DerivedConstants",
    "MAX_NAKAGAMI_M",
    "CancellationWarning",
    "validate",
    "require_valid",
    "interference_constant",
    "tier_script_I",
    "rate_constant",
    "derived_constants",
]

# Beyond this shape the alternating sum behind I_i loses too many digits
# in float64 to be defensible.
MAX_NAKAGAMI_M = 16


class CancellationWarning(UserWarning):
    """Alternating-sum intermediates dwarf the result; significance lost."""


@dataclass(frozen=True)
class TierParams:
    """One tier: BS density, transmit power, SINR threshold, Nakagami shape."""

    density: float
    power: float
    threshold: float  # linear scale, must exceed 1
    nakagami_m: int = 1


@dataclass(frozen=True)
class NetworkParams:
    """Path-loss exponent, noise power, and the ordered tier list."""

    alpha: float
    noise: float  # sigma^2, linear scale
    tiers: tuple[TierParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "tiers", tuple(self.tiers))

    @property
    def n_tiers(self) -> int:
        return len(self.tiers)


@dataclass(frozen=True)
class DerivedConstants:
    """The threshold-free constants of the PLA closed forms, for one network.

    A and the I_i depend on alpha, the noise power, the tier densities,
    powers and Nakagami shapes, but on no SINR threshold: one object
    serves every point of a threshold sweep.
    """

    a_constant: float
    script_i: tuple[float, ...]  # I_i per tier; tiers of equal shape share it
    network: tuple  # what they depend on, see _threshold_free

    def fits(self, params: NetworkParams) -> bool:
        """Whether these were built for `params`, whatever its thresholds."""
        return _threshold_free(params) == self.network

    def require_fits(self, params: NetworkParams) -> None:
        """Raise ValueError unless built for `params`."""
        if not self.fits(params):
            raise ValueError(
                "derived constants were built for another alpha, noise power, "
                "density, power or Nakagami shape than this network's"
            )


def _threshold_free(params: NetworkParams) -> tuple:
    """(alpha, noise, ((density, power, shape) per tier)): all but the thresholds."""
    return (
        params.alpha,
        params.noise,
        tuple((t.density, t.power, t.nakagami_m) for t in params.tiers),
    )


def validate(params: NetworkParams) -> list[str]:
    """Return every violated standing assumption (empty list means valid)."""
    errors: list[str] = []
    if not params.alpha > 2:
        errors.append(f"alpha must exceed 2 (got {params.alpha})")
    if not params.noise > 0:
        errors.append(f"noise power must be positive (got {params.noise})")
    if params.n_tiers < 1:
        errors.append("at least one tier is required")
    for i, tier in enumerate(params.tiers):
        if not tier.density > 0:
            errors.append(f"tier {i}: density must be positive (got {tier.density})")
        if not tier.power > 0:
            errors.append(f"tier {i}: power must be positive (got {tier.power})")
        if not tier.threshold > 1:
            errors.append(
                f"tier {i}: SINR threshold must exceed 1 in linear scale "
                f"(got {tier.threshold}); the coverage union bound is exact "
                "only under beta_i > 1"
            )
        # type() rather than isinstance: bool is an int subclass.
        if not (type(tier.nakagami_m) is int and tier.nakagami_m >= 1):
            errors.append(f"tier {i}: nakagami_m must be an integer >= 1 (got {tier.nakagami_m})")
        elif tier.nakagami_m > MAX_NAKAGAMI_M:
            errors.append(
                f"tier {i}: nakagami_m {tier.nakagami_m} exceeds the supported "
                f"maximum {MAX_NAKAGAMI_M} (double precision limit of the sum)"
            )
    return errors


def require_valid(params: NetworkParams) -> None:
    errors = validate(params)
    if errors:
        raise ValueError("invalid network parameters: " + "; ".join(errors))


def interference_constant(params: NetworkParams) -> float:
    """A = sum_m lambda_m P_m^(2/a) sum_p C(M_m,p) (2pi/a) B(M_m-p+2/a, p-2/a)."""
    require_valid(params)
    a = params.alpha
    total = 0.0
    for tier in params.tiers:
        inner = 0.0
        for p in range(1, tier.nakagami_m + 1):
            inner += (
                math.comb(tier.nakagami_m, p)
                * (2.0 * math.pi / a)
                * beta_function(tier.nakagami_m - p + 2.0 / a, p - 2.0 / a)
            )
        total += tier.density * tier.power ** (2.0 / a) * inner
    return total


def tier_script_I(params: NetworkParams, tier_index: int, kernel=None) -> float:
    """Per-tier coverage kernel I_i; see `derived_constants`.

    `kernel` defaults to the PLA closed form; `pla.exact_gamma_kernel_integral`
    evaluates the paper's triple sum without the approximation.
    """
    if not (0 <= tier_index < params.n_tiers):
        raise IndexError(f"tier_index {tier_index} out of range for K={params.n_tiers}")
    if kernel is None:
        kernel = pla.approx_gamma_kernel_integral
    m_shape = params.tiers[tier_index].nakagami_m
    return _script_i_by_shape(params, interference_constant(params), (m_shape,), kernel)[m_shape]


def _script_i_by_shape(params: NetworkParams, a_const: float, shapes, kernel) -> dict[int, float]:
    """I for each Nakagami shape in `shapes`, one kernel call per distinct t-exponent.

    Triple sum over (k, l, r) of alternating terms, each carrying a kernel
    integral with U = sigma^2, V = A, and t-exponent r + (alpha/2)(k-l).
    Shapes share exponents (those of M are a subset of those of M+1), and
    the kernel is deterministic, so each exponent is evaluated once; every
    sum keeps its order of terms.
    """
    a = params.alpha
    sigma2 = params.noise
    kernel_at: dict[float, float] = {}
    by_shape: dict[int, float] = {}
    for m_shape in shapes:
        if m_shape in by_shape:
            continue
        d_vals = [d_sequence(a, t) for t in range(1, m_shape + 1)]
        total = 0.0
        max_term = 0.0
        for k in range(m_shape):
            for l in range(k + 1):
                outer = math.comb(k, l) * sigma2 ** (k - l) * (-1.0) ** l / math.factorial(k)
                for r in range(l + 1):
                    bell = partial_bell(l, r, d_vals[: l - r + 1])
                    if bell == 0.0:
                        continue
                    power = r + (a / 2.0) * (k - l)
                    if power not in kernel_at:
                        kernel_at[power] = kernel(sigma2, a_const, power, a)
                    term = outer * (-a_const) ** r * bell * kernel_at[power]
                    total += term
                    max_term = max(max_term, abs(term))

        if total != 0.0 and max_term > 1e6 * abs(total):
            warnings.warn(
                f"I for Nakagami shape {m_shape}: intermediate terms up to "
                f"{max_term:.3e} against a result of {total:.3e}; significant cancellation",
                CancellationWarning,
                stacklevel=3,
            )
        by_shape[m_shape] = total
    return by_shape


def rate_constant(params: NetworkParams, tier_index: int) -> float:
    """A_i = ln(1 + beta_i) + (alpha/2) 2F1(1, 2/a; 1+2/a; -1/beta_i)."""
    require_valid(params)
    beta = params.tiers[tier_index].threshold
    return math.log1p(beta) + (params.alpha / 2.0) * hyp2f1_rate(params.alpha, beta)


def derived_constants(params: NetworkParams) -> DerivedConstants:
    """A once, I once per distinct Nakagami shape, the kernel once per distinct t-exponent.

    The kernel is the PLA closed form, `pla.approx_gamma_kernel_integral`
    as bound when called.
    """
    a_const = interference_constant(params)
    shapes = [t.nakagami_m for t in params.tiers]
    by_shape = _script_i_by_shape(params, a_const, shapes, pla.approx_gamma_kernel_integral)
    return DerivedConstants(
        a_constant=a_const,
        script_i=tuple(by_shape[m] for m in shapes),
        network=_threshold_free(params),
    )
