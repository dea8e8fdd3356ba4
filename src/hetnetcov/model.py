"""Network configuration and the derived constants of the closed forms.

A K-tier network is a path-loss exponent, a noise power, and per-tier
(density, power, SINR threshold, Nakagami shape) tuples.  From these the
closed-form coverage/rate expressions need three derived quantities:

* the interference constant A (tier-summed Beta-function coefficient of
  the aggregate-interference Laplace transform),
* the per-tier coverage kernel I_i (a triple alternating sum of kernel
  integrals; depends on the tier only through its Nakagami shape),
* the per-tier rate constant A_i = ln(1+beta_i) + (alpha/2) 2F1(...).

A and the I_i involve no threshold; `_script_i_at` builds the I_i for
every noise power of a sweep at once, as arrays over the noise, which
every threshold of the sweep shares (see `analysis`'s routes).
Likewise `rate_constants_at` gives the A_i at an array of thresholds.
Both build once per distinct value through `_per_distinct`.

Thresholds and powers are linear-scale throughout; dB conversion is the
CLI's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import pla

__all__ = [
    "TierParams",
    "NetworkParams",
    "MAX_NAKAGAMI_M",
    "validate",
    "require_valid",
    "interference_constant",
    "bell_table",
    "hyp2f1_rate",
    "rate_constants_at",
    "closed_form_in_range",
]

# The largest Nakagami shape the closed form and the simulator are tested
# at.  Precision does not limit it: the triple sum behind I_i has no
# cancellation (see _script_i_by_shape), and on the exact kernel it stays
# within 1.3e-14 of the displacement form wherever it is finite, at M up to
# 40 (alpha 2.05-8, sigma^2 1e-8-1e8).  float64 range does, further out:
# sigma^(2(k-l)) overflows at sigma^2 = 1e8 from M = 40, and the PLA
# kernel's Gamma factors from (alpha/2) M + 1 > 171.6 (M = 43 at alpha = 8,
# but M = 12 at alpha = 30; see closed_form_in_range).  The cost grows as
# M^3/6 terms, 816 at M = 16, where one build takes 6 ms.
MAX_NAKAGAMI_M = 16


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


def _points(params: NetworkParams, thresholds=None, noises=None):
    """(thresholds, noises, finish) of n points of `params`, once each is checked.

    `thresholds` holds one row of K linear thresholds per point and `noises`
    one noise power per point; they come back as (K, n) and (n,) arrays,
    and `finish` gives a route's (n,) result back as it is.  With neither,
    the one point is `params`' own and `finish` returns a float; `params`
    must be valid either way.
    """
    require_valid(params)
    if thresholds is None and noises is None:
        thresholds, noises = [[t.threshold for t in params.tiers]], [params.noise]
        finish = np.ndarray.item
    elif thresholds is None or noises is None:
        raise ValueError("give both thresholds and noise powers, or neither")
    else:
        finish = np.asarray
    noises = np.array(noises, dtype=float, ndmin=1)
    if noises.ndim != 1:
        raise ValueError(f"noise powers must be a 1-d sequence, got shape {noises.shape}")
    if not (noises > 0).all():
        raise ValueError("invalid network parameters: noise power must be positive "
                         f"(got {float(noises[~(noises > 0)][0])})")
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != (noises.size, params.n_tiers):
        raise ValueError(f"thresholds must have shape (points, tiers) = "
                         f"{(noises.size, params.n_tiers)}, got {thresholds.shape}")
    if not (thresholds > 1).all():
        point, tier = np.argwhere(~(thresholds > 1))[0]
        raise ValueError("invalid network parameters: "
                         + _threshold_error(int(tier), float(thresholds[point, tier])))
    return np.ascontiguousarray(thresholds.T), noises, finish


def _threshold_error(tier_index: int, threshold: float) -> str:
    return (f"tier {tier_index}: SINR threshold must exceed 1 in linear scale "
            f"(got {threshold}); the coverage union bound is exact only under beta_i > 1")


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
            errors.append(_threshold_error(i, tier.threshold))
        # type() rather than isinstance: bool is an int subclass.
        if not (type(tier.nakagami_m) is int and tier.nakagami_m >= 1):
            errors.append(f"tier {i}: nakagami_m must be an integer >= 1 (got {tier.nakagami_m})")
        elif tier.nakagami_m > MAX_NAKAGAMI_M:
            errors.append(
                f"tier {i}: nakagami_m {tier.nakagami_m} exceeds the supported "
                f"maximum {MAX_NAKAGAMI_M} (the largest shape tested; float64 "
                "overflows in the closed form's terms at larger shapes)"
            )
    return errors


def require_valid(params: NetworkParams) -> None:
    errors = validate(params)
    if errors:
        raise ValueError("invalid network parameters: " + "; ".join(errors))


def closed_form_in_range(alpha: float, nakagami_m: int) -> bool:
    """Whether float64 holds the Gamma factors of the PLA closed form for shape M at alpha.

    The triple sum's largest t-exponent is p = (alpha/2)(M - 1), and there
    the PLA kernel's error bound evaluates Gamma(p + alpha/2 + 1), the
    largest Gamma factor of the closed forms (the kernel itself needs
    Gamma(p + 2)).  Past Gamma's float64 range, about 171.6, that raises
    OverflowError, as at alpha = 30 and M = 16; `validate` accepts such a
    network, which the reference and the simulator evaluate.
    """
    power = (alpha / 2.0) * (nakagami_m - 1)
    try:
        math.gamma(power + alpha / 2.0 + 1.0)
    except OverflowError:
        return False
    return True


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
                * float(special.beta(tier.nakagami_m - p + 2.0 / a, p - 2.0 / a))
            )
        total += tier.density * tier.power ** (2.0 / a) * inner
    return total


def bell_table(x: list[float]) -> list[list[float]]:
    """Partial Bell polynomials B_{l,r}(x_1, ..., x_{l-r+1}) as table[l][r], 0 <= r <= l <= len(x).

    Row by row through the recurrence
        B_{l,r} = sum_{j=1}^{l-r+1} C(l-1, j-1) x_j B_{l-j, r-1},
    with B_{0,0} = 1 and B_{l,0} = 0 for l > 0.  The brute-force partition
    enumeration lives in the test suite as an independent oracle.
    """
    table = [[1.0]]
    for l in range(1, len(x) + 1):
        row = [0.0]
        for r in range(1, l + 1):
            total = 0.0
            for j in range(1, l - r + 2):
                total += math.comb(l - 1, j - 1) * x[j - 1] * table[l - j][r - 1]
            row.append(total)
        table.append(row)
    return table


def _script_i_by_shape(a: float, sigma2: np.ndarray, a_const: float, shapes,
                       kernel) -> dict[int, np.ndarray]:
    """I for each Nakagami shape in `shapes` at each noise power in `sigma2`.

    Triple sum over (k, l, r) of alternating terms, each carrying a partial
    Bell polynomial of D_t = prod_{q<t} (2/alpha - q) and a kernel integral
    with U = sigma^2, V = A, and t-exponent r + (alpha/2)(k-l).
    Shapes share exponents (those of M are a subset of those of M+1), so the
    distinct exponents of every shape are collected first, in the order the
    sum meets them, and `kernel(powers)` returns the integral at each of
    them (row) and each noise power (column) in one call.  Every sum keeps
    its order of terms, and each noise power's arithmetic is elementwise,
    so it does not depend on the other noise powers.

    The sum cannot cancel: every term is non-negative.  Since 2/alpha < 1,
    D_t has t - 1 negative factors, so sign (-1)^(t-1), and each monomial
    D_j1 ... D_jr of B_{l,r} (j1 + ... + jr = l) has sign (-1)^(l-r).  A
    term is C(k, l) sigma^(2(k-l)) (-1)^l / k! * (-A)^r * B_{l,r} * K, of
    sign (-1)^(l + r + l - r) = +1 wherever the kernel K is positive.  The
    PLA kernel is bracket / V^(p+1), and where its bracket is <= 0 its
    error bound reads inf (`pla._bracket_and_bound`), which raises
    PlaAccuracyWarning; the exact kernel raises QuadratureError on a value
    that is not finite and positive.
    """
    row_of: dict[float, int] = {}  # exponent -> its row of the kernel call
    terms: dict[int, list] = {}  # shape -> (coefficient array, kernel row) per term
    for m_shape in shapes:
        if m_shape in terms:
            continue
        # l < M reads D_1..D_{M-1} only.
        d_t, d_vals = 1.0, []
        for q in range(m_shape - 1):
            d_t *= 2.0 / a - q
            d_vals.append(d_t)
        bell_of = bell_table(d_vals)
        terms[m_shape] = []
        for k in range(m_shape):
            for l in range(k + 1):
                outer = math.comb(k, l) * sigma2 ** (k - l) * (-1.0) ** l / math.factorial(k)
                for r in range(l + 1):
                    bell = bell_of[l][r]
                    if bell == 0.0:
                        continue
                    power = r + (a / 2.0) * (k - l)
                    terms[m_shape].append((outer * (-a_const) ** r * bell,
                                           row_of.setdefault(power, len(row_of))))
    kernel_at = kernel(np.array(list(row_of)))
    return {m_shape: sum((c * kernel_at[row] for c, row in shape_terms), np.zeros(sigma2.size))
            for m_shape, shape_terms in terms.items()}


def hyp2f1_rate(alpha: float, beta_threshold):
    """2F1(1, 2/alpha; 1 + 2/alpha; -1/beta) for alpha > 2, beta > 0.

    `beta_threshold` is a float, or an array for which an array is returned.
    """
    if not (alpha > 2):
        raise ValueError(f"hyp2f1_rate requires alpha > 2, got {alpha}")
    betas = np.asarray(beta_threshold, dtype=float)
    if not (betas > 0).all():
        raise ValueError(f"hyp2f1_rate requires beta > 0, got {float(betas[~(betas > 0)][0])}")
    b = 2.0 / alpha
    value = special.hyp2f1(1.0, b, 1.0 + b, -1.0 / betas)
    return value if betas.ndim else float(value)


def _per_distinct(build, values: np.ndarray) -> np.ndarray:
    """build(the distinct values of a 1-d array), one column per value: one build
    per distinct value, and no np.unique on a one-point call."""
    if values.size == 1:
        return build(values)
    distinct, at = np.unique(values, return_inverse=True)
    return build(distinct)[..., at]


def rate_constants_at(alpha: float, thresholds) -> np.ndarray:
    """ln(1 + beta) + (alpha/2) 2F1(1, 2/a; 1+2/a; -1/beta) at each threshold of a 1-d array.

    The rate constant A_i of a tier at each of its thresholds in a sweep, once per
    distinct threshold: a beta_1 sweep repeats each tier's but tier 0's, a noise sweep all.
    """
    return _per_distinct(lambda b: np.log1p(b) + (alpha / 2.0) * hyp2f1_rate(alpha, b),
                         np.array(thresholds, dtype=float, ndmin=1))


def _script_i_at(params: NetworkParams, noises: np.ndarray) -> np.ndarray:
    """The (K, n) I_i of `params` at each noise power of a 1-d array: tier i's at noises[j]
    in row i, column j.

    A once, I once per distinct Nakagami shape.  The triple sum runs once
    on the array of noise powers, with one `pla.approx_gamma_kernel_integral`
    call (as bound on `pla` when called) for every distinct t-exponent and
    the whole array.  `params` must be valid, but its own noise power is not
    used; the noise powers must be positive (`_points` checks both).
    Column j does not depend on the other noise powers.  The call raises at
    most one PlaAccuracyWarning per exponent, carrying every noise power at
    which that exponent's bound exceeds PLA_WARN_BOUND.
    """
    a_const = interference_constant(params)
    shapes = [t.nakagami_m for t in params.tiers]
    by_shape = _script_i_by_shape(
        params.alpha, noises, a_const, shapes,
        lambda powers: pla.approx_gamma_kernel_integral(noises, a_const, powers, params.alpha),
    )
    return np.array([by_shape[m] for m in shapes])
