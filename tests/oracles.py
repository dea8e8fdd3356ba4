"""Independent oracles that the tests check the package against.

Nothing here is used by the command line or by the library routes:

* `conditional_ccdf` and `rate_reference`, the closed form's SINR CCDF given
  coverage and its piecewise quadrature, which `analysis.average_rate`
  integrates exactly (acceptance criterion 4);
* `geometry_range`, `sample_geometry` and `sample_fading`, a range of
  geometries' arrivals and one geometry's arrivals and fading block, drawn
  through the simulator's own samplers from generators built at the first
  geometry's stream state;
* `snapshot_sinrs`, the SINR definition restated per BS, which the
  simulator pass is checked against;
* `pla_surrogate`, the PLA's three-piece line itself;
* `script_i`, the per-tier triple sum I_i on any kernel, the exact one
  included.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import integrate

from hetnetcov import mcsim, model
from hetnetcov.model import NetworkParams
from hetnetcov.pla import PlaCoefficients, QuadratureError

# Relative accuracy `rate_reference` demands of each quadrature piece.
_RATE_REL_TOL = 1e-8


def _conditional_ccdf(params: NetworkParams):
    """y -> P(X > y | coverage) = sum_i w_i(y) / sum_i w_i(0) of `params`, once it is checked.

    w_i(y) = lambda_i P_i^(2/a) max(y, beta_i)^(-2/a) I_i, with the closed
    form's I_i (`model._script_i_at`) at the network's own thresholds and
    noise power.
    """
    thresholds, noises, _ = model._points(params)
    script_i = model._script_i_at(params, noises)
    e = 2.0 / params.alpha

    def mass(y):
        return sum(t.density * t.power**e * np.maximum(y, beta) ** -e * f
                   for t, beta, f in zip(params.tiers, thresholds, script_i))

    den = mass(0.0)
    return lambda y: (mass(y) / den).item()


def conditional_ccdf(params: NetworkParams, y: float) -> float:
    """P(X > y | coverage): raised-threshold coverage over baseline coverage.

    Equals 1 for y <= min_i beta_i, is non-increasing, and -> 0 as y -> inf.
    """
    ccdf = _conditional_ccdf(params)
    if y < 0:
        raise ValueError(f"conditional_ccdf requires y >= 0, got {y}")
    return ccdf(y)


def rate_reference(params: NetworkParams) -> float:
    """Quadrature of int_0^inf P(X > y | C) / (1 + y) dy.

    Integrated piecewise between the tier thresholds (the CCDF has kinks
    there) plus an analytic-free tail integral; agrees with `average_rate`
    to quadrature accuracy since the closed form integrates the same CCDF
    exactly.  It integrates the PLA closed form's CCDF; `rate_exact` is the
    exact rate.  A total that is not finite raises ArithmeticError.
    """
    ccdf = _conditional_ccdf(params)
    thresholds = sorted({t.threshold for t in params.tiers})

    total = 0.0
    # Below min beta the CCDF is exactly 1.
    total += math.log1p(thresholds[0])
    for lo, hi in zip(thresholds, thresholds[1:]):
        part, err = integrate.quad(lambda y: ccdf(y) / (1.0 + y), lo, hi,
                                   epsabs=0.0, epsrel=_RATE_REL_TOL * 0.01, limit=200)
        _check_quad(part, err)
        total += part
    tail, err = integrate.quad(lambda y: ccdf(y) / (1.0 + y), thresholds[-1],
                               math.inf, epsabs=0.0, epsrel=_RATE_REL_TOL * 0.01, limit=200)
    _check_quad(tail, err)
    total += tail
    if not math.isfinite(total):
        raise ArithmeticError(f"rate reference is {total}, not finite")
    return total


def _check_quad(value: float, abserr: float) -> None:
    if value != 0.0 and abserr > _RATE_REL_TOL * abs(value):
        raise QuadratureError(
            f"rate quadrature did not converge: value={value}, abserr={abserr}"
        )


def geometry_range(params: NetworkParams, seed: int, first_g: int, n: int,
                   fading_radii: Sequence[float], outer_radii: Sequence[float]):
    """`mcsim._arrivals` of geometries first_g, ..., first_g + n - 1, from
    geometry generators built at first_g."""
    streams = [mcsim._stream(seed, i, mcsim._GEOMETRY_STREAM, first_g)
               for i in range(params.n_tiers)]
    return mcsim._arrivals(params, seed, first_g, n, fading_radii, outer_radii, streams)


def sample_geometry(params: NetworkParams, sim: mcsim.SimConfig, g: int,
                    radii: Sequence[float] | None = None) -> tuple[np.ndarray, ...]:
    """Geometry g's sorted per-tier BS distances, tier i's inside radius
    radii[i] (by default the sim's disks); angles are irrelevant at the
    origin."""
    model.require_valid(params)
    if radii is None:
        radii = mcsim._radii(params, sim)
    (distances,), _ = geometry_range(params, sim.seed, g, 1, radii, radii)
    return distances


def sample_fading(params: NetworkParams, sim: mcsim.SimConfig, g: int,
                  counts: Sequence[int]) -> np.ndarray:
    """Geometry g's (sum(counts), n_fading) block of Gamma(M_i, 1) fading
    powers, tier i's `counts[i]` rows after those of the tiers before it
    (`mcsim._log_fading`, negated)."""
    model.require_valid(params)
    streams = [mcsim._stream(sim.seed, i, mcsim._FADING_STREAM, g)
               for i in range(params.n_tiers)]
    block = mcsim._log_fading(params, sim.n_fading, counts, streams)
    return np.negative(block, out=block)


def snapshot_sinrs(params: NetworkParams, distances: Sequence[np.ndarray],
                   fading_draws: Sequence[np.ndarray]) -> list[tuple[int, float]]:
    """SINR of every BS for a single fading snapshot (one draw per BS).

    Plain restatement of the SINR definition; the denominator of BS b is
    the sum over every other BS (b's term replaced by an exact 0, nothing
    subtracted) plus noise, with no tail compensation.
    """
    model.require_valid(params)
    received = []
    for tier_index, (tier, d, h) in enumerate(zip(params.tiers, distances, fading_draws)):
        h = np.asarray(h, dtype=float).reshape(-1)
        if h.shape[0] != d.shape[0]:
            raise ValueError(f"tier {tier_index}: {d.shape[0]} BSs but {h.shape[0]} fading draws")
        for dist, fade in zip(d, h):
            received.append((tier_index, tier.power * fade * dist ** -params.alpha))
    powers = np.array([r for _, r in received])
    others = np.where(np.eye(len(powers), dtype=bool), 0.0, powers).sum(axis=1)
    return [
        (tier_index, r / (other + params.noise))
        for (tier_index, r), other in zip(received, others)
    ]


def pla_surrogate(x: float, coeff: PlaCoefficients) -> float:
    """The three-piece approximation of exp(-x^(alpha/2)) itself."""
    if x <= coeff.x1:
        return 1.0
    if x >= coeff.x2:
        return 0.0
    return coeff.m * x + coeff.c


def script_i(params: NetworkParams, kernel) -> list[float]:
    """Each tier's I_i at the network's own noise power, the triple sum of
    `model._script_i_by_shape` on kernel(noise, A, power, alpha), called once
    per exponent."""
    a_const = model.interference_constant(params)
    shapes = [t.nakagami_m for t in params.tiers]
    by_shape = model._script_i_by_shape(
        params.alpha, np.array([params.noise]), a_const, shapes,
        lambda powers: np.array([[kernel(params.noise, a_const, power, params.alpha)]
                                 for power in powers.tolist()]))
    return [float(by_shape[m][0]) for m in shapes]
