"""Seeded Monte Carlo oracle for coverage and conditional rate.

Base stations of each tier form a Poisson point process observed in a
disk around the typical user at the origin.  Squared distances are sampled
as the arrival times of a rate lambda*pi process, which (a) reproduces the
disk PPP exactly (Poisson count, d = R sqrt(u) distance law) and (b) keeps
the near-field points identical when the radius is enlarged, so the
radius-doubling self-check measures truncation bias rather than resampling
noise.  Fading power is Gamma(M, 1), drawn by `Generator.standard_gamma`
(Marsaglia-Tsang for M >= 2, the ziggurat exponential for M = 1) into one
(BS, draw) block per geometry.  A draw uses a varying number of stream
values, but each tier's stream fills its rows sequentially, BS-major, so
the draws of the first n BSs do not depend on how many BSs follow: the
enlarged disk sees the same fading at its inner points.

Interference from beyond the disk is folded in as its expectation over
the outside process (`tail_mean_interference`); its fluctuation is
negligible for the disk sizes used here.

Coverage and rate depend on a trial only through each tier's largest
received power and the total received power.  One pass (`simulate_trials`)
stores those; `tier_max_sinr` turns them into per-tier SINRs at any noise
power, so threshold and noise sweeps share the pass.

Determinism: every (geometry, tier) pair owns RNG streams derived from
(seed, geometry index, tier index), and reductions run in geometry order,
so results are identical for any thread count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import model
from .model import NetworkParams

__all__ = [
    "SimConfig",
    "Realization",
    "Estimate",
    "Trials",
    "default_region_radius",
    "tail_mean_interference",
    "sample_geometry",
    "sample_fading",
    "snapshot_sinrs",
    "simulate_trials",
    "tier_max_sinr",
    "coverage_from_tier_max",
    "rate_from_tier_max",
    "mc_coverage",
    "mc_conditional_rate",
    "radius_doubling_drift",
]

_GEOMETRY_STREAM = 0
_FADING_STREAM = 1

# Expected number of BSs inside the default observation disk.  Chosen from
# the disk table in README (scripts/disk_table.py): at 250 the radius-doubling
# drift stays under 1e-4 and the SE matches a 2,000-BS disk's, while the
# fading sampler, whose cost grows with the BS count, runs 4-7x faster.
_DEFAULT_TARGET_COUNT = 250.0


@dataclass(frozen=True)
class SimConfig:
    """Disk radius, trial counts, and the master seed."""

    n_geometry: int
    n_fading: int
    seed: int
    region_radius: float | None = None  # None: derived from the densities

    def __post_init__(self):
        for name in ("n_geometry", "n_fading", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_geometry < 1 or self.n_fading < 1:
            raise ValueError("n_geometry and n_fading must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.region_radius is not None and not (self.region_radius > 0):
            raise ValueError(f"region_radius must be positive, got {self.region_radius}")
        if self.n_geometry * self.n_fading < 1000:
            warnings.warn(
                f"only {self.n_geometry * self.n_fading} trials; estimates will be noisy",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Realization:
    """Per-tier BS distances from the origin; angles are irrelevant at the origin."""

    distances: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Trials:
    """Per-trial sufficient statistic of one simulation pass.

    received : (n_geometry, K+1, n_fading).  Row k < K is tier k's largest
               received power P d^-alpha h (0 where the tier has no BS);
               row K is the total received power over every BS in the disk.
    tail     : mean interference from beyond the disk, added to every
               denominator.

    Neither thresholds nor the noise power enter, so one pass serves any
    threshold or noise sweep point (`tier_max_sinr`).
    """

    received: np.ndarray
    tail: float


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int


def default_region_radius(params: NetworkParams, target_count: float = _DEFAULT_TARGET_COUNT) -> float:
    """Disk radius holding ~`target_count` BSs in expectation."""
    lam_total = sum(t.density for t in params.tiers)
    return math.sqrt(target_count / (math.pi * lam_total))


def _resolve_radius(params: NetworkParams, sim: SimConfig) -> float:
    return sim.region_radius if sim.region_radius is not None else default_region_radius(params)


def tail_mean_interference(params: NetworkParams, radius: float) -> float:
    """Mean interference from BSs outside the disk: sum_m lam_m P_m M_m 2pi R^(2-a)/(a-2)."""
    a = params.alpha
    return sum(
        t.density * t.power * t.nakagami_m for t in params.tiers
    ) * 2.0 * math.pi * radius ** (2.0 - a) / (a - 2.0)


def _stream(seed: int, geometry_index: int, tier_index: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, geometry_index, tier_index, purpose)))
    )


def sample_geometry(params: NetworkParams, sim: SimConfig, stream_index: int) -> Realization:
    """One PPP realization: sorted per-tier BS distances inside the disk."""
    model.require_valid(params)
    radius = _resolve_radius(params, sim)
    r2_max = radius * radius
    per_tier = []
    for tier_index, tier in enumerate(params.tiers):
        rng = _stream(sim.seed, stream_index, tier_index, _GEOMETRY_STREAM)
        rate = tier.density * math.pi
        expected = rate * r2_max
        chunk = max(16, int(expected + 6.0 * math.sqrt(expected + 1.0)))
        gaps = -np.log(rng.random(chunk))
        arrivals = np.cumsum(gaps) / rate
        while arrivals[-1] < r2_max:
            gaps = -np.log(rng.random(max(16, chunk // 4)))
            arrivals = np.concatenate([arrivals, arrivals[-1] + np.cumsum(gaps) / rate])
        per_tier.append(np.sqrt(arrivals[arrivals < r2_max]))
    return Realization(distances=tuple(per_tier))


def sample_fading(
    params: NetworkParams, sim: SimConfig, stream_index: int, counts: Sequence[int]
) -> np.ndarray:
    """(sum(counts), n_fading) block of Gamma(M_i, 1) fading power draws.

    Rows run in tier order, then BS order: tier i owns the `counts[i]` rows
    after those of the tiers before it.  Each tier's rows are filled in
    place from its own stream by `Generator.standard_gamma`, one draw at a
    time, BS-major.  Rejection steps make the number of stream values per
    draw vary, but the fill is sequential, so the draws of the first n BSs
    do not depend on how many BSs follow them (needed by the radius-doubling
    common-random-numbers check).
    """
    block = np.empty((sum(counts), sim.n_fading))
    start = 0
    for tier_index, (tier, n_bs) in enumerate(zip(params.tiers, counts)):
        rng = _stream(sim.seed, stream_index, tier_index, _FADING_STREAM)
        rng.standard_gamma(tier.nakagami_m, out=block[start:start + n_bs])
        start += n_bs
    return block


def snapshot_sinrs(
    params: NetworkParams, realization: Realization, fading_draws: Sequence[np.ndarray]
) -> list[tuple[int, float]]:
    """SINR of every BS for a single fading snapshot (one draw per BS).

    Plain restatement of the SINR definition; the denominator of BS b is
    the sum over every other BS plus noise, with no tail compensation.
    Used directly by tests; the batched simulator pass is checked against it.
    """
    model.require_valid(params)
    received = []
    for tier_index, (tier, d, h) in enumerate(
        zip(params.tiers, realization.distances, fading_draws)
    ):
        h = np.asarray(h, dtype=float).reshape(-1)
        if h.shape[0] != d.shape[0]:
            raise ValueError(f"tier {tier_index}: {d.shape[0]} BSs but {h.shape[0]} fading draws")
        for dist, fade in zip(d, h):
            received.append((tier_index, tier.power * fade * dist ** -params.alpha))
    total = sum(r for _, r in received)
    return [
        (tier_index, r / (total - r + params.noise)) for tier_index, r in received
    ]


def simulate_trials(params: NetworkParams, sim: SimConfig, threads: int = 1) -> Trials:
    """One simulation pass: per-tier max and total received power per trial."""
    model.require_valid(params)
    radius = _resolve_radius(params, sim)
    tail = tail_mean_interference(params, radius)
    n_tiers = params.n_tiers

    out = np.zeros((sim.n_geometry, n_tiers + 1, sim.n_fading))

    def fill(g: int) -> None:
        realization = sample_geometry(params, sim, g)
        counts = [len(d) for d in realization.distances]
        # Scaled in place to the received powers P d^-alpha h.
        received = sample_fading(params, sim, g, counts)
        res = out[g]
        start = 0
        for k, (tier, d) in enumerate(zip(params.tiers, realization.distances)):
            if len(d):
                rows = received[start:start + len(d)]
                rows *= (tier.power * d ** -params.alpha)[:, None]
                rows.max(axis=0, out=res[k])
            start += len(d)
        received.sum(axis=0, out=res[n_tiers])

    if threads <= 1:
        for g in range(sim.n_geometry):
            fill(g)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, range(sim.n_geometry)))
    return Trials(received=out, tail=tail)


def tier_max_sinr(trials: Trials, noise: float) -> np.ndarray:
    """(n_geometry, K, n_fading) per-trial per-tier maximum SINR at `noise`.

    The SINR r / (T + N - r) of a BS is non-decreasing in its received
    power r, also under float rounding, so the tier maximum is the SINR of
    the tier's strongest BS; an empty tier (r = 0) gives 0.
    """
    strongest = trials.received[:, :-1]
    total = trials.received[:, -1:]
    return strongest / ((total + (noise + trials.tail)) - strongest)


def coverage_from_tier_max(tier_max: np.ndarray, thresholds: Sequence[float]) -> Estimate:
    """Coverage estimate from a `tier_max_sinr` array at given thresholds."""
    beta = np.asarray(thresholds)
    covered = (tier_max > beta[None, :, None]).any(axis=1)
    return _cluster_mean(covered)


def rate_from_tier_max(tier_max: np.ndarray, thresholds: Sequence[float]) -> tuple[Estimate, Estimate]:
    """(conditional rate, coverage) estimates from a `tier_max_sinr` array."""
    beta = np.asarray(thresholds)
    covered = (tier_max > beta[None, :, None]).any(axis=1)
    if not covered.any():
        raise RuntimeError("no covered trials; cannot condition the rate estimate")
    log_rate = np.log1p(tier_max.max(axis=1))
    a = (covered * log_rate).sum(axis=1)  # per-geometry sums
    b = covered.sum(axis=1).astype(float)
    n_geo = a.shape[0]
    ratio = a.sum() / b.sum()
    resid = a - ratio * b
    if n_geo > 1:
        se = float(np.std(resid, ddof=1) / math.sqrt(n_geo) / b.mean())
    else:
        se = math.inf
    rate = Estimate(mean=float(ratio), std_error=se, n_samples=int(covered.sum()))
    return rate, _cluster_mean(covered)


def _cluster_mean(per_trial: np.ndarray) -> Estimate:
    """Mean and geometry-clustered standard error of a (G, n_fading) array."""
    geo_means = per_trial.mean(axis=1)
    n_geo = geo_means.shape[0]
    se = float(np.std(geo_means, ddof=1) / math.sqrt(n_geo)) if n_geo > 1 else math.inf
    return Estimate(mean=float(geo_means.mean()), std_error=se, n_samples=per_trial.size)


def mc_coverage(params: NetworkParams, sim: SimConfig, threads: int = 1) -> Estimate:
    """Fraction of trials in which some BS beats its tier threshold."""
    tier_max = tier_max_sinr(simulate_trials(params, sim, threads=threads), params.noise)
    return coverage_from_tier_max(tier_max, [t.threshold for t in params.tiers])


def mc_conditional_rate(
    params: NetworkParams, sim: SimConfig, threads: int = 1
) -> tuple[Estimate, Estimate]:
    """Mean of ln(1 + max SINR) over covered trials, plus the coverage fraction."""
    tier_max = tier_max_sinr(simulate_trials(params, sim, threads=threads), params.noise)
    return rate_from_tier_max(tier_max, [t.threshold for t in params.tiers])


def radius_doubling_drift(params: NetworkParams, sim: SimConfig, threads: int = 1,
                          trials: Trials | None = None) -> float:
    """Absolute coverage change when the observation disk radius doubles.

    Shares the underlying random streams between the two radii (the inner
    points and their fading are identical), so the returned figure is the
    truncation effect itself, not resampling noise.  `trials`, if given,
    must be `simulate_trials(params, sim)`: it is the inner disk's pass,
    and only the doubled disk is simulated.
    """
    radius = _resolve_radius(params, sim)
    if trials is None:
        trials = simulate_trials(params, replace(sim, region_radius=radius), threads=threads)
    thresholds = [t.threshold for t in params.tiers]
    small = coverage_from_tier_max(tier_max_sinr(trials, params.noise), thresholds)
    large = mc_coverage(params, replace(sim, region_radius=2.0 * radius), threads=threads)
    return abs(large.mean - small.mean)
