"""Seeded Monte Carlo oracle for coverage and conditional rate.

Base stations of each tier form a Poisson point process observed in a
disk of the tier's own radius R_i around the typical user at the origin
(`default_region_radii`; a config that sets `sim.region_radius` gives
every tier that one radius).  Squared distances are sampled as the arrival
times of a rate lambda*pi process, with gaps -ln(1 - U), which (a)
reproduces the disk PPP exactly (Poisson count, d = R sqrt(u) distance
law) and (b) keeps the near-field points identical when a radius is
enlarged, so the radius-doubling self-check measures truncation bias
rather than resampling noise.  A pass samples a tier's arrivals for its
whole range of geometries as one array, a row per geometry
(`sample_geometries`).  Fading power is Gamma(M, 1) with integer
M, drawn as -ln prod_{j<M} U_j from M uniforms U_j on (0, 1] into one
(BS, draw) block per geometry.  Each BS takes exactly M * n_fading
consecutive values of its tier's stream, BS-major, so the draws of the
first n BSs do not depend on how many BSs follow: the enlarged disk sees
the same fading at its inner points.

Interference from beyond the disks is folded in as its expectation over
the outside process (`tail_mean_interference`).  The default radii spend
the draws where that fold's error comes from: they hold its variance at
that of one common disk of `_DEFAULT_TARGET_COUNT` BSs with the fewest
expected draws, and give every tier enough BSs that a serving BS beyond
its disk is rare (see `default_region_radii`).

Coverage and rate depend on a trial only through each tier's largest
received power and the total received power.  One pass (`simulate_trials`)
stores those; `tier_max_sinr` turns them into per-tier SINRs at any noise
power, so threshold and noise sweeps share the pass.

Determinism: each (seed, tier, purpose) triple, the purpose being geometry
or fading, seeds one PCG64DXSM generator from
SeedSequence((seed, tier, purpose)), and geometry g draws from that
generator's state jumped g times, that is from numpy's documented
`PCG64DXSM(SeedSequence((seed, tier, purpose))).jumped(g)`.  A jump is
(golden ratio - 1) * 2**128 draws, so any n geometries start at least
about 2**128 / (3 n) draws apart and their draws never overlap.  A range
of geometries draws one purpose from a generator of its own
(`_Streams`).  It reaches the range's first geometry by setting the base
state and advancing it by first_g jumps, and each later one by the jump
map: a jump takes the 128-bit LCG state s to a s + c mod 2**128, with a
and c read once per (seed, tier, purpose) off numpy's own `advance`, so
the stepped states are still numpy's `jumped(g)`.  A geometry's draws are
thus a pure function of (seed, g, tier, purpose), independent of the
fading shapes M.  Every simulation pass is one sequential pass over its
geometries, and a fixed seed gives the same bytes.  Passes run from
several threads at once share no generator.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .model import NetworkParams

__all__ = [
    "SimConfig",
    "Realization",
    "Estimate",
    "Trials",
    "default_region_radii",
    "tail_mean_interference",
    "sample_geometry",
    "sample_geometries",
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
# The state step of numpy's PCG64DXSM.jumped(): (golden ratio - 1) * 2**128,
# rounded to an odd integer.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

# Expected number of BSs of the common disk whose tail variance the default
# per-tier disks keep.  Chosen from the disk table in README
# (scripts/disk_table.py): at 250 every radius-doubling drift stays within
# 1e-4, a tenth of acceptance criterion 7's bound, and every SE equals that
# of the disks anchored at 2,000 BSs at two digits.
_DEFAULT_TARGET_COUNT = 250.0
# Bound on the coverage the default disks may miss by leaving a serving BS
# outside, the same tenth of criterion 7's bound (see default_region_radii).
_MISSED_COVERAGE = 1e-4


@dataclass(frozen=True)
class SimConfig:
    """Disk radius, trial counts, and the master seed."""

    n_geometry: int
    n_fading: int
    seed: int
    region_radius: float | None = None  # None: per-tier default_region_radii

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
               row K is the total received power over every BS in the disks.
    tail     : mean interference from beyond the disks, added to every
               denominator.
    radii    : tier i's disk radius, per tier.

    Neither thresholds nor the noise power enter, so one pass serves any
    threshold or noise sweep point (`tier_max_sinr`).
    """

    received: np.ndarray
    tail: float
    radii: tuple[float, ...]


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int


def default_region_radii(params: NetworkParams,
                         target_count: float = _DEFAULT_TARGET_COUNT) -> tuple[float, ...]:
    """Observation disk radius R_i of each tier: the fewest expected draws for
    the tail variance of one common disk of `target_count` BSs, with at
    least n_min BSs of every tier in the common disk and in each R_i's.

    Rule.  A geometry draws M_i + 1 values (M_i uniforms and a received
    power) per tier-i BS and fading sample, so its expected draws are
    proportional to D = sum_i c_i pi R_i^2 with c_i = lam_i (M_i + 1).  The
    interference from beyond the disks enters as its mean; by Campbell's
    theorem, with E[h^2] = M (M + 1) for Gamma(M, 1) fading, its variance is
    V = sum_i c_i w_i pi R_i^(2 - 2 alpha) / (alpha - 1), w_i = P_i^2 M_i.
    Minimising D at fixed V (Lagrange: c_i R_i proportional to
    c_i w_i R_i^(1 - 2 alpha)) gives R_i^2 = s^2 w_i^(1/alpha), and V equals
    that of a common disk of radius R_0 at
    s^2 = R_0^2 (sum_i c_i w_i^(1/alpha) / sum_i c_i w_i)^(1 / (alpha - 1)).
    A tier that dominates the tail (strong or high M) gets a wide disk and
    a weak dense tier a narrow one; one tier keeps R_0.  R_i does not change
    when every power is scaled, so P_i is taken relative to the largest.

    Floor.  A disk also decides which BSs can serve.  The k-th nearest BS
    of a tier has the k - 1 nearer ones of its tier among its interferers,
    each at least as strong in path loss, so with beta_i > 1 it covers only
    if h_k > sum_{j<k} h_j.  For i.i.d. Gamma(M) fading that has probability
    P(Beta(M, (k - 1) M) > 1/2) <= 2^-(k-1), with equality at M = 1 (the
    tests check every supported M).  With N ~ Poisson(n) BSs in the disk,
    the BSs beyond it cover with probability at most
    E[sum_{k>N} 2^-(k-1)] = E[2^(1-N)] = 2 exp(-n/2), as at most one BS
    covers when beta > 1.  Over K tiers that is 2 K exp(-n/2), and holding
    it to `_MISSED_COVERAGE` = 1e-4 gives n_min = 2 ln(2 K / 1e-4): 19.8
    BSs for one tier, 21.2 for two.

    So R_0^2 is target_count / (pi sum_i lam_i), raised where needed to
    hold n_min BSs of the sparsest tier: a common disk that cuts a tier's
    serving BSs has a variance that measures that cut, not the tail.  Each
    R_i is then raised to hold n_min BSs.  A wider disk only lowers V, so
    the result keeps at least the common disk's accuracy by V.
    """
    a = params.alpha
    top = max(t.power for t in params.tiers)
    c = [t.density * (t.nakagami_m + 1) for t in params.tiers]
    w = [(t.power / top) ** 2 * t.nakagami_m for t in params.tiers]
    n_min = 2.0 * math.log(2.0 * params.n_tiers / _MISSED_COVERAGE)
    common2 = max(target_count / (math.pi * sum(t.density for t in params.tiers)),
                  n_min / (math.pi * min(t.density for t in params.tiers)))
    s2 = common2 * (sum(ci * wi ** (1.0 / a) for ci, wi in zip(c, w))
                    / sum(ci * wi for ci, wi in zip(c, w))) ** (1.0 / (a - 1.0))
    return tuple(math.sqrt(max(s2 * wi ** (1.0 / a), n_min / (math.pi * t.density)))
                 for t, wi in zip(params.tiers, w))


def _radii(params: NetworkParams, sim: SimConfig) -> tuple[float, ...]:
    """The sim's disk radius per tier."""
    if sim.region_radius is not None:
        return (sim.region_radius,) * params.n_tiers
    return default_region_radii(params)


def tail_mean_interference(params: NetworkParams, radii: Sequence[float]) -> float:
    """Mean interference from BSs outside the disks, tier i's of radius radii[i]:
    sum_i lam_i P_i M_i 2pi R_i^(2-a)/(a-2)."""
    a = params.alpha
    return sum(
        t.density * t.power * t.nakagami_m * r ** (2.0 - a)
        for t, r in zip(params.tiers, radii, strict=True)
    ) * 2.0 * math.pi / (a - 2.0)


@functools.lru_cache(maxsize=1024)
def _jump_map(seed: int, tier_index: int, purpose: int) -> tuple[dict, int, int]:
    """(base state, a, c) of the (seed, tier_index, purpose) stream: one jump
    takes its 128-bit LCG state s to a * s + c mod 2**128.

    PCG64DXSM's step is affine in the state at a fixed increment, and so is
    any number of steps; a and c are read off numpy's own `advance(_JUMP)`
    at the states 0 and 1.
    """
    bit_generator = np.random.PCG64DXSM(np.random.SeedSequence((seed, tier_index, purpose)))
    base = bit_generator.state
    jumped = []
    for s in (0, 1):
        state = dict(base, state=dict(base["state"], state=s))
        bit_generator.state = state
        bit_generator.advance(_JUMP)
        jumped.append(bit_generator.state["state"]["state"])
    return base, (jumped[1] - jumped[0]) % 2**128, jumped[0]


class _Streams:
    """One purpose's streams of every tier, for geometries first_g to
    first_g + n - 1, on a generator of their own.

    `at(g, tier_index)` is that generator in the state of numpy's
    `PCG64DXSM(SeedSequence((seed, tier_index, purpose))).jumped(g)`, valid
    until the next `at`.  The states of first_g are reached by one `advance`
    each; those of the later geometries are stepped by the jump map
    (`_jump_map`), which costs less than an `advance`.
    """

    def __init__(self, seed: int, purpose: int, n_tiers: int, first_g: int, n: int):
        self.first_g = first_g
        self.rng = np.random.Generator(np.random.PCG64DXSM())
        bit_generator = self.rng.bit_generator
        self.templates, self.states = [], []
        for tier_index in range(n_tiers):
            base, a, c = _jump_map(seed, tier_index, purpose)
            bit_generator.state = base
            bit_generator.advance(first_g * _JUMP % 2**128)
            template = bit_generator.state
            s = template["state"]["state"]
            states = [s]
            for _ in range(n - 1):
                s = (a * s + c) % 2**128
                states.append(s)
            self.templates.append(template)
            self.states.append(states)

    def at(self, g: int, tier_index: int) -> np.random.Generator:
        template = self.templates[tier_index]
        template["state"]["state"] = self.states[tier_index][g - self.first_g]
        self.rng.bit_generator.state = template
        return self.rng


def sample_geometry(params: NetworkParams, sim: SimConfig, stream_index: int,
                    radii: Sequence[float] | None = None) -> Realization:
    """One PPP realization: sorted per-tier BS distances, tier i's inside
    radius radii[i] (by default the sim's disks).

    The length-1 case of `sample_geometries`.
    """
    return sample_geometries(params, sim, stream_index, 1, radii)[0]


def sample_geometries(params: NetworkParams, sim: SimConfig, first_g: int, n: int,
                      radii: Sequence[float] | None = None) -> list[Realization]:
    """Realizations of geometries first_g, ..., first_g + n - 1, tier i's BSs
    inside radius radii[i] (by default the sim's disks).

    The gaps between squared distances are -ln(1 - U) / (lam pi), U from
    `Generator.random` on [0, 1), so no gap is infinite.  Each geometry
    draws one chunk of a tier's expected count plus six standard deviations
    (at least 16) from its own stream into one row of an (n, chunk) array,
    and the gaps, their running sums and the distances are taken for all
    rows at once.  A row whose chunk ends inside the disk draws further
    chunks of its stream, as a one-geometry loop would: for any expected
    count that is a chance below 3e-6 per row and tier.
    """
    model.require_valid(params)
    if radii is None:
        radii = _radii(params, sim)
    streams = _Streams(sim.seed, _GEOMETRY_STREAM, params.n_tiers, first_g, n)
    per_tier = [_distances(streams, tier_index, tier.density * math.pi, radius * radius, n)
                for tier_index, (tier, radius) in enumerate(zip(params.tiers, radii, strict=True))]
    return [Realization(distances=distances) for distances in zip(*per_tier)]


def _distances(streams: _Streams, tier_index: int, rate: float, r2_max: float,
               n: int) -> list[np.ndarray]:
    """Sorted distances of one tier's arrivals of rate `rate` below `r2_max`,
    for each of the n geometries of `streams`."""
    expected = rate * r2_max
    chunk = max(16, int(expected + 6.0 * math.sqrt(expected + 1.0)))
    arrivals = np.empty((n, chunk))
    for g, row in enumerate(arrivals, start=streams.first_g):
        streams.at(g, tier_index).random(out=row)
    np.subtract(1.0, arrivals, out=arrivals)
    np.log(arrivals, out=arrivals)
    np.negative(arrivals, out=arrivals)
    np.cumsum(arrivals, axis=1, out=arrivals)
    arrivals /= rate
    counts = np.count_nonzero(arrivals < r2_max, axis=1)
    # Rows whose chunk ends inside the disk, before the square root.
    short = {i: arrivals[i].copy() for i in np.flatnonzero(counts == chunk)}
    np.sqrt(arrivals, out=arrivals)
    distances = [row[:count] for row, count in zip(arrivals, counts)]
    for i, row in short.items():
        rng = streams.at(streams.first_g + i, tier_index)
        rng.bit_generator.advance(chunk)  # past the chunk's values
        while row[-1] < r2_max:
            gaps = -np.log(1.0 - rng.random(max(16, chunk // 4)))
            row = np.concatenate([row, row[-1] + np.cumsum(gaps) / rate])
        distances[i] = np.sqrt(row[:np.searchsorted(row, r2_max)])
    return distances


def sample_fading(
    params: NetworkParams, sim: SimConfig, stream_index: int, counts: Sequence[int]
) -> np.ndarray:
    """(sum(counts), n_fading) block of Gamma(M_i, 1) fading power draws.

    Rows run in tier order, then BS order: tier i owns the `counts[i]` rows
    after those of the tiers before it.  For integer M, Gamma(M, 1) is
    -ln prod_{j<M} U_j with U_j independent uniforms on (0, 1].  Each tier
    draws one (BS, M, n_fading) array of `Generator.random` values from its
    own stream, BS-major (at M = 1 straight into its output rows), and
    takes U = 1 - value, so no factor is 0.  BS b
    of a tier thus uses exactly the M * n_fading stream values after the
    first b * M * n_fading, and the draws of the first n BSs do not depend
    on how many BSs follow them (needed by the radius-doubling
    common-random-numbers check).
    """
    model.require_valid(params)
    streams = _Streams(sim.seed, _FADING_STREAM, params.n_tiers, stream_index, 1)
    block = _log_fading(params, sim.n_fading, stream_index, counts, streams)
    return np.negative(block, out=block)


def _log_fading(params: NetworkParams, n_fading: int, g: int, counts: Sequence[int],
                streams: _Streams) -> np.ndarray:
    """`sample_fading`'s block for geometry g, negated: ln prod_{j<M} U_j."""
    block = np.empty((sum(counts), n_fading))
    start = 0
    for tier_index, (tier, n_bs) in enumerate(zip(params.tiers, counts)):
        rng = streams.at(g, tier_index)
        rows = block[start:start + n_bs]
        if tier.nakagami_m == 1:
            rng.random(out=rows)
            np.subtract(1.0, rows, out=rows)
        else:
            u = rng.random((n_bs, tier.nakagami_m, n_fading))
            np.subtract(1.0, u, out=u)
            np.multiply(u[:, 0], u[:, 1], out=rows)
            for j in range(2, tier.nakagami_m):
                rows *= u[:, j]
        np.log(rows, out=rows)
        start += n_bs
    return block


def snapshot_sinrs(
    params: NetworkParams, realization: Realization, fading_draws: Sequence[np.ndarray]
) -> list[tuple[int, float]]:
    """SINR of every BS for a single fading snapshot (one draw per BS).

    Plain restatement of the SINR definition; the denominator of BS b is
    the sum over every other BS (b's term replaced by an exact 0, nothing
    subtracted) plus noise, with no tail compensation.  Used directly by
    tests; the batched simulator pass is checked against it.
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
    powers = np.array([r for _, r in received])
    others = np.where(np.eye(len(powers), dtype=bool), 0.0, powers).sum(axis=1)
    return [
        (tier_index, r / (other + params.noise))
        for (tier_index, r), other in zip(received, others)
    ]


def simulate_trials(params: NetworkParams, sim: SimConfig) -> Trials:
    """One simulation pass: per-tier max and total received power per trial.

    Tier i is observed in the sim's disk of radius R_i (`sim.region_radius`
    for every tier, or `default_region_radii`).  The geometries run one
    after another, in one sequential pass.
    """
    return _simulate(params, sim)


def _simulate(params: NetworkParams, sim: SimConfig,
              radii: tuple[float, ...] | None = None) -> Trials:
    """`simulate_trials` with tier i observed inside radius radii[i] (by
    default the sim's disks).

    The network is validated here, before any draw, and not again per
    geometry.
    """
    model.require_valid(params)
    if radii is None:
        radii = _radii(params, sim)
    out = np.zeros((sim.n_geometry, params.n_tiers + 1, sim.n_fading))
    _fill(params, sim, radii, out, 0)
    return Trials(received=out, tail=tail_mean_interference(params, radii), radii=radii)


def _fill(params: NetworkParams, sim: SimConfig, radii: tuple[float, ...],
          out: np.ndarray, first_g: int) -> None:
    """Write the pass's rows of geometries first_g, first_g + 1, ... into `out`."""
    n_tiers = params.n_tiers
    realizations = sample_geometries(params, sim, first_g, len(out), radii)
    fading = _Streams(sim.seed, _FADING_STREAM, n_tiers, first_g, len(out))
    # Negative: `_log_fading` gives -h, and (-P) w (-h) is P w h exactly.
    scales = [-tier.power for tier in params.tiers]
    for g, (realization, res) in enumerate(zip(realizations, out), start=first_g):
        counts = [len(d) for d in realization.distances]
        # Scaled in place to the received powers P d^-alpha h.
        received = _log_fading(params, sim.n_fading, g, counts, fading)
        start = 0
        for k, (scale, d) in enumerate(zip(scales, realization.distances)):
            if len(d):
                rows = received[start:start + len(d)]
                rows *= (scale * d ** -params.alpha)[:, None]
                rows.max(axis=0, out=res[k])
            start += len(d)
        received.sum(axis=0, out=res[n_tiers])


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


def mc_coverage(params: NetworkParams, sim: SimConfig) -> Estimate:
    """Fraction of trials in which some BS beats its tier threshold."""
    tier_max = tier_max_sinr(simulate_trials(params, sim), params.noise)
    return coverage_from_tier_max(tier_max, [t.threshold for t in params.tiers])


def mc_conditional_rate(params: NetworkParams, sim: SimConfig) -> tuple[Estimate, Estimate]:
    """Mean of ln(1 + max SINR) over covered trials, plus the coverage fraction."""
    tier_max = tier_max_sinr(simulate_trials(params, sim), params.noise)
    return rate_from_tier_max(tier_max, [t.threshold for t in params.tiers])


def radius_doubling_drift(params: NetworkParams, sim: SimConfig,
                          trials: Trials | None = None) -> float:
    """Absolute coverage change when every tier's disk radius doubles.

    Shares the underlying random streams between the two radii (the inner
    points and their fading are identical), so the returned figure is the
    truncation effect itself, not resampling noise.  `trials`, if given, is
    the inner disks' pass of `sim`'s trials (`simulate_trials(params, sim)`
    by default), and only the doubled disks are simulated.
    """
    if trials is None:
        trials = simulate_trials(params, sim)
    thresholds = [t.threshold for t in params.tiers]
    doubled = _simulate(params, sim, tuple(2.0 * r for r in trials.radii))
    small, large = (coverage_from_tier_max(tier_max_sinr(t, params.noise), thresholds)
                    for t in (trials, doubled))
    return abs(large.mean - small.mean)
