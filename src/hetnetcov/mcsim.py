"""Seeded Monte Carlo oracle for coverage and conditional rate.

Base stations of each tier form a Poisson point process observed in a
disk of the tier's own radius R_i around the typical user at the origin
(`default_region_radii`).  Squared distances are sampled as the arrival
times of a rate lambda*pi process, with gaps -ln(1 - U), which (a)
reproduces the disk PPP exactly (Poisson count, d = R sqrt(u) distance
law) and (b) keeps the near-field points identical when a radius is
enlarged, so the radius-doubling self-check measures truncation bias
rather than resampling noise.  A pass samples a tier's arrivals for a
block of geometries as one array, a row per geometry.  Fading power is
Gamma(M, 1) with integer M, drawn as -ln prod_{j<M} U_j from M uniforms
U_j on (0, 1] into one (BS, draw) block per geometry.  Each BS takes
exactly M * n_fading consecutive values of its tier's stream, BS-major,
so the draws of the first n BSs do not depend on how many BSs follow:
the enlarged disk sees the same fading at its inner points.

Interference from beyond the disks is folded in as its expectation over
the outside process (`tail_mean_interference`).  The default radii spend
the draws where that fold's error comes from: they hold its variance at
that of one common disk of `_DEFAULT_TARGET_COUNT` BSs with the fewest
expected draws, and give every tier enough BSs that a serving BS beyond
its disk is rare (see `default_region_radii`).

A tier with M_i >= 2 draws fading only in a smaller disk of radius r_i,
inside a ring that runs out to Q_i = 2 R_i.  A ring BS draws no fading:
it enters every trial of its geometry at its mean received power
P_i M_i d^-alpha, summed once per geometry from the arrivals the pass
draws anyway, and the tail mean starts at Q_i.  Given the positions, the
mean drops only the BS's fading variance, so r_i is chosen to leave the
dropped variance at that of the disk R_i (`default_region_radii` derives
it): at alpha = 3 it is 0.768 R_i at M = 2 and 0.716 R_i at M = 3, about
40% fewer fading BSs.  Every tier has a ring, and `_ring_radii` alone
sets it: at M_i = 1 it is empty (r_i = Q_i = R_i) and adds 0.  The fading
BSs are the nearest arrivals, a prefix of the ring's, so doubling R_i,
which doubles r_i and Q_i unless r_i's floor binds, keeps the inner
fading draws.

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
about 2**128 / (3 n) draws apart and their draws never overlap.  A pass
builds one generator per (tier, purpose) at jumped(0) and walks it: a
geometry that draws k uniforms, one 64-bit output each, steps it on by
one `advance` of the jump less k (`_draw`), which lands on jumped(g + 1).
A geometry's draws are thus a pure function of (seed, g, tier, purpose),
independent of the fading shapes M.  Every simulation pass is one
sequential pass over its geometries, and a fixed seed gives the same
bytes.  Passes run from several threads at once share no generator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .model import NetworkParams

__all__ = [
    "SimConfig",
    "Estimate",
    "Trials",
    "default_region_radii",
    "tail_mean_interference",
    "simulate_trials",
    "tier_max_sinr",
    "coverage_from_tier_max",
    "rate_from_tier_max",
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
# of the disks anchored at 2,000 BSs at two digits.  The drift holds at the
# table's seed 5, not at every seed: at 1,000 x 50, M = (1,1), 18 of seeds
# 5-44 exceed 1e-4 (ROADMAP, loose ends).
_DEFAULT_TARGET_COUNT = 250.0
# Bound on the coverage the default disks may miss by leaving a serving BS
# outside, the same tenth of criterion 7's bound (see default_region_radii).
_MISSED_COVERAGE = 1e-4
# Outer radius of a tier's ring, in units of its disk radius R_i (see
# default_region_radii).
_RING_FACTOR = 2.0
# Expected arrivals per block of geometries that a pass draws at once.
_BLOCK_ARRIVALS = 2.0 ** 19


@dataclass(frozen=True)
class SimConfig:
    """Trial counts and the master seed."""

    n_geometry: int
    n_fading: int
    seed: int

    def __post_init__(self):
        for name in ("n_geometry", "n_fading", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_geometry < 1 or self.n_fading < 1:
            raise ValueError("n_geometry and n_fading must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_geometry * self.n_fading < 1000:
            # Level 3 names the caller of the generated __init__.
            warnings.warn(
                f"only {self.n_geometry * self.n_fading} trials; estimates will be noisy",
                stacklevel=3,
            )


@dataclass(frozen=True)
class Trials:
    """Per-trial sufficient statistic of one simulation pass.

    received : (n_geometry, K+1, n_fading).  Row k < K is tier k's largest
               received power P d^-alpha h (0 where the tier has no BS);
               row K is the total received power over every BS in the disks,
               ring BSs at their mean.
    tail     : mean interference from beyond the disks and rings, added to
               every denominator.
    radii    : tier i's disk radius R_i, per tier (its ring runs out to
               2 R_i at M_i >= 2 and is empty at M_i = 1).

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

    Ring.  A pass at these radii draws no fading for a tier-i BS with
    M_i >= 2 between a radius r_i < R_i and Q_i = 2 R_i: it enters at its
    mean, P_i M_i d^-alpha, summed from the drawn positions.  Given the
    positions, that drops only the BS's fading variance P_i^2 d^-2alpha M_i,
    1/(M_i + 1) of its Campbell second moment.  The tier's dropped variance,
    the ring's fading part plus the whole of what lies beyond Q_i, is then
    lam_i P_i^2 M_i pi (r_i^(2 - 2 alpha) + M_i Q_i^(2 - 2 alpha)) / (alpha - 1),
    and it equals V's tier-i term, the quantity the anchor fixes, at
        r_i^(2 - 2 alpha) = (M_i + 1) R_i^(2 - 2 alpha) - M_i Q_i^(2 - 2 alpha),
    with r_i raised to hold n_min BSs (it then drops less) but not past
    R_i.  At alpha = 3 that is r_i = 0.768 R_i at M = 2 and 0.716 R_i at
    M = 3.  A fading BS costs M_i uniforms per fading sample, a ring BS one
    uniform per geometry, so the fading disk shrinks by about 40% in BSs.
    Why Q_i = 2 R_i: as Q_i grows, r_i^(2 - 2 alpha) tends to (M_i + 1)
    R_i^(2 - 2 alpha), and Q_i = 2 R_i reaches 1 - 2^(2 - 2 alpha) of that
    gain (94% at alpha = 3) with 4x the arrivals of the disk R_i; the last
    6% would take 4x more.  At M_i = 1 a fading BS costs one uniform and
    the mean keeps half its second moment, so the ring gains least and the
    tier keeps its disk.
    """
    a = params.alpha
    top = max(t.power for t in params.tiers)
    c = [t.density * (t.nakagami_m + 1) for t in params.tiers]
    w = [(t.power / top) ** 2 * t.nakagami_m for t in params.tiers]
    n_min = _serving_count(params)
    common2 = max(target_count / (math.pi * sum(t.density for t in params.tiers)),
                  n_min / (math.pi * min(t.density for t in params.tiers)))
    s2 = common2 * (sum(ci * wi ** (1.0 / a) for ci, wi in zip(c, w))
                    / sum(ci * wi for ci, wi in zip(c, w))) ** (1.0 / (a - 1.0))
    return tuple(math.sqrt(max(s2 * wi ** (1.0 / a), n_min / (math.pi * t.density)))
                 for t, wi in zip(params.tiers, w))


def _serving_count(params: NetworkParams) -> float:
    """n_min, the expected BSs a tier's disk holds at least (see
    `default_region_radii`)."""
    return 2.0 * math.log(2.0 * params.n_tiers / _MISSED_COVERAGE)


def tail_mean_interference(params: NetworkParams, radii: Sequence[float]) -> float:
    """Mean interference from BSs outside the disks, tier i's of radius radii[i]:
    sum_i lam_i P_i M_i 2pi R_i^(2-a)/(a-2)."""
    a = params.alpha
    return sum(
        t.density * t.power * t.nakagami_m * r ** (2.0 - a)
        for t, r in zip(params.tiers, radii, strict=True)
    ) * 2.0 * math.pi / (a - 2.0)


def _stream(seed: int, tier_index: int, purpose: int, g: int) -> np.random.Generator:
    """A generator at numpy's
    `PCG64DXSM(SeedSequence((seed, tier_index, purpose))).jumped(g)`."""
    return np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence((seed, tier_index, purpose))).jumped(g))


def _draw(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with uniforms on [0, 1) from `rng`, at some geometry g's
    state, and step `rng` on to geometry g + 1's.

    `Generator.random` takes one 64-bit output per float64, so k values
    leave the state k steps past jumped(g), and an advance by the jump
    less k lands on jumped(g + 1), also at k = 0.
    """
    rng.random(out=out)
    rng.bit_generator.advance((_JUMP - out.size) % 2**128)
    return out


def _arrivals(params: NetworkParams, seed: int, first_g: int, n: int,
              fading_radii: Sequence[float], outer_radii: Sequence[float],
              streams: Sequence[np.random.Generator],
              ) -> tuple[list[tuple], np.ndarray]:
    """Geometries first_g, ..., first_g + n - 1, drawn out to the outer radii.

    `streams` holds tier i's geometry generator at geometry first_g, and is
    left at first_g + n.  Returns each geometry's per-tier sorted distances
    of the arrivals inside the fading radii, and each geometry's ring term,
    the sum over tiers of P_i M_i d^-alpha over tier i's arrivals between
    its fading and outer radius (0 from a tier whose two radii are equal).
    """
    per_tier, ring = [], np.zeros(n)
    for tier_index, (tier, r, q, rng) in enumerate(
            zip(params.tiers, fading_radii, outer_radii, streams, strict=True)):
        distances, sums = _distances(rng, (seed, tier_index, first_g), tier.density * math.pi,
                                     q * q, n, r * r, params.alpha)
        per_tier.append(distances)
        ring += tier.power * tier.nakagami_m * sums
    return list(zip(*per_tier)), ring


def _distances(rng: np.random.Generator, key: tuple[int, int, int], rate: float,
               r2_max: float, n: int, r2_fading: float,
               alpha: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Sorted distances of one tier's arrivals of rate `rate` below
    `r2_fading` <= `r2_max`, for n geometries, a row each, drawn from `rng`
    (see `_arrivals`), and each geometry's sum of d^-alpha over its
    arrivals from `r2_fading` to `r2_max`, its ring (0 where the two are
    equal).  `key` is (seed, tier_index, first geometry), from which a row
    whose chunk ends inside the disk rebuilds its geometry's stream to draw
    on.

    Each row is one chunk of uniforms from its geometry's stream, and the
    gaps, their running sums and the distances are taken for all rows at
    once.  The gaps between squared distances are -ln(1 - U) / rate, U
    from `Generator.random` on [0, 1), so no gap is infinite.  A chunk
    holds the expected count plus six standard deviations (at least 16);
    a row whose chunk ends inside the disk (a chance below 3e-6 for any
    expected count) draws further chunks of its stream.
    """
    expected = rate * r2_max
    chunk = max(16, int(expected + 6.0 * math.sqrt(expected + 1.0)))
    arrivals = np.empty((n, chunk))
    for row in arrivals:
        _draw(rng, row)
    np.subtract(1.0, arrivals, out=arrivals)
    np.log(arrivals, out=arrivals)
    np.negative(arrivals, out=arrivals)
    np.cumsum(arrivals, axis=1, out=arrivals)
    arrivals /= rate
    counts = np.count_nonzero(arrivals < r2_max, axis=1)
    # Rows whose chunk ends inside the disk, before the square root.
    short = {i: arrivals[i].copy() for i in np.flatnonzero(counts == chunk)}
    ring = np.zeros(n)
    if r2_fading < r2_max:
        # d^-alpha = (d^2)^(-alpha/2), taken on the ring's columns only, so
        # a fading arrival at d = 0 adds 0, not inf * 0.
        in_ring = (arrivals >= r2_fading) & (arrivals < r2_max)
        ring = np.power(arrivals, -0.5 * alpha, out=np.zeros_like(arrivals),
                        where=in_ring).sum(axis=1)
        counts = np.count_nonzero(arrivals < r2_fading, axis=1)
    # Only the columns that hold a returned distance need the square root.
    head = arrivals[:, :counts.max(initial=0)]
    np.sqrt(head, out=head)
    distances = [row[:count] for row, count in zip(arrivals, counts)]
    seed, tier_index, first_g = key
    for i, row in short.items():
        extra = _stream(seed, tier_index, _GEOMETRY_STREAM, first_g + i)
        extra.bit_generator.advance(chunk)  # past the chunk's values
        while row[-1] < r2_max:
            gaps = -np.log(1.0 - extra.random(max(16, chunk // 4)))
            row = np.concatenate([row, row[-1] + np.cumsum(gaps) / rate])
        row = row[:np.searchsorted(row, r2_max)]
        inside = np.searchsorted(row, r2_fading)
        ring[i] = np.sum(row[inside:] ** (-0.5 * alpha))
        distances[i] = np.sqrt(row[:inside])
    return distances, ring


def _log_fading(params: NetworkParams, n_fading: int, counts: Sequence[int],
                streams: Sequence[np.random.Generator]) -> np.ndarray:
    """(sum(counts), n_fading) block of ln prod_{j<M} U_j, the negated
    Gamma(M_i, 1) fading powers, tier i's drawn from streams[i] at some
    geometry g, which `_draw` leaves at g + 1.

    Rows run in tier order, then BS order: tier i owns the `counts[i]` rows
    after those of the tiers before it.  For integer M, Gamma(M, 1) is
    -ln prod_{j<M} U_j with U_j independent uniforms on (0, 1].  Each tier
    draws one (BS, M, n_fading) array of `Generator.random` values from its
    own stream, BS-major (at M = 1 straight into its output rows), and
    takes U = 1 - value, so no factor is 0.  BS b of a tier thus uses
    exactly the M * n_fading stream values after the first b * M * n_fading,
    and the draws of the first n BSs do not depend on how many BSs follow
    them (needed by the radius-doubling common-random-numbers check).
    """
    block = np.empty((sum(counts), n_fading))
    start = 0
    for tier, n_bs, rng in zip(params.tiers, counts, streams):
        rows = block[start:start + n_bs]
        if tier.nakagami_m == 1:
            _draw(rng, rows)
            np.subtract(1.0, rows, out=rows)
        else:
            u = _draw(rng, np.empty((n_bs, tier.nakagami_m, n_fading)))
            np.subtract(1.0, u, out=u)
            np.multiply(u[:, 0], u[:, 1], out=rows)
            for j in range(2, tier.nakagami_m):
                rows *= u[:, j]
        np.log(rows, out=rows)
        start += n_bs
    return block


def simulate_trials(params: NetworkParams, sim: SimConfig,
                    radii: tuple[float, ...] | None = None) -> Trials:
    """One simulation pass: per-tier max and total received power per trial.

    Tier i is observed at radius radii[i], by default its disk R_i of
    `default_region_radii`.  A tier with M_i >= 2 draws fading only inside
    r_i <= radii[i], with a ring out to 2 radii[i] (`_ring_radii`).  The
    geometries run one after another, in one sequential pass.  The
    network is validated here, before any draw, and not again per geometry.
    """
    model.require_valid(params)
    if radii is None:
        radii = default_region_radii(params)
    fading, outer = _ring_radii(params, radii)
    out = np.zeros((sim.n_geometry, params.n_tiers + 1, sim.n_fading))
    _fill(params, sim, fading, outer, out)
    return Trials(received=out, tail=tail_mean_interference(params, outer), radii=radii)


def _ring_radii(params: NetworkParams,
                radii: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(fading radii r_i, outer radii Q_i) of tiers observed at radii R_i.

    A tier with M_i = 1 has an empty ring, r_i = Q_i = R_i.  One with M_i >= 2
    has Q_i = 2 R_i and r_i^(2 - 2 alpha) = (M_i + 1) R_i^(2 - 2 alpha) -
    M_i Q_i^(2 - 2 alpha), raised to hold `_serving_count` BSs but never
    past R_i (the derivation is in `default_region_radii`).
    """
    e = 2.0 - 2.0 * params.alpha
    n_min = _serving_count(params)
    fading, outer = list(radii), list(radii)
    for i, (t, radius) in enumerate(zip(params.tiers, radii, strict=True)):
        m = t.nakagami_m
        if m > 1:
            outer[i] = q = _RING_FACTOR * radius
            r = ((m + 1) * radius ** e - m * q ** e) ** (1.0 / e)
            fading[i] = min(radius, max(r, math.sqrt(n_min / (math.pi * t.density))))
    return tuple(fading), tuple(outer)


def _fill(params: NetworkParams, sim: SimConfig, fading_radii: Sequence[float],
          outer_radii: Sequence[float], out: np.ndarray) -> None:
    """Write the pass's rows into `out`, tier i's fading BSs inside
    fading_radii[i] and its ring out to outer_radii[i].

    The geometries are drawn in blocks of about `_BLOCK_ARRIVALS` expected
    arrivals, so the arrival arrays stay bounded at any n_geometry.  Each
    (tier, purpose) has one generator for the pass, which every geometry's
    draws step on to the next geometry's stream (`_draw`), so a geometry's
    draws do not depend on its block.
    """
    n_tiers = params.n_tiers
    per_geometry = sum(t.density * math.pi * q * q for t, q in zip(params.tiers, outer_radii))
    block = max(1, int(_BLOCK_ARRIVALS / per_geometry))
    # Negative: `_log_fading` gives -h, and (-P) w (-h) is P w h exactly.
    scales = [-tier.power for tier in params.tiers]
    geometry, fading = ([_stream(sim.seed, i, purpose, 0) for i in range(n_tiers)]
                        for purpose in (_GEOMETRY_STREAM, _FADING_STREAM))
    for first_g in range(0, len(out), block):
        rows = out[first_g:first_g + block]
        distances, ring = _arrivals(params, sim.seed, first_g, len(rows), fading_radii,
                                    outer_radii, geometry)
        for tiers, res in zip(distances, rows):
            counts = [len(d) for d in tiers]
            # Scaled in place to the received powers P d^-alpha h.
            received = _log_fading(params, sim.n_fading, counts, fading)
            start = 0
            for k, (scale, d) in enumerate(zip(scales, tiers)):
                if len(d):
                    tier_rows = received[start:start + len(d)]
                    tier_rows *= (scale * d ** -params.alpha)[:, None]
                    tier_rows.max(axis=0, out=res[k])
                start += len(d)
            received.sum(axis=0, out=res[n_tiers])
        rows[:, n_tiers] += ring[:, None]


def tier_max_sinr(trials: Trials, noise: float) -> np.ndarray:
    """(n_geometry, K, n_fading) per-trial per-tier maximum SINR at `noise`.

    The SINR r / (T + N - r) of a BS is non-decreasing in its received
    power r, also under float rounding, so the tier maximum is the SINR of
    the tier's strongest BS; an empty tier (r = 0) gives 0.
    """
    strongest = trials.received[:, :-1]
    # One buffer: (total + (noise + tail) - strongest) and then the ratio,
    # the same operations in the same order as the written-out expression.
    sinr = np.empty_like(strongest)
    np.add(trials.received[:, -1:], noise + trials.tail, out=sinr)
    sinr -= strongest
    return np.divide(strongest, sinr, out=sinr)


def _covered(tier_max: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """(n_geometry, n_fading) flags of the trials in which some tier's
    maximum SINR beats its threshold, one threshold per tier."""
    beta = np.asarray(thresholds)
    if beta.shape != (tier_max.shape[1],):
        raise ValueError(f"{beta.size} thresholds for {tier_max.shape[1]} tiers")
    return (tier_max > beta[None, :, None]).any(axis=1)


def coverage_from_tier_max(tier_max: np.ndarray, thresholds: Sequence[float]) -> Estimate:
    """Coverage estimate, with its geometry-clustered standard error, from a
    `tier_max_sinr` array at given thresholds."""
    geo_means = _covered(tier_max, thresholds).mean(axis=1)
    n_geo = geo_means.shape[0]
    se = float(np.std(geo_means, ddof=1) / math.sqrt(n_geo)) if n_geo > 1 else math.inf
    return Estimate(mean=float(geo_means.mean()), std_error=se)


def rate_from_tier_max(tier_max: np.ndarray, thresholds: Sequence[float]) -> Estimate:
    """Estimate of the mean of ln(1 + max SINR) over the covered trials of a
    `tier_max_sinr` array."""
    covered = _covered(tier_max, thresholds)
    if not covered.any():
        raise RuntimeError("no covered trials; cannot condition the rate estimate")
    log_rate = tier_max.max(axis=1)  # ln(1 + max SINR), zeroed where not covered
    np.log1p(log_rate, out=log_rate)
    log_rate *= covered
    a = log_rate.sum(axis=1)  # per-geometry sums
    b = covered.sum(axis=1).astype(float)
    n_geo = a.shape[0]
    ratio = a.sum() / b.sum()
    resid = a - ratio * b
    if n_geo > 1:
        se = float(np.std(resid, ddof=1) / math.sqrt(n_geo) / b.mean())
    else:
        se = math.inf
    return Estimate(mean=float(ratio), std_error=se)


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
    doubled = simulate_trials(params, sim, tuple(2.0 * r for r in trials.radii))
    small, large = (coverage_from_tier_max(tier_max_sinr(t, params.noise), thresholds)
                    for t in (trials, doubled))
    return abs(large.mean - small.mean)
