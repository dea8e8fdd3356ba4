"""Seeded Monte Carlo oracle for coverage and conditional rate.

Base stations of each tier form a Poisson point process observed in a
disk around the typical user at the origin.  Squared distances are sampled
as the arrival times of a rate lambda*pi process, which (a) reproduces the
disk PPP exactly (Poisson count, d = R sqrt(u) distance law) and (b) keeps
the near-field points identical when the radius is enlarged, so the
radius-doubling self-check measures truncation bias rather than resampling
noise.  Fading power is Gamma(M, 1) with integer M, drawn as
-ln prod_{j<M} U_j from M uniforms U_j on (0, 1] into one (BS, draw) block
per geometry.  Each BS takes exactly M * n_fading consecutive values of its
tier's stream, BS-major, so the draws of the first n BSs do not depend on
how many BSs follow: the enlarged disk sees the same fading at its inner
points.

Interference from beyond the disk is folded in as its expectation over
the outside process (`tail_mean_interference`); its fluctuation is
negligible for the disk sizes used here.

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
reuses its thread's generator, setting it to the base state and advancing
it by g jumps for each geometry, which costs a fifth of a fresh
SeedSequence and bit-generator build; passes run from several threads at
once share none.  A geometry's draws are thus a pure function of
(seed, g, tier, purpose), independent of the fading shapes M and of which
worker runs it, so a fixed seed gives the same results on any number of
cores.

Workers: a pass splits the geometries into one contiguous range per CPU
in the process's affinity mask (`taskset -c 0` gives one), at most one
per geometry and one per `_WORKER_DRAWS` expected draws (M uniforms and
a received power per BS and fading sample), so a small pass runs as one
worker.  It forks a child for every range but the first, which it runs
itself; each child writes its rows into an anonymous shared mapping and
leaves by `os._exit`.  The parent waits for every child before the pass
returns or raises, and runs again any range whose child failed, so an
error is raised as the one-worker pass raises it.  Forking is safe only
without other Python threads, so the pass runs as one worker off Linux,
where `os.fork` is missing, or while another Python thread is alive.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import signal
import sys
import threading
import warnings
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
# The state step of numpy's PCG64DXSM.jumped(): (golden ratio - 1) * 2**128,
# rounded to an odd integer.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
_thread_local = threading.local()

# Expected number of BSs inside the default observation disk.  Chosen from
# the disk table in README (scripts/disk_table.py): at 250 the radius-doubling
# drift stays under 2e-4, a fifth of acceptance criterion 7's bound, and the
# SE matches a 2,000-BS disk's, while a pass, whose cost grows with the BS
# count, runs 3-7x faster.
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


@functools.lru_cache(maxsize=1024)
def _base_state(seed: int, tier_index: int, purpose: int) -> dict:
    return np.random.PCG64DXSM(np.random.SeedSequence((seed, tier_index, purpose))).state


def _stream(seed: int, geometry_index: int, tier_index: int, purpose: int) -> np.random.Generator:
    """This thread's generator, in the state of
    `PCG64DXSM(SeedSequence((seed, tier_index, purpose))).jumped(geometry_index)`.

    The generator is reused: it is valid until the thread's next call.
    """
    rng = getattr(_thread_local, "rng", None)
    if rng is None:
        rng = _thread_local.rng = np.random.Generator(np.random.PCG64DXSM())
    bit_generator = rng.bit_generator
    bit_generator.state = _base_state(seed, tier_index, purpose)
    bit_generator.advance(geometry_index * _JUMP % 2**128)
    return rng


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
        per_tier.append(np.sqrt(arrivals[:np.searchsorted(arrivals, r2_max)]))
    return Realization(distances=tuple(per_tier))


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
    block = np.empty((sum(counts), sim.n_fading))
    start = 0
    for tier_index, (tier, n_bs) in enumerate(zip(params.tiers, counts)):
        rng = _stream(sim.seed, stream_index, tier_index, _FADING_STREAM)
        rows = block[start:start + n_bs]
        if tier.nakagami_m == 1:
            rng.random(out=rows)
            np.subtract(1.0, rows, out=rows)
        else:
            u = rng.random((n_bs, tier.nakagami_m, sim.n_fading))
            np.subtract(1.0, u, out=u)
            np.multiply(u[:, 0], u[:, 1], out=rows)
            for j in range(2, tier.nakagami_m):
                rows *= u[:, j]
        np.log(rows, out=rows)
        np.negative(rows, out=rows)
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

    The geometries are split into one contiguous range per worker (see
    Workers in the module docstring); the result does not depend on how
    many there are.
    """
    model.require_valid(params)
    radius = _resolve_radius(params, sim)
    tail = tail_mean_interference(params, radius)
    shape = (sim.n_geometry, params.n_tiers + 1, sim.n_fading)
    # Anonymous shared memory, zero-filled like np.zeros, written by every
    # worker and returned as it is.
    out = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)
    workers = _worker_count(params, sim, radius)
    bounds = [sim.n_geometry * w // workers for w in range(workers + 1)]

    def fill(w: int) -> None:
        _fill(params, sim, out[bounds[w]:bounds[w + 1]], bounds[w])

    children: dict[int, int] = {}  # pid -> index of its range
    failed = []
    try:
        for w in range(1, workers):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: those ranges run here
                failed.extend(range(w, workers))
                break
            if pid == 0:
                status = 1
                try:
                    fill(w)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = w
        fill(0)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, w in children.items():
            if os.waitpid(pid, 0)[1] != 0:
                failed.append(w)
    # A worker that raised or was killed, or could not be started, left its
    # rows unfinished: they are computed here, so an error surfaces as the
    # one-worker pass raises it.
    for w in failed:
        fill(w)
    return Trials(received=out, tail=tail)


def _fill(params: NetworkParams, sim: SimConfig, out: np.ndarray, first_g: int) -> None:
    """Write the pass's rows of geometries first_g, first_g + 1, ... into `out`."""
    n_tiers = params.n_tiers
    for g, res in enumerate(out, start=first_g):
        realization = sample_geometry(params, sim, g)
        counts = [len(d) for d in realization.distances]
        # Scaled in place to the received powers P d^-alpha h.
        received = sample_fading(params, sim, g, counts)
        start = 0
        for k, (tier, d) in enumerate(zip(params.tiers, realization.distances)):
            if len(d):
                rows = received[start:start + len(d)]
                rows *= (tier.power * d ** -params.alpha)[:, None]
                rows.max(axis=0, out=res[k])
            start += len(d)
        received.sum(axis=0, out=res[n_tiers])


# Expected draws a forked range must hold.  A fork, its copy-on-write
# faults and the child's exit cost the parent about 8 ms (an 83 MB process,
# 2-core 2.1 GHz Xeon), and a draw 5-8 ns, so a range of this size takes
# about six forks' time.  Split in two, the Rayleigh pass at 150 x 100
# trials (7.5e6 draws) saved 13 of 61 ms, and the time of a sweep of two
# such passes spread twice as widely from run to run as on one core; at
# M = (2,3), 300 x 100 (2.9e7 draws), two workers took 111 against 168 ms.
_WORKER_DRAWS = 8_000_000


def _worker_count(params: NetworkParams, sim: SimConfig, radius: float) -> int:
    """CPUs in this process's affinity mask, at most one per geometry and per
    `_WORKER_DRAWS` expected draws; 1 where forking is unsafe."""
    if (sys.platform != "linux" or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    draws = sim.n_geometry * sim.n_fading * math.pi * radius ** 2 * sum(
        t.density * (t.nakagami_m + 1) for t in params.tiers)
    return max(1, min(len(os.sched_getaffinity(0)), sim.n_geometry,
                      int(draws // _WORKER_DRAWS)))


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
    """Absolute coverage change when the observation disk radius doubles.

    Shares the underlying random streams between the two radii (the inner
    points and their fading are identical), so the returned figure is the
    truncation effect itself, not resampling noise.  `trials`, if given,
    must be `simulate_trials(params, sim)`: it is the inner disk's pass,
    and only the doubled disk is simulated.
    """
    radius = _resolve_radius(params, sim)
    if trials is None:
        trials = simulate_trials(params, replace(sim, region_radius=radius))
    thresholds = [t.threshold for t in params.tiers]
    small = coverage_from_tier_max(tier_max_sinr(trials, params.noise), thresholds)
    large = mc_coverage(params, replace(sim, region_radius=2.0 * radius))
    return abs(large.mean - small.mean)
