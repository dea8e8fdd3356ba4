"""Tests for the Monte Carlo engine.

Distributional checks (Poisson counts, the disk distance law), a
brute-force SINR oracle for the simulator pass, determinism under
concurrent callers, and the common-random-numbers prefix property behind
the radius-doubling self-check.
"""

import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from hetnetcov import analysis, mcsim
from hetnetcov.mcsim import (
    Estimate,
    SimConfig,
    coverage_from_tier_max,
    default_region_radii,
    mc_conditional_rate,
    mc_coverage,
    radius_doubling_drift,
    rate_from_tier_max,
    simulate_trials,
    tail_mean_interference,
    tier_max_sinr,
)
from hetnetcov.mcsim import _FADING_STREAM, _GEOMETRY_STREAM
from hetnetcov.model import MAX_NAKAGAMI_M, NetworkParams, TierParams
from oracles import geometry_range, sample_fading, sample_geometry, snapshot_sinrs


def make_network(alpha=3.0, noise=1e-4, densities=(1.0, 5.0), powers=(25.0, 1.0),
                 thresholds=(1.2589, 1.2589), shapes=(1, 1)):
    tiers = tuple(
        TierParams(density=d, power=p, threshold=b, nakagami_m=m)
        for d, p, b, m in zip(densities, powers, thresholds, shapes)
    )
    return NetworkParams(alpha=alpha, noise=noise, tiers=tiers)


def sim_config(n_geometry=200, n_fading=20, seed=7, **kw):
    return SimConfig(n_geometry=n_geometry, n_fading=n_fading, seed=seed, **kw)


def scale_first_chunk(monkeypatch, seed, g, n_tiers, scale):
    """Scale geometry g's first chunk of arrival uniforms, on every tier, by
    `scale`: `mcsim._draw` is patched to scale what it draws from a state
    that is one of those geometry streams' jumped(g)."""
    starts = {mcsim._stream(seed, tier, _GEOMETRY_STREAM, g).bit_generator.state["state"]["state"]
              for tier in range(n_tiers)}
    draw = mcsim._draw

    def scaled(rng, out):
        hit = rng.bit_generator.state["state"]["state"] in starts
        draw(rng, out)
        if hit:
            out *= scale
        return out

    monkeypatch.setattr(mcsim, "_draw", scaled)


class TestGeometry:
    def test_poisson_count_moments(self):
        # Single tier, lambda pi R^2 = 100: sample counts should have mean
        # ~100 and variance/mean ratio ~1.
        net = make_network(densities=(1.0,), powers=(1.0,), thresholds=(2.0,),
                           shapes=(1,))
        radius = math.sqrt(100.0 / math.pi)
        sim = sim_config(n_geometry=10000, n_fading=1, region_radius=radius)
        counts = np.array([
            len(sample_geometry(net, sim, g)[0]) for g in range(10000)
        ])
        assert counts.mean() == pytest.approx(100.0, rel=0.01)
        assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.05)

    def test_disk_distance_law(self):
        # P(d <= R/2) = 1/4 for points uniform on the disk.
        net = make_network(densities=(2.0,), powers=(1.0,), thresholds=(2.0,),
                           shapes=(1,))
        sim = sim_config(n_geometry=2000, n_fading=1, region_radius=5.0)
        inner = total = 0
        for g in range(2000):
            d = sample_geometry(net, sim, g)[0]
            inner += int((d <= 2.5).sum())
            total += len(d)
        assert inner / total == pytest.approx(0.25, abs=0.01)

    def test_distances_sorted_and_bounded(self):
        net = make_network()
        sim = sim_config(region_radius=4.0)
        for d in sample_geometry(net, sim, 0):
            assert np.all(np.diff(d) >= 0)
            assert d[-1] < 4.0

    def test_radius_prefix_property(self):
        # Enlarging the disk must keep the inner points bit-identical
        # (common random numbers for the truncation check).
        net = make_network()
        small = sample_geometry(net, sim_config(region_radius=3.0), 5)
        large = sample_geometry(net, sim_config(region_radius=6.0), 5)
        for ds, dl in zip(small, large):
            np.testing.assert_array_equal(ds, dl[: len(ds)])

    def test_zero_uniform_gives_a_zero_gap(self, monkeypatch):
        # Generator.random can return 0.  Its gap must be -ln(1 - 0) = 0,
        # not the infinite -ln(0), which would end the tier's arrivals and
        # warn of a division by zero.
        net = make_network(densities=(2.0,), powers=(1.0,), thresholds=(2.0,),
                           shapes=(1,))
        sim = sim_config(region_radius=5.0)
        draw = mcsim._draw

        def first_zero(rng, out):
            draw(rng, out)
            out.flat[0] = 0.0
            return out

        monkeypatch.setattr(mcsim, "_draw", first_zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = sample_geometry(net, sim, 0)[0]
        assert d[0] == 0.0
        assert len(d) > 100  # 157 expected
        assert np.all(d < 5.0)

    def test_range_row_whose_chunk_ends_inside_the_disk(self, monkeypatch):
        # Geometry 5's first chunk of uniforms is scaled down, so its gaps
        # are short and the chunk ends inside the disk.  Its row of the
        # range, and every other row, equals sample_geometry's and the
        # one-geometry loop drawn from numpy's jumped(g), byte for byte.
        net = make_network(densities=(2.0, 0.5), powers=(1.0, 4.0), thresholds=(2.0, 2.0))
        sim = sim_config(region_radius=4.0)
        scale, dense = 0.25, 5
        scale_first_chunk(monkeypatch, sim.seed, dense, net.n_tiers, scale)

        def loop(g, tier):
            rng = np.random.Generator(np.random.PCG64DXSM(
                np.random.SeedSequence((sim.seed, tier, _GEOMETRY_STREAM))).jumped(g))
            factor = scale if g == dense else 1.0
            rate, r2_max = net.tiers[tier].density * math.pi, sim.region_radius ** 2
            expected = rate * r2_max
            chunk = max(16, int(expected + 6.0 * math.sqrt(expected + 1.0)))
            arrivals = np.cumsum(-np.log(1.0 - factor * rng.random(chunk))) / rate
            while arrivals[-1] < r2_max:
                gaps = -np.log(1.0 - rng.random(max(16, chunk // 4)))
                arrivals = np.concatenate([arrivals, arrivals[-1] + np.cumsum(gaps) / rate])
            return np.sqrt(arrivals[:np.searchsorted(arrivals, r2_max)]), chunk

        radii = (sim.region_radius,) * net.n_tiers
        distances, _ = geometry_range(net, sim.seed, 3, 4, radii, radii)
        for g, tiers in enumerate(distances, start=3):
            single = sample_geometry(net, sim, g)
            for tier, d in enumerate(tiers):
                expected, chunk = loop(g, tier)
                assert d.tobytes() == expected.tobytes()
                assert d.tobytes() == single[tier].tobytes()
                assert (len(d) > chunk) == (g == dense)

    def test_fading_prefix_property(self):
        # The first n BSs of a tier draw the same fading whatever follows.
        sim = sim_config()
        small, large = [40, 60], [90, 150]
        for shapes in ((2, 1), (3, 16)):
            net = make_network(shapes=shapes)
            h_small = np.split(sample_fading(net, sim, 3, small), [small[0]])
            h_large = np.split(sample_fading(net, sim, 3, large), [large[0]])
            for hs, hl in zip(h_small, h_large):
                np.testing.assert_array_equal(hs, hl[: hs.shape[0]])
            # Each BS uses exactly M * F stream values: BS b of a tier is
            # -ln prod (1 - U) over the M * F values after the first b * M * F.
            # The stream is geometry 3's: the (seed, tier, fading) base
            # stream jumped 3 times.
            for tier, (m, h) in enumerate(zip(shapes, h_large)):
                for b in (0, 1, len(h) - 1):
                    base = np.random.PCG64DXSM(
                        np.random.SeedSequence((sim.seed, tier, _FADING_STREAM)))
                    rng = np.random.Generator(base.jumped(3))
                    rng.bit_generator.advance(b * m * sim.n_fading)
                    factors = 1.0 - rng.random((m, sim.n_fading))
                    product = factors[0]
                    for factor in factors[1:]:
                        product = product * factor
                    np.testing.assert_array_equal(h[b], -np.log(product))

    @pytest.mark.parametrize("purpose", [_GEOMETRY_STREAM, _FADING_STREAM],
                             ids=["geometry", "fading"])
    def test_stream_is_jumped_base_stream(self, purpose):
        # Geometry g draws from numpy's documented jumped(g) of its
        # (seed, tier, purpose) stream.
        base = np.random.PCG64DXSM(np.random.SeedSequence((7, 1, purpose)))
        for g in (0, 1, 2**40 + 3, 0):
            rng = mcsim._stream(7, 1, purpose, g)
            assert rng.bit_generator.state == base.jumped(g).state
            rng.random(5)

    @pytest.mark.parametrize("purpose", [_GEOMETRY_STREAM, _FADING_STREAM],
                             ids=["geometry", "fading"])
    def test_stepped_states_are_jumped_states(self, purpose):
        # A pass's later states are stepped by its draws, not advanced
        # from the base state, and are numpy's jumped(g) all the same.
        first_g = 2**40 + 3
        for tier in (1, 0):
            base = np.random.PCG64DXSM(np.random.SeedSequence((7, tier, purpose)))
            rng = mcsim._stream(7, tier, purpose, first_g)
            for g in range(first_g, first_g + 50):
                assert rng.bit_generator.state == base.jumped(g).state
                mcsim._draw(rng, np.empty(5))

    @pytest.mark.parametrize("k", [0, 1, 37, 318])
    def test_draw_steps_to_the_next_geometry(self, k):
        # Drawing k values, k = 0 being an empty tier's fading, leaves the
        # generator at the next geometry's state, and the values are the
        # first k of the geometry's own stream.
        g = 2**40 + 3
        for purpose in (_GEOMETRY_STREAM, _FADING_STREAM):
            for tier in (0, 1):
                base = np.random.PCG64DXSM(np.random.SeedSequence((7, tier, purpose)))
                rng = mcsim._stream(7, tier, purpose, g)
                values = mcsim._draw(rng, np.empty(k))
                assert rng.bit_generator.state == base.jumped(g + 1).state
                assert values.tobytes() == np.random.Generator(base.jumped(g)).random(k).tobytes()

    def test_fading_moments(self):
        # Gamma(M, 1): mean M, variance M.
        sim = sim_config(n_geometry=1, n_fading=20000)
        for m in (3, MAX_NAKAGAMI_M):
            h = sample_fading(make_network(shapes=(m, 1)), sim, 0, counts=[5, 5])[:5]
            assert h.mean() == pytest.approx(m, rel=0.02)
            assert h.var() == pytest.approx(m, rel=0.05)

    @pytest.mark.parametrize("m", range(1, MAX_NAKAGAMI_M + 1))
    def test_fading_law(self, m):
        # Every supported shape draws Gamma(M, 1) and only finite values.
        net = make_network(densities=(1.0,), powers=(1.0,), thresholds=(2.0,),
                           shapes=(m,))
        h = sample_fading(net, sim_config(n_fading=100), 0, counts=[200])
        assert np.isfinite(h).all()
        assert stats.kstest(h.ravel(), stats.gamma(m).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("m", [2.5, MAX_NAKAGAMI_M + 1])
    def test_fading_rejects_invalid_shape(self, m):
        # The product-of-uniforms law holds for integer M only; a fractional
        # shape is an error, not a draw from another law.
        net = make_network(shapes=(1, m))
        with pytest.raises(ValueError, match="tier 1: nakagami_m"):
            sample_fading(net, sim_config(), 0, counts=[3, 3])


def snapshot_tier_max(net, sim, trials, n_geometry):
    """(n_geometry, K, n_fading) tier maxima of `snapshot_sinrs` over the
    first geometries of the pass `trials`.  The oracle knows no tail; the
    pass's tail mean enters it as noise."""
    oracle_net = replace(net, noise=net.noise + trials.tail)
    best = np.empty((n_geometry, net.n_tiers, sim.n_fading))
    for g in range(n_geometry):
        distances = sample_geometry(net, sim, g)
        counts = [len(d) for d in distances]
        h = np.split(sample_fading(net, sim, g, counts), np.cumsum(counts)[:-1])
        for f in range(sim.n_fading):
            sinrs = snapshot_sinrs(oracle_net, distances, [x[:, f] for x in h])
            for tier in range(net.n_tiers):
                best[g, tier, f] = max(s for t, s in sinrs if t == tier)
    return best


class TestKernels:
    def test_tier_max_matches_snapshot_oracle(self):
        net = make_network(shapes=(2, 1))
        sim = sim_config(n_fading=11, region_radius=3.0)
        trials = simulate_trials(net, sim)
        tier_max = tier_max_sinr(trials, net.noise)
        oracle = snapshot_tier_max(net, sim, trials, 2)
        assert tier_max[:2] == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "tier_max_sinr takes the interference as total - r, which cancels when "
        "one BS holds nearly all of the power; ROADMAP item 13"))
    def test_tier_max_matches_snapshot_oracle_dominant_bs(self):
        # At alpha = 30 the nearest BS outweighs the rest by up to 290 dB:
        # the pass gives 28 of these 1,000 tier SINRs as inf, and 220 more
        # differ from the oracle's explicit sum by over 1e-12.
        net = make_network(alpha=30.0, shapes=(16, 1))
        sim = sim_config(n_geometry=50, n_fading=10, seed=2024)
        trials = simulate_trials(net, sim)
        tier_max = tier_max_sinr(trials, net.noise)
        oracle = snapshot_tier_max(net, sim, trials, sim.n_geometry)
        assert np.isfinite(tier_max).all()
        assert tier_max == pytest.approx(oracle, rel=1e-12)

    # The tail mean is always added: `tail` has the one value True, so each
    # case id names the mode it checks.
    @pytest.mark.parametrize("tail", [True])
    @pytest.mark.parametrize("noise", [1e-4, 1e3])
    @pytest.mark.parametrize("shapes", [(1, 1), (2, 3)])
    @pytest.mark.parametrize("n_tiers", [1, 2, 3])
    def test_tier_max_equals_per_bs_formula(self, n_tiers, shapes, noise, tail):
        # max_b r_b / (T + noise + tail - r_b), evaluated per BS over each
        # tier, equals the SINR of the tier's largest r_b bit for bit.  The third tier is sparse enough to be empty in some
        # geometries, where the tier maximum must be 0.
        net = make_network(
            noise=noise,
            densities=(1.0, 5.0, 0.01)[:n_tiers],
            powers=(25.0, 1.0, 4.0)[:n_tiers],
            thresholds=(1.2589,) * n_tiers,
            shapes=tuple(shapes[k % 2] for k in range(n_tiers)),
        )
        sim = sim_config(n_geometry=20, n_fading=50, region_radius=3.0)
        trials = simulate_trials(net, sim)
        denom_const = noise + tail_mean_interference(net, (3.0,) * n_tiers)
        expected = np.zeros((sim.n_geometry, n_tiers, sim.n_fading))
        for g in range(sim.n_geometry):
            distances = sample_geometry(net, sim, g)
            counts = [len(d) for d in distances]
            w = np.concatenate([t.power * d ** -net.alpha for t, d in zip(net.tiers, distances)])
            received = w[:, None] * sample_fading(net, sim, g, counts)
            total = received.sum(axis=0) + denom_const
            offsets = np.cumsum([0] + counts)
            for k in range(n_tiers):
                r = received[offsets[k]:offsets[k + 1]]
                if len(r):
                    expected[g, k] = (r / (total - r)).max(axis=0)
        np.testing.assert_array_equal(tier_max_sinr(trials, noise), expected)
        assert trials.tail == tail_mean_interference(net, (3.0,) * n_tiers)
        assert trials.radii == (3.0,) * n_tiers


class TestUnionSemantics:
    def test_covered_by_either_tier(self):
        # tier 0: max SINR 2.0 against threshold 100 (miss); tier 1: max
        # SINR 1.5 against threshold 1.1 (hit) => the trial is covered.
        tier_max = np.array([[[2.0], [1.5]]])  # (geometry, tier, fading)
        est = coverage_from_tier_max(tier_max, [100.0, 1.1])
        assert est.mean == 1.0
        est = coverage_from_tier_max(tier_max, [100.0, 100.0])
        assert est.mean == 0.0

    def test_rate_uses_overall_max(self):
        tier_max = np.array([[[2.0], [1.5]]])
        rate, cov = rate_from_tier_max(tier_max, [100.0, 1.1])
        assert cov.mean == 1.0
        assert rate.mean == pytest.approx(math.log1p(2.0))

    def test_no_covered_trials_raises(self):
        tier_max = np.array([[[2.0], [1.5]]])
        with pytest.raises(RuntimeError, match="no covered trials"):
            rate_from_tier_max(tier_max, [1e6, 1e6])

    @pytest.mark.parametrize("thresholds", [[3.16], [3.16, 1.26, 1.26]], ids=["short", "long"])
    @pytest.mark.parametrize("estimator", [coverage_from_tier_max, rate_from_tier_max])
    def test_one_threshold_per_tier(self, estimator, thresholds):
        # One threshold for two tiers would be broadcast to both.
        tier_max = np.full((3, 2, 4), 2.0)
        with pytest.raises(ValueError, match=f"{len(thresholds)} thresholds for 2 tiers"):
            estimator(tier_max, thresholds)


class TestEstimates:
    def test_thread_generators_not_shared_under_switching(self):
        # Each pass builds its own generator; with passes started from
        # several caller threads at once, more threads than cores and a
        # thread switch every few bytecodes, a generator shared between
        # threads would mix draws.
        net = make_network(shapes=(2, 1))
        sim = sim_config(n_geometry=50, n_fading=20, seed=9)
        single = simulate_trials(net, sim)
        results = [None] * 6

        def run(i):
            results[i] = simulate_trials(net, sim)

        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for result in results:
            np.testing.assert_array_equal(result.received, single.received)

    def test_same_seed_reproducible(self):
        net = make_network()
        sim = sim_config(n_geometry=50, n_fading=20)
        a = mc_coverage(net, sim)
        b = mc_coverage(net, sim)
        assert a == b

    def test_extreme_threshold_kills_coverage(self):
        net = make_network(thresholds=(1e12, 1e12))
        est = mc_coverage(net, sim_config(n_geometry=100, n_fading=10))
        assert est.mean == 0.0

    def test_rate_monotone_in_threshold(self):
        net_lo = make_network(thresholds=(1.2589, 1.2589))
        net_hi = make_network(thresholds=(4.0, 4.0))
        sim = sim_config(n_geometry=400, n_fading=20)
        r_lo, _ = mc_conditional_rate(net_lo, sim)
        r_hi, _ = mc_conditional_rate(net_hi, sim)
        assert r_hi.mean > r_lo.mean

    def test_small_trial_warning(self):
        # The warning names the line that built the config.
        with pytest.warns(UserWarning, match="noisy") as record:
            SimConfig(n_geometry=10, n_fading=10, seed=1)
        assert record[0].filename == __file__

    @pytest.mark.parametrize("field, value, message", [
        ("n_geometry", True, "n_geometry must be an integer, got True"),
        ("n_fading", 100.0, "n_fading must be an integer, got 100.0"),
        ("seed", False, "seed must be an integer, got False"),
        ("seed", -3, "seed must be non-negative, got -3"),
        ("region_radius", math.inf, "region_radius must be positive and finite, got inf"),
    ])
    def test_invalid_counts_and_seed_rejected(self, field, value, message):
        # True would otherwise run one geometry, numpy's error for a
        # negative seed names no field, and an infinite radius would pass
        # until the pass's arrival count overflowed.
        kw = {"n_geometry": 100, "n_fading": 100, "seed": 1, field: value}
        with pytest.raises(ValueError, match=message):
            SimConfig(**kw)

    def test_estimate_fields(self):
        est = mc_coverage(make_network(), sim_config(n_geometry=100, n_fading=10))
        assert isinstance(est, Estimate)
        assert 0.0 < est.mean < 1.0
        assert est.std_error > 0.0
        assert est.n_samples == 1000

    def test_invalid_network_rejected_by_every_pass(self):
        # Every pass validates at its entry, also the doubled disks' pass
        # that radius_doubling_drift runs on a given inner pass.
        net = make_network(shapes=(2, 3))
        sim = sim_config(n_geometry=51, n_fading=20, seed=4)
        trials = simulate_trials(net, sim)
        bad = replace(net, tiers=(replace(net.tiers[0], threshold=0.5), net.tiers[1]))
        message = "tier 0: SINR threshold must exceed 1"
        with pytest.raises(ValueError, match=message):
            simulate_trials(bad, sim)
        with pytest.raises(ValueError, match=message):
            radius_doubling_drift(bad, sim, trials=trials)


def tail_variance(net, radii):
    """Campbell's variance of the interference beyond the disks."""
    a = net.alpha
    return sum(t.density * t.power ** 2 * t.nakagami_m * (t.nakagami_m + 1) * math.pi
               * r ** (2.0 - 2.0 * a) / (a - 1.0) for t, r in zip(net.tiers, radii))


def expected_counts(net, radii):
    return [t.density * math.pi * r * r for t, r in zip(net.tiers, radii)]


def sparse_strong_network(swap=False):
    """A sparse strong tier over a dense weak one, beta = 1 dB: the 250-BS
    common disk holds 0.25 BSs of the strong tier."""
    beta = 10.0 ** 0.1  # 1 dB
    tiers = [TierParams(density=0.01, power=1e4, threshold=beta),
             TierParams(density=10.0, power=1.0, threshold=beta)]
    if swap:
        tiers.reverse()
    return NetworkParams(alpha=3.0, noise=1e-4, tiers=tuple(tiers))


N_MIN_TWO_TIERS = 2.0 * math.log(2.0 * 2 / 1e-4)


class TestTruncation:
    def test_tail_mean_value(self):
        # sum lam P M * 2 pi R^(2-a) / (a - 2) by hand for the two-tier case.
        net = make_network(shapes=(2, 1))
        expected = (1.0 * 25.0 * 2 * 4.0 ** -1.0 + 5.0 * 1.0 * 1 * 2.0 ** -1.0) * 2.0 * math.pi
        assert tail_mean_interference(net, (4.0, 2.0)) == pytest.approx(expected, rel=1e-12)

    def test_tail_mean_takes_one_radius_per_tier(self):
        with pytest.raises(ValueError):
            tail_mean_interference(make_network(), (4.0,))

    # Figure networks where no floor binds (at alpha = 2.5 and M = (1,1),
    # or at M = (16,1), tier 2 sits on or just above the floor).
    @pytest.mark.parametrize("alpha, shapes", [
        (3.0, (1, 1)), (3.0, (2, 3)), (2.5, (2, 3)), (4.0, (1, 1)), (4.0, (2, 3)),
    ])
    def test_radii_minimise_draws_at_the_common_disk_variance(self, alpha, shapes):
        # R_i / R_j is (P_i^2 M_i / P_j^2 M_j)^(1 / (2 alpha)), the tail
        # variance is the 250-BS common disk's, and moving draws between the
        # tiers at that variance costs more draws.
        net = make_network(alpha=alpha, shapes=shapes)
        radii = default_region_radii(net)
        assert min(expected_counts(net, radii)) > 1.1 * N_MIN_TWO_TIERS
        (p0, p1), (m0, m1) = (t.power for t in net.tiers), shapes
        assert radii[0] / radii[1] == pytest.approx(
            (p0 ** 2 * m0 / (p1 ** 2 * m1)) ** (1.0 / (2.0 * alpha)), rel=1e-12)
        common = math.sqrt(250.0 / (math.pi * 6.0))
        assert tail_variance(net, radii) == pytest.approx(
            tail_variance(net, (common, common)), rel=1e-12)

        def draws(r):
            return sum(t.density * (t.nakagami_m + 1) * x * x for t, x in zip(net.tiers, r))

        for factor in (0.9, 1.1):
            # Rescale tier 0 and solve tier 1 for the same variance.
            r0 = radii[0] * factor
            t0, t1 = net.tiers
            rest = tail_variance(net, radii) - tail_variance(replace(net, tiers=(t0,)), (r0,))
            unit = tail_variance(replace(net, tiers=(t1,)), (1.0,))
            r1 = (rest / unit) ** (1.0 / (2.0 - 2.0 * alpha))
            assert draws((r0, r1)) > draws(radii)

    def test_floor_raises_a_weak_sparse_tier(self):
        # The variance rule gives a tier that is both weak and sparse
        # (0.1 BSs per unit area at P = 1) a disk of 2.7 BSs; the floor
        # raises it to n_min and leaves the strong tier's radius.
        net = make_network(densities=(1.0, 0.1))
        radii = default_region_radii(net)
        counts = expected_counts(net, radii)
        assert counts[1] == pytest.approx(N_MIN_TWO_TIERS, rel=1e-12)
        # Tier 0 keeps s^2 (P_0^2 M_0)^(1/3) with c = (2, 0.2) and, powers
        # taken relative to 25, w = (1, 1/625).
        common2 = 250.0 / (math.pi * 1.1)
        s2 = common2 * ((2.0 + 0.2 * 625.0 ** (-1.0 / 3.0)) / (2.0 + 0.2 / 625.0)) ** 0.5
        assert radii[0] ** 2 == pytest.approx(s2, rel=1e-12)
        assert counts[0] > N_MIN_TWO_TIERS
        common = math.sqrt(common2)
        assert tail_variance(net, radii) < tail_variance(net, (common, common))

    @pytest.mark.parametrize("swap", [False, True], ids=["strong-first", "strong-last"])
    def test_floor_widens_a_common_disk_that_cuts_a_tier(self, swap):
        # The 250-BS common disk holds 0.25 strong BSs; the variance is
        # matched to a common disk widened to hold n_min of them.
        net = sparse_strong_network(swap)
        radii = default_region_radii(net)
        assert min(expected_counts(net, radii)) >= N_MIN_TWO_TIERS
        widened = math.sqrt(N_MIN_TWO_TIERS / (math.pi * 0.01))
        assert tail_variance(net, radii) == pytest.approx(
            tail_variance(net, (widened, widened)), rel=1e-12)

    def test_default_radius_targets_count(self):
        # One tier keeps the common disk of 250 BSs at any shape.
        for m in (1, 2, 16):
            net = make_network(densities=(2.0,), powers=(7.0,), thresholds=(2.0,),
                               shapes=(m,))
            (radius,) = default_region_radii(net)
            assert math.pi * radius * radius * 2.0 == pytest.approx(250.0, rel=1e-12)

    def test_serving_tail_bound(self):
        # The floor's derivation: a BS with j nearer BSs of its tier covers
        # only if its Gamma(M) fading beats their sum, which has probability
        # P(Beta(M, j M) > 1/2) <= 2^-j for every supported M.
        j = np.arange(1, 400)
        for m in range(1, MAX_NAKAGAMI_M + 1):
            assert np.all(stats.beta.sf(0.5, m, j * m) <= 2.0 ** -j * (1 + 1e-12))

    # The tail term is smallest against the noise at 1e3 (30 dB).
    @pytest.mark.parametrize("noise", [1e-4, 1e3], ids=["noise1e-4", "noise1e3"])
    @pytest.mark.parametrize("shapes", [(1, 1), (2, 3)], ids=["M11", "M23"])
    def test_radius_doubling_drift_small(self, shapes, noise):
        net = make_network(shapes=shapes, noise=noise)
        sim = sim_config(n_geometry=500, n_fading=10)
        assert radius_doubling_drift(net, sim) < 1e-3

    @pytest.mark.parametrize("swap", [False, True], ids=["strong-first", "strong-last"])
    def test_sparse_strong_tier(self, swap):
        # With one disk of 250 BSs for all tiers the drift read 2.2e-2 and
        # MC coverage sat 6.2 SE (3.9 SE swapped) below the reference.
        net = sparse_strong_network(swap)
        for n_geometry, n_fading in ((500, 10), (3000, 50)):
            sim = sim_config(n_geometry=n_geometry, n_fading=n_fading, seed=5)
            assert radius_doubling_drift(net, sim) < 1e-3
        est = mc_coverage(net, sim_config(n_geometry=4000, n_fading=20, seed=8))
        assert abs(est.mean - analysis.coverage_reference(net)) <= 3.0 * est.std_error


def received_oracle(net, sim, radii):
    """(n_geometry, K+1, n_fading) received powers of a pass with every BS
    inside `radii` faded, built from the oracle samplers: each tier's
    largest P d^-alpha h, then the total over every BS."""
    out = np.zeros((sim.n_geometry, net.n_tiers + 1, sim.n_fading))
    for g in range(sim.n_geometry):
        distances = sample_geometry(net, sim, g, radii)
        counts = [len(d) for d in distances]
        w = np.concatenate([t.power * d ** -net.alpha for t, d in zip(net.tiers, distances)])
        received = w[:, None] * sample_fading(net, sim, g, counts)
        offsets = np.cumsum([0] + counts)
        for k in range(net.n_tiers):
            if counts[k]:
                out[g, k] = received[offsets[k]:offsets[k + 1]].max(axis=0)
        out[g, -1] = received.sum(axis=0)
    return out


def dropped_variance(t, alpha, r, q):
    """Tier t's fading variance left out inside the ring r..q plus its
    whole second moment beyond q, over lam P^2 M pi / (alpha - 1)."""
    e = 2.0 - 2.0 * alpha
    return r ** e + t.nakagami_m * q ** e


class TestRing:
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("m", range(2, MAX_NAKAGAMI_M + 1))
    def test_rule_keeps_the_dropped_variance(self, m, alpha):
        # r^(2-2a) = (M+1) R^(2-2a) - M Q^(2-2a) at Q = 2R: the ring's fading
        # variance plus the whole second moment beyond Q equals what the
        # disk R left out, unless the n_min floor raises r.  Tier 2 of the
        # figure network sits on its floor at some (M, alpha); at alpha =
        # 2.5 its disk R is the floor, so r = R there.
        for net in (make_network(alpha=alpha, shapes=(m, m)),
                    make_network(alpha=alpha, densities=(2.0,), powers=(7.0,),
                                 thresholds=(2.0,), shapes=(m,))):
            radii = default_region_radii(net)
            fading, outer = mcsim._ring_radii(net, radii)
            floors = [math.sqrt(mcsim._serving_count(net) / (math.pi * t.density))
                      for t in net.tiers]
            for t, big_r, r, q, floor in zip(net.tiers, radii, fading, outer, floors):
                assert q == 2.0 * big_r
                assert r <= big_r
                today = (m + 1) * big_r ** (2.0 - 2.0 * alpha)
                if r > floor:
                    assert dropped_variance(t, alpha, r, q) == pytest.approx(today, rel=1e-12)
                else:
                    assert r == floor
                    assert dropped_variance(t, alpha, r, q) < today

    def test_rule_at_the_figure_network(self):
        # alpha = 3: r = 0.768 R at M = 2, and 0.716 R at M = 3 where the
        # floor does not bind; M = 1 keeps its disk.
        net = make_network(shapes=(2, 1))
        radii = default_region_radii(net)
        fading, outer = mcsim._ring_radii(net, radii)
        assert fading[0] / radii[0] == pytest.approx(0.76796, abs=1e-5)
        assert (fading[1], outer[1]) == (radii[1], radii[1])
        net = make_network(densities=(1.0,), powers=(1.0,), thresholds=(2.0,), shapes=(3,))
        (radius,) = default_region_radii(net)
        (r,), _ = mcsim._ring_radii(net, (radius,))
        assert r / radius == pytest.approx(0.71564, abs=1e-5)

    @pytest.mark.parametrize("short", [False, True], ids=["plain", "chunk-ends-inside"])
    def test_ring_term_equals_explicit_sum(self, monkeypatch, short):
        # Each geometry's ring term is sum_i P_i M_i sum d^-alpha over tier
        # i's arrivals between r_i and Q_i, the arrivals taken from
        # _arrivals at radius Q_i.  With `short`, geometry 5's first chunk
        # of uniforms is scaled down, so it ends inside Q and its ring is
        # summed from the extended row.  The pass adds
        # the term to the total of every trial of its geometry.
        if short:
            scale_first_chunk(monkeypatch, 7, 5, 2, 0.25)
        net = make_network(shapes=(2, 3))
        sim = sim_config(n_geometry=8, n_fading=5)
        fading, outer = mcsim._ring_radii(net, default_region_radii(net))
        distances, ring = geometry_range(net, sim.seed, 0, sim.n_geometry, fading, outer)
        arrivals, _ = geometry_range(net, sim.seed, 0, sim.n_geometry, outer, outer)
        trials = simulate_trials(net, sim)
        for g, (inner, whole) in enumerate(zip(distances, arrivals)):
            expected = 0.0
            for t, r, d, d_inner in zip(net.tiers, fading, whole, inner):
                n_inner = int(np.searchsorted(d, r))
                assert len(d_inner) == n_inner
                expected += t.power * t.nakagami_m * sum(x ** -net.alpha for x in d[n_inner:])
            assert ring[g] == pytest.approx(expected, rel=1e-12)
            counts = [len(d) for d in inner]
            w = np.concatenate([t.power * d ** -net.alpha for t, d in zip(net.tiers, inner)])
            received = w[:, None] * sample_fading(net, sim, g, counts)
            np.testing.assert_array_equal(trials.received[g, -1],
                                          received.sum(axis=0) + ring[g])
        assert trials.tail == tail_mean_interference(net, outer)

    def test_fading_bss_are_a_prefix_of_the_ring(self):
        # The fading BSs are the nearest arrivals of the ring's.  Doubling
        # R, as radius_doubling_drift does, doubles Q and r (or raises r
        # from its floor), so the inner fading BSs, and with them their
        # draws, stay.
        net = make_network(shapes=(2, 3))
        sim = sim_config(n_geometry=6, n_fading=5)
        radii = default_region_radii(net)
        small = mcsim._ring_radii(net, radii)
        large = mcsim._ring_radii(net, tuple(2.0 * r for r in radii))
        assert large[1] == tuple(2.0 * q for q in small[1])
        assert all(b >= a for a, b in zip(small[0], large[0]))
        inner, _ = geometry_range(net, sim.seed, 0, sim.n_geometry, *small)
        doubled, _ = geometry_range(net, sim.seed, 0, sim.n_geometry, *large)
        for g in range(sim.n_geometry):
            ring = sample_geometry(net, sim, g, small[1])
            for d_inner, d_doubled, d_ring in zip(inner[g], doubled[g], ring):
                assert len(d_inner) < len(d_ring)
                assert len(d_inner) <= len(d_doubled)
                np.testing.assert_array_equal(d_inner, d_ring[:len(d_inner)])
                np.testing.assert_array_equal(d_inner, d_doubled[:len(d_inner)])
            counts = [len(d) for d in inner[g]]
            h_inner = sample_fading(net, sim, g, counts)
            h_doubled = np.split(sample_fading(net, sim, g, [len(d) for d in doubled[g]]),
                                 [len(doubled[g][0])])
            np.testing.assert_array_equal(h_inner[:counts[0]], h_doubled[0][:counts[0]])
            np.testing.assert_array_equal(h_inner[counts[0]:], h_doubled[1][:counts[1]])

    @pytest.mark.parametrize("shapes, region_radius", [
        ((1, 1), None), ((2, 3), 3.0), ((1, 1), 3.0),
    ], ids=["M11-default", "M23-region-radius", "M11-region-radius"])
    def test_no_ring_gives_the_disk_only_pass(self, shapes, region_radius):
        # With M = 1 on every tier, or with region_radius set, every BS in
        # the disk R_i is faded and nothing lies beyond it but the tail.
        net = make_network(shapes=shapes)
        sim = sim_config(n_geometry=30, n_fading=10, region_radius=region_radius)
        radii = mcsim._radii(net, sim)
        trials = simulate_trials(net, sim)
        assert np.array_equal(trials.received, received_oracle(net, sim, radii))
        assert trials.tail == tail_mean_interference(net, radii)
        assert trials.radii == radii

    @pytest.mark.parametrize("shapes", [(1, 1), (2, 3)])
    def test_blocks_leave_the_bytes(self, monkeypatch, shapes):
        # A pass draws its geometries in blocks of bounded size; a block of
        # a few geometries gives the bytes of one block for all.
        net = make_network(shapes=shapes)
        sim = sim_config(n_geometry=40, n_fading=10)
        whole = simulate_trials(net, sim)
        monkeypatch.setattr(mcsim, "_BLOCK_ARRIVALS", 1000.0)
        blocked = simulate_trials(net, sim)
        assert np.array_equal(blocked.received, whole.received)
