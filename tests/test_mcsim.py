"""Tests for the Monte Carlo engine.

Distributional checks (Poisson counts, the disk distance law), a
brute-force SINR oracle for the simulator pass, determinism under
concurrent callers and at any worker count, failing workers, and the
common-random-numbers prefix property behind the radius-doubling
self-check.
"""

import math
import os
import signal
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from hetnetcov import mcsim
from hetnetcov.mcsim import (
    Estimate,
    SimConfig,
    coverage_from_tier_max,
    default_region_radius,
    mc_conditional_rate,
    mc_coverage,
    radius_doubling_drift,
    rate_from_tier_max,
    sample_fading,
    sample_geometry,
    simulate_trials,
    snapshot_sinrs,
    tail_mean_interference,
    tier_max_sinr,
)
from hetnetcov.mcsim import _FADING_STREAM, _GEOMETRY_STREAM, _stream
from hetnetcov.model import MAX_NAKAGAMI_M, NetworkParams, TierParams


def make_network(alpha=3.0, noise=1e-4, densities=(1.0, 5.0), powers=(25.0, 1.0),
                 thresholds=(1.2589, 1.2589), shapes=(1, 1)):
    tiers = tuple(
        TierParams(density=d, power=p, threshold=b, nakagami_m=m)
        for d, p, b, m in zip(densities, powers, thresholds, shapes)
    )
    return NetworkParams(alpha=alpha, noise=noise, tiers=tiers)


def sim_config(n_geometry=200, n_fading=20, seed=7, **kw):
    return SimConfig(n_geometry=n_geometry, n_fading=n_fading, seed=seed, **kw)


class TestGeometry:
    def test_poisson_count_moments(self):
        # Single tier, lambda pi R^2 = 100: sample counts should have mean
        # ~100 and variance/mean ratio ~1.
        net = make_network(densities=(1.0,), powers=(1.0,), thresholds=(2.0,),
                           shapes=(1,))
        radius = math.sqrt(100.0 / math.pi)
        sim = sim_config(n_geometry=10000, n_fading=1, region_radius=radius)
        counts = np.array([
            len(sample_geometry(net, sim, g).distances[0]) for g in range(10000)
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
            d = sample_geometry(net, sim, g).distances[0]
            inner += int((d <= 2.5).sum())
            total += len(d)
        assert inner / total == pytest.approx(0.25, abs=0.01)

    def test_distances_sorted_and_bounded(self):
        net = make_network()
        sim = sim_config(region_radius=4.0)
        rz = sample_geometry(net, sim, 0)
        for d in rz.distances:
            assert np.all(np.diff(d) >= 0)
            assert d[-1] < 4.0

    def test_radius_prefix_property(self):
        # Enlarging the disk must keep the inner points bit-identical
        # (common random numbers for the truncation check).
        net = make_network()
        small = sample_geometry(net, sim_config(region_radius=3.0), 5)
        large = sample_geometry(net, sim_config(region_radius=6.0), 5)
        for ds, dl in zip(small.distances, large.distances):
            np.testing.assert_array_equal(ds, dl[: len(ds)])

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
        # (seed, tier, purpose) stream, whatever the thread's reused
        # generator drew before.
        base = np.random.PCG64DXSM(np.random.SeedSequence((7, 1, purpose)))
        for g in (0, 1, 2**40 + 3, 0):
            rng = _stream(7, g, 1, purpose)
            assert rng.bit_generator.state == base.jumped(g).state
            rng.random(5)

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
        rz = sample_geometry(net, sim, g)
        counts = [len(d) for d in rz.distances]
        h = np.split(sample_fading(net, sim, g, counts), np.cumsum(counts)[:-1])
        for f in range(sim.n_fading):
            sinrs = snapshot_sinrs(oracle_net, rz, [x[:, f] for x in h])
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
        denom_const = noise + tail_mean_interference(net, 3.0)
        expected = np.zeros((sim.n_geometry, n_tiers, sim.n_fading))
        for g in range(sim.n_geometry):
            rz = sample_geometry(net, sim, g)
            counts = [len(d) for d in rz.distances]
            w = np.concatenate([t.power * d ** -net.alpha for t, d in zip(net.tiers, rz.distances)])
            received = w[:, None] * sample_fading(net, sim, g, counts)
            total = received.sum(axis=0) + denom_const
            offsets = np.cumsum([0] + counts)
            for k in range(n_tiers):
                r = received[offsets[k]:offsets[k + 1]]
                if len(r):
                    expected[g, k] = (r / (total - r)).max(axis=0)
        np.testing.assert_array_equal(tier_max_sinr(trials, noise), expected)
        assert trials.tail == tail_mean_interference(net, 3.0)


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


class TestEstimates:
    def test_thread_generators_not_shared_under_switching(self):
        # Each thread reuses its own generator and resets it per geometry;
        # with passes started from several caller threads at once, more
        # threads than cores and a thread switch every few bytecodes, a
        # generator shared between threads would mix draws.
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
        with pytest.warns(UserWarning, match="noisy"):
            SimConfig(n_geometry=10, n_fading=10, seed=1)

    @pytest.mark.parametrize("field, value, message", [
        ("n_geometry", True, "n_geometry must be an integer, got True"),
        ("n_fading", 100.0, "n_fading must be an integer, got 100.0"),
        ("seed", False, "seed must be an integer, got False"),
        ("seed", -3, "seed must be non-negative, got -3"),
    ])
    def test_invalid_counts_and_seed_rejected(self, field, value, message):
        # True would otherwise run one geometry, and numpy's error for a
        # negative seed names no field.
        kw = {"n_geometry": 100, "n_fading": 100, "seed": 1, field: value}
        with pytest.raises(ValueError, match=message):
            SimConfig(**kw)

    def test_estimate_fields(self):
        est = mc_coverage(make_network(), sim_config(n_geometry=100, n_fading=10))
        assert isinstance(est, Estimate)
        assert 0.0 < est.mean < 1.0
        assert est.std_error > 0.0
        assert est.n_samples == 1000


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """A pass split over forked workers, one per CPU of the affinity mask."""

    NET = make_network(shapes=(2, 3))
    SIM = sim_config(n_geometry=51, n_fading=20, seed=4)  # odd G: unequal ranges
    WORKER_DRAWS = mcsim._WORKER_DRAWS

    @pytest.fixture(autouse=True)
    def any_size(self, monkeypatch):
        """Split passes of any size, so a small one exercises the workers."""
        monkeypatch.setattr(mcsim, "_WORKER_DRAWS", 1)

    @pytest.fixture
    def forks(self, monkeypatch):
        """Pids of the workers forked by the test, in order."""
        pids = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return pids

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    def test_worker_count_invariance(self, monkeypatch, forks):
        received = {}
        for n in (1, 2, 3):
            self.cpus(monkeypatch, n)
            del forks[:]
            received[n] = simulate_trials(self.NET, self.SIM).received.tobytes()
            assert len(forks) == n - 1
            assert_no_child()
        assert received[2] == received[1]
        assert received[3] == received[1]

    def test_one_geometry_forks_nothing(self, monkeypatch, forks):
        self.cpus(monkeypatch, 3)
        simulate_trials(self.NET, sim_config(n_geometry=1, n_fading=1000))
        assert forks == []

    def test_small_pass_runs_as_one_worker(self, monkeypatch, forks):
        monkeypatch.setattr(mcsim, "_WORKER_DRAWS", self.WORKER_DRAWS)
        self.cpus(monkeypatch, 3)
        # 51 x 20 trials of 250 BSs with M + 1 = 23/6 on average: 9.8e5 draws.
        assert simulate_trials(self.NET, self.SIM).received.tobytes() == \
            simulate_trials(self.NET, self.SIM).received.tobytes()
        assert forks == []

    @pytest.mark.parametrize("shapes, n_geometry, n_cpus, workers", [
        ((1, 1), 150, 2, 1),   # 7.5e6 draws
        ((1, 1), 170, 2, 1),   # 8.5e6: one range of _WORKER_DRAWS
        ((1, 1), 330, 2, 2),   # 1.65e7: two
        ((2, 3), 300, 2, 2),   # 2.9e7
        ((2, 3), 300, 3, 3),
        ((2, 3), 300, 8, 3),
        ((2, 3), 10000, 8, 8),
    ])
    def test_worker_count_by_pass_size(self, monkeypatch, shapes, n_geometry, n_cpus,
                                       workers):
        monkeypatch.setattr(mcsim, "_WORKER_DRAWS", self.WORKER_DRAWS)
        self.cpus(monkeypatch, n_cpus)
        net = make_network(shapes=shapes)
        sim = sim_config(n_geometry=n_geometry, n_fading=100)
        radius = default_region_radius(net)
        assert mcsim._worker_count(net, sim, radius) == workers

    def test_pass_from_a_thread_with_another_alive(self, monkeypatch, forks):
        # Forking a process with other Python threads is unsafe, so the
        # pass runs as one worker; its bytes are those of three.
        self.cpus(monkeypatch, 3)
        expected = simulate_trials(self.NET, self.SIM).received.tobytes()
        del forks[:]
        release = threading.Event()
        idle = threading.Thread(target=release.wait)
        results = []
        caller = threading.Thread(target=lambda: results.append(
            simulate_trials(self.NET, self.SIM).received.tobytes()))
        idle.start()
        try:
            caller.start()
            caller.join(timeout=120)
        finally:
            release.set()
            idle.join()
        assert not caller.is_alive()
        assert forks == []
        assert results == [expected]
        assert_no_child()

    def test_failing_worker_raises_its_error(self, monkeypatch):
        # With two workers the forked one owns geometries 25..50; forked
        # children inherit the patch.
        self.cpus(monkeypatch, 2)
        fading = mcsim.sample_fading

        def failing(params, sim, g, counts):
            if g >= 25:
                raise ValueError(f"no fading for geometry {g}")
            return fading(params, sim, g, counts)

        monkeypatch.setattr(mcsim, "sample_fading", failing)
        with pytest.raises(ValueError, match="no fading for geometry 25$"):
            simulate_trials(self.NET, self.SIM)
        assert_no_child()

    def test_failing_first_range_leaves_no_worker(self, monkeypatch):
        self.cpus(monkeypatch, 3)
        fading = mcsim.sample_fading

        def failing(params, sim, g, counts):
            if g == 0:
                raise ValueError("no fading for geometry 0")
            return fading(params, sim, g, counts)

        monkeypatch.setattr(mcsim, "sample_fading", failing)
        with pytest.raises(ValueError, match="geometry 0"):
            simulate_trials(self.NET, self.SIM)
        assert_no_child()

    def test_killed_worker_rows_are_recomputed(self, monkeypatch):
        self.cpus(monkeypatch, 3)
        expected = simulate_trials(self.NET, self.SIM).received.tobytes()
        parent = os.getpid()
        fading = mcsim.sample_fading

        def dying(params, sim, g, counts):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return fading(params, sim, g, counts)

        monkeypatch.setattr(mcsim, "sample_fading", dying)
        assert simulate_trials(self.NET, self.SIM).received.tobytes() == expected
        assert_no_child()


class TestTruncation:
    def test_tail_mean_value(self):
        # sum lam P M * 2 pi R^(2-a) / (a - 2) by hand for the two-tier case.
        net = make_network(shapes=(2, 1))
        expected = (1.0 * 25.0 * 2 + 5.0 * 1.0 * 1) * 2.0 * math.pi * 4.0 ** -1.0 / 1.0
        assert tail_mean_interference(net, 4.0) == pytest.approx(expected, rel=1e-12)

    def test_default_radius_targets_count(self):
        net = make_network()
        r = default_region_radius(net)
        assert math.pi * r * r * 6.0 == pytest.approx(250.0, rel=1e-12)

    # The tail term is smallest against the noise at 1e3 (30 dB).
    @pytest.mark.parametrize("noise", [1e-4, 1e3], ids=["noise1e-4", "noise1e3"])
    @pytest.mark.parametrize("shapes", [(1, 1), (2, 3)], ids=["M11", "M23"])
    def test_radius_doubling_drift_small(self, shapes, noise):
        net = make_network(shapes=shapes, noise=noise)
        sim = sim_config(n_geometry=500, n_fading=10)
        assert radius_doubling_drift(net, sim) < 1e-3
