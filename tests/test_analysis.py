"""Tests for coverage and rate analysis.

Independent oracles:

* a 2-D polar coverage quadrature that never forms the kernel integral,
* the displacement-theorem coverage against the paper's triple sum on
  the exact kernel, and its noise-free sin limit,
* the arctan closed form of the alpha = 4 rate hypergeometric,
* the piecewise CCDF quadrature of `oracles.rate_reference`,
* the paper's explicit Rayleigh corollary, `oracles.rayleigh_coverage`
  and `oracles.rayleigh_rate`.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

from hetnetcov.analysis import (
    average_rate,
    coverage_probability,
    coverage_reference,
    rate_exact,
)
from hetnetcov import pla
from hetnetcov.model import NetworkParams, TierParams, rate_constants_at
from oracles import (conditional_ccdf, rate_reference, rayleigh_coverage, rayleigh_rate,
                     script_i)


def make_network(alpha=3.0, noise=1e-4, densities=(1.0, 5.0), powers=(25.0, 1.0),
                 thresholds=(1.2589, 1.2589), shapes=(1, 1)):
    tiers = tuple(
        TierParams(density=d, power=p, threshold=b, nakagami_m=m)
        for d, p, b, m in zip(densities, powers, thresholds, shapes)
    )
    return NetworkParams(alpha=alpha, noise=noise, tiers=tiers)


def coverage_polar_quadrature(params):
    """All-Rayleigh coverage by direct radial integration.

    P_c = sum_i 2 pi lambda_i int_0^inf r exp(-beta_i sigma^2 r^alpha / P_i
          - V (beta_i / P_i)^(2/alpha) r^2) dr,
    with V the Rayleigh interference constant.  Derived without the
    kernel-integral substitution, so it is independent of the code path
    under test.
    """
    a = params.alpha
    e = 2.0 / a
    v = (
        (2.0 * math.pi / a)
        * math.gamma(e)
        * math.gamma(1.0 - e)
        * sum(t.density * t.power**e for t in params.tiers)
    )
    total = 0.0
    for t in params.tiers:
        def integrand(r, t=t):
            return r * math.exp(
                -t.threshold * params.noise * r**a / t.power
                - v * (t.threshold / t.power) ** e * r**2
            )
        part, err = scipy.integrate.quad(integrand, 0.0, math.inf,
                                         epsabs=0.0, epsrel=1e-11, limit=200)
        assert err < 1e-9 * part
        total += 2.0 * math.pi * t.density * part
    return total


class TestCoverage:
    def test_rayleigh_identity(self):
        # The explicit exponential form and the incomplete-gamma form are
        # the same algebra; they must agree to rounding.
        for alpha in (2.5, 3.0, 4.0):
            for noise in (1e-4, 1e-2, 1.0):
                net = make_network(alpha=alpha, noise=noise)
                a = coverage_probability(net)
                b = rayleigh_coverage(net)
                assert a == pytest.approx(b, rel=1e-10)

    def test_reference_matches_polar_quadrature(self):
        for alpha in (2.5, 3.0, 4.0):
            net = make_network(alpha=alpha, thresholds=(2.0, 1.5))
            assert coverage_reference(net) == pytest.approx(
                coverage_polar_quadrature(net), rel=1e-8
            )

    def test_closed_form_near_reference(self):
        net = make_network(shapes=(2, 3), thresholds=(2.0, 1.5))
        approx = coverage_probability(net)
        exact = coverage_reference(net)
        assert approx == pytest.approx(exact, rel=0.02)

    def test_monotone_in_threshold(self):
        values = []
        for beta_db in (1.0, 3.0, 6.0, 10.0, 15.0):
            beta = 10.0 ** (beta_db / 10.0)
            net = make_network(thresholds=(beta, 1.2589))
            values.append(coverage_probability(net))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_noise(self):
        values = []
        # Below sigma^2 ~ 1 this configuration is interference limited and
        # the curve is flat to rounding, so probe the noise-limited side.
        for noise in (1.0, 100.0, 1e4, 1e6):
            net = make_network(noise=noise)
            values.append(coverage_probability(net))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_power_noise_scale_invariance(self):
        # Scaling every transmit power and the noise by the same factor
        # leaves all SINRs, hence coverage, unchanged.
        base = make_network(shapes=(2, 1))
        for s in (0.1, 10.0):
            scaled = make_network(noise=base.noise * s,
                                  powers=(25.0 * s, 1.0 * s), shapes=(2, 1))
            assert coverage_probability(scaled) == pytest.approx(
                coverage_probability(base), rel=1e-12
            )

    def test_vanishes_at_extreme_threshold(self):
        net = make_network(thresholds=(1e9, 1e9))
        assert coverage_probability(net) < 1e-4

    def test_clamp_guard(self, monkeypatch):
        # A kernel lying an order of magnitude high must trip the guard
        # rather than silently clamp.
        net = make_network()

        def bad_kernel(u, v, power, alpha):
            return np.full((len(power), len(u)), 10.0 / v)

        monkeypatch.setattr(pla, "approx_gamma_kernel_integral", bad_kernel)
        with pytest.raises(ArithmeticError, match="outside"):
            coverage_probability(net)

    @pytest.mark.filterwarnings("ignore")
    def test_non_finite_rejected(self):
        # Just above alpha = 2 and at a noise power near the float floor the
        # closed forms' constants come out NaN; NaN fails both comparisons
        # of a range check, so it must be caught explicitly.
        net = make_network(alpha=2.000000001, noise=1e-299, thresholds=(3.1623, 1.2589))
        for route in (coverage_probability, average_rate, rate_reference):
            with pytest.raises(ArithmeticError, match="nan"):
                route(net)


def displacement_masses(params):
    """a_i = pi lambda_i P_i^(2/a) Gamma(M_i + 2/a) / Gamma(M_i)."""
    e = 2.0 / params.alpha
    return [math.pi * t.density * t.power**e
            * math.gamma(t.nakagami_m + e) / math.gamma(t.nakagami_m)
            for t in params.tiers]


class TestDisplacementReference:
    """The paper's triple sum and the displacement form share no algebra."""

    def test_triple_sum_on_exact_kernel(self):
        # sum_i pi lambda_i P_i^(2/a) beta_i^(-2/a) I_i with the I_i of the
        # paper's Bell-polynomial sum, evaluated on the exact kernel.
        # Measured worst gap: 3.6e-15, at alpha = 2.5, sigma^2 = 1e2 and
        # shapes (1, 16); the kernel's own tolerance is 1e-11.
        worst = 0.0
        for alpha in (2.5, 3.0, 4.0):
            e = 2.0 / alpha
            for noise in (1e-4, 1e-2, 1.0, 1e2):
                for m in range(1, 17):
                    net = make_network(alpha=alpha, noise=noise, thresholds=(3.1623, 1.2589),
                                       shapes=(m, 17 - m))
                    triple_sum = sum(
                        math.pi * t.density * t.power**e * t.threshold**-e * i_i
                        for t, i_i in zip(net.tiers,
                                          script_i(net, pla.exact_gamma_kernel_integral))
                    )
                    reference = coverage_reference(net)
                    worst = max(worst, abs(triple_sum - reference) / reference)
        assert worst < 1e-11

    @pytest.mark.parametrize("shapes", [(1, 1), (2, 3), (16, 5)])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_noise_free_limit(self, alpha, shapes):
        # As sigma^2 -> 0, P_c -> sin(pi d)/(pi d) sum_i a_i beta_i^(-d) / a;
        # at sigma^2 = 1e-12 the measured gap was at most 1.2e-15.
        net = make_network(alpha=alpha, noise=1e-12, thresholds=(3.1623, 1.2589),
                           shapes=shapes)
        e = 2.0 / alpha
        masses = displacement_masses(net)
        limit = (math.sin(math.pi * e) / (math.pi * e)
                 * sum(a * t.threshold**-e for a, t in zip(masses, net.tiers)) / sum(masses))
        assert coverage_reference(net) == pytest.approx(limit, rel=1e-14)


class TestConditionalCcdf:
    def test_one_below_min_threshold(self):
        net = make_network(thresholds=(2.0, 1.5))
        assert conditional_ccdf(net, 0.0) == 1.0
        assert conditional_ccdf(net, 1.5) == 1.0

    def test_non_increasing_to_zero(self):
        net = make_network(thresholds=(2.0, 1.5), shapes=(2, 1))
        ys = [0.5, 1.5, 1.8, 2.0, 5.0, 50.0, 5000.0]
        values = [conditional_ccdf(net, y) for y in ys]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            conditional_ccdf(make_network(), -1.0)


class TestRate:
    def test_rayleigh_identity(self):
        # With every M equal the kernel factor cancels from the weighted
        # mean, so the general and Rayleigh forms coincide exactly.
        net = make_network(thresholds=(2.0, 1.5))
        assert average_rate(net) == pytest.approx(
            rayleigh_rate(net), rel=1e-14
        )

    def test_rayleigh_noise_invariance(self):
        # The I_i cancel at every noise power, so the closed form's rate is
        # the exact rate, noise free, which is what the CLI's rayleigh
        # column reports.
        for noise in (1e-6, 10.0):
            net = make_network(noise=noise, thresholds=(2.0, 1.5))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
                closed = average_rate(net)
            assert closed == pytest.approx(rate_exact(net), rel=1e-14)

    def test_exact_rate_weights(self):
        # The rate constants averaged with the displacement masses
        # a_i beta_i^(-2/a), whatever the noise; with M = 1 everywhere that
        # is the Rayleigh corollary's rate.
        net = make_network(thresholds=(2.0, 1.4), shapes=(2, 3))
        e = 2.0 / net.alpha
        weights = [a * t.threshold**-e for a, t in zip(displacement_masses(net), net.tiers)]
        rates = rate_constants_at(net.alpha, [t.threshold for t in net.tiers])
        expected = sum(w * a_i for w, a_i in zip(weights, rates)) / sum(weights)
        assert rate_exact(net) == pytest.approx(expected, rel=1e-14)
        assert rate_exact(replace(net, noise=1e4)) == rate_exact(net)
        rayleigh = make_network(thresholds=(2.0, 1.4))
        assert rate_exact(rayleigh) == pytest.approx(rayleigh_rate(rayleigh), rel=1e-14)

    def test_against_ccdf_quadrature(self):
        for shapes in ((1, 1), (2, 3)):
            net = make_network(thresholds=(2.0, 1.4), shapes=shapes)
            closed = average_rate(net)
            quad = rate_reference(net)
            assert closed == pytest.approx(quad, rel=1e-6)

    def test_single_tier_arctan_value(self):
        # K = 1, alpha = 4, beta = e - 1:
        # A = 1 + 2 * arctan(sqrt(x)) / sqrt(x) with x = 1 / (e - 1),
        # using 2F1(1, 1/2; 3/2; -x) = arctan(sqrt(x)) / sqrt(x).
        beta = math.e - 1.0
        net = make_network(alpha=4.0, densities=(1.0,), powers=(1.0,),
                           thresholds=(beta,), shapes=(1,))
        x = 1.0 / beta
        expected = 1.0 + 2.0 * math.atan(math.sqrt(x)) / math.sqrt(x)
        assert average_rate(net) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_threshold(self):
        # Raising a threshold discards the low-SINR covered region, so the
        # conditional rate rises.
        values = []
        for beta in (1.2, 2.0, 5.0, 20.0):
            net = make_network(thresholds=(beta, beta))
            values.append(average_rate(net))
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rate_exceeds_log_threshold_floor(self):
        net = make_network(thresholds=(2.0, 1.5), shapes=(2, 1))
        assert average_rate(net) > math.log1p(1.5)


class TestPrebuiltConstants:
    """The threshold-free part of a route, built once per sweep: its kernels
    are looked up on `pla` when called, and the reference's one kernel
    quadrature serves every noise power of a sweep."""

    def test_kernel_replaced_on_module_still_fits(self, monkeypatch):
        # A kernel rebound on the pla module (as a tracer does) is looked up
        # when called, by the closed form and by the reference alike.
        net = make_network(shapes=(2, 3))
        closed, reference = coverage_probability(net), coverage_reference(net)
        for name in ("approx_gamma_kernel_integral", "exact_gamma_kernel_integral"):
            original = getattr(pla, name)
            monkeypatch.setattr(pla, name, lambda *args, kernel=original: kernel(*args))
        assert coverage_probability(net) == closed
        assert coverage_reference(net) == reference

    @pytest.mark.parametrize("shapes", [(1, 1), (2, 3), (16, 1)])
    def test_reference_at_equals_per_noise_calls(self, shapes):
        # One quadrature over a sweep's noise powers gives each noise the
        # bits of its own `coverage_reference`.
        net = make_network(shapes=shapes)
        noises = [10.0 ** (db / 10.0) for db in range(-60, 61, 5)]
        thresholds = [[t.threshold for t in net.tiers]] * len(noises)
        assert coverage_reference(net, thresholds, noises).tolist() == [
            coverage_reference(replace(net, noise=noise)) for noise in noises]
        with pytest.raises(ValueError, match="noise power must be positive"):
            coverage_reference(net, thresholds[:2], [1e-3, -1.0])


class TestArrayRoutes:
    """A route at n points equals the route on each point's network, bit for bit."""

    ROUTES = [coverage_probability, average_rate, coverage_reference, rate_exact]

    @pytest.mark.parametrize("shapes", [(1, 1, 1), (2, 3, 1)])
    def test_equal_to_route_at_each_point(self, shapes):
        # Thresholds and noise powers both vary and noise powers repeat, so
        # each build per distinct noise power must reach all of its points.
        rng = np.random.default_rng(3)
        net = make_network(densities=(1.0, 5.0, 0.5), powers=(25.0, 1.0, 4.0),
                           thresholds=(2.0, 2.0, 2.0), shapes=shapes)
        thresholds = 1.0 + 10.0 ** rng.uniform(-2.0, 2.0, (40, 3))
        noises = 10.0 ** rng.choice(np.linspace(-4.0, 3.0, 8), 40)
        points = [replace(net, noise=float(noise), tiers=tuple(
            replace(t, threshold=float(beta)) for t, beta in zip(net.tiers, row)))
            for row, noise in zip(thresholds, noises)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
            for route in self.ROUTES:
                values = route(net, thresholds, noises)
                assert values.tolist() == [route(p) for p in points], route.__name__

    @pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.__name__)
    def test_own_point_is_a_float(self, route):
        # Without points a route evaluates the network's own point, as the
        # one element of the route at that point given as arrays.
        net = make_network(thresholds=(2.0, 1.5))
        value = route(net)
        assert type(value) is float
        at = route(net, [[t.threshold for t in net.tiers]], [net.noise])
        assert at.shape == (1,)
        assert value == at[0]
        with pytest.raises(ValueError, match="or neither"):
            route(net, thresholds=[[2.0, 1.5]])
        with pytest.raises(ValueError, match="or neither"):
            route(net, noises=[net.noise])

    def test_points_validated(self):
        net = make_network()
        with pytest.raises(ValueError, match=r"tier 1: SINR threshold must exceed 1 .*got 1.0"):
            coverage_probability(net, [[2.0, 2.0], [2.0, 1.0]], [1e-3, 1e-3])
        with pytest.raises(ValueError, match=r"noise power must be positive \(got 0.0\)"):
            average_rate(net, [[2.0, 2.0]], [0.0])
        with pytest.raises(ValueError, match=r"shape \(points, tiers\) = \(1, 2\)"):
            rate_exact(net, [[2.0, 2.0, 2.0]], [1e-3])
        with pytest.raises(ValueError, match=r"noise power must be finite \(got inf\)"):
            coverage_reference(net, [[2.0, 2.0], [2.0, 2.0]], [1e-3, math.inf])
        with pytest.raises(ValueError, match=r"tier 1: SINR threshold must be finite"):
            average_rate(net, [[2.0, 2.0], [2.0, math.inf]], [1e-3, 1e-3])
