"""Tests for network validation and the derived constants.

Oracles:

* interference constant A re-summed in-test with scipy.special.beta,
* the rate constant re-derived through its tail-integral form,
* the M = 1 collapse of tier_script_I to a single kernel evaluation.
"""

import math

import pytest
import scipy.integrate
import scipy.special

from hetnetcov import pla
from hetnetcov.analysis import average_rate
from hetnetcov.model import (
    MAX_NAKAGAMI_M,
    NetworkParams,
    TierParams,
    derived_constants,
    interference_constant,
    rate_constant,
    require_valid,
    tier_script_I,
    validate,
)


def make_network(alpha=3.0, noise=1e-4, densities=(1.0, 5.0), powers=(25.0, 1.0),
                 thresholds=(2.0, 1.5), shapes=(1, 1)):
    tiers = tuple(
        TierParams(density=d, power=p, threshold=b, nakagami_m=m)
        for d, p, b, m in zip(densities, powers, thresholds, shapes)
    )
    return NetworkParams(alpha=alpha, noise=noise, tiers=tiers)


def rate_constant_quadrature(alpha, beta):
    """ln(1+beta) plus the tail integral form of the hypergeometric term."""
    b = 2.0 / alpha
    tail, err = scipy.integrate.quad(
        lambda y: y ** (-b) / (1.0 + y), beta, math.inf, epsabs=0, epsrel=1e-12
    )
    return math.log1p(beta) + (alpha / 2.0) * b * beta**b * tail


class TestValidate:
    def test_valid_network_passes(self):
        assert validate(make_network()) == []
        require_valid(make_network())

    def test_alpha_at_most_two_rejected(self):
        errors = validate(make_network(alpha=2.0))
        assert len(errors) == 1
        assert "alpha" in errors[0]

    def test_threshold_must_exceed_one(self):
        errors = validate(make_network(thresholds=(1.0, 1.5)))
        assert len(errors) == 1
        assert "tier 0" in errors[0]
        assert "union bound" in errors[0]

    def test_violations_aggregate(self):
        bad = make_network(alpha=1.5, noise=-1.0, densities=(0.0, 5.0),
                           thresholds=(0.5, 1.5), shapes=(0, 1))
        errors = validate(bad)
        assert len(errors) == 5
        with pytest.raises(ValueError, match="invalid network parameters"):
            require_valid(bad)

    def test_shape_cap(self):
        errors = validate(make_network(shapes=(MAX_NAKAGAMI_M + 1, 1)))
        assert len(errors) == 1
        assert str(MAX_NAKAGAMI_M) in errors[0]
        assert validate(make_network(shapes=(MAX_NAKAGAMI_M, 1))) == []

    def test_non_integer_shape_rejected(self):
        errors = validate(make_network(shapes=(2.0, 1)))
        assert len(errors) == 1
        assert "integer" in errors[0]

    def test_bool_shape_rejected(self):
        # bool is an int subclass; True must not pass as M = 1.
        errors = validate(make_network(shapes=(True, 1)))
        assert len(errors) == 1
        assert "tier 0" in errors[0] and "integer" in errors[0]


class TestInterferenceConstant:
    def test_single_tier_rayleigh_closed_value(self):
        # lambda = P = 1, M = 1, alpha = 4:
        # A = (2 pi / 4) Gamma(1/2) Gamma(1/2) = pi^2 / 2
        net = make_network(alpha=4.0, densities=(1.0,), powers=(1.0,),
                           thresholds=(2.0,), shapes=(1,))
        assert interference_constant(net) == pytest.approx(math.pi**2 / 2, rel=1e-12)

    def test_rayleigh_reflection_identity(self):
        # With every M = 1 the Beta function collapses to
        # Gamma(2/a) Gamma(1-2/a) = pi / sin(2 pi / a).
        for alpha in (2.5, 3.0, 3.5, 4.0, 5.0):
            net = make_network(alpha=alpha)
            expected = (
                (2.0 * math.pi / alpha)
                * math.pi
                / math.sin(2.0 * math.pi / alpha)
                * sum(t.density * t.power ** (2.0 / alpha) for t in net.tiers)
            )
            assert interference_constant(net) == pytest.approx(expected, rel=1e-12)

    def test_against_independent_resummation(self):
        net = make_network(shapes=(3, 2))
        a = net.alpha
        expected = 0.0
        for tier in net.tiers:
            m = tier.nakagami_m
            inner = sum(
                math.comb(m, p)
                * (2.0 * math.pi / a)
                * scipy.special.beta(m - p + 2.0 / a, p - 2.0 / a)
                for p in range(1, m + 1)
            )
            expected += tier.density * tier.power ** (2.0 / a) * inner
        assert interference_constant(net) == pytest.approx(expected, rel=1e-12)

    def test_scales_linearly_in_density(self):
        base = make_network()
        scaled = make_network(densities=(3.0, 15.0))
        assert interference_constant(scaled) == pytest.approx(
            3.0 * interference_constant(base), rel=1e-12
        )


class TestTierScriptI:
    def test_rayleigh_single_kernel_collapse(self):
        # With M = 1 the triple sum has exactly one term (k = l = r = 0),
        # so I equals the kernel at power zero.
        net = make_network()
        a_const = interference_constant(net)
        expected = pla.approx_gamma_kernel_integral(net.noise, a_const, 0.0, net.alpha)
        assert tier_script_I(net, 0) == expected
        assert tier_script_I(net, 1) == expected
        assert derived_constants(net).script_i == (expected, expected)

    def test_depends_only_on_shape(self):
        net = make_network(shapes=(3, 3))
        assert tier_script_I(net, 0) == tier_script_I(net, 1)
        script_i = derived_constants(net).script_i
        assert script_i[0] == script_i[1]

    def test_kernel_override_matches_quadrature_reference(self):
        net = make_network(shapes=(2, 3))
        for i in range(net.n_tiers):
            approx = tier_script_I(net, i)
            exact = tier_script_I(net, i, kernel=pla.exact_gamma_kernel_integral)
            assert approx == pytest.approx(exact, rel=0.02)

    def test_positive_over_shapes(self):
        for m in (1, 2, 4, 8):
            net = make_network(shapes=(m, 1))
            assert tier_script_I(net, 0) > 0.0
            assert derived_constants(net).script_i[0] > 0.0

    def test_tier_index_bounds(self):
        net = make_network()
        with pytest.raises(IndexError):
            tier_script_I(net, 2)
        with pytest.raises(IndexError):
            tier_script_I(net, -1)


class TestRateConstant:
    def test_bounds(self):
        # ln(1+beta) < A_i <= ln(1+beta) + alpha/2 (the 2F1 term lies in (0, 1]).
        for alpha in (2.5, 3.0, 4.0):
            for beta in (1.1, 2.0, 10.0, 100.0):
                net = make_network(alpha=alpha, thresholds=(beta, beta))
                value = rate_constant(net, 0)
                assert math.log1p(beta) < value <= math.log1p(beta) + alpha / 2.0

    def test_large_threshold_limit(self):
        # The 2F1 factor tends to 1, so A_i approaches ln(1+beta) + alpha/2.
        net = make_network(thresholds=(1e8, 1e8))
        value = rate_constant(net, 0)
        assert value == pytest.approx(math.log1p(1e8) + net.alpha / 2.0, rel=1e-8)

    def test_against_tail_quadrature(self):
        for alpha in (2.5, 3.0, 4.0):
            for beta in (1.2589, 2.0, 7.5, 40.0):
                net = make_network(alpha=alpha, thresholds=(beta, beta))
                assert rate_constant(net, 0) == pytest.approx(
                    rate_constant_quadrature(alpha, beta), rel=1e-8
                )

    def test_frozen_spot_value(self):
        # alpha = 3, beta = 1.2589 (1 dB); oracle: tail quadrature above.
        net = make_network(alpha=3.0, thresholds=(1.2589, 1.2589))
        assert rate_constant(net, 0) == pytest.approx(1.990057262609446, rel=1e-10)


def counting(kernel, calls):
    """`kernel`, appending the t-exponent of every call to `calls`."""
    def counted(u, v, power, alpha):
        calls.append(power)
        return kernel(u, v, power, alpha)

    return counted


class TestDerivedConstants:
    def test_consistent_with_components(self):
        net = make_network(shapes=(2, 1))
        dc = derived_constants(net)
        assert dc.script_i == tuple(tier_script_I(net, i) for i in range(2))
        # The rate built on the object is the per-tier rate constants'
        # mean, weighted by lambda_i P_i^(2/a) beta_i^(-2/a) I_i.
        e = 2.0 / net.alpha
        weights = [t.density * t.power**e * t.threshold**-e * si
                   for t, si in zip(net.tiers, dc.script_i)]
        expected = sum(w * rate_constant(net, i) for i, w in enumerate(weights)) / sum(weights)
        assert average_rate(net, constants=dc).value == pytest.approx(expected, rel=1e-14)

    def test_threshold_free(self):
        # One object serves every point of a threshold sweep.
        net = make_network(shapes=(2, 3))
        other = make_network(shapes=(2, 3), thresholds=(40.0, 1.01))
        assert derived_constants(net) == derived_constants(other)

    def test_one_kernel_call_per_distinct_exponent(self, monkeypatch):
        # At alpha = 3, M = 2 needs the exponents {0, 1.5, 1} and M = 3
        # those plus {3, 2.5, 2}, exponent 1 twice: 6 calls, not 10.
        net = make_network(shapes=(2, 3))
        expected = derived_constants(net).script_i
        calls = []
        monkeypatch.setattr(pla, "approx_gamma_kernel_integral",
                            counting(pla.approx_gamma_kernel_integral, calls))
        assert derived_constants(net).script_i == expected
        assert sorted(calls) == [0.0, 1.0, 1.5, 2.0, 2.5, 3.0]

    def test_shapes_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pla, "approx_gamma_kernel_integral",
                            counting(pla.approx_gamma_kernel_integral, calls))
        derived_constants(make_network(shapes=(3, 3)))
        assert len(calls) == len(set(calls)) == 6

    def test_kernel_looked_up_at_call_time(self, monkeypatch):
        # A kernel replaced on the pla module (as a tracer does) is the one
        # the default resolves to.
        calls = []
        monkeypatch.setattr(pla, "approx_gamma_kernel_integral",
                            counting(pla.approx_gamma_kernel_integral, calls))
        derived_constants(make_network())
        tier_script_I(make_network(), 0)
        assert calls == [0.0, 0.0]
