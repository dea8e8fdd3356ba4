"""Tests for network validation and the derived constants.

Oracles:

* interference constant A re-summed in-test with scipy.special.beta,
* the rate constant re-derived through its tail-integral form,
* the M = 1 collapse of the I_i to a single kernel evaluation.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from hetnetcov import model, pla
from hetnetcov.analysis import average_rate, coverage_probability
from hetnetcov.model import (
    MAX_NAKAGAMI_M,
    NetworkParams,
    TierParams,
    bell_table,
    interference_constant,
    rate_constants_at,
    require_valid,
    validate,
)
from oracles import script_i


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


def script_i_at_own_noise(net):
    """The (K,) I_i of `net` at its own noise power, from `model._script_i_at`."""
    return model._script_i_at(net, np.array([net.noise]))[:, 0]


class TestTierScriptI:
    def test_rayleigh_single_kernel_collapse(self):
        # With M = 1 the triple sum has exactly one term (k = l = r = 0),
        # so I equals the kernel at power zero.
        net = make_network()
        a_const = interference_constant(net)
        expected = pla.approx_gamma_kernel_integral(net.noise, a_const, 0.0, net.alpha)
        assert script_i_at_own_noise(net).tolist() == [expected, expected]

    def test_depends_only_on_shape(self):
        net = make_network(shapes=(3, 3))
        by_tier = script_i_at_own_noise(net)
        assert by_tier[0] == by_tier[1]

    def test_kernel_override_matches_quadrature_reference(self):
        net = make_network(shapes=(2, 3))
        approx = script_i_at_own_noise(net).tolist()
        exact = script_i(net, pla.exact_gamma_kernel_integral)
        assert approx == pytest.approx(exact, rel=0.02)

    def test_every_term_non_negative(self):
        # Every term of the triple sum has sign +1 (the proof is in
        # _script_i_by_shape's docstring), so it cannot cancel.  Re-sum it
        # term by term on both kernels over a seeded grid of networks: each
        # term is >= 0, and together they give the I_i.
        rng = np.random.default_rng(1604)
        n_terms = 0
        for _ in range(40):
            alpha, m = rng.uniform(2.05, 8.0), int(rng.integers(1, MAX_NAKAGAMI_M + 1))
            net = make_network(alpha=alpha, noise=10.0 ** rng.uniform(-8, 8),
                               densities=tuple(10.0 ** rng.uniform(-3, 3, 2)),
                               powers=tuple(10.0 ** rng.uniform(-3, 3, 2)), shapes=(m, 1))
            a_const = interference_constant(net)
            d_t, d_vals = 1.0, []
            for q in range(m - 1):
                d_t *= 2.0 / alpha - q
                d_vals.append(d_t)
            bell = bell_table(d_vals)
            for kernel in (pla.approx_gamma_kernel_integral, pla.exact_gamma_kernel_integral):
                at = {}
                terms = []
                for k in range(m):
                    for l in range(k + 1):
                        for r in range(l + 1):
                            power = r + (alpha / 2.0) * (k - l)
                            if power not in at:
                                with warnings.catch_warnings():
                                    warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
                                    at[power] = kernel(net.noise, a_const, power, alpha)
                            terms.append(math.comb(k, l) * net.noise ** (k - l) * (-1.0) ** l
                                         / math.factorial(k) * (-a_const) ** r * bell[l][r]
                                         * at[power])
                assert min(terms) >= 0.0, (alpha, m, net.noise, kernel.__name__)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
                    total = script_i(net, kernel)[0]
                assert math.fsum(terms) == pytest.approx(total, rel=1e-12)
                n_terms += len(terms)
        assert n_terms > 10000

    def test_positive_over_shapes(self):
        for m in (1, 2, 4, 8):
            net = make_network(shapes=(m, 1))
            assert script_i_at_own_noise(net)[0] > 0.0


class TestRateConstant:
    def test_one_evaluation_per_distinct_threshold(self, monkeypatch):
        # A sweep's tier with a repeated threshold evaluates its 2F1 once per
        # distinct threshold, and each element keeps the bits of its own call.
        betas = [2.0, 1.5, 2.0, 7.0, 1.5, 2.0]
        expected = [rate_constants_at(3.0, [beta])[0] for beta in betas]
        sizes = []
        hyp2f1_rate = model.hyp2f1_rate
        monkeypatch.setattr(model, "hyp2f1_rate",
                            lambda alpha, b: sizes.append(np.size(b)) or hyp2f1_rate(alpha, b))
        assert rate_constants_at(3.0, betas).tolist() == expected
        assert sizes == [3]

    def test_bounds(self):
        # ln(1+beta) < A_i <= ln(1+beta) + alpha/2 (the 2F1 term lies in (0, 1]).
        for alpha in (2.5, 3.0, 4.0):
            for beta in (1.1, 2.0, 10.0, 100.0):
                value = rate_constants_at(alpha, [beta])[0]
                assert math.log1p(beta) < value <= math.log1p(beta) + alpha / 2.0

    def test_large_threshold_limit(self):
        # The 2F1 factor tends to 1, so A_i approaches ln(1+beta) + alpha/2.
        value = rate_constants_at(3.0, [1e8])[0]
        assert value == pytest.approx(math.log1p(1e8) + 3.0 / 2.0, rel=1e-8)

    def test_against_tail_quadrature(self):
        for alpha in (2.5, 3.0, 4.0):
            for beta in (1.2589, 2.0, 7.5, 40.0):
                assert rate_constants_at(alpha, [beta])[0] == pytest.approx(
                    rate_constant_quadrature(alpha, beta), rel=1e-8
                )

    def test_frozen_spot_value(self):
        # alpha = 3, beta = 1.2589 (1 dB); oracle: tail quadrature above.
        assert rate_constants_at(3.0, [1.2589])[0] == pytest.approx(1.990057262609446,
                                                                    rel=1e-10)


def counting(kernel, calls):
    """`kernel`, appending the t-exponents of every call to `calls`, as one tuple per call."""
    def counted(u, v, power, alpha):
        calls.append(tuple(np.atleast_1d(power).tolist()))
        return kernel(u, v, power, alpha)

    return counted


class TestClosedFormBuild:
    """The closed form's threshold-free I_i: one kernel call for every distinct
    t-exponent, each exponent once, shared by every point of a sweep."""

    # -40..40 dB: from the figure regime into the PLA's noise-limited one.
    NOISES = 10.0 ** np.linspace(-4.0, 4.0, 41)

    def test_consistent_with_components(self):
        # The rate is the per-tier rate constants' mean, weighted by
        # lambda_i P_i^(2/a) beta_i^(-2/a) I_i.
        net = make_network(shapes=(2, 1))
        e = 2.0 / net.alpha
        weights = [t.density * t.power**e * t.threshold**-e * i_i
                   for t, i_i in zip(net.tiers, script_i_at_own_noise(net))]
        rates = rate_constants_at(net.alpha, [t.threshold for t in net.tiers])
        expected = sum(w * a_i for w, a_i in zip(weights, rates)) / sum(weights)
        assert average_rate(net) == pytest.approx(expected, rel=1e-14)

    def test_one_kernel_call_per_distinct_exponent(self, monkeypatch):
        # At alpha = 3, M = 2 needs the exponents {0, 1.5, 1} and M = 3
        # those plus {3, 2.5, 2}, exponent 1 twice: 6 (call, exponent)
        # pairs, not 10, in one call, in the order the sum meets them.
        net = make_network(shapes=(2, 3))
        expected = coverage_probability(net)
        calls = []
        monkeypatch.setattr(pla, "approx_gamma_kernel_integral",
                            counting(pla.approx_gamma_kernel_integral, calls))
        assert coverage_probability(net) == expected
        assert calls == [(0.0, 1.5, 1.0, 3.0, 2.5, 2.0)]

    def test_threshold_sweep_one_build(self, monkeypatch):
        # Every threshold of a sweep at one noise power shares the I_i:
        # one kernel call of 6 exponents for the sweep, not one per row.
        net = make_network(shapes=(2, 3))
        thresholds = [[2.0, 1.5], [40.0, 1.01], [1.1, 7.0], [3.0, 3.0]]
        calls = []
        monkeypatch.setattr(pla, "approx_gamma_kernel_integral",
                            counting(pla.approx_gamma_kernel_integral, calls))
        coverage_probability(net, thresholds, [net.noise] * len(thresholds))
        assert len(calls) == 1
        assert sorted(calls[0]) == [0.0, 1.0, 1.5, 2.0, 2.5, 3.0]

    def test_shapes_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pla, "approx_gamma_kernel_integral",
                            counting(pla.approx_gamma_kernel_integral, calls))
        coverage_probability(make_network(shapes=(3, 3)))
        pairs = [(call, power) for call, powers in enumerate(calls) for power in powers]
        assert len(calls) == 1
        assert len(pairs) == len({power for _, power in pairs}) == 6

    def test_kernel_looked_up_at_call_time(self, monkeypatch):
        # A kernel replaced on the pla module (as a tracer does) is the one
        # the default resolves to.
        calls = []
        monkeypatch.setattr(pla, "approx_gamma_kernel_integral",
                            counting(pla.approx_gamma_kernel_integral, calls))
        coverage_probability(make_network())
        script_i_at_own_noise(make_network())
        assert calls == [(0.0,), (0.0,)]

    def test_one_kernel_call_per_exponent_for_all_noises(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pla, "approx_gamma_kernel_integral",
                            counting(pla.approx_gamma_kernel_integral, calls))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
            coverage_probability(make_network(shapes=(2, 3)),
                                 [[2.0, 1.5]] * self.NOISES.size, self.NOISES)
        assert len(calls) == 1
        assert sorted(calls[0]) == [0.0, 1.0, 1.5, 2.0, 2.5, 3.0]

    def test_noise_powers_validated(self):
        net = make_network()
        with pytest.raises(ValueError, match=r"noise power must be positive \(got 0.0\)"):
            coverage_probability(net, [[2.0, 1.5]] * 2, [1e-3, 0.0])
        with pytest.raises(ValueError, match="1-d"):
            coverage_probability(net, [[2.0, 1.5]], [[1e-3]])
        with pytest.raises(ValueError, match="alpha"):
            coverage_probability(make_network(alpha=2.0), [[2.0, 1.5]], [1e-3])
