import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from hetnetcov import pla
from hetnetcov.pla import (
    PlaAccuracyWarning,
    QuadratureError,
    approx_gamma_kernel_integral,
    approx_kernel_error_bound,
    check_kernel_regime,
    exact_gamma_kernel_integral,
    pla_coefficients,
)
from oracles import pla_surrogate


# Ten times the exact kernel's own tolerance, pla._AGREE: errors below it are
# not resolved.
REFERENCE_REL_TOL = 1e-10


def surrogate_quadrature(u, v, power, alpha):
    """Independent evaluation: integrate the surrogate integrand directly."""
    co = pla_coefficients(alpha)
    s = u ** (2.0 / alpha)

    def f(t):
        return pla_surrogate(s * t, co) * math.exp(-v * t) * t**power

    head, _ = integrate.quad(f, 0.0, co.x1 / s, epsabs=0.0, epsrel=1e-12, limit=200)
    mid, _ = integrate.quad(f, co.x1 / s, co.x2 / s, epsabs=0.0, epsrel=1e-12, limit=200)
    return head + mid


class TestPlaCoefficients:
    def test_alpha_four_values(self):
        co = pla_coefficients(4.0)
        assert co.m == pytest.approx(-0.857764, abs=1e-6)
        assert co.c == pytest.approx(1.213061, abs=1e-6)
        assert co.x0 == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert co.x1 == pytest.approx(0.2483916, abs=1e-6)
        assert co.x2 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_alpha_three_values(self):
        co = pla_coefficients(3.0)
        assert co.m == pytest.approx(-0.7452226, abs=1e-6)
        assert co.c == pytest.approx(1.0747970, abs=1e-6)
        assert co.x0 == pytest.approx((1 / 3) ** (2 / 3), rel=1e-12)
        assert co.x1 == pytest.approx(0.1003686, abs=1e-6)
        assert co.x2 == pytest.approx(3.0 ** (1 / 3), rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.1, 2.5, 3.0, 3.7, 4.0, 6.0, 10.0])
    def test_defining_equations(self, alpha):
        co = pla_coefficients(alpha)
        assert co.m < 0
        assert 0 <= co.x1 < co.x0 < co.x2
        assert co.m * co.x1 + co.c == pytest.approx(1.0, abs=1e-12)
        assert co.m * co.x2 + co.c == pytest.approx(0.0, abs=1e-12)
        # tangency at the inflection point
        assert co.m * co.x0 + co.c == pytest.approx(
            math.exp(-co.x0 ** (alpha / 2)), abs=1e-12
        )

    def test_surrogate_is_clipped_line(self):
        co = pla_coefficients(3.0)
        assert pla_surrogate(0.0, co) == 1.0
        assert pla_surrogate(co.x1 / 2, co) == 1.0
        assert pla_surrogate(co.x0, co) == pytest.approx(co.m * co.x0 + co.c)
        assert pla_surrogate(co.x2 + 1.0, co) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pla_coefficients(2.0)


class TestApproxKernelIntegral:
    def test_spot_value(self):
        # exact counterpart is e^(1/4) (sqrt(pi)/2) erfc(1/2) ~ 0.545641
        assert approx_gamma_kernel_integral(1.0, 1.0, 0.0, 4.0) == pytest.approx(
            0.53944, abs=1e-4
        )

    def test_vanishing_u_limit(self):
        # e^(-U t^(alpha/2)) -> 1, so the integral tends to Gamma(1)/V = 1
        assert approx_gamma_kernel_integral(1e-12, 1.0, 0.0, 3.0) == pytest.approx(
            1.0, rel=1e-3
        )

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_equals_surrogate_integral(self, alpha):
        # The closed form must reproduce the surrogate integrand exactly;
        # any discrepancy here is a formula bug, not approximation loss.
        for u in [0.05, 1.0, 4.0]:
            for v in [0.5, 2.0, 30.0]:
                for power in [0.0, 0.5, 1.5, 4.0]:
                    closed = approx_gamma_kernel_integral(u, v, power, alpha)
                    assert closed == pytest.approx(
                        surrogate_quadrature(u, v, power, alpha), rel=1e-9
                    )

    def test_scale_structure(self):
        # Depends on (U, V) only through V^-(p+1) and the ratio V/U^(2/alpha).
        alpha, power = 3.0, 1.5
        u, v, scale = 0.7, 2.0, 5.0
        base = approx_gamma_kernel_integral(u, v, power, alpha)
        # scale V by s and U by s^(alpha/2): ratio preserved, prefactor s^-(p+1)
        scaled = approx_gamma_kernel_integral(
            u * scale ** (alpha / 2), v * scale, power, alpha
        )
        assert scaled == pytest.approx(base * scale ** -(power + 1), rel=1e-12)

    def test_monotone_in_u_and_v(self):
        alpha, power = 3.5, 1.0
        for u1, u2 in [(0.1, 0.2), (1.0, 3.0)]:
            assert approx_gamma_kernel_integral(u2, 1.0, power, alpha) < \
                approx_gamma_kernel_integral(u1, 1.0, power, alpha)
        for v1, v2 in [(0.5, 1.0), (2.0, 10.0)]:
            assert approx_gamma_kernel_integral(1.0, v2, power, alpha) < \
                approx_gamma_kernel_integral(1.0, v1, power, alpha)

    def test_positive(self):
        assert approx_gamma_kernel_integral(3.0, 0.02, 4.0, 2.5) > 0.0

    def test_domain_errors(self):
        for bad in [(0.0, 1.0, 0.0, 3.0), (1.0, 0.0, 0.0, 3.0),
                    (1.0, 1.0, -0.5, 3.0), (1.0, 1.0, 0.0, 2.0)]:
            with pytest.raises(ValueError):
                approx_gamma_kernel_integral(*bad)
        for power in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"finite power >= 0, got {power}"):
                approx_gamma_kernel_integral(1.0, 1.0, power, 3.0)
            with pytest.raises(ValueError, match=f"finite power >= 0, got {power}"):
                approx_kernel_error_bound(1.0, 1.0, power, 3.0)


def mpmath_kernel(u, v, power, alpha):
    """int_0^inf exp(-v t - u t^(alpha/2)) t^power dt at 30 digits, in z = ln t.

    The integrand exp(H(z)), H(z) = P z - v e^z - u e^(alpha z / 2) with
    P = power + 1, is log-concave with its peak at the root z* of
    H'(z) = 0, found by bisection, and width w = (-H''(z*))^(-1/2).  The
    breakpoints sit at z* and 16 widths either side, and the left end 80/P
    further out, where e^(P z) has dropped by e^-80.  The integrand is
    divided by its peak value, since mpmath's quadrature stops on an
    absolute error: fixed breakpoints [0, 1, 10, 100, inf] in t gave
    1.8e-178 against 6.03e-174 at (alpha = 8, U = 1e12, V = 1e3, p = 60).
    """
    with mpmath.workdps(30):
        u, v, alpha, weight = (mpmath.mpf(x) for x in (u, v, alpha, power + 1.0))

        def log_integrand(z):
            return weight * z - v * mpmath.exp(z) - u * mpmath.exp(alpha * z / 2)

        def slope(z):
            return weight - v * mpmath.exp(z) - alpha / 2 * u * mpmath.exp(alpha * z / 2)

        lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
        while slope(lo) < 0:
            lo *= 2
        while slope(hi) > 0:
            hi *= 2
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
        peak = lo
        width = 1 / mpmath.sqrt(v * mpmath.exp(peak)
                                + (alpha / 2) ** 2 * u * mpmath.exp(alpha * peak / 2))
        top = log_integrand(peak)
        integral = mpmath.quad(lambda z: mpmath.exp(log_integrand(z) - top),
                               [peak - 16 * width - 80 / weight, peak, peak + 16 * width],
                               method="gauss-legendre")
        return float(mpmath.exp(top) * integral)


class TestExactKernelIntegral:
    def test_against_mpmath(self):
        # A seeded grid over alpha in [2.05, 8], U in [1e-12, 1e12] and
        # V in [1e-3, 1e3]: the eight corners at power 0 and at the largest
        # exponent of M = 16, 7.5 alpha (60 at alpha = 8), 40 points at
        # power 0 and 40 at an exponent of M <= 16 drawn at their alpha.
        rng = np.random.default_rng(20161604)
        grid = [(a, u, v, p) for a in (2.05, 8.0) for u in (1e-12, 1e12) for v in (1e-3, 1e3)
                for p in (0.0, 7.5 * a)]
        grid += zip(rng.uniform(2.05, 8.0, 40), 10.0 ** rng.uniform(-12, 12, 40),
                    10.0 ** rng.uniform(-3, 3, 40), [0.0] * 40)
        for alpha, u, v in zip(rng.uniform(2.05, 8.0, 40), 10.0 ** rng.uniform(-12, 12, 40),
                               10.0 ** rng.uniform(-3, 3, 40)):
            exponents = sorted({r + (alpha / 2.0) * (k - l)
                                for k in range(16) for l in range(k + 1) for r in range(l + 1)})
            grid.append((alpha, u, v, rng.choice(exponents)))
        assert max(p for *_, p in grid) == 60.0
        for alpha, u, v, power in grid:
            expected = mpmath_kernel(u, v, power, alpha)
            assert exact_gamma_kernel_integral(u, v, power, alpha) == pytest.approx(
                expected, rel=REFERENCE_REL_TOL), (alpha, u, v, power)

    def test_erfc_spot_value(self):
        # At alpha = 4 the derivative of exp(-t - t^2) is -(1 + 2t) times
        # itself, so int t exp(-t - t^2) dt = (1 - I0) / 2, with I0 the
        # power-0 kernel in erfc form.
        zero_power = math.exp(0.25) * (math.sqrt(math.pi) / 2) * math.erfc(0.5)
        expected = (1.0 - zero_power) / 2.0
        assert exact_gamma_kernel_integral(1.0, 1.0, 1.0, 4.0) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(0.227179, abs=1e-6)

    def test_gamma_limit(self):
        # U -> 0 with t^1: Gamma(2)/V^2 = 1
        assert exact_gamma_kernel_integral(1e-12, 1.0, 1.0, 3.0) == pytest.approx(
            1.0, rel=1e-6)

    def test_tanh_sinh_cross_check(self):
        u, v, power, alpha = 2.0, 3.0, 0.5, 2.5
        ts = float(
            mpmath.quad(
                lambda t: mpmath.exp(-v * t - u * t ** (alpha / 2)) * t**power,
                [0, mpmath.inf],
            )
        )
        assert exact_gamma_kernel_integral(u, v, power, alpha) == pytest.approx(ts, rel=1e-9)

    def test_underflow_raises(self):
        # The integral is about 1e-630 here: not a float64.
        with pytest.raises(QuadratureError, match="gave 0.0"):
            exact_gamma_kernel_integral(1e12, 1.0, 60.0, 2.05)

    def test_tau_power_underflow_alone_is_not_zero(self):
        # tau^61 = 1e-366 underflows, the kernel Gamma(61) / V^61 = 8.3e-285
        # does not.
        expected = math.exp(math.lgamma(61.0) - 61.0 * math.log(1e6))
        assert exact_gamma_kernel_integral(1e-12, 1e6, 60.0, 8.0) == pytest.approx(
            expected, rel=1e-12)

    def test_non_finite_integrand_raises(self):
        # An infinite V or U makes the integrand nan: no two step sizes agree.
        with pytest.raises(QuadratureError, match="did not converge"):
            exact_gamma_kernel_integral(1.0, math.inf, 0.0, 3.0)
        # One such point fails the whole array, and is named.
        with pytest.raises(QuadratureError, match="u=inf"):
            exact_gamma_kernel_integral(np.array([1.0, math.inf, 2.0]), 1.0, 1.5, 3.0)

    def test_unconverged_step_raises(self, monkeypatch):
        # At (1, 1, alpha = 4) the first halving does not yet agree to
        # 1e-11; with no second one allowed the quadrature must raise
        # rather than return the unconverged sum.
        monkeypatch.setattr(pla, "_MAX_HALVINGS", 1)
        with pytest.raises(QuadratureError, match="after 1 halvings"):
            exact_gamma_kernel_integral(1.0, 1.0, 0.0, 4.0)
        monkeypatch.setattr(pla, "_MAX_HALVINGS", 2)
        assert exact_gamma_kernel_integral(1.0, 1.0, 0.0, 4.0) > 0.0

    def test_domain_errors(self):
        for bad in [(1.0, -1.0, 1.5, 3.0), (1.0, 1.0, 1.5, 2.0), (1.0, 1.0, -0.5, 3.0)]:
            with pytest.raises(ValueError):
                exact_gamma_kernel_integral(*bad)
        for power in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"finite power >= 0, got {power}"):
                exact_gamma_kernel_integral(1.0, 1.0, power, 3.0)


class TestExactZeroPowerKernel:
    """The exact kernel at power 0, the only power the CLI's reference asks for."""

    def test_erfc_spot_value(self):
        expected = math.exp(0.25) * (math.sqrt(math.pi) / 2) * math.erfc(0.5)
        assert exact_gamma_kernel_integral(1.0, 1.0, 0.0, 4.0) == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(0.545641, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="U > 0, got -1.0"):
            exact_gamma_kernel_integral(np.array([1.0, -1.0]), 1.0, 0.0, 3.0)
        with pytest.raises(ValueError, match="1-d"):
            exact_gamma_kernel_integral(np.ones((2, 2)), 1.0, 0.0, 3.0)
        with pytest.raises(ValueError):
            exact_gamma_kernel_integral(1.0, 1.0, 0.0, 2.0)


class TestArrayU:
    """An array of U gives, element by element, the bits of the float calls."""

    # From the figure regime to where the PLA warns, and across 1e-12..1e12.
    U = 10.0 ** np.linspace(-12, 12, 97)

    @pytest.mark.parametrize("power", [0.0, 1.5, 4.0])
    @pytest.mark.parametrize("alpha", [2.05, 3.0, 4.5, 8.0])
    def test_exact_kernel(self, alpha, power):
        batched = exact_gamma_kernel_integral(self.U, 30.0, power, alpha)
        assert isinstance(batched, np.ndarray)
        assert batched.tolist() == [exact_gamma_kernel_integral(u, 30.0, power, alpha)
                                    for u in self.U]

    @pytest.mark.parametrize("power", [0.0, 1.5, 4.0])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 6.0])
    def test_approx_kernel_and_bound(self, alpha, power):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlaAccuracyWarning)
            values = approx_gamma_kernel_integral(self.U, 30.0, power, alpha)
            singles = [approx_gamma_kernel_integral(u, 30.0, power, alpha) for u in self.U]
        assert values.tolist() == singles
        assert all(isinstance(x, float) for x in singles)
        bounds = approx_kernel_error_bound(self.U, 30.0, power, alpha)
        assert bounds.tolist() == [approx_kernel_error_bound(u, 30.0, power, alpha)
                                   for u in self.U]

    def test_one_warning_per_flagged_call(self, pla_warnings):
        # The array call warns once, carrying every flagged point; each float
        # call warns once if its point is flagged and is silent otherwise.
        def kernel(u):
            return pla.approx_gamma_kernel_integral(u, 30.0, 1.5, 3.0)

        _, swept, swept_calls = pla_warnings(lambda: kernel(self.U))
        _, alone, alone_calls = pla_warnings(lambda: [kernel(u) for u in self.U])
        bounds = approx_kernel_error_bound(self.U, 30.0, 1.5, 3.0)
        flagged = bounds > pla.PLA_WARN_BOUND
        assert 0 < flagged.sum() < len(self.U)
        assert swept == swept_calls == [tuple(
            (u, 30.0, 1.5, 3.0, b) for u, b in zip(self.U[flagged], bounds[flagged]))]
        assert alone == alone_calls
        assert len(alone) == flagged.sum()
        assert sum(swept, ()) == sum(alone, ())

    def test_summary_message_names_count_and_worst(self):
        u = np.array([1e-8, 10.0, 1e3])
        with pytest.warns(PlaAccuracyWarning) as caught:
            approx_gamma_kernel_integral(u, 0.01, 4.0, 2.5)
        bounds = approx_kernel_error_bound(u, 0.01, 4.0, 2.5)
        assert len(caught) == 1 and (bounds > pla.PLA_WARN_BOUND).sum() == 2
        worst = int(np.argmax(bounds))
        message = str(caught[0].message)
        assert message.startswith("PLA kernel error bound exceeds 5% at 2 of 3 points, "
                                  f"the largest ({bounds[worst]:.1%}) at U={u[worst]:.6g}, ")
        assert f"(w = V/U^(2/alpha) = {0.01 / u[worst] ** 0.8:.4g})" in message

    def test_array_domain_error_names_the_value(self):
        with pytest.raises(ValueError, match="U > 0, got 0.0"):
            approx_gamma_kernel_integral(np.array([1.0, 0.0]), 1.0, 0.0, 3.0)


class TestArrayPowers:
    """An array of exponents gives, row by row, the bits of the float calls."""

    # Criterion 6a's stress-grid exponents, and 60, at which the bracket is
    # <= 0 over part of U at V = 0.01, so that the bound reads inf there.
    POWERS = np.append(np.arange(9) / 2.0, 60.0)
    U = 10.0 ** np.linspace(-4.0, 4.0, 500)

    @pytest.mark.parametrize("v", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0])
    def test_rows_equal_float_calls(self, alpha, v):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlaAccuracyWarning)
            values = approx_gamma_kernel_integral(self.U, v, self.POWERS, alpha)
            rows = [approx_gamma_kernel_integral(self.U, v, p, alpha) for p in self.POWERS]
            at_one_u = approx_gamma_kernel_integral(self.U[7], v, self.POWERS, alpha)
        bounds = approx_kernel_error_bound(self.U, v, self.POWERS, alpha)
        assert values.shape == bounds.shape == (self.POWERS.size, self.U.size)
        # Bytes, so that a nan, an inf or a signed zero must match too.
        assert values.tobytes() == np.array(rows).tobytes()
        assert bounds.tobytes() == np.array(
            [approx_kernel_error_bound(self.U, v, p, alpha) for p in self.POWERS]).tobytes()
        assert at_one_u.shape == (self.POWERS.size,)
        assert at_one_u.tobytes() == values[:, 7].tobytes()
        assert [float(b) for b in approx_kernel_error_bound(self.U[7], v, self.POWERS, alpha)] \
            == [approx_kernel_error_bound(float(self.U[7]), v, float(p), alpha)
                for p in self.POWERS]

    def test_bound_reads_inf_where_bracket_not_positive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlaAccuracyWarning)
            values = approx_gamma_kernel_integral(self.U, 0.01, self.POWERS, 3.0)
        bounds = approx_kernel_error_bound(self.U, 0.01, self.POWERS, 3.0)
        unbounded = ~(values > 0.0)
        assert unbounded[-1].any() and not unbounded[:-1].any()
        assert np.isinf(bounds[unbounded]).all()

    @pytest.mark.parametrize("call", [approx_gamma_kernel_integral, check_kernel_regime])
    def test_one_warning_per_flagged_exponent(self, call):
        # At V = 30 and U up to 1 only the 4 largest exponents flag a point.
        u = self.U[:250]

        def caught(run):
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                run()
            return [(str(w.message), w.message.u, w.message.bound, w.message.v,
                     w.message.power, w.message.alpha, w.filename)
                    for w in records if w.category is PlaAccuracyWarning]

        swept = caught(lambda: call(u, 30.0, self.POWERS, 3.0))
        alone = caught(lambda: [call(u, 30.0, p, 3.0) for p in self.POWERS])
        assert swept == alone
        assert [w[4] for w in swept] == [3.0, 3.5, 4.0, 60.0]
        assert {w[6] for w in swept} == {__file__}

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="finite power >= 0, got -0.5"):
            approx_gamma_kernel_integral(1.0, 1.0, np.array([0.0, -0.5]), 3.0)
        with pytest.raises(ValueError, match="the power to be a float or a 1-d array"):
            approx_kernel_error_bound(1.0, 1.0, np.zeros((2, 2)), 3.0)


class TestApproxVersusExact:
    def test_figure_regime_accuracy(self):
        # Noise-dominated-by-interference regime of the two-tier setups:
        # V ~ 100, U = sigma^2 <= 1e-2, exponents up to r + (a/2)(k-l) for
        # shapes up to 3.  The scaled knot argument is large and the
        # approximation is tight, so the kernel stays silent.
        alpha, v = 3.0, 100.0
        for u in [1e-4, 1e-3, 1e-2]:
            for power in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5]:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", PlaAccuracyWarning)
                    approx = approx_gamma_kernel_integral(u, v, power, alpha)
                exact = exact_gamma_kernel_integral(u, v, power, alpha)
                assert approx == pytest.approx(exact, rel=2e-2)

    def test_known_loss_at_moderate_ratio(self):
        # At (U=0.5, V=2, t^1.5, alpha=3) the scaled knot argument is ~3.2
        # and the measured surrogate loss is ~5.0%; freeze that behaviour.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlaAccuracyWarning)
            approx = approx_gamma_kernel_integral(0.5, 2.0, 1.5, 3.0)
        exact = exact_gamma_kernel_integral(0.5, 2.0, 1.5, 3.0)
        rel = abs(approx - exact) / exact
        assert 0.03 < rel < 0.06
        assert approx_kernel_error_bound(0.5, 2.0, 1.5, 3.0) >= rel


class TestErrorBound:
    @pytest.mark.parametrize("alpha", [2.2, 2.7, 4.5, 6.0])
    def test_bounds_measured_loss_off_grid(self, alpha):
        # Exponents, path-loss values and (U, V) pairs away from criterion
        # 6a's grid, so the bound is not checked only where it is judged.
        # At large w the bound is tight to first order, so the comparison
        # allows the quadrature reference's own relative tolerance.
        for power in [0.25, 1.3, 2.7, 5.5]:
            for u, v in [(3e-3, 0.5), (0.3, 0.03), (2.0, 7.0), (25.0, 0.2), (0.04, 300.0)]:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", PlaAccuracyWarning)
                    approx = approx_gamma_kernel_integral(u, v, power, alpha)
                exact = exact_gamma_kernel_integral(u, v, power, alpha)
                rel = abs(approx - exact) / exact
                assert approx_kernel_error_bound(u, v, power, alpha) + REFERENCE_REL_TOL >= rel

    def test_depends_on_scaled_ratio_only(self):
        # Like the relative error itself, the bound sees (U, V) only
        # through w = V / U^(2/alpha).
        alpha, power, scale = 3.0, 1.5, 5.0
        base = approx_kernel_error_bound(0.7, 2.0, power, alpha)
        scaled = approx_kernel_error_bound(0.7 * scale ** (alpha / 2), 2.0 * scale, power, alpha)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_shrinks_with_interference(self):
        bounds = [approx_kernel_error_bound(1.0, v, 2.0, 3.0) for v in [0.1, 1.0, 10.0, 100.0]]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] < 1e-2

    def test_scalar_message(self):
        # Criterion 6a's worst point: one warning, in the single-point wording.
        with pytest.warns(PlaAccuracyWarning) as caught:
            approx_gamma_kernel_integral(10.0, 0.01, 4.0, 2.5)
        assert len(caught) == 1
        assert str(caught[0].message) == (
            "PLA kernel error bound 99.6% exceeds 5% at U=10, V=0.01, power=4, alpha=2.5 "
            "(w = V/U^(2/alpha) = 0.001585); the closed form may be far from the exact integral")
        warning = caught[0].message
        assert (warning.u, warning.v, warning.power, warning.alpha) == ((10.0,), 0.01, 4.0, 2.5)
        assert warning.bound == (approx_kernel_error_bound(10.0, 0.01, 4.0, 2.5),)

    def test_warning_leaves_value_unchanged(self):
        with pytest.warns(PlaAccuracyWarning, match="error bound"):
            warned = approx_gamma_kernel_integral(10.0, 0.01, 4.0, 2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PlaAccuracyWarning)
            quiet = approx_gamma_kernel_integral(10.0, 0.01, 4.0, 2.5)
        assert warned == quiet

    def test_check_kernel_regime(self):
        with pytest.warns(PlaAccuracyWarning):
            bound = check_kernel_regime(10.0, 0.01, 0.0, 3.0)
        assert bound == approx_kernel_error_bound(10.0, 0.01, 0.0, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PlaAccuracyWarning)
            assert check_kernel_regime(1e-3, 100.0, 0.0, 3.0) < 1e-3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            approx_kernel_error_bound(1.0, 0.0, 0.0, 3.0)
