import itertools
import math

import pytest
from scipy import integrate

from hetnetcov.specfun import (
    beta_function,
    d_sequence,
    hyp2f1_rate,
    lower_incomplete_gamma,
    partial_bell,
)


def gamma_quadrature(s, x):
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, _ = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), 0.0, x,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def hyp_quadrature(alpha, beta):
    """Oracle from the tail integral: 2F1 = (2/a) b^(2/a) int_b^inf y^(-2/a)/(1+y) dy."""
    e = 2.0 / alpha
    val, _ = integrate.quad(lambda y: y**-e / (1.0 + y), beta, math.inf,
                            epsabs=0.0, epsrel=1e-12, limit=400)
    return e * beta**e * val


def bell_bruteforce(l, r, x):
    """Explicit enumeration over all j-vectors with sum j = r, sum t*j_t = l."""
    n = l - r + 1
    total = 0.0
    for js in itertools.product(range(r + 1), repeat=n):
        if sum(js) != r or sum((t + 1) * j for t, j in enumerate(js)) != l:
            continue
        coef = math.factorial(l)
        for j in js:
            coef /= math.factorial(j)
        term = coef
        for t, j in enumerate(js):
            term *= (x[t] / math.factorial(t + 1)) ** j
        total += term
    return total


class TestLowerIncompleteGamma:
    def test_empty_integral(self):
        assert lower_incomplete_gamma(1.0, 0.0) == 0.0

    def test_exponential_case(self):
        assert lower_incomplete_gamma(1.0, 2.0) == pytest.approx(1 - math.exp(-2), rel=1e-14)

    def test_against_quadrature(self):
        assert lower_incomplete_gamma(2.5, 1.7) == pytest.approx(
            gamma_quadrature(2.5, 1.7), rel=1e-10
        )

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 7.0, 19.5])
    def test_quadrature_battery(self, s):
        for x in [0.01, 0.5, s, 3 * s + 5, 50.0]:
            assert lower_incomplete_gamma(s, x) == pytest.approx(
                gamma_quadrature(s, x), rel=1e-10
            )

    def test_monotone_and_saturates(self):
        for s in [0.5, 1.0, 3.3]:
            values = [lower_incomplete_gamma(s, x) for x in [0, 0.1, 1, 5, 20, 200]]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[-1] == pytest.approx(math.gamma(s), rel=1e-12)

    def test_integer_shape_finite_sum(self):
        # gamma(1+z, x) = z! (1 - e^-x sum_{k<=z} x^k/k!)
        for z in range(6):
            for x in [0.2, 1.0, 4.5, 12.0]:
                finite = math.factorial(z) * (
                    1 - math.exp(-x) * sum(x**k / math.factorial(k) for k in range(z + 1))
                )
                assert lower_incomplete_gamma(z + 1, x) == pytest.approx(finite, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            lower_incomplete_gamma(1.0, -0.1)


class TestBetaFunction:
    def test_uniform_normalizer(self):
        assert beta_function(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_halves(self):
        assert beta_function(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_reflection(self):
        assert beta_function(2 / 3, 1 / 3) == pytest.approx(2 * math.pi / math.sqrt(3), rel=1e-12)

    def test_symmetry_and_unit_second_arg(self):
        for a, b in [(0.3, 2.7), (1.5, 4.0), (0.9, 0.04)]:
            assert beta_function(a, b) == pytest.approx(beta_function(b, a), rel=1e-14)
            assert beta_function(a, 1.0) == pytest.approx(1.0 / a, rel=1e-13)

    def test_domain_errors(self):
        for a, b in [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)]:
            with pytest.raises(ValueError):
                beta_function(a, b)


class TestHyp2f1Rate:
    def test_arctan_identity(self):
        # z * 2F1(1, 1/2; 3/2; -z^2) = arctan z at z = 1
        assert hyp2f1_rate(4.0, 1.0) == pytest.approx(math.pi / 4, rel=1e-10)

    def test_unit_limit(self):
        assert hyp2f1_rate(4.0, 1e12) == pytest.approx(1.0, abs=1e-6)

    def test_tail_integral_spot(self):
        assert hyp2f1_rate(3.0, 1.2589) == pytest.approx(
            hyp_quadrature(3.0, 1.2589), rel=1e-8
        )

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_tail_integral_grid(self, alpha):
        for beta in [1.0, 1.5, 2.0, 5.0, 10.0, 100.0]:
            assert hyp2f1_rate(alpha, beta) == pytest.approx(
                hyp_quadrature(alpha, beta), rel=1e-8
            )
            assert 0.0 < hyp2f1_rate(alpha, beta) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1_rate(2.0, 1.0)
        with pytest.raises(ValueError):
            hyp2f1_rate(4.0, 0.0)


class TestPartialBell:
    def test_empty_partition(self):
        assert partial_bell(0, 0, []) == 1.0

    def test_singleton(self):
        assert partial_bell(1, 1, [5.0]) == 5.0

    def test_three_two(self):
        assert partial_bell(3, 2, [0.5, -0.25]) == pytest.approx(-0.375, rel=1e-14)

    def test_bruteforce_equivalence(self):
        import random

        rng = random.Random(20240817)
        for l in range(9):
            for r in range(l + 1):
                x = [rng.uniform(-2, 2) for _ in range(l - r + 1)]
                assert partial_bell(l, r, x) == pytest.approx(
                    bell_bruteforce(l, r, x), rel=1e-10, abs=1e-12
                )

    def test_scaling_law(self):
        # B_{l,r}(a b x1, a b^2 x2, ...) = a^r b^l B_{l,r}(x1, x2, ...)
        import random

        rng = random.Random(7)
        for _ in range(30):
            l = rng.randint(0, 8)
            r = rng.randint(0, l)
            x = [rng.uniform(-1.5, 1.5) for _ in range(l - r + 1)]
            a, b = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
            scaled = [a * b ** (t + 1) * v for t, v in enumerate(x)]
            assert partial_bell(l, r, scaled) == pytest.approx(
                a**r * b**l * partial_bell(l, r, x), rel=1e-10, abs=1e-12
            )

    def test_bell_numbers(self):
        bell_numbers = [1, 1, 2, 5, 15, 52]
        for l, expected in enumerate(bell_numbers):
            total = sum(partial_bell(l, r, [1.0] * (l - r + 1)) for r in range(l + 1))
            assert total == pytest.approx(expected, rel=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            partial_bell(3, 4, [1.0])
        with pytest.raises(ValueError):
            partial_bell(3, -1, [1.0] * 5)
        with pytest.raises(ValueError):
            partial_bell(3, 2, [1.0])  # needs exactly 2 arguments


class TestDSequence:
    def test_first_values(self):
        assert d_sequence(4.0, 1) == pytest.approx(0.5)
        assert d_sequence(4.0, 2) == pytest.approx(-0.25)
        assert d_sequence(3.0, 3) == pytest.approx((2 / 3) * (2 / 3 - 1) * (2 / 3 - 2), rel=1e-14)

    def test_sign_alternates_after_first(self):
        for alpha in [2.5, 3.0, 6.0]:
            assert d_sequence(alpha, 1) > 0
            for t in range(2, 8):
                assert d_sequence(alpha, t) * (-1) ** (t - 1) > 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            d_sequence(2.0, 1)
        with pytest.raises(ValueError):
            d_sequence(3.0, 0)
