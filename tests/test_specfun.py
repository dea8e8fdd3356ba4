"""The special functions of the closed forms, each against an independent
oracle: the PLA kernel's lower incomplete gamma, the rate constant's 2F1,
and the partial Bell polynomials of the coverage kernel's triple sum."""

import itertools
import math
import random

import numpy as np
import pytest
from scipy import integrate, special

from hetnetcov.model import bell_table, hyp2f1_rate
from hetnetcov.pla import _lower_gamma


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


def partial_bell(l, r, x):
    """B_{l,r}(x_1, ..., x_{l-r+1}), read from the table `bell_table` builds."""
    return bell_table(list(x) + [0.0] * r)[l][r]


class TestLowerIncompleteGamma:
    def test_empty_integral(self):
        assert _lower_gamma([1.0], 0.0)[0] == 0.0

    def test_exponential_case(self):
        assert _lower_gamma([1.0], 2.0)[0] == pytest.approx(1 - math.exp(-2), rel=1e-14)

    def test_against_quadrature(self):
        assert _lower_gamma([2.5], 1.7)[0] == pytest.approx(
            gamma_quadrature(2.5, 1.7), rel=1e-10
        )

    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 7.0, 19.5])
    def test_quadrature_battery(self, s):
        for x in [0.01, 0.5, s, 3 * s + 5, 50.0]:
            assert _lower_gamma([s], x)[0] == pytest.approx(
                gamma_quadrature(s, x), rel=1e-10
            )

    def test_rows_are_one_s_each(self):
        # The PLA kernel takes many s in one call, against a 1-d or a 2-d x:
        # row j is gammainc(s_j, x) Gamma(s_j), bit for bit.
        s = [0.3, 1.0, 2.5, 7.0, 19.5]
        x = np.array([0.01, 0.5, 2.5, 20.0, 50.0])
        for xs in (x, np.stack([x, 3 * x])):
            rows = _lower_gamma(s, xs)
            assert rows.shape == (len(s),) + xs.shape
            for s_j, row in zip(s, rows):
                assert np.array_equal(row, special.gammainc(s_j, xs) * math.gamma(s_j))

    def test_monotone_and_saturates(self):
        for s in [0.5, 1.0, 3.3]:
            values = _lower_gamma([s], [0, 0.1, 1, 5, 20, 200])[0].tolist()
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[-1] == pytest.approx(math.gamma(s), rel=1e-12)

    def test_integer_shape_finite_sum(self):
        # gamma(1+z, x) = z! (1 - e^-x sum_{k<=z} x^k/k!)
        for z in range(6):
            for x in [0.2, 1.0, 4.5, 12.0]:
                finite = math.factorial(z) * (
                    1 - math.exp(-x) * sum(x**k / math.factorial(k) for k in range(z + 1))
                )
                assert _lower_gamma([z + 1], x)[0] == pytest.approx(finite, rel=1e-12)


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
        with pytest.raises(ValueError, match=r"beta > 0, got -1.0"):
            hyp2f1_rate(4.0, np.array([2.0, -1.0]))

    def test_array_equals_scalar_calls(self):
        betas = np.array([1.0, 1.2589, 5.0, 1e6])
        values = hyp2f1_rate(3.0, betas)
        assert isinstance(values, np.ndarray) and isinstance(hyp2f1_rate(3.0, 5.0), float)
        assert values.tolist() == [hyp2f1_rate(3.0, float(b)) for b in betas]


class TestPartialBell:
    def test_empty_partition(self):
        assert partial_bell(0, 0, []) == 1.0

    def test_singleton(self):
        assert partial_bell(1, 1, [5.0]) == 5.0

    def test_three_two(self):
        assert partial_bell(3, 2, [0.5, -0.25]) == pytest.approx(-0.375, rel=1e-14)

    def test_bruteforce_equivalence(self):
        rng = random.Random(20240817)
        for l in range(9):
            for r in range(l + 1):
                x = [rng.uniform(-2, 2) for _ in range(l - r + 1)]
                assert partial_bell(l, r, x) == pytest.approx(
                    bell_bruteforce(l, r, x), rel=1e-10, abs=1e-12
                )

    def test_whole_table(self):
        # The model reads every entry of one table, built once per shape.
        rng = random.Random(20261018)
        x = [rng.uniform(-2, 2) for _ in range(8)]
        table = bell_table(x)
        assert [len(row) for row in table] == list(range(1, 10))
        for l in range(9):
            for r in range(l + 1):
                assert table[l][r] == pytest.approx(
                    bell_bruteforce(l, r, x), rel=1e-10, abs=1e-12
                )

    def test_scaling_law(self):
        # B_{l,r}(a b x1, a b^2 x2, ...) = a^r b^l B_{l,r}(x1, x2, ...)
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
