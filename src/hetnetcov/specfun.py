"""Scalar special-function kernels.

Everything the closed-form coverage/rate expressions need: the lower
incomplete gamma function, the Beta function, the particular Gauss
hypergeometric value 2F1(1, 2/a; 1+2/a; -1/b) appearing in the per-tier
rate constant (these three from `scipy.special`), partial Bell
polynomials, and the falling-product sequence D_t = prod_{q<t} (2/alpha - q).

All functions are pure and thread-safe; memoisation is per-call only.
"""

from __future__ import annotations

import math
from typing import Sequence

from scipy import special

__all__ = [
    "lower_incomplete_gamma",
    "beta_function",
    "hyp2f1_rate",
    "partial_bell",
    "d_sequence",
]


def lower_incomplete_gamma(s: float, x: float) -> float:
    """gamma(s, x) = int_0^x t^(s-1) e^(-t) dt for s > 0, x >= 0.

    scipy's regularized `gammainc` times Gamma(s).
    """
    if not (s > 0):
        raise ValueError(f"lower_incomplete_gamma requires s > 0, got s={s}")
    if x < 0:
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got x={x}")
    return float(special.gammainc(s, x) * math.gamma(s))


def beta_function(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    if not (a > 0 and b > 0):
        raise ValueError(f"beta_function requires positive arguments, got ({a}, {b})")
    return float(special.beta(a, b))


def hyp2f1_rate(alpha: float, beta_threshold: float) -> float:
    """2F1(1, 2/alpha; 1 + 2/alpha; -1/beta) for alpha > 2, beta > 0."""
    if not (alpha > 2):
        raise ValueError(f"hyp2f1_rate requires alpha > 2, got {alpha}")
    if not (beta_threshold > 0):
        raise ValueError(f"hyp2f1_rate requires beta > 0, got {beta_threshold}")
    b = 2.0 / alpha
    return float(special.hyp2f1(1.0, b, 1.0 + b, -1.0 / beta_threshold))


def partial_bell(l: int, r: int, args: Sequence[float]) -> float:
    """Partial (incomplete) Bell polynomial B_{l,r}(x_1, ..., x_{l-r+1}).

    Evaluated through the standard recurrence
        B_{l,r} = sum_{j=1}^{l-r+1} C(l-1, j-1) x_j B_{l-j, r-1},
    memoised per call.  The brute-force partition enumeration lives in the
    test suite as an independent oracle.
    """
    x = tuple(float(v) for v in args)
    if l == 0 and r == 0 and not x:
        return 1.0
    if r < 0 or r > l:
        raise ValueError(f"need 0 <= r <= l, got l={l}, r={r}")
    if len(x) != l - r + 1:
        raise ValueError(f"B_{{{l},{r}}} takes exactly {l - r + 1} arguments, got {len(x)}")

    cache: dict[tuple[int, int], float] = {}

    def bell(n: int, k: int) -> float:
        if n == 0 and k == 0:
            return 1.0
        if n == 0 or k == 0:
            return 0.0
        key = (n, k)
        if key in cache:
            return cache[key]
        total = 0.0
        for j in range(1, n - k + 2):
            total += math.comb(n - 1, j - 1) * x[j - 1] * bell(n - j, k - 1)
        cache[key] = total
        return total

    return bell(l, r)


def d_sequence(alpha: float, t: int) -> float:
    """D_t = prod_{q=0}^{t-1} (2/alpha - q); alpha > 2, t >= 1."""
    if not (alpha > 2):
        raise ValueError(f"d_sequence requires alpha > 2, got {alpha}")
    if t < 1:
        raise ValueError(f"d_sequence requires t >= 1, got {t}")
    v = 2.0 / alpha
    out = 1.0
    for q in range(t):
        out *= v - q
    return out
