"""Piecewise-linear surrogate for exp(-x^(alpha/2)) and the kernel integral.

The canonical integral

    int_0^inf exp(-V t - U t^(alpha/2)) t^p dt        (alpha > 2, U, V > 0)

shows up in every term of the coverage sum.  Replacing exp(-x^(alpha/2))
by a three-piece linear surrogate (1 below x1, m x + c between the knots,
0 above x2) turns each term into a short combination of lower incomplete
gamma functions.  `exact_gamma_kernel_integral` evaluates the integral
itself, by the trapezoid rule on a log scale: at power 0 it is the kernel
of the coverage reference, and at any power it measures the
approximation loss.

The surrogate is accurate only where the integrand mass sits near the
origin.  `approx_kernel_error_bound` bounds its relative error a priori, in
closed form, and `approx_gamma_kernel_integral` raises one `PlaAccuracyWarning`
per exponent whose bound exceeds `PLA_WARN_BOUND` at some point.

The PLA kernel and its bound take U and the t-exponent each as a float
or a 1-d array (a sweep's noise powers, the coverage sum's exponents),
one row per exponent; the exact kernel takes one exponent.  A float is
evaluated as an array of length 1: numpy's elementwise operations give
the same bits for an element whatever the array's length, so a value
alone equals, bit for bit, the same value computed inside a sweep.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "PLA_WARN_BOUND",
    "PlaAccuracyWarning",
    "PlaCoefficients",
    "QuadratureError",
    "pla_coefficients",
    "approx_gamma_kernel_integral",
    "approx_kernel_error_bound",
    "exact_gamma_kernel_integral",
]

# A closed-form kernel whose a-priori relative error bound exceeds this
# raises PlaAccuracyWarning.
PLA_WARN_BOUND = 0.05


class QuadratureError(RuntimeError):
    """A quadrature did not converge, or gave a value that is not finite and positive."""


class PlaAccuracyWarning(UserWarning):
    """The PLA kernel is outside its regime: its error bound exceeds PLA_WARN_BOUND.

    One kernel call raises at most one per exponent, for all of its
    points over PLA_WARN_BOUND, and carries them as data:

    u, bound : tuples of floats, the flagged points' U and error bound, in
               point order;
    v, power, alpha : the call's V, the exponent and the path-loss exponent.
    """

    def __init__(self, message: str, u: tuple = (), bound: tuple = (), v: float = math.nan,
                 power: float = math.nan, alpha: float = math.nan):
        super().__init__(message)
        self.u, self.bound = tuple(u), tuple(bound)
        self.v, self.power, self.alpha = v, power, alpha


@dataclass(frozen=True)
class PlaCoefficients:
    """Knots and line parameters of the surrogate for exp(-x^(alpha/2))."""

    alpha: float
    m: float   # slope, negative
    c: float   # intercept
    x0: float  # inflection point, where the line is tangent
    x1: float  # left knot: m x1 + c = 1
    x2: float  # right knot: m x2 + c = 0


def pla_coefficients(alpha: float) -> PlaCoefficients:
    """Line through the inflection point of exp(-x^(alpha/2)), clipped to [0, 1].

    x0 = (1 - 2/alpha)^(2/alpha) is the inflection point, m the derivative
    there, c the matching intercept; x1, x2 solve m x + c = 1 and 0.
    """
    if not (alpha > 2):
        raise ValueError(f"pla_coefficients requires alpha > 2, got {alpha}")
    s = 1.0 - 2.0 / alpha  # in (0, 1)
    x0 = s ** (2.0 / alpha)
    m = -(alpha / 2.0) * s ** s * math.exp(-s)
    c = (alpha / 2.0) * math.exp(-s)
    x1 = (1.0 - c) / m
    x2 = -c / m
    return PlaCoefficients(alpha=alpha, m=m, c=c, x0=x0, x1=x1, x2=x2)


def approx_gamma_kernel_integral(u, v: float, power, alpha: float):
    """Closed-form approximation of int_0^inf e^(-v t - u t^(alpha/2)) t^power dt.

    `power` is the (real, >= 0) exponent of t; the classical statement with
    integrand t^(n/2) corresponds to power = n/2.  `u` and `power` are floats
    or 1-d arrays; the result has power's shape, then u's: one row per
    exponent.  Raises one PlaAccuracyWarning per exponent whose
    `approx_kernel_error_bound` exceeds PLA_WARN_BOUND at some point, carrying
    those points; the returned value is the same either way.
    """
    us, powers, shape = _kernel_args(u, v, power, alpha)
    bracket, bound = _bracket_and_bound(us, v, powers, alpha)
    for p, row in zip(powers, bound):
        _warn_outside_regime(row, us, v, p, alpha)
    return _shaped(bracket / np.array([[v ** (p + 1.0)] for p in powers]), shape)


def approx_kernel_error_bound(u, v: float, power, alpha: float):
    """A-priori bound on |approx - exact| / exact for the kernel integral.

    Substituting x = u^(2/alpha) t scales out u: the relative error depends
    only on w = v / u^(2/alpha), the power p and alpha.  With
    f(x) = exp(-x^(alpha/2)), g the surrogate and A (resp. A_hat) the
    integral of e^(-w x) x^p against f (resp. g), the error is
    A_hat - A = D_left - D_right, split at the inflection point x0 where the
    surrogate's line is tangent:

    * On [0, x0] f is concave, so g >= f, and g - f <= 1 - f <= x^(alpha/2):
        D_left <= B_left = gamma(p + alpha/2 + 1, w x0) / w^(p + alpha/2 + 1).
    * On [x0, inf) f is convex, so 0 <= g <= f, and f - g <= f.  Since
      x^(alpha/2) is convex, x^(alpha/2) >= x0^(alpha/2) + kappa (x - x0)
      with kappa = (alpha/2) x0^(alpha/2 - 1), so f(x) <= f(x0) e^(-kappa (x - x0)):
        D_right <= B_right = f(x0) e^(kappa x0) Gamma(p + 1, (w + kappa) x0) / (w + kappa)^(p + 1).

    An underestimate has A = A_hat + d with 0 <= d <= D_right, an
    overestimate A = A_hat - d with 0 <= d <= D_left, and d / A is
    increasing in d in both cases, so

        |A_hat - A| / A <= max(B_right / (A_hat + B_right), B_left / (A_hat - B_left)),

    read as infinite when B_left >= A_hat.  Both B are incomplete gammas and
    A_hat is the closed form itself: no quadrature and no fitted constant.
    The bound is tight as w -> inf, where the overshoot near the origin
    dominates, and loose at small w.  `u`, `power` and the result's shape as
    in `approx_gamma_kernel_integral`.
    """
    us, powers, shape = _kernel_args(u, v, power, alpha)
    return _shaped(_bracket_and_bound(us, v, powers, alpha)[1], shape)


def _lower_gamma(s, x):
    """gamma(s, x) = int_0^x t^(s-1) e^(-t) dt for s > 0 and x >= 0, unchecked: scipy's
    regularized `gammainc` times Gamma(s).  Row j of the result is at s[j] of the sequence
    `s`; `x` is a float or an array."""
    return _times_gamma(special.gammainc, s, x)


def _times_gamma(regularized, s, x):
    """regularized(s, x) * Gamma(s), Gamma by `math.gamma` (OverflowError past float64),
    with `s`, `x` and the result's rows as in `_lower_gamma`."""
    rows = np.array([s, [math.gamma(t) for t in s]])
    rows.shape += (1,) * np.ndim(x)
    return regularized(rows[0], x) * rows[1]


def _bracket_and_bound(u: np.ndarray, v: float, powers: list[float],
                       alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(bracket, bound), each (n_powers, n_u): the closed form is bracket / v^(power+1), and
    bound is `approx_kernel_error_bound`'s, an overflow or a division by zero giving inf or
    nan, as in Python float arithmetic, without a RuntimeWarning.

    The bracket's gamma(power + 1, .) and gamma(power + 2, .) at the two knots come from
    one table over the distinct s: one exponent's power + 2 is often another's power + 1.
    """
    coeff = pla_coefficients(alpha)
    u_scale = u ** (2.0 / alpha)
    w = v / u_scale  # scaled knot argument
    s_all = [p + 1.0 for p in powers] + [p + 2.0 for p in powers]
    row_of = {s: row for row, s in enumerate(dict.fromkeys(s_all))}
    g = _lower_gamma(list(row_of), np.multiply.outer((coeff.x1, coeff.x2), w))
    g = g.take([row_of[s] for s in s_all], axis=0)
    g1, g2 = g[:len(powers)], g[len(powers):]  # (n_powers, knot, n_u)
    bracket = (g1[:, 0] + coeff.c * (g1[:, 1] - g1[:, 0])
               + (u_scale / v) * coeff.m * (g2[:, 1] - g2[:, 0]))

    half_alpha, x0 = alpha / 2.0, coeff.x0
    kappa = half_alpha * x0 ** (half_alpha - 1.0)
    ratio = w / (w + kappa)
    # B_left / A_hat and B_right / A_hat, with A_hat = bracket / w^(p+1)
    with np.errstate(all="ignore"):
        left = (_lower_gamma([p + half_alpha + 1.0 for p in powers], w * x0)
                / (bracket * w**half_alpha))
        # One power of `ratio` per exponent: numpy's power by an exponent broadcast
        # along a row can differ in the last bit from its power by a scalar.
        right = (_times_gamma(special.gammaincc, s_all[:len(powers)], (w + kappa) * x0)
                 * math.exp(kappa * x0 - x0**half_alpha)
                 * np.array([ratio ** (p + 1.0) for p in powers]) / bracket)
        unbounded = ~(bracket > 0.0) | (left >= 1.0)
        right, left = right / (1.0 + right), left / (1.0 - left)
    # max(right, left) as Python's max takes it: `right` unless `left` is larger.
    return bracket, np.where(unbounded, np.inf, np.where(left > right, left, right))


def _warn_outside_regime(bound: np.ndarray, u: np.ndarray, v: float, power: float,
                         alpha: float) -> None:
    """One PlaAccuracyWarning for all points whose bound exceeds PLA_WARN_BOUND, if any.

    With one such point the message names it; with k of n it names k, n and
    the point of the largest bound.  The warning carries every flagged point,
    and names the line of the first caller outside the package, however deep
    the route that reached the kernel.
    """
    flagged = np.flatnonzero(bound > PLA_WARN_BOUND)
    if not flagged.size:
        return
    # The stack level of that caller; `skip_file_prefixes` needs Python 3.12.
    frame, level, package = sys._getframe(1), 2, os.path.dirname(__file__)
    while frame.f_back is not None and os.path.dirname(frame.f_code.co_filename) == package:
        frame, level = frame.f_back, level + 1
    worst = flagged[np.argmax(bound[flagged])]
    u_worst = float(u[worst])
    where = (f"U={u_worst:.6g}, V={v:.6g}, power={power:g}, alpha={alpha:g} "
             f"(w = V/U^(2/alpha) = {v / u_worst ** (2.0 / alpha):.4g})")
    if flagged.size == 1:
        head = f"PLA kernel error bound {float(bound[worst]):.1%} exceeds {PLA_WARN_BOUND:.0%} at "
    else:
        head = (f"PLA kernel error bound exceeds {PLA_WARN_BOUND:.0%} at {flagged.size} of "
                f"{bound.size} points, the largest ({float(bound[worst]):.1%}) at ")
    warnings.warn(
        PlaAccuracyWarning(
            f"{head}{where}; the closed form may be far from the exact integral",
            u=u[flagged].tolist(), bound=bound[flagged].tolist(), v=float(v), power=float(power),
            alpha=float(alpha),
        ),
        stacklevel=level,
    )


# The trapezoid rule of `exact_gamma_kernel_integral`: the ends of its range
# in z at power 0, the relative gap at which two step sizes agree (the
# kernel's tolerance), the nodes summed pairwise as one block, the most
# halvings of the step, and the most (point, node) values evaluated at once
# (16,384 floats, 128 kB).
_Z_LO, _Z_HI = -40.0, 4.0
_AGREE = 1e-11
_BLOCK = 32
_MAX_HALVINGS = 10
_CHUNK = 16384


def exact_gamma_kernel_integral(u, v: float, power: float, alpha: float):
    """int_0^inf e^(-v t - u t^(alpha/2)) t^power dt, by the trapezoid rule on a log scale.

    The exact counterpart of `approx_gamma_kernel_integral`, with its
    arguments: `u` is a float, or a 1-d array (a noise sweep) evaluated in
    one pass.  With P = power + 1, substituting t = tau e^z with
    tau = 1 / (v + G u^(2/alpha)) and G = Gamma(1 + 2/alpha) gives

        K = tau^P int_R f(z) dz,   f(z) = exp(P z - a e^z - (s e^z)^(alpha/2)),

    with a = v tau and s = u^(2/alpha) tau, so that a + G s = 1 and the
    peak of f lies near or left of z = ln P whatever u and v.  f is smooth
    and decays like e^(P z) to the left and doubly exponentially to the
    right, so the trapezoid rule converges geometrically in 1/h.  Truncation to
    [_Z_LO / P, ln P + _Z_HI] = [-40/P, ln P + 4] loses less than 1e-16 of
    the integral I of f:

    * I >= exp(-1 - e^gamma) / P > 0.06 / P, gamma Euler's constant: for
      y = e^z in [0, 1], a y <= 1 and (s y)^(alpha/2) <= G^(-alpha/2) < e^gamma,
      since ln Gamma(1 + d) >= -gamma d; and e^(P z) integrates to 1/P
      over z <= 0.
    * Left: f <= e^(P z), so below z = -40/P lies at most e^-40 / P < 7e-17 I.
    * Right: a e^z + (s e^z)^(alpha/2) >= e^z - 1.  If s e^z >= 1 the
      second term is at least s e^z >= G s e^z = (1 - a) e^z; otherwise
      (1 - a) e^z < G <= 1.  So f <= exp(1 + P z - e^z), and above
      z = ln Y, Y = P e^4, lies at most e Gamma(P, Y).  ln y is concave, so
      y^(P-1) <= Y^(P-1) e^((P-1)(y - Y)/Y), and
      Gamma(P, Y) <= Y^P e^-Y / (Y - P + 1) < Y^P e^-Y / (P (e^4 - 1)).
      The tail is thus below e / (0.06 (e^4 - 1)) exp(P (ln P + 4 - e^4)) I.
      That exponent decreases in P while ln P < e^4 - 5, from 4 - e^4 < -50
      at P = 1, so the tail is below 1e-22 I.

    At power 0 the range is [-40, 4], and the two tails are below
    e^-40 < 7e-17 I and e exp(-e^4) < 1e-22 I.

    The step starts at 1/alpha (the edge of exp(-(s e^z)^(alpha/2)) is
    about 2/alpha wide) and halves, reusing every node, until two
    consecutive sums at a point agree to _AGREE relative; the finer one is
    that point's value.  Each point sums its nodes in blocks of _BLOCK,
    pairwise within a block and in order across blocks, and stops at its
    own level, so its value is the same, bit for bit, whatever points are
    evaluated with it.  The kernel is formed as (tau value^(1/P))^P, so that
    tau^P, which can underflow alone, does not make a representable kernel 0.
    Raises QuadratureError where a point has not converged after
    _MAX_HALVINGS halvings, or its kernel is not finite and positive, as
    where it underflows float64.
    """
    us, (power,), shape = _kernel_args(u, v, power, alpha)  # one exponent
    weight = power + 1.0  # P
    half_alpha = alpha / 2.0
    tau = 1.0 / (v + math.gamma(1.0 + 2.0 / alpha) * us ** (2.0 / alpha))
    a = v * tau
    s_power = us * tau**half_alpha  # s^(alpha/2)
    z_lo = _Z_LO / weight
    step = 1.0 / alpha
    # Whole blocks of nodes, the last at or beyond ln P + _Z_HI.
    n_nodes = _BLOCK * math.ceil((1.0 + (math.log(weight) + _Z_HI - z_lo) / step) / _BLOCK)
    nodes = z_lo + step * np.arange(n_nodes)
    sums = np.zeros(us.size)
    value = np.empty(us.size)
    todo = np.arange(us.size)  # the points not yet converged
    for halving in range(_MAX_HALVINGS + 1):
        if not todo.size:
            break
        if halving:
            # The new nodes are the midpoints of the previous level's.
            step /= 2.0
            nodes = z_lo + step * np.arange(1, 2 * n_nodes, 2)
            n_nodes *= 2
        sums[todo] = _node_sums(nodes, weight, a[todo], s_power[todo], half_alpha, sums[todo])
        estimate = step * sums[todo]
        if halving:
            done = np.abs(estimate - previous) <= _AGREE * estimate
            value[todo[done]] = estimate[done]
            todo, estimate = todo[~done], estimate[~done]
        previous = estimate
    if todo.size:  # nan never agrees with itself, so a nan integrand lands here too
        raise QuadratureError(
            f"kernel quadrature (u={float(us[todo[0]])}, v={v}, power={power}, alpha={alpha}) "
            f"did not converge after {_MAX_HALVINGS} halvings of the step"
        )
    kernel = (tau * value ** (1.0 / weight)) ** weight
    bad = ~((kernel > 0.0) & (kernel < math.inf))
    if bad.any():
        raise QuadratureError(
            f"kernel quadrature (u={float(us[bad][0])}, v={v}, power={power}, alpha={alpha}) "
            f"gave {float(kernel[bad][0])}"
        )
    return _shaped(kernel, shape)


def _node_sums(nodes: np.ndarray, weight: float, a: np.ndarray, s_power: np.ndarray,
               half_alpha: float, start: np.ndarray) -> np.ndarray:
    """start + the sum of f over `nodes`, per point, f as in `exact_gamma_kernel_integral`."""
    e_z = np.exp(nodes)
    with np.errstate(over="ignore"):  # e^(alpha z / 2) -> inf makes f 0
        e_edge = np.exp(half_alpha * nodes)
    linear = weight * nodes  # P z; the nodes themselves, bit for bit, at power 0
    per_chunk = _BLOCK * max(1, _CHUNK // (_BLOCK * a.size))
    total = start
    for lo in range(0, nodes.size, per_chunk):
        part = slice(lo, lo + per_chunk)
        f = np.multiply.outer(a, e_z[part])
        f += np.multiply.outer(s_power, e_edge[part])
        np.subtract(linear[part], f, out=f)
        np.exp(f, out=f)
        blocks = f.reshape(a.size, -1, _BLOCK).sum(axis=2)
        # cumsum adds strictly left to right: ((total + b1) + b2) + ...
        total = np.cumsum(np.column_stack([total, blocks]), axis=1)[:, -1]
    return total

def _kernel_args(u, v: float, power, alpha: float) -> tuple[np.ndarray, list[float], tuple]:
    """`u` as a 1-d float array, `power` as a list of floats and the result's shape, power's
    then u's, once every argument is in the kernel's domain."""
    us, powers = np.array(u, dtype=float), np.array(power, dtype=float)
    for name, values in (("U", us), ("the power", powers)):
        if values.ndim > 1:
            raise ValueError(f"kernel integral requires {name} to be a float or a 1-d array, "
                             f"got shape {values.shape}")
    if not (us > 0).all():
        raise ValueError(f"kernel integral requires U > 0, got {float(us[~(us > 0)][0])}")
    if not (v > 0):
        raise ValueError(f"kernel integral requires V > 0, got {v}")
    shape, powers = powers.shape + us.shape, powers.ravel().tolist()
    for p in powers:
        if not (0 <= p < math.inf):
            raise ValueError(f"kernel integral requires a finite power >= 0, got {p}")
    if not (alpha > 2):
        raise ValueError(f"kernel integral requires alpha > 2, got {alpha}")
    return us.ravel(), powers, shape


def _shaped(values: np.ndarray, shape: tuple):
    """`values` in `shape`, or its one element as a float if `shape` is ()."""
    return values.reshape(shape) if shape else values.item()
