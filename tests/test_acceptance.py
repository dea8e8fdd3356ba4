"""Acceptance gate: the eight headline claims, each with a PASS/FAIL line.

Each test evaluates one claim at its stated tolerance, records a summary
line through the `acceptance_report` fixture (echoed after the run), and
asserts.  Tolerances are never loosened here; a failing criterion stays
red.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from hetnetcov import analysis, mcsim, model, pla
from hetnetcov.cli import db_to_linear, main
from hetnetcov.model import NetworkParams, TierParams, bell_table, hyp2f1_rate
from hetnetcov.pla import _lower_gamma

import scipy.integrate

import oracles


# The two-tier reference configuration used throughout: a macro tier 25x
# stronger and 5x sparser than the small-cell tier, beta_2 = 1 dB.
def fig_network(beta1_db=5.0, noise=1e-4, shapes=(1, 1), alpha=3.0):
    return NetworkParams(
        alpha=alpha,
        noise=noise,
        tiers=(
            TierParams(density=1.0, power=25.0, threshold=db_to_linear(beta1_db),
                       nakagami_m=shapes[0]),
            TierParams(density=5.0, power=1.0, threshold=db_to_linear(1.0),
                       nakagami_m=shapes[1]),
        ),
    )


SHAPE_SETS = ((1, 1), (2, 2), (2, 3), (3, 3))
BETA1_DB = np.linspace(1.0, 20.0, 10)
NOISE_DECADES = (1e-4, 1e-3, 1e-2)

DESK_SIM = mcsim.SimConfig(n_geometry=10000, n_fading=100, seed=2024)


def random_rayleigh_network(rng, max_shape=1):
    k = int(rng.integers(1, 4))
    tiers = tuple(
        TierParams(
            density=float(10.0 ** rng.uniform(-1, 1)),
            power=float(10.0 ** rng.uniform(-1, 2)),
            threshold=float(10.0 ** rng.uniform(0.05, 1.5)),
            nakagami_m=int(rng.integers(1, max_shape + 1)),
        )
        for _ in range(k)
    )
    return NetworkParams(
        alpha=float(rng.uniform(2.3, 5.0)),
        noise=float(10.0 ** rng.uniform(-5, 0)),
        tiers=tiers,
    )


def test_criterion_1_pla_accuracy(acceptance_report):
    """Closed-form coverage within 0.5% of the quadrature reference."""
    worst = 0.0
    for shapes, noise, beta1_db in itertools.product(
        SHAPE_SETS, NOISE_DECADES, BETA1_DB
    ):
        net = fig_network(beta1_db=float(beta1_db), noise=noise, shapes=shapes)
        approx = analysis.coverage_probability(net)
        exact = analysis.coverage_reference(net)
        worst = max(worst, abs(approx - exact) / exact)
    ok = worst <= 0.005
    acceptance_report(
        f"criterion 1 (PLA coverage accuracy <= 0.5%): "
        f"{'PASS' if ok else 'FAIL'} (worst rel err {worst:.2e})"
    )
    assert ok


def test_criterion_2_monte_carlo_agreement(acceptance_report):
    """Closed forms within 3 SE of the simulator at >= 95% of sweep points."""
    results = []

    # Threshold and noise sweeps share one simulation pass per shape set:
    # the simulated statistic depends on neither thresholds nor noise.
    trials_rayleigh = mcsim.simulate_trials(fig_network(), DESK_SIM)
    tm_rayleigh = mcsim.tier_max_sinr(trials_rayleigh, fig_network().noise)
    tm_nakagami = mcsim.tier_max_sinr(
        mcsim.simulate_trials(fig_network(shapes=(2, 3)), DESK_SIM),
        fig_network().noise,
    )

    for label, tier_max, shapes in (
        ("coverage M=(1,1)", tm_rayleigh, (1, 1)),
        ("coverage M=(2,3)", tm_nakagami, (2, 3)),
    ):
        hits = 0
        for beta1_db in BETA1_DB:
            net = fig_network(beta1_db=float(beta1_db), shapes=shapes)
            closed = analysis.coverage_probability(net)
            est = mcsim.coverage_from_tier_max(
                tier_max, [t.threshold for t in net.tiers]
            )
            hits += abs(closed - est.mean) <= 3.0 * est.std_error
        results.append((label, hits, len(BETA1_DB)))

    # Rate sweep reuses the Rayleigh pass.
    hits = 0
    for beta1_db in BETA1_DB:
        net = fig_network(beta1_db=float(beta1_db))
        closed = analysis.average_rate(net)
        est = mcsim.rate_from_tier_max(tm_rayleigh, [t.threshold for t in net.tiers])
        hits += abs(closed - est.mean) <= 3.0 * est.std_error
    results.append(("rate M=(1,1)", hits, len(BETA1_DB)))

    # Noise sweep, on the same Rayleigh pass.
    hits = 0
    noise_db_sweep = np.linspace(-20.0, 30.0, 10)
    for noise_db in noise_db_sweep:
        net = fig_network(beta1_db=1.0, noise=db_to_linear(float(noise_db)))
        closed = analysis.coverage_probability(net)
        est = mcsim.coverage_from_tier_max(
            mcsim.tier_max_sinr(trials_rayleigh, net.noise),
            [t.threshold for t in net.tiers],
        )
        hits += abs(closed - est.mean) <= 3.0 * est.std_error
    results.append(("coverage vs noise", hits, len(noise_db_sweep)))

    hits_total = sum(h for _, h, _ in results)
    n_total = sum(n for _, _, n in results)
    ok = hits_total >= math.ceil(0.95 * n_total)
    detail = ", ".join(f"{label} {h}/{n}" for label, h, n in results)
    acceptance_report(
        f"criterion 2 (Monte Carlo agreement, 3 SE at >= 95% of points): "
        f"{'PASS' if ok else 'FAIL'} ({detail})"
    )
    assert ok


def test_criterion_3_rayleigh_identities(acceptance_report):
    rng = np.random.default_rng(20240301)
    worst_cov = worst_rate = 0.0
    for _ in range(50):
        net = random_rayleigh_network(rng)
        cov_a = analysis.coverage_probability(net)
        cov_b = oracles.rayleigh_coverage(net)
        worst_cov = max(worst_cov, abs(cov_a - cov_b) / cov_b)
        rate_a = analysis.average_rate(net)
        rate_b = oracles.rayleigh_rate(net)
        worst_rate = max(worst_rate, abs(rate_a - rate_b) / rate_b)
    ok = worst_cov <= 1e-10 and worst_rate <= 1e-12
    acceptance_report(
        f"criterion 3 (Rayleigh corollary identities): "
        f"{'PASS' if ok else 'FAIL'} "
        f"(coverage {worst_cov:.2e} vs 1e-10, rate {worst_rate:.2e} vs 1e-12)"
    )
    assert ok


def test_criterion_4_rate_consistency(acceptance_report):
    rng = np.random.default_rng(20240302)
    worst = 0.0
    for _ in range(50):
        net = random_rayleigh_network(rng, max_shape=4)
        closed = analysis.average_rate(net)
        quad = oracles.rate_reference(net)
        worst = max(worst, abs(closed - quad) / quad)
    ok = worst <= 1e-6
    acceptance_report(
        f"criterion 4 (rate closed form vs CCDF quadrature <= 1e-6): "
        f"{'PASS' if ok else 'FAIL'} (worst rel err {worst:.2e})"
    )
    assert ok


def test_criterion_5_special_functions(acceptance_report):
    failures = []

    # Lower incomplete gamma against direct quadrature.
    worst_gamma = 0.0
    for s in (0.5, 1.0, 1.7, 3.0, 6.5):
        for x in (0.1, 1.0, 4.0, 20.0):
            quad, err = scipy.integrate.quad(
                lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x,
                epsabs=0.0, epsrel=1e-13
            )
            worst_gamma = max(
                worst_gamma, abs(_lower_gamma([s], x)[0] - quad) / quad
            )
    if worst_gamma > 1e-10:
        failures.append(f"gamma {worst_gamma:.2e}")

    # Bell polynomials against brute-force partition enumeration, l <= 8.
    def bell_bruteforce(l, r, x):
        n = l - r + 1
        total = 0.0
        for js in itertools.product(range(r + 1), repeat=n):
            if sum(js) != r or sum((t + 1) * j for t, j in enumerate(js)) != l:
                continue
            coef = math.factorial(l)
            term = 1.0
            for t, j in enumerate(js):
                coef /= math.factorial(j) * math.factorial(t + 1) ** j
                term *= x[t] ** j
            total += coef * term
        return total

    rng = np.random.default_rng(20240303)
    worst_bell = 0.0
    for l in range(0, 9):
        for r in range(0, l + 1):
            x = list(rng.uniform(-2, 2, l - r + 1))
            ref = bell_bruteforce(l, r, x)
            got = bell_table(x + [0.0] * r)[l][r]
            scale = max(1.0, abs(ref))
            worst_bell = max(worst_bell, abs(got - ref) / scale)
    if worst_bell > 1e-9:
        failures.append(f"bell brute force {worst_bell:.2e}")

    # Bell scaling law B_{l,r}(a b^1 x_1, a b^2 x_2, ...) = a^r b^l B_{l,r}(x).
    a, b = 1.7, 0.6
    worst_scale = 0.0
    for l, r in ((4, 2), (6, 3), (8, 5)):
        x = list(rng.uniform(0.2, 2.0, l - r + 1))
        scaled = [a * b ** (t + 1) * v for t, v in enumerate(x)]
        ref = a**r * b**l * bell_table(x + [0.0] * r)[l][r]
        worst_scale = max(worst_scale, abs(bell_table(scaled + [0.0] * r)[l][r] - ref) / abs(ref))
    if worst_scale > 1e-10:
        failures.append(f"bell scaling {worst_scale:.2e}")

    # 2F1(1, 1/2; 3/2; -1) = arctan(1) = pi/4 at alpha = 4, beta = 1.
    if abs(hyp2f1_rate(4.0, 1.0) - math.pi / 4.0) > 1e-10:
        failures.append("2F1 arctan identity")

    # 2F1 against tail-integral quadrature across the grid.
    worst_hyp = 0.0
    for alpha in (2.5, 3.0, 4.0):
        e = 2.0 / alpha
        for beta in (1.0, 1.5, 3.0, 10.0, 100.0):
            tail, _ = scipy.integrate.quad(
                lambda y: y**-e / (1.0 + y), beta, math.inf,
                epsabs=0.0, epsrel=1e-12
            )
            ref = e * beta**e * tail
            worst_hyp = max(worst_hyp, abs(hyp2f1_rate(alpha, beta) - ref) / ref)
    if worst_hyp > 1e-8:
        failures.append(f"2F1 quadrature {worst_hyp:.2e}")

    ok = not failures
    acceptance_report(
        f"criterion 5 (special-function suite): "
        f"{'PASS' if ok else 'FAIL' + ' (' + ', '.join(failures) + ')'}"
    )
    assert ok, failures


def _kernel_rel_error(u, v, power, alpha):
    exact = pla.exact_gamma_kernel_integral(u, v, power, alpha)
    approx = pla.approx_gamma_kernel_integral(u, v, power, alpha)
    return abs(approx - exact) / exact


def _kernel_rel_error_and_warned(u, v, power, alpha):
    """Relative error of the approximate kernel, and whether it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rel = _kernel_rel_error(u, v, power, alpha)
    warned = any(issubclass(c.category, pla.PlaAccuracyWarning) for c in caught)
    return rel, warned


def _figure_set():
    """Criterion 6b's (U, V, power, alpha) points, induced by the figures.

    U is the noise decade, V the interference constant of each shape set,
    and the t-exponents are exactly those reached by the coverage sum for
    M <= 3 at alpha = 3.
    """
    alpha = 3.0
    powers = sorted({
        r + (alpha / 2.0) * (k - l)
        for m in (1, 2, 3)
        for k in range(m)
        for l in range(k + 1)
        for r in range(l + 1)
    })
    for shapes in SHAPE_SETS:
        v = model.interference_constant(fig_network(shapes=shapes))
        for u in NOISE_DECADES:
            for power in powers:
                yield u, v, power, alpha


def test_criterion_6_kernel_stress_grid(acceptance_report):
    """Approximate kernel within 5% of quadrature, or flagged, over the stress grid.

    The paper claims the PLA kernel only as a good approximation in the
    regime it simulates.  Away from it (V small against U^(2/alpha), large
    t-exponent) no three-piece surrogate can be accurate: the surrogate is
    zero beyond its right knot while the t^p weight puts the mass there.
    So at every grid point the measured error must lie under the a-priori
    bound `approx_kernel_error_bound`, and an error above 5% must come with
    a PlaAccuracyWarning.  A flag that is always on is ruled out by
    requiring silence on criterion 6b's figure set.
    """
    worst = 0.0
    worst_point = None
    worst_unflagged = 0.0
    exceeding = flagged = 0
    unbounded = []
    silent_misses = []
    for alpha in (2.5, 3.0, 3.5, 4.0):
        for n in range(9):
            power = n / 2.0
            for u in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
                for v in (1e-2, 1e-1, 1.0, 10.0, 100.0):
                    rel, warned = _kernel_rel_error_and_warned(u, v, power, alpha)
                    if rel > worst:
                        worst, worst_point = rel, (u, v, power, alpha)
                    if rel > pla.approx_kernel_error_bound(u, v, power, alpha):
                        unbounded.append((u, v, power, alpha))
                    exceeding += rel > 0.05
                    flagged += warned
                    if not warned:
                        worst_unflagged = max(worst_unflagged, rel)
                        if rel > 0.05:
                            silent_misses.append((u, v, power, alpha))
    figure_warned = [
        point for point in _figure_set() if _kernel_rel_error_and_warned(*point)[1]
    ]
    ok = not unbounded and not silent_misses and not figure_warned
    acceptance_report(
        f"criterion 6a (kernel <= 5% on stress grid or flagged, under its bound): "
        f"{'PASS' if ok else 'FAIL'} "
        f"(worst {worst:.1%} at U={worst_point[0]}, V={worst_point[1]}, "
        f"p={worst_point[2]}, alpha={worst_point[3]}; {exceeding} of 900 over 5%, "
        f"{flagged} flagged, worst unflagged {worst_unflagged:.2%}; "
        f"{len(unbounded)} over the bound, {len(silent_misses)} silent misses, "
        f"{len(figure_warned)} figure-set warnings)"
    )
    assert ok, (unbounded[:5], silent_misses[:5], figure_warned[:5])


def test_criterion_6_kernel_figure_set_and_spot(acceptance_report):
    worst = max(_kernel_rel_error(*point) for point in _figure_set())
    figure_ok = worst <= 0.02

    exact = pla.exact_gamma_kernel_integral(1.0, 1.0, 0.0, 4.0)
    approx = pla.approx_gamma_kernel_integral(1.0, 1.0, 0.0, 4.0)
    spot_ok = abs(exact - 0.545641) <= 1e-4 and abs(approx - 0.53944) <= 1e-4

    ok = figure_ok and spot_ok
    acceptance_report(
        f"criterion 6b (kernel <= 2% on figure set, spot values to 1e-4): "
        f"{'PASS' if ok else 'FAIL'} "
        f"(figure worst {worst:.2%}, exact {exact:.6f}, approx {approx:.5f})"
    )
    assert ok


def test_criterion_7_simulator_validity(acceptance_report, tmp_path):
    failures = []

    # Poisson count moments at lambda pi R^2 = 100.
    single = NetworkParams(alpha=3.0, noise=1e-4,
                           tiers=(TierParams(1.0, 1.0, 2.0),))
    radius = math.sqrt(100.0 / math.pi)
    sim = mcsim.SimConfig(n_geometry=4000, n_fading=1, seed=31)
    counts = np.array([
        len(oracles.sample_geometry(single, sim, g, (radius,))[0])
        for g in range(4000)
    ])
    if abs(counts.mean() - 100.0) > 1.0 or abs(counts.var() / counts.mean() - 1.0) > 0.08:
        failures.append(f"poisson moments (mean {counts.mean():.2f}, "
                        f"var/mean {counts.var() / counts.mean():.3f})")

    # Uniform-disk distance law: a quarter of the points inside R/2.
    inner = total = 0
    for g in range(2000):
        d = oracles.sample_geometry(single, sim, g, (radius,))[0]
        inner += int((d <= radius / 2.0).sum())
        total += len(d)
    frac = inner / total
    if abs(frac - 0.25) > 0.01:
        failures.append(f"distance law (P(d<=R/2) = {frac:.4f})")

    # Bit-identical CSV from two runs at the same seed.
    import json
    cfg = {
        "alpha": 3.0, "noise_db": -40.0,
        "tiers": [
            {"lambda": 1.0, "power": 25.0, "beta_db": 5.0, "m": 1},
            {"lambda": 5.0, "power": 1.0, "beta_db": 1.0, "m": 1},
        ],
        "sweep": {"variable": "beta1_db", "start": 1.0, "stop": 20.0,
                  "points": 5, "methods": ["closed", "mc"]},
        "sim": {"n_geometry": 500, "n_fading": 20, "seed": 7},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = main(["--config", str(path), "--output", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    if blobs[0] != blobs[1]:
        failures.append("seed determinism (CSV differs)")

    # Radius-doubling truncation drift below 0.1% absolute, measured with
    # common random numbers so resampling noise cannot mask it.
    drift = mcsim.radius_doubling_drift(
        fig_network(), mcsim.SimConfig(n_geometry=3000, n_fading=50, seed=5),
    )
    if drift >= 1e-3:
        failures.append(f"radius doubling drift {drift:.2e}")

    ok = not failures
    acceptance_report(
        f"criterion 7 (simulator validity): "
        f"{'PASS' if ok else 'FAIL' + ' (' + ', '.join(failures) + ')'} "
        f"(drift {drift:.1e})"
    )
    assert ok, failures


def test_criterion_8_qualitative_shapes(acceptance_report):
    failures = []

    # Coverage strictly non-increasing in beta_1.
    cov_beta = [
        analysis.coverage_probability(fig_network(beta1_db=float(b)))
        for b in BETA1_DB
    ]
    if not all(a >= b for a, b in zip(cov_beta, cov_beta[1:])):
        failures.append("not non-increasing in beta_1")

    # Coverage strictly non-increasing in sigma^2.
    cov_noise = [
        analysis.coverage_probability(fig_network(beta1_db=1.0, noise=db_to_linear(db)))
        for db in np.linspace(-20.0, 30.0, 10)
    ]
    if not all(a >= b for a, b in zip(cov_noise, cov_noise[1:])):
        failures.append("not non-increasing in sigma^2")

    # Nakagami direction: let the simulator fix the sign, then require the
    # closed form to move the same way.  Identical geometry streams make
    # the per-geometry difference a low-variance paired statistic.  The
    # interference-limited regime is fading invariant (both the closed form
    # and MC move by < 1e-4 there), so probe a noise-limited point where
    # the shape has a resolvable effect.
    sim = mcsim.SimConfig(n_geometry=4000, n_fading=50, seed=77)
    nets = [fig_network(noise=1000.0, shapes=(1, 1)),
            fig_network(noise=1000.0, shapes=(2, 2))]
    per_geo = []
    for net in nets:
        tier_max = mcsim.tier_max_sinr(mcsim.simulate_trials(net, sim), net.noise)
        beta = np.array([t.threshold for t in net.tiers])
        covered = (tier_max > beta[None, :, None]).any(axis=1)
        per_geo.append(covered.mean(axis=1))
    diff = per_geo[1] - per_geo[0]
    se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
    mc_direction = 0.0
    if abs(diff.mean()) > 3.0 * se:
        mc_direction = math.copysign(1.0, diff.mean())
    else:
        failures.append("MC cannot resolve the Nakagami direction")
    closed_diff = (
        analysis.coverage_probability(nets[1])
        - analysis.coverage_probability(nets[0])
    )
    if mc_direction != 0.0 and math.copysign(1.0, closed_diff) != mc_direction:
        failures.append(
            f"closed form moves {closed_diff:+.4f} against MC {diff.mean():+.4f}"
        )

    ok = not failures
    acceptance_report(
        f"criterion 8 (qualitative shapes): "
        f"{'PASS' if ok else 'FAIL' + ' (' + ', '.join(failures) + ')'} "
        f"(Nakagami shift MC {diff.mean():+.4f}, closed {closed_diff:+.4f})"
    )
    assert ok, failures
