"""Regenerate the simulator's disk table in README: cost and accuracy by disk size.

The per-tier disks `mcsim.default_region_radii` are anchored at the tail
variance of one common disk of a given expected BS count.  For each anchor
count, each shape set and each noise power, on the figure network (alpha 3;
densities 1 and 5; powers 25 and 1; beta_1 = 5 dB, beta_2 = 1 dB), it
prints one markdown row:

  - the expected number of BSs in the per-tier disks;
  - the expected fading BSs and ring BSs of the pass (`mcsim._ring_radii`:
    a tier with M >= 2 draws fading inside r_i and takes the BSs between
    r_i and 2 R_i at their mean), and the uniforms the fading draws per
    fading column, sum_i M_i times tier i's fading BSs;
  - the pass's seconds;
  - the MC coverage and its geometry-clustered SE;
  - z = (MC - exact) / SE against `analysis.coverage_reference`;
  - `mcsim.radius_doubling_drift`, on common random numbers (the pass is
    handed over with `trials=`), whose resolution is 1/trials.

Both noise powers share one pass per anchor.  The last line checks the
default disks (anchor `mcsim._DEFAULT_TARGET_COUNT`): every drift at most
a tenth of acceptance criterion 7's 1e-3, and every SE equal to the
largest anchor's at two significant digits; the exit status is 1 if not.

    PYTHONPATH=src python scripts/disk_table.py [--geometries 1000] [--fading 50] [--seed 5]
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace

from hetnetcov import analysis, mcsim
from hetnetcov.cli import db_to_linear
from hetnetcov.mcsim import _DEFAULT_TARGET_COUNT
from hetnetcov.model import NetworkParams, TierParams

COUNTS = (125.0, 250.0, 500.0, 1000.0, 2000.0)
SHAPES = ((1, 1), (2, 3))
NOISES = (1e-4, 1e3)
DRIFT_BOUND = 1e-4  # a tenth of criterion 7's bound


def figure_network(shapes) -> NetworkParams:
    return NetworkParams(alpha=3.0, noise=NOISES[0], tiers=(
        TierParams(density=1.0, power=25.0, threshold=db_to_linear(5.0), nakagami_m=shapes[0]),
        TierParams(density=5.0, power=1.0, threshold=db_to_linear(1.0), nakagami_m=shapes[1]),
    ))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--geometries", type=int, default=1000)
    parser.add_argument("--fading", type=int, default=50)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    n_trials = args.geometries * args.fading

    print(f"{args.geometries} geometries x {args.fading} draws, seed {args.seed}; "
          f"drift resolution 1/trials = {1.0 / n_trials:.0e}\n")
    print("| anchor | BSs | fading BSs | ring BSs | uniforms | M | σ² | s/pass | coverage | SE "
          "| z | drift |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    rows = {}
    for shapes in SHAPES:
        net = figure_network(shapes)
        for count in COUNTS:
            sim = mcsim.SimConfig(n_geometry=args.geometries, n_fading=args.fading,
                                  seed=args.seed)
            radii = mcsim.default_region_radii(net, count)
            fading, outer = mcsim._ring_radii(net, radii)
            n_bs, n_fading, n_outer = (
                [t.density * math.pi * r * r for t, r in zip(net.tiers, disks)]
                for disks in (radii, fading, outer))
            uniforms = sum(t.nakagami_m * n for t, n in zip(net.tiers, n_fading))
            start = time.perf_counter()
            trials = mcsim.simulate_trials(net, sim, radii)
            seconds = time.perf_counter() - start
            for noise in NOISES:
                params = replace(net, noise=noise)
                est = mcsim.coverage_from_tier_max(mcsim.tier_max_sinr(trials, noise),
                                                   [t.threshold for t in params.tiers])
                z = (est.mean - analysis.coverage_reference(params)) / est.std_error
                # A whole number of trials changing outcome, up to rounding.
                drift = round(mcsim.radius_doubling_drift(params, sim, trials=trials)
                              * n_trials) / n_trials
                rows[count, (shapes, noise)] = (est.std_error, drift)
                print(f"| {count:,.0f} | {sum(n_bs):.0f} | {sum(n_fading):.0f} "
                      f"| {sum(n_outer) - sum(n_fading):.0f} | {uniforms:.0f} "
                      f"| ({shapes[0]},{shapes[1]}) | {noise:g} "
                      f"| {seconds:.2f} "
                      f"| {est.mean:.4f} | {est.std_error:.5f} | {z:+.2f} | {drift:.1e} |")

    largest = COUNTS[-1]
    cases = [(shapes, noise) for shapes in SHAPES for noise in NOISES]
    worst = max(rows[_DEFAULT_TARGET_COUNT, c][1] for c in cases)
    same_se = all(f"{rows[_DEFAULT_TARGET_COUNT, c][0]:.2g}" == f"{rows[largest, c][0]:.2g}"
                  for c in cases)
    ok = worst <= DRIFT_BOUND and same_se
    print(f"\ndefault disks, anchor {_DEFAULT_TARGET_COUNT:,.0f} BSs: worst drift {worst:.1e} "
          f"(bound {DRIFT_BOUND:.0e}); SE equal to anchor {largest:,.0f}'s at 2 digits: "
          f"{'yes' if same_se else 'no'}; {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
