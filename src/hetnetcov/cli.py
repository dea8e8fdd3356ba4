"""Command-line front end: JSON config in, sweep CSV out.

The config fixes the network (dB thresholds and noise, converted to
linear on load), a sweep over beta_1, noise power, or the Nakagami shape,
the evaluation methods, and the Monte Carlo budget.  Output is an
RFC-4180-style CSV with a stable column set: sweep_db, then one column
per requested method (closed, rayleigh, reference, mc) plus mc_se when
the simulator runs.

Exit codes: 0 success, 1 config/validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, mcsim
from .model import NetworkParams, TierParams, validate
from .pla import QuadratureError

__all__ = ["SweepSpec", "load_config", "run_sweep", "main"]

SWEEP_VARIABLES = ("beta1_db", "noise_db", "nakagami_pair")
METHODS = ("closed", "rayleigh", "reference", "mc")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class SweepSpec:
    variable: str  # one of SWEEP_VARIABLES
    start: float
    stop: float
    points: int
    methods: tuple[str, ...]

    def values(self) -> np.ndarray:
        if self.variable == "nakagami_pair":
            return np.unique(np.rint(np.linspace(self.start, self.stop, self.points)).astype(int))
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunConfig:
    params: NetworkParams
    sweep: SweepSpec
    sim: mcsim.SimConfig


class ConfigError(ValueError):
    pass


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing field '{path}.{key}'" if path else f"missing field '{key}'")
    return mapping[key]


def _require_integer(mapping: dict, key: str, path: str) -> int:
    """A JSON integer field; floats, bools and strings are rejected, not coerced."""
    value = _require(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}.{key}' must be an integer, got {json.dumps(value)}")
    return value


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc

    alpha = float(_require(raw, "alpha", ""))
    noise = db_to_linear(float(_require(raw, "noise_db", "")))

    tiers = []
    for i, t in enumerate(_require(raw, "tiers", "")):
        tiers.append(
            TierParams(
                density=float(_require(t, "lambda", f"tiers[{i}]")),
                power=float(_require(t, "power", f"tiers[{i}]")),
                threshold=db_to_linear(float(_require(t, "beta_db", f"tiers[{i}]"))),
                nakagami_m=_require_integer(t, "m", f"tiers[{i}]"),
            )
        )
    params = NetworkParams(alpha=alpha, noise=noise, tiers=tuple(tiers))
    violations = validate(params)
    if violations:
        raise ConfigError("; ".join(violations))

    sw = _require(raw, "sweep", "")
    variable = _require(sw, "variable", "sweep")
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep.variable must be one of {SWEEP_VARIABLES}, got '{variable}'")
    methods = tuple(_require(sw, "methods", "sweep"))
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"sweep.methods entry '{m}' not in {METHODS}")
    if not methods:
        raise ConfigError("sweep.methods must not be empty")
    sweep = SweepSpec(
        variable=variable,
        start=float(_require(sw, "start", "sweep")),
        stop=float(_require(sw, "stop", "sweep")),
        points=int(_require(sw, "points", "sweep")),
        methods=methods,
    )
    if not sweep.start < sweep.stop:
        raise ConfigError("sweep.start must be less than sweep.stop")
    if sweep.points < 2:
        raise ConfigError("sweep.points must be at least 2")
    if "rayleigh" in methods:
        if any(t.nakagami_m != 1 for t in params.tiers) or variable == "nakagami_pair":
            raise ConfigError("method 'rayleigh' requires M_i = 1 on every tier")

    sm = raw.get("sim", {})
    sim = mcsim.SimConfig(
        n_geometry=int(sm.get("n_geometry", 1000)),
        n_fading=int(sm.get("n_fading", 100)),
        seed=int(sm.get("seed", 0)),
        region_radius=(float(sm["region_radius"]) if sm.get("region_radius") is not None else None),
    )
    return RunConfig(params=params, sweep=sweep, sim=sim)


def _params_at(config: RunConfig, value: float) -> NetworkParams:
    params, variable = config.params, config.sweep.variable
    if variable == "beta1_db":
        tiers = (replace(params.tiers[0], threshold=db_to_linear(value)),) + params.tiers[1:]
        return replace(params, tiers=tiers)
    if variable == "noise_db":
        return replace(params, noise=db_to_linear(value))
    # nakagami_pair: the swept integer is applied to every tier.
    tiers = tuple(replace(t, nakagami_m=int(value)) for t in params.tiers)
    return replace(params, tiers=tiers)


def run_sweep(config: RunConfig, rate: bool = False, bits: bool = False,
              threads: int = 1) -> list[dict[str, float]]:
    """Evaluate every requested method at every sweep point."""
    sweep = config.sweep
    values = sweep.values()
    unit = math.log(2.0) if bits else 1.0

    # The simulated statistic depends on neither the thresholds nor the
    # noise power, so one pass serves a threshold or noise sweep; only a
    # change of the fading law (nakagami_pair) needs a pass per point.
    # The per-tier SINRs depend on the noise only, so a threshold sweep
    # derives them once.
    trials = tier_max = tier_max_noise = None
    if "mc" in sweep.methods and sweep.variable != "nakagami_pair":
        trials = mcsim.simulate_trials(config.params, config.sim, threads=threads)

    rows: list[dict[str, float]] = []
    for value in values:
        params = _params_at(config, float(value))
        row: dict[str, float] = {"sweep_db": float(value)}
        for method in sweep.methods:
            if method == "closed":
                row["closed"] = (
                    analysis.average_rate(params).value / unit
                    if rate else analysis.coverage_probability(params).value
                )
            elif method == "rayleigh":
                row["rayleigh"] = (
                    analysis.rate_rayleigh(params).value / unit
                    if rate else analysis.coverage_rayleigh(params).value
                )
            elif method == "reference":
                row["reference"] = (
                    analysis.rate_reference(params).value / unit
                    if rate else analysis.coverage_reference(params).value
                )
            elif method == "mc":
                if trials is None:
                    tier_max = mcsim.tier_max_sinr(
                        mcsim.simulate_trials(params, config.sim, threads=threads), params.noise
                    )
                elif params.noise != tier_max_noise:
                    tier_max = mcsim.tier_max_sinr(trials, params.noise)
                    tier_max_noise = params.noise
                est = _mc_point(params, tier_max, rate)
                row["mc"] = est.mean / unit if rate else est.mean
                row["mc_se"] = est.std_error / unit if rate else est.std_error
        rows.append(row)
    return rows


def _mc_point(params: NetworkParams, tier_max: np.ndarray, rate: bool) -> mcsim.Estimate:
    thresholds = [t.threshold for t in params.tiers]
    if rate:
        return mcsim.rate_from_tier_max(tier_max, thresholds)[0]
    return mcsim.coverage_from_tier_max(tier_max, thresholds)


def write_csv(rows: list[dict[str, float]], methods: tuple[str, ...], out) -> None:
    columns = ["sweep_db"] + [m for m in METHODS if m in methods]
    if "mc" in methods:
        columns.append("mc_se")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([f"{row[c]:.10g}" for c in columns])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetnetcov",
        description="Coverage/rate sweeps for K-tier Poisson networks in Nakagami-m fading",
    )
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--output", help="CSV output path (default: stdout)")
    parser.add_argument("--seed", type=int, help="override sim.seed")
    parser.add_argument("--threads", type=int, default=1, help="Monte Carlo worker threads")
    parser.add_argument("--rate", action="store_true",
                        help="emit average achievable rate instead of coverage probability")
    parser.add_argument("--bits", action="store_true",
                        help="report rate in bits (default: nats)")
    parser.add_argument("--radius-check", action="store_true",
                        help="also report the radius-doubling truncation drift on stderr")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.seed is not None:
        config = replace(config, sim=replace(config.sim, seed=args.seed))

    try:
        rows = run_sweep(config, rate=args.rate, bits=args.bits, threads=args.threads)
        if args.radius_check:
            drift = mcsim.radius_doubling_drift(config.params, config.sim, threads=args.threads)
            print(f"radius-doubling coverage drift: {drift:.3e}", file=sys.stderr)
    except (QuadratureError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1

    if args.output:
        with open(args.output, "w", newline="") as fh:
            write_csv(rows, config.sweep.methods, fh)
    else:
        write_csv(rows, config.sweep.methods, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
