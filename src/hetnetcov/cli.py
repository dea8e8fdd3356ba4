"""Command-line front end: JSON config in, sweep CSV out.

The config fixes the network (dB thresholds and noise, converted to
linear on load), a sweep over beta_1, noise power, or the Nakagami shape,
the evaluation methods, and the Monte Carlo budget.  Output is an
RFC-4180-style CSV with a stable column set: sweep_db, then one column
per requested method (closed, rayleigh, reference, mc) plus mc_se when
the simulator runs.

Exit codes: 0 success, 1 config, flag, validation or output failure, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, mcsim, model
from .model import NetworkParams, TierParams, validate
from .pla import QuadratureError

__all__ = ["SweepSpec", "load_config", "run_sweep", "write_csv", "main"]

SWEEP_VARIABLES = ("beta1_db", "noise_db", "nakagami_pair")
METHODS = ("closed", "rayleigh", "reference", "mc")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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


def _field(path: str, key: str) -> str:
    """The quoted name of a config field, as error messages give it."""
    return f"'{path}.{key}'" if path else f"'{key}'"


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing field {_field(path, key)}")
    return mapping[key]


def _require_integer(mapping: dict, key: str, path: str) -> int:
    """A JSON integer field; floats, bools and strings are rejected, not coerced."""
    value = _require(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{_field(path, key)} must be an integer, got {json.dumps(value)}")
    return value


def _require_number(mapping: dict, key: str, path: str) -> float:
    """A finite JSON number field; bools, strings, null, NaN and Infinity are
    rejected, not coerced."""
    value = _require(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{_field(path, key)} must be a number, got {json.dumps(value)}")
    if not math.isfinite(value):
        raise ConfigError(f"{_field(path, key)} must be finite, got {json.dumps(value)}")
    return float(value)


def _overflow(field: str, db: float) -> ConfigError:
    return ConfigError(f"{field} is {db} dB, too large for a float in linear scale")


def _require_db(mapping: dict, key: str, path: str) -> float:
    """A dB number field, in linear scale, neither overflowing nor underflowing to 0."""
    db = _require_number(mapping, key, path)
    try:
        linear = db_to_linear(db)
    except OverflowError:
        raise _overflow(_field(path, key), db) from None
    if linear == 0.0:
        raise ConfigError(f"{_field(path, key)} is {db} dB, too small for a float in linear scale")
    return linear


def _optional_integer(mapping: dict, key: str, path: str, default: int) -> int:
    return _require_integer(mapping, key, path) if key in mapping else default


def _reject_unknown(mapping: dict, known: tuple[str, ...], path: str) -> None:
    """A config section must be a JSON object; a key the parser does not read
    is a config error, not silently ignored."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"'{path}' must be a JSON object" if path
                          else "config must be a JSON object")
    unknown = [_field(path, key) for key in mapping if key not in known]
    if unknown:
        raise ConfigError(
            f"unknown field {', '.join(unknown)}; known fields are {', '.join(known)}"
        )


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc

    _reject_unknown(raw, ("alpha", "noise_db", "tiers", "sweep", "sim"), "")
    alpha = _require_number(raw, "alpha", "")
    noise = _require_db(raw, "noise_db", "")

    tiers = []
    tier_list = _require(raw, "tiers", "")
    if not isinstance(tier_list, list):
        raise ConfigError("'tiers' must be a JSON list")
    for i, t in enumerate(tier_list):
        _reject_unknown(t, ("lambda", "power", "beta_db", "m"), f"tiers[{i}]")
        tiers.append(
            TierParams(
                density=_require_number(t, "lambda", f"tiers[{i}]"),
                power=_require_number(t, "power", f"tiers[{i}]"),
                threshold=_require_db(t, "beta_db", f"tiers[{i}]"),
                nakagami_m=_require_integer(t, "m", f"tiers[{i}]"),
            )
        )
    params = NetworkParams(alpha=alpha, noise=noise, tiers=tuple(tiers))

    sw = _require(raw, "sweep", "")
    _reject_unknown(sw, ("variable", "start", "stop", "points", "methods"), "sweep")
    variable = _require(sw, "variable", "sweep")
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep.variable must be one of {SWEEP_VARIABLES}, got '{variable}'")
    methods = _require(sw, "methods", "sweep")
    if not (isinstance(methods, list) and all(isinstance(m, str) for m in methods)):
        raise ConfigError(
            f"'sweep.methods' must be a JSON list of strings, got {json.dumps(methods)}"
        )
    methods = tuple(methods)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"sweep.methods entry '{m}' not in {METHODS}")
    if not methods:
        raise ConfigError("sweep.methods must not be empty")
    sweep = SweepSpec(
        variable=variable,
        start=_require_number(sw, "start", "sweep"),
        stop=_require_number(sw, "stop", "sweep"),
        points=_require_integer(sw, "points", "sweep"),
        methods=methods,
    )
    if not sweep.start < sweep.stop:
        raise ConfigError("sweep.start must be less than sweep.stop")
    if sweep.points < 2:
        raise ConfigError("sweep.points must be at least 2")
    if variable == "nakagami_pair" and len(sweep.values()) < 2:
        raise ConfigError(f"'sweep.start' = {sweep.start} and 'sweep.stop' = {sweep.stop} "
                          "round to one Nakagami shape; a nakagami_pair sweep needs at least 2")
    if "rayleigh" in methods:
        if any(t.nakagami_m != 1 for t in params.tiers) or variable == "nakagami_pair":
            raise ConfigError("method 'rayleigh' requires M_i = 1 on every tier")

    sm = raw.get("sim", {})
    _reject_unknown(sm, ("n_geometry", "n_fading", "seed", "region_radius"), "sim")
    n_geometry = _optional_integer(sm, "n_geometry", "sim", 1000)
    n_fading = _optional_integer(sm, "n_fading", "sim", 100)
    seed = _optional_integer(sm, "seed", "sim", 0)
    region_radius = (_require_number(sm, "region_radius", "sim")
                     if "region_radius" in sm else None)
    # SimConfig checks these too, but its messages cannot name the field.
    for key, value in (("n_geometry", n_geometry), ("n_fading", n_fading),
                       ("region_radius", region_radius)):
        if value is not None and not value > 0:
            raise ConfigError(f"'sim.{key}' must be positive, got {value}")
    if n_geometry == 1:
        raise ConfigError("'sim.n_geometry' must be at least 2 for a standard error, got 1")
    if seed < 0:
        raise ConfigError(f"'sim.seed' must be non-negative, got {seed}")
    sim = mcsim.SimConfig(n_geometry=n_geometry, n_fading=n_fading, seed=seed,
                          region_radius=region_radius)
    config = RunConfig(params=params, sweep=sweep, sim=sim)
    # The sweep replaces one field of the network at every point, so the
    # network is validated with that field taken from the sweep's two ends,
    # never at the config's own value of it.  Validity is monotone in the
    # threshold and the noise power, and holds on an interval of shapes, so
    # the two ends cover every point.  A violation found at both ends is not
    # the sweep's and is reported without naming an end.
    found = {}
    for key in ("start", "stop"):
        end = getattr(sweep, key)
        value = float(np.rint(end)) if variable == "nakagami_pair" else end
        try:
            found[key] = validate(_params_at(config, value))
        except OverflowError:
            raise _overflow(f"'sweep.{key}'", end) from None
    common = [v for v in found["start"] if v in found["stop"]]
    if common:
        raise ConfigError("; ".join(common))
    for key, violations in found.items():
        if violations:
            raise ConfigError(f"at 'sweep.{key}' = {getattr(sweep, key)}: " + "; ".join(violations))
    if "closed" in methods or "rayleigh" in methods:
        if variable == "nakagami_pair":
            shapes = {f"'sweep.{key}'": int(np.rint(getattr(sweep, key))) for key in ("start", "stop")}
        else:
            shapes = {f"'tiers[{i}].m'": t.nakagami_m for i, t in enumerate(params.tiers)}
        for field, shape in shapes.items():
            if not model.closed_form_in_range(alpha, shape):
                raise ConfigError(
                    f"'alpha' = {alpha} with {field} = {shape} is beyond the closed forms' "
                    "range: Gamma((alpha/2) m + 1) overflows float64 there; the "
                    "'reference' and 'mc' methods are not limited by it")
    return config


def _params_at(config: RunConfig, value: float) -> NetworkParams:
    params = config.params
    if config.sweep.variable == "nakagami_pair":
        # The swept integer is applied to every tier.
        return replace(params, tiers=tuple(replace(t, nakagami_m=int(value)) for t in params.tiers))
    thresholds, noises = _swept(config, [value])
    return replace(params, noise=noises.item(), tiers=tuple(
        replace(t, threshold=beta) for t, beta in zip(params.tiers, thresholds[0].tolist())))


def _swept(config: RunConfig, values) -> tuple[np.ndarray, np.ndarray]:
    """The (n, K) linear thresholds and (n,) noise powers of a beta1_db or noise_db sweep."""
    params = config.params
    linear = np.array([db_to_linear(float(value)) for value in values])  # each value alone
    thresholds = np.tile([t.threshold for t in params.tiers], (linear.size, 1))
    if config.sweep.variable == "beta1_db":
        thresholds[:, 0] = linear
        return thresholds, np.full(linear.size, params.noise)
    return thresholds, linear


def run_sweep(config: RunConfig, rate: bool = False, bits: bool = False,
              threads: int = 1) -> list[dict[str, float]]:
    """Evaluate every requested method at every sweep point.

    `threads` is unused: a simulation pass is one sequential pass and takes
    no count from its caller.  Only the benchmark harness passes it
    (`perfbench/rep.py` on every call, and `run.py`'s thread-invariance
    check through `rep.py --threads 2`); it goes together with that check
    (ROADMAP item 8).
    """
    return _sweep(config, rate, bits)[0]


def _sweep(config: RunConfig, rate: bool,
           bits: bool) -> tuple[list[dict[str, float]], mcsim.Trials | None]:
    """`run_sweep`'s rows, and the first block's simulation pass, if any.

    A threshold or noise sweep is one block of points that differ only in
    their thresholds and noise power, so each analytic column is one array
    call over the block's points (`analysis.coverage_probability` and its
    siblings), which builds the closed form's constants and the reference's
    kernel once per distinct noise power, and the simulated statistic, which
    depends on neither, is one pass.  A nakagami_pair point changes the
    fading law, so it is a block of its own.  Only the mc column takes the
    points one by one, deriving the per-tier SINRs once per noise power.
    An mc value that is not finite raises ArithmeticError naming its point.
    """
    sweep = config.sweep
    values = sweep.values()
    # A coverage, like any x / 1.0, is left as it is.
    unit = math.log(2.0) if bits and rate else 1.0
    columns: dict[str, list[float]] = {}
    first = None
    for params, thresholds, noises in _blocks(config, values):
        for method in dict.fromkeys(sweep.methods):
            if method == "mc":
                trials = mcsim.simulate_trials(params, config.sim)
                if first is None:
                    first = trials
                estimates = _mc_column(trials, thresholds, noises, rate)
                columns.setdefault("mc", []).extend(e.mean / unit for e in estimates)
                columns.setdefault("mc_se", []).extend(e.std_error / unit for e in estimates)
            else:
                column = _analytic_column(method, rate, params, thresholds, noises) / unit
                columns.setdefault(method, []).extend(column.tolist())
    bad = np.flatnonzero(~np.isfinite(columns.get("mc", [])))
    if bad.size:
        point = bad[0]
        raise ArithmeticError(f"mc {'rate' if rate else 'coverage'} is {columns['mc'][point]}, "
                              f"not finite, at sweep_db = {float(values[point]):.10g}")
    names = ["sweep_db", *columns]
    return [dict(zip(names, row)) for row in zip(map(float, values), *columns.values())], first


def _blocks(config: RunConfig, values) -> list[tuple[NetworkParams, np.ndarray, np.ndarray]]:
    """The sweep's points as (network, thresholds, noises) blocks: (n, K) and (n,) arrays.

    The network fixes all else.  On a threshold or noise sweep it is the
    first point's: the config's own value of the swept field is unused.
    """
    if config.sweep.variable == "nakagami_pair":
        points = [_params_at(config, float(value)) for value in values]
        return [(p, np.array([[t.threshold for t in p.tiers]]), np.array([p.noise]))
                for p in points]
    return [(_params_at(config, float(values[0])), *_swept(config, values))]


def _analytic_column(method: str, rate: bool, params: NetworkParams, thresholds,
                     noises) -> np.ndarray:
    if method == "closed":
        route = analysis.average_rate if rate else analysis.coverage_probability
    elif method == "rayleigh":
        route = analysis.rate_rayleigh if rate else analysis.coverage_rayleigh
    else:
        route = analysis.rate_exact if rate else analysis.coverage_reference
    return route(params, thresholds, noises)


def _mc_column(trials: mcsim.Trials, thresholds: np.ndarray, noises: np.ndarray,
               rate: bool) -> list[mcsim.Estimate]:
    """The estimate at each point of a block that `trials` simulates."""
    estimates = []
    tier_max_noise = None
    for point_thresholds, noise in zip(thresholds, noises):
        if noise != tier_max_noise:
            tier_max, tier_max_noise = mcsim.tier_max_sinr(trials, noise), noise
        estimates.append(mcsim.rate_from_tier_max(tier_max, point_thresholds) if rate
                         else mcsim.coverage_from_tier_max(tier_max, point_thresholds))
    return estimates


def write_csv(rows: list[dict[str, float]], methods: tuple[str, ...], out) -> None:
    columns = ["sweep_db"] + [m for m in METHODS if m in methods]
    if "mc" in methods:
        columns.append("mc_se")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([f"{row[c]:.10g}" for c in columns])


def _output_problem(path: str) -> str | None:
    """Why `path` cannot be opened for writing, if that shows without
    creating or truncating it: its directory is missing or it is a directory."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        return os.strerror(errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT)
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetnetcov",
        description="Coverage/rate sweeps for K-tier Poisson networks in Nakagami-m fading",
    )
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--output", help="CSV output path (default: stdout)")
    parser.add_argument("--seed", type=int, help="override sim.seed")
    parser.add_argument("--rate", action="store_true",
                        help="emit average achievable rate instead of coverage probability")
    parser.add_argument("--bits", action="store_true",
                        help="report rate in bits (default: nats)")
    parser.add_argument("--radius-check", action="store_true",
                        help="also report the radius-doubling truncation drift, with its "
                             "one-trial resolution, on stderr")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error (or --help) and exits 2 on an
        # error; 2 is reserved here for numerical failure.
        return 1 if exc.code else 0
    if args.seed is not None and args.seed < 0:
        print(f"usage error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 1

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.seed is not None:
        # load_config has warned already if the trial count is small; the
        # rebuilt SimConfig would warn again, from inside dataclasses.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            config = replace(config, sim=replace(config.sim, seed=args.seed))

    # Checked again by the write itself; this fails before the sweep runs.
    problem = _output_problem(args.output) if args.output else None
    if problem:
        print(f"output error: cannot write '{args.output}': {problem}", file=sys.stderr)
        return 1

    try:
        rows, trials = _sweep(config, args.rate, args.bits)
        if args.radius_check:
            # At the first block's network, which the sweep's own pass, if it
            # made one, simulated as the inner disks.
            params = _blocks(config, config.sweep.values())[0][0]
            drift = mcsim.radius_doubling_drift(params, config.sim, trials=trials)
            resolution = 1.0 / (config.sim.n_geometry * config.sim.n_fading)
            print(f"radius-doubling coverage drift: {drift:.3e} "
                  f"(resolution 1/trials = {resolution:.1e})", file=sys.stderr)
    except (QuadratureError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1

    if args.output:
        try:
            with open(args.output, "w", newline="") as fh:
                write_csv(rows, config.sweep.methods, fh)
        except OSError as exc:
            print(f"output error: cannot write '{args.output}': {exc.strerror}", file=sys.stderr)
            return 1
    else:
        write_csv(rows, config.sweep.methods, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
