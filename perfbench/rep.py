"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/rep.py --spec SPEC.json --spawned WALLCLOCK
        [--threads N] [--setup-only] [--trace-out SPANS.csv]

Loads every config of the workload through `cli.load_config`, runs each
sweep through `cli.run_sweep`, renders it with `cli.write_csv`, and prints
one JSON line: setup time (from `--spawned`, the parent's wall clock just
before it started this process, until the last config is loaded), the
summed `run_sweep` wall time, the mean time of the workload's calibration
computation (calibrate.py) run CALIBRATION_RUNS times just before and as
often just after the sweeps, peak RSS after the sweeps, the CSV texts
and the versions.

With `--trace-out` the configs are loaded traced (see tracer.py), and each
sweep runs three more times: untraced, traced, untraced.  The spans go to
that file; the per-layer metrics, the tracing overhead and the CSVs of the
last two runs are added to the line.
"""

import argparse
import functools
import inspect
import io
import json
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import calibration_seconds
from tracer import Tracer

PACKAGE = "hetnetcov"

# Span names (layer.function) the per-layer metrics are built from.
GEOMETRY = "mcsim.sample_geometry"
FADING = "mcsim.sample_fading"
PASS_PREFIX = "mcsim.simulate_"
CLOSED_ROUTES = ("analysis.coverage_probability", "analysis.coverage_rayleigh",
                 "analysis.average_rate", "analysis.rate_rayleigh")
REFERENCE_ROUTES = ("analysis.coverage_reference", "analysis.rate_reference")
EXACT_KERNEL = "pla.exact_gamma_kernel_integral"
APPROX_KERNEL = "pla.approx_gamma_kernel_integral"
# One calibration run lasts about 0.1 s, and single runs in one process
# scattered by about 15%, more than the sweeps they are compared with.
CALIBRATION_RUNS = 4


def count_bs(bs: list[int]) -> list[tuple[dict, str, object]]:
    """Bind a BS-counting `sample_geometry` wherever the package binds it.

    Each call adds its realization's BS count to bs[0]; a realization of
    another shape raises instead of counting 0.  Returns the replaced
    bindings for `restore`.  Installed before the tracer, the wrapper is
    what the tracer wraps, so its few microseconds count as geometry time.
    """
    attr = GEOMETRY.split(".", 1)[1]
    wrappers, replaced = {}, []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == PACKAGE
                                  or module_name.startswith(PACKAGE + ".")):
            continue
        namespace = vars(module)
        func = namespace.get(attr)
        if not inspect.isfunction(func):
            continue
        if id(func) not in wrappers:
            wrappers[id(func)] = counting(func, bs)
        namespace[attr] = wrappers[id(func)]
        replaced.append((namespace, attr, func))
    return replaced


def counting(func, bs: list[int]):
    @functools.wraps(func)
    def counted(*args, **kwargs):
        realization = func(*args, **kwargs)
        bs[0] += sum(len(d) for d in realization.distances)
        return realization

    return counted


def restore(replaced: list[tuple[dict, str, object]]) -> None:
    for namespace, attr, original in reversed(replaced):
        namespace[attr] = original


def layer_metrics(tracer: Tracer, points: int, bs: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (times in ms)."""
    ms = 1e-6
    calls, total, layer_self = Counter(), Counter(), Counter()
    in_sweep, in_pass = [], []
    pass_self = estimator_self = sweep_self = closed = reference = 0
    for i, (name, duration, self_ns, parent) in enumerate(tracer.spans()):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        total[name] += duration
        layer_self[layer] += self_ns
        is_pass = name.startswith(PASS_PREFIX)
        in_sweep.append(name == "cli.run_sweep" or (parent >= 0 and in_sweep[parent]))
        in_pass.append(is_pass or (parent >= 0 and in_pass[parent]))
        if is_pass:
            pass_self += self_ns
        elif layer == "mcsim" and not in_pass[i]:
            estimator_self += self_ns
        if layer == "cli" and in_sweep[i]:
            sweep_self += self_ns
        # A route's time is that of its outermost analysis call.
        if parent < 0 or not tracer.names[parent].startswith("analysis."):
            if name in CLOSED_ROUTES:
                closed += duration
            elif name in REFERENCE_ROUTES:
                reference += duration

    geometries = calls[GEOMETRY]
    per_geometry = 1.0 / geometries if geometries else 0.0
    per_point = 1.0 / points
    exact_calls = calls[EXACT_KERNEL]
    specfun_calls = sum(n for name, n in calls.items() if name.startswith("specfun."))
    return {
        "cli.load_config_ms": total["cli.load_config"] * ms,
        "cli.run_sweep_self_ms": sweep_self * ms,
        "mcsim.passes": sum(n for name, n in calls.items() if name.startswith(PASS_PREFIX)),
        "mcsim.geometries": geometries,
        "mcsim.bs_per_geometry": bs * per_geometry,
        "mcsim.geometry_ms_per_geometry": total[GEOMETRY] * ms * per_geometry,
        "mcsim.fading_ms_per_geometry": total[FADING] * ms * per_geometry,
        "mcsim.sinr_ms_per_geometry": pass_self * ms * per_geometry,
        "mcsim.estimator_ms_per_point": estimator_self * ms * per_point,
        "analysis.closed_ms_per_point": closed * ms * per_point,
        "analysis.reference_ms_per_point": reference * ms * per_point,
        "analysis.self_ms": layer_self["analysis"] * ms,
        "pla.exact_calls_per_point": exact_calls * per_point,
        "pla.exact_ms_per_call": (total[EXACT_KERNEL] * ms / exact_calls
                                  if exact_calls else 0.0),
        "pla.approx_calls_per_point": calls[APPROX_KERNEL] * per_point,
        "model.tier_script_I_calls_per_point": calls["model.tier_script_I"] * per_point,
        "model.interference_constant_calls_per_point":
            calls["model.interference_constant"] * per_point,
        "model.self_ms": layer_self["model"] * ms,
        "specfun.calls_per_point": specfun_calls * per_point,
        "specfun.self_ms": layer_self["specfun"] * ms,
    }


def run_sweep(cli, sweep: dict, config, threads: int) -> tuple[float, int, str]:
    """run_sweep seconds, sweep points and CSV text of one sweep."""
    start = time.perf_counter()
    rows = cli.run_sweep(config, rate=sweep["rate"], threads=threads)
    seconds = time.perf_counter() - start
    out = io.StringIO()
    cli.write_csv(rows, config.sweep.methods, out)
    return seconds, len(rows), out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())

    import hetnetcov
    from hetnetcov import cli

    src = Path(spec["src"]).resolve()
    if src not in Path(hetnetcov.__file__).resolve().parents:
        print(f"imported {hetnetcov.__file__}, not the package under {src}", file=sys.stderr)
        return 3
    tracer = Tracer() if args.trace_out else None
    if tracer is not None:
        tracer.install(PACKAGE)
    configs = [cli.load_config(sweep["config"]) for sweep in spec["sweeps"]]
    setup_s = time.time() - args.spawned
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sweeps = list(zip(spec["sweeps"], configs))
    calibrations = [calibration_seconds(spec["calibration"]) for _ in range(CALIBRATION_RUNS)]
    runs = [run_sweep(cli, sweep, config, args.threads) for sweep, config in sweeps]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibrations += [calibration_seconds(spec["calibration"]) for _ in range(CALIBRATION_RUNS)]
    calibration_s = sum(calibrations) / len(calibrations)
    sweep_s = sum(seconds for seconds, _, _ in runs)
    points = sum(n for _, n, _ in runs)
    csvs = [text for _, _, text in runs]

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "points": points,
        "csvs": csvs,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "backend": getattr(hetnetcov.mcsim, "BACKEND_NAME", None),
        },
    }
    if tracer is not None:
        # Each sweep runs again untraced, traced and untraced.  The traced
        # time is compared with the mean of the two untraced runs around it,
        # so one-time costs of the process's first sweep do not count.
        times = [0.0, 0.0, 0.0]
        bs = [0]
        result["traced_csvs"], result["after_csvs"] = [], []
        for sweep, config in sweeps:
            times[0] += run_sweep(cli, sweep, config, args.threads)[0]
            replaced = count_bs(bs)
            tracer.install(PACKAGE)
            seconds, _, text = run_sweep(cli, sweep, config, args.threads)
            tracer.uninstall()
            restore(replaced)
            times[1] += seconds
            result["traced_csvs"].append(text)
            seconds, _, text = run_sweep(cli, sweep, config, args.threads)
            times[2] += seconds
            result["after_csvs"].append(text)
        result["trace_sweeps_s"] = times
        result["layers"] = layer_metrics(tracer, points, bs[0])
        result["layers"]["trace.overhead_share"] = times[1] / (0.5 * (times[0] + times[2])) - 1.0
        tracer.write_spans(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
