"""Benchmark of hetnetcov sweeps, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; it needs `src/` and
`configs/` next to this directory and writes only under `.perfbench/`.
The workloads are generated from `configs/*.json` (see workloads.py).

Each repetition is a fresh process (rep.py) that loads the workload's
configs, runs its sweeps through `cli.run_sweep` and renders them with
`cli.write_csv`.  Repetitions run until `--seconds` is spent.  `--trace 0`
reports the end-to-end metrics as medians over at least three
repetitions.  `--trace 1` runs traced repetitions (untraced, traced and
untraced sweeps in one process) and reports the per-layer metrics and the
tracing overhead.  Either way the outputs are checked, and the last line
of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench"

MIN_REPS = 3
# An MC point fails when it sits more than Z_BOUND standard errors from the
# quadrature reference.  For the conditional rate the sample SE is not
# trusted below RATE_SE_FLOOR * reference: its per-geometry sums are
# right-skewed, and at 150 geometries a sample that misses a geometry with
# a very near BS reads low with a collapsed SE.  Over 450 seeds of the
# mc-noise-m11 rate at 30 dB the estimate's standard deviation was 10.2%
# of the reference, its SE fell to 3.2% of it, and z reached -7.2.
Z_BOUND = 4.0
RATE_SE_FLOOR = 0.10
# cov_closed_max_rel_err reads no lower than this.  Where the closed form is
# exact (M=(2,3) at zero noise) the figure is the quadrature's own error,
# about 1e-7, and a change of quadrature tolerance would move it by more
# than its bound while the accuracy stayed the same.
CLOSED_ERR_FLOOR = 1e-6
# Every run must end within 180 s; child processes are killed at this age.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_rel": "1",
    "peak_rss_mb": "MB",
    "checks_passed_share": "1",
    "cov_closed_max_rel_err": "1",
}


def layer_unit(name: str) -> str:
    if name.endswith("_share"):
        return "1"
    return "ms" if "_ms" in name else "count"


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts rep.py processes for one workload spec, within the deadline."""

    def __init__(self, spec_path: Path, deadline: float):
        self.spec_path = spec_path
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        # Children write no bytecode, so every process compiles the package
        # alike (about 12 ms) and nothing is written outside the checkout.
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def rep(self, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining < 1.0:
            raise BenchError("out of time before the run finished")
        cmd = [sys.executable, str(HERE / "rep.py"), "--spec", str(self.spec_path),
               *extra, "--spawned", repr(time.time())]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("a repetition ran past the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"repetition {' '.join(extra) or 'untraced'} failed "
                             f"(exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(step, seconds: float, min_count: int) -> list:
    """Call step() at least min_count times, and again while it fits in seconds."""
    results = []
    start = time.monotonic()
    while True:
        results.append(step())
        elapsed = time.monotonic() - start
        if len(results) >= min_count and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def parse_csv(text: str) -> list[dict[str, float]]:
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def check_sweep(sweep: dict, rows: list[dict[str, float]]) -> list[tuple[str, bool, str]]:
    """Range, monotonicity and MC-vs-reference checks of one sweep's CSV."""
    checks = []
    label, rate = sweep["label"], sweep["rate"]
    methods = [c for c in ("closed", "rayleigh", "reference", "mc") if c in rows[0]]
    thresholds_db = list(sweep["thresholds_db"])
    for i, row in enumerate(rows):
        x = row["sweep_db"]
        where = f"{label}@{sweep['variable']}={x:g}"
        values = [row[m] for m in methods]
        if rate:
            if sweep["variable"] == "beta1_db":
                thresholds_db[0] = x
            floor = math.log1p(10.0 ** (min(thresholds_db) / 10.0))
            ok = all(math.isfinite(v) and v > floor for v in values)
            checks.append((f"{where}:range", ok, f"rate above ln(1+min beta) = {floor:.6g}"))
        else:
            ok = all(0.0 <= v <= 1.0 for v in values)
            checks.append((f"{where}:range", ok, "coverage in [0, 1]"))
        if "mc" in row:
            se = max(row["mc_se"], RATE_SE_FLOOR * row["reference"]) if rate else row["mc_se"]
            z = abs(row["mc"] - row["reference"]) / se if se > 0 else math.inf
            checks.append((f"{where}:mc-vs-reference", z <= Z_BOUND, f"|z| = {z:.3g}"))
        if i == 0:
            continue
        # The reference and the MC estimate (one pass serves the sweep) must
        # fall as beta1 or the noise grows.  The closed forms are approximate
        # and are judged by cov_closed_max_rel_err instead; rates need not be
        # monotone in beta1.
        if not rate:
            for m in ("reference", "mc"):
                if m in row:
                    checks.append((f"{where}:{m}-non-increasing", row[m] <= rows[i - 1][m], ""))
    return checks


def closed_max_rel_err(spec: dict, csvs: list[str]) -> float:
    """Largest |closed - reference| / reference over the coverage points,
    floored at CLOSED_ERR_FLOOR."""
    worst = CLOSED_ERR_FLOOR
    for sweep, text in zip(spec["sweeps"], csvs):
        if sweep["rate"]:
            continue
        for row in parse_csv(text):
            closed = row.get("closed", row.get("rayleigh"))
            if closed is not None and "reference" in row:
                worst = max(worst, abs(closed - row["reference"]) / row["reference"])
    return worst


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "hetnetcov" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"no hetnetcov sources: expected {SRC}/hetnetcov and {CONFIGS}", file=sys.stderr)
        return 2

    work_dir = OUT / f"{args.workload}-seed{args.seed}"
    spec = workloads.build(args.workload, args.seed, CONFIGS, work_dir)
    spec["src"] = str(SRC)
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n")
    runner = Runner(spec_path, deadline)

    try:
        runner.rep("--setup-only")  # fills the file cache; not counted
        if args.trace:
            reps = repeat(lambda: runner.rep("--trace-out", str(work_dir / "spans.csv")),
                          args.seconds, 1)
        else:
            reps = repeat(runner.rep, args.seconds, MIN_REPS)
        threads2 = runner.rep("--threads", "2") if spec["thread_invariance"] else None
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    first = reps[0]["csvs"]
    checks = []
    for sweep, text in zip(spec["sweeps"], first):
        checks += check_sweep(sweep, parse_csv(text))
    for k, rep in enumerate(reps[1:], start=1):
        checks.append((f"repeat-{k}:csv-identical", rep["csvs"] == first, ""))
    for k, rep in enumerate(reps):
        if "traced_csvs" in rep:
            checks.append((f"traced-{k}:csv-identical", rep["traced_csvs"] == first, ""))
            checks.append((f"after-traced-{k}:csv-identical", rep["after_csvs"] == first, ""))
    if threads2 is not None:
        checks.append(("threads-1-vs-2:csv-identical", threads2["csvs"] == first, ""))
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    attempted = len(checks)

    versions = reps[0]["versions"]
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": 1,
        "trials_GxF": spec["trials"],
        "sweep_points": reps[0]["points"],
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), **versions},
        "repetitions": len(reps),
        "samples": {key: [r[key] for r in reps]
                    for key in ("setup_s", "sweep_s", "calibration_s", "peak_rss_mb")},
        "checks_attempted": attempted,
        "checks_failed": [name for name, _ in failed],
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  threads 1  "
          f"GxF {spec['trials']}  sweep points {reps[0]['points']}  repetitions {len(reps)}")
    m = record["machine"]
    print(f"machine nproc {m['nproc']}  cpu {m['cpu']}  python {m['python']}  "
          f"numpy {m['numpy']}  scipy {m['scipy']}  backend {m['backend']}")

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in reps)
                  for name in reps[0]["layers"]}
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "sweep_rel": statistics.median(r["sweep_s"] / r["calibration_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "checks_passed_share": (attempted - len(failed)) / attempted,
            "cov_closed_max_rel_err": closed_max_rel_err(spec, first),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        samples = record["samples"]
        sweeps = sorted(samples["sweep_s"])
        print(f"  medians of {len(reps)} processes; sweep_s min {sweeps[0]:.4f}  "
              f"max {sweeps[-1]:.4f} s")
        print(f"  {'sweep_s':<44} {statistics.median(sweeps):.6g} s")
        print(f"  {'calibration_s (' + spec['calibration'] + ')':<44} "
              f"{statistics.median(samples['calibration_s']):.6g} s")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_share':<44} {len(failed) / attempted:.6g} 1"
          f"  ({len(failed)} of {attempted} checks failed)")
    for name, detail in failed:
        print(f"  FAILED {name} {detail}")

    record["metrics"] = metrics
    (work_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
