"""The benchmark's workloads, generated from the shipped `configs/*.json`.

Each workload takes the network of one shipped config, replaces its sweep
and Monte Carlo budget, and writes the result as ordinary CLI configs, so
the program sees nothing but the generated inputs.  The seed argument
becomes `sim.seed`.  The analytic workload draws nothing at random; its
inputs are the same for every seed.

Every sweep runs single-threaded.  The `why` of each workload is the
one-line reason also listed in BENCHMARK.json.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

N_FADING = 100


@dataclass(frozen=True)
class Sweep:
    label: str     # names the sweep in check and report lines
    base: str      # shipped config the network comes from
    variable: str  # sweep variable, as in the config
    start: float
    stop: float
    points: int
    methods: tuple[str, ...]
    rate: bool     # cli.run_sweep(rate=...)


@dataclass(frozen=True)
class Workload:
    why: str
    sweeps: tuple[Sweep, ...]
    calibration: str  # the calibrate.py computation its work resembles
    n_geometry: int = 0         # 0: the workload runs no Monte Carlo
    thread_invariance: bool = False  # also compare the CSV at threads 1 and 2


WORKLOADS: dict[str, Workload] = {
    # One simulation pass serves the whole threshold sweep, and the
    # Gamma(2)/Gamma(3) fading makes this the most fading-bound workload:
    # in a trace at 200 geometries `sample_fading` took 83% of the time,
    # the rest of the pass 14% and the analytic routes about 1%.  It is
    # also the workload that checks the thread-count determinism contract.
    "mc-threshold-m23": Workload(
        why="one MC pass serves a 10-point beta1 sweep; Gamma(2)/Gamma(3) "
            "fading makes the fading sampler the largest layer",
        sweeps=(
            Sweep("beta1-coverage", "fig1_nakagami23.json", "beta1_db",
                  1.0, 20.0, 10, ("closed", "reference", "mc"), rate=False),
        ),
        calibration="numpy",
        n_geometry=300,
        thread_invariance=True,
    ),
    # Rayleigh fading is cheap, so the SINR kernel, the per-geometry
    # overhead and the number of passes dominate.  It is the only workload
    # on the noise-margin path, and the rate noise sweep re-simulates at
    # every point (11 passes in all).  Its 30 dB end is where the PLA
    # closed form misses the reference by about 5%.
    "mc-noise-m11": Workload(
        why="Rayleigh noise sweep: the noise-margin pass plus a rate sweep "
            "that re-simulates per point; kernel and pass count dominate",
        sweeps=(
            Sweep("noise-coverage", "fig2_coverage_noise.json", "noise_db",
                  -20.0, 30.0, 10, ("rayleigh", "reference", "mc"), rate=False),
            Sweep("noise-rate", "fig2_coverage_noise.json", "noise_db",
                  -20.0, 30.0, 10, ("rayleigh", "reference", "mc"), rate=True),
        ),
        calibration="numpy",
        n_geometry=150,
    ),
    # The simulator does nothing here.  Coverage time is mostly the exact
    # kernel quadrature behind the reference; the beta1 half is where
    # threshold-independent constants can be hoisted, the noise half is
    # where they cannot.
    "analytic-dense-m23": Workload(
        why="no MC: dense beta1 and noise sweeps of closed form and "
            "quadrature reference, coverage and rate, at M=(2,3)",
        sweeps=(
            Sweep("beta1-coverage", "fig1_nakagami23.json", "beta1_db",
                  1.0, 20.0, 500, ("closed", "reference"), rate=False),
            Sweep("beta1-rate", "fig1_nakagami23.json", "beta1_db",
                  1.0, 20.0, 500, ("closed", "reference"), rate=True),
            Sweep("noise-coverage", "fig1_nakagami23.json", "noise_db",
                  -20.0, 30.0, 500, ("closed", "reference"), rate=False),
            Sweep("noise-rate", "fig1_nakagami23.json", "noise_db",
                  -20.0, 30.0, 500, ("closed", "reference"), rate=True),
        ),
        calibration="quad",
    ),
}


def build(name: str, seed: int, configs_dir: Path, out_dir: Path) -> dict:
    """Write the workload's configs under `out_dir` and return its run spec."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    sweeps = []
    for sweep in workload.sweeps:
        raw = json.loads((configs_dir / sweep.base).read_text())
        config = copy.deepcopy(raw)
        config["sweep"] = {
            "variable": sweep.variable,
            "start": sweep.start,
            "stop": sweep.stop,
            "points": sweep.points,
            "methods": list(sweep.methods),
        }
        config["sim"] = {**raw.get("sim", {}), "seed": seed}
        if workload.n_geometry:
            config["sim"].update(n_geometry=workload.n_geometry, n_fading=N_FADING)
        path = out_dir / f"{sweep.label}.json"
        path.write_text(json.dumps(config, indent=1) + "\n")
        sweeps.append({
            "label": sweep.label,
            "config": str(path),
            "rate": sweep.rate,
            "variable": sweep.variable,
            "thresholds_db": [t["beta_db"] for t in raw["tiers"]],
        })
    return {
        "trials": (f"{workload.n_geometry}x{N_FADING}" if workload.n_geometry else "none"),
        "thread_invariance": workload.thread_invariance,
        "calibration": workload.calibration,
        "sweeps": sweeps,
    }
