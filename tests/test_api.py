"""Tests for the public surface: README's library example and each module's `__all__`."""

import ast
import importlib
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import hetnetcov
from hetnetcov import analysis, cli, pla

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("analysis", "cli", "mcsim", "model", "pla")
# Oracles that only tests call; they live in tests/oracles.py.
TEST_ORACLES = ("rate_reference", "conditional_ccdf", "snapshot_sinrs", "sample_geometry",
                "sample_fading", "Realization", "pla_surrogate", "rayleigh_coverage",
                "rayleigh_rate")
# Single-network conveniences folded into the forms the sweep runs, with no
# aliases: model._script_i_by_shape, model.rate_constants_at and the chain
# mcsim.simulate_trials -> tier_max_sinr -> coverage_from_tier_max or
# rate_from_tier_max.  The Rayleigh specialisations are the closed form at
# M_i = 1 (its rate there is rate_exact), and their regime check went with
# them.
FOLDED = ("tier_script_I", "rate_constant", "mc_coverage", "mc_conditional_rate", "_simulate",
          "coverage_rayleigh", "rate_rayleigh", "check_kernel_regime")


def library_example() -> str:
    """The python block under README's "Library use" heading."""
    text = README.read_text()
    section = text[text.index("## Library use"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library use'"
    return match.group(1)


def test_readme_library_example_runs():
    # The example sweeps noise into the PLA's noise-limited regime, where the
    # closed forms warn by design.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
        exec(compile(library_example(), str(README), "exec"), {})


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"hetnetcov.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_are_exported():
    tree = ast.parse(Path(hetnetcov.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert {module for module, _ in imported} == set(MODULES) - {"cli"}
    unexported = [f"{module}.{name}" for module, name in imported
                  if name not in importlib.import_module(f"hetnetcov.{module}").__all__]
    assert unexported == []


def test_test_oracles_are_not_shipped():
    modules = [hetnetcov] + [importlib.import_module(f"hetnetcov.{name}") for name in MODULES]
    shipped = [f"{module.__name__}.{name}" for module in modules
               for name in TEST_ORACLES + FOLDED if hasattr(module, name)]
    assert shipped == []


def test_import_leaves_out_integrate_and_optimize():
    # A fresh interpreter, since other tests import scipy.integrate into this one.
    src = str(Path(hetnetcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hetnetcov, hetnetcov.cli; "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.strip() == "[]"


def shipped_network(name, noise):
    """The network at the first point of a shipped config's sweep, at `noise`."""
    config = cli.load_config(f"configs/{name}.json")
    return replace(cli._params_at(config, config.sweep.start), noise=noise)


def closed_form_sweep(name):
    config = cli.load_config(f"configs/{name}.json")
    return replace(config, sweep=replace(config.sweep, methods=("closed", "rayleigh")))


# Calls that reach the PLA kernel outside its regime, each from this file.
WARNING_ROUTES = {
    "coverage_probability":
        lambda: analysis.coverage_probability(shipped_network("fig1_nakagami23", 1e3)),
    "average_rate": lambda: analysis.average_rate(shipped_network("fig1_nakagami23", 1e3)),
    "run_sweep": lambda: cli.run_sweep(closed_form_sweep("fig2_coverage_noise")),
    "approx_gamma_kernel_integral": lambda: pla.approx_gamma_kernel_integral(10.0, 0.01, 4.0, 2.5),
}


@pytest.mark.parametrize("route", list(WARNING_ROUTES))
def test_pla_warnings_name_the_caller(route):
    # A PlaAccuracyWarning names the caller's line, however deep in the
    # package the kernel was reached, not a line of the package.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        WARNING_ROUTES[route]()
    assert caught
    assert {w.category for w in caught} == {pla.PlaAccuracyWarning}
    assert {w.filename for w in caught} == {__file__}
