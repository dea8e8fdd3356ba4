"""The CLI's CSV bytes for the analytic columns, against committed golden files.

`tests/golden/` holds the `closed`, `rayleigh` and `reference` columns
(each shipped config with `mc` removed from its methods), with and without
`--rate`, and a 500-point noise sweep of fig1_nakagami23.  A change of
the analytic routes that moves one printed digit fails here.

    PYTHONPATH=src python tests/test_golden.py

rewrites the files from the current tree; do that only for an intended
change of output, and say so.
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

from hetnetcov import pla
from hetnetcov.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DENSE_NOISE = {"variable": "noise_db", "start": -20.0, "stop": 30.0, "points": 500,
               "methods": ["closed", "reference"]}


def _cases() -> dict[str, tuple[dict, bool]]:
    """Golden file stem -> (config, rate)."""
    configs = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        cfg["sweep"]["methods"] = [m for m in cfg["sweep"]["methods"] if m != "mc"]
        configs[path.stem] = cfg
    dense = json.loads((ROOT / "configs" / "fig1_nakagami23.json").read_text())
    dense["sweep"] = DENSE_NOISE
    configs["fig1_nakagami23-noise500"] = dense
    return {f"{stem}{'-rate' if rate else ''}": (cfg, rate)
            for stem, cfg in configs.items() for rate in (False, True)}


CASES = _cases()


def _run(cfg: dict, rate: bool, workdir: Path) -> bytes:
    """The CLI's CSV bytes for `cfg`, its warnings left to the caller's filters."""
    config, out = workdir / "config.json", workdir / "out.csv"
    config.write_text(json.dumps(cfg))
    code = main(["--config", str(config), "--output", str(out)] + (["--rate"] if rate else []))
    assert code == 0
    return out.read_bytes()


def _csv(cfg: dict, rate: bool, workdir: Path) -> bytes:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pla.PlaAccuracyWarning)
        return _run(cfg, rate, workdir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_equal_golden(tmp_path, name):
    cfg, rate = CASES[name]
    assert _csv(cfg, rate, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", ["fig1_nakagami23-noise500", "fig1_nakagami23-noise500-rate"])
def test_one_warning_per_flagging_call(tmp_path, pla_warnings, name):
    # The 500-point noise sweep flags hundreds of points, in a few kernel
    # calls: each call that flags a point warns once, carrying its points.
    cfg, rate = CASES[name]
    csv, warned, flagging = pla_warnings(lambda: _run(cfg, rate, tmp_path))
    assert csv == (GOLDEN / f"{name}.csv").read_bytes()
    assert sorted(warned) == sorted(flagging)
    assert 0 < len(warned) < len(sum(warned, ()))


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (cfg, rate) in CASES.items():
            (GOLDEN / f"{name}.csv").write_bytes(_csv(cfg, rate, Path(tmp)))
            print(f"wrote {name}.csv", file=sys.stderr)
