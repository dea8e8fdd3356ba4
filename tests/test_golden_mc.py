"""The simulator's `mc` and `mc_se` values, against committed golden files.

`tests/golden_mc/` holds, for each shipped config with and without
`--rate`, the sweep's `mc` and `mc_se` columns at 200 geometries x 10
draws (the config's seed, `mc` its only method), written at full
precision (`repr`).  Two comparisons use them:

- at the CLI's 10 digits, the sweep and the CLI's CSV;
- at full precision, the sweep, so that a change of one ulp
  in a distance, a fading draw or an SINR moves the rate column.  At 10
  digits no such change shows.

The full-precision values also depend on how numpy's float64 `log`,
`log1p` and `power` round, and that differs between its SIMD paths (an
AVX-512 and an AVX2 machine running the same numpy differ in last bits).
`elementwise.sha256` fingerprints those functions where the files were
written; where the fingerprint differs, the full-precision comparison is
skipped and says so, and the 10-digit one still runs.

    PYTHONPATH=src python tests/test_golden_mc.py

rewrites the files and the fingerprint from the current tree; do that
only for an intended change of the simulated values, and say so.
"""

import csv
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hetnetcov.cli import load_config, main, run_sweep, write_csv

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_mc"
FINGERPRINT = GOLDEN / "elementwise.sha256"
SIM = {"n_geometry": 200, "n_fading": 10}
COLUMNS = ("sweep_db", "mc", "mc_se")


def _cases() -> dict[str, tuple[dict, bool]]:
    """Golden file stem -> (config, rate)."""
    cases = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        cfg["sweep"]["methods"] = ["mc"]
        cfg["sim"].update(SIM)
        for rate in (False, True):
            cases[f"{path.stem}{'-rate' if rate else ''}"] = (cfg, rate)
    return cases


CASES = _cases()


def _write_config(cfg: dict, workdir: Path) -> str:
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@functools.cache
def _rows(name: str) -> list[dict[str, float]]:
    """The sweep's rows for case `name`."""
    cfg, rate = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        return run_sweep(load_config(_write_config(cfg, Path(tmp))), rate=rate)


def _full_precision(rows: list[dict[str, float]]) -> str:
    lines = [",".join(COLUMNS)]
    lines += [",".join(repr(row[c]) for c in COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def _cli_csv(rows: list[dict[str, float]]) -> str:
    out = io.StringIO()
    write_csv(rows, ("mc",), out)
    return out.getvalue()


def _elementwise_fingerprint() -> str:
    """sha256 of numpy's float64 log, log1p and power on fixed inputs."""
    x = np.arange(1, 100_001) / 100_000
    digest = hashlib.sha256()
    for y in (np.log(x), np.log1p(1e3 * x), x ** -3.0):
        digest.update(y.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_mc_csv_equal_golden(tmp_path, name):
    with open(GOLDEN / f"{name}.csv", newline="") as fh:
        golden = [{c: float(row[c]) for c in COLUMNS} for row in csv.DictReader(fh)]
    expected = _cli_csv(golden)
    assert _cli_csv(_rows(name)) == expected

    cfg, rate = CASES[name]
    out = tmp_path / "out.csv"
    argv = ["--config", _write_config(cfg, tmp_path), "--output", str(out)]
    assert main(argv + (["--rate"] if rate else [])) == 0
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_mc_values_equal_golden_full_precision(name):
    if _elementwise_fingerprint() != FINGERPRINT.read_text().strip():
        pytest.skip("numpy's float64 log, log1p or power rounds differently here "
                    "than where tests/golden_mc/ was written")
    assert _full_precision(_rows(name)) == (GOLDEN / f"{name}.csv").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN / f"{name}.csv").write_text(_full_precision(_rows(name)))
        print(f"wrote {name}.csv", file=sys.stderr)
    FINGERPRINT.write_text(_elementwise_fingerprint() + "\n")
    print(f"wrote {FINGERPRINT.name}", file=sys.stderr)
