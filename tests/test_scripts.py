"""Smoke tests for the scripts under `scripts/`, at budgets small enough for Tier-1.

They check that a script still runs against the package's API; the
script's own gates at its full budget are checked by CI.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)


def test_disk_table_prints_every_row():
    # 5 anchors x 2 shape sets x 2 noise powers; at this budget the closing
    # check may pass or fail, but the script must reach it.
    run = run_script("disk_table.py", "--geometries", "20", "--fading", "5")
    assert run.returncode in (0, 1), run.stderr
    assert "Traceback" not in run.stderr
    rows = [line for line in run.stdout.splitlines() if re.match(r"\| [\d,]+ \|", line)]
    assert len(rows) == 20
    last = run.stdout.rstrip().splitlines()[-1]
    assert re.fullmatch(r"default disks, anchor .*; (PASS|FAIL)", last), last
