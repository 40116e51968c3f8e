"""Smoke tests: the experiment scripts and ``python -m mapnets`` run from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_slope_scan_and_equivalence_order_scan():
    slope = run_script("scripts/slope_scan.py", "8", "10")
    assert slope.returncode == 0, slope.stderr
    rows = slope.stdout.splitlines()
    assert rows[0].split() == ["grid", "points", "status", "k=1", "slope"]
    assert [r.split()[0] for r in rows[1:]] == ["2^-8", "2^-10"]

    scan = run_script("scripts/equivalence_order_scan.py")
    assert scan.returncode == 0, scan.stderr
    assert scan.stdout.splitlines()[-1] == \
        "no order-0/full-equivalence gap observed on this corpus"


def test_python_m_mapnets_gallery_list():
    out = run_script("-m", "mapnets", "gallery", "list")
    assert out.returncode == 0, out.stderr
    assert "sigma_sin" in out.stdout
