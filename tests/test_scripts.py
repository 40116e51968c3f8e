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


def test_equivalence_order_scan_with_winding_pairs():
    # the winding pairs fail the single-chart condition: their images fill
    # both angle charts, where the chart route's table admission matters most
    scan = run_script("scripts/equivalence_order_scan.py", "--include-unverified")
    assert scan.returncode == 0, scan.stderr
    rows = [r.split() for r in scan.stdout.splitlines()[:5]]
    assert rows == [
        ["sigma_sin/sin_plus_flat", "single-chart=Pass", "equiv0=Pass", "equiv=Pass"],
        ["s1_jump/s1_jump_flat", "single-chart=Pass", "equiv0=Pass", "equiv=Pass"],
        ["sigma_sin/sin_plus_eps2", "single-chart=Pass", "equiv0=Fail", "equiv=Fail"],
        ["winder/winder_flat", "single-chart=Fail", "equiv0=Pass", "equiv=Pass"],
        ["winder/winder_drift", "single-chart=Fail", "equiv0=Fail", "equiv=Fail"],
    ]
    assert scan.stdout.splitlines()[-1] == \
        "no order-0/full-equivalence gap observed on this corpus"


def test_python_m_mapnets_gallery_list():
    out = run_script("-m", "mapnets", "gallery", "list")
    assert out.returncode == 0, out.stderr
    assert "sigma_sin" in out.stdout
