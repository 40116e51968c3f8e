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


def test_record_digest_is_reproducible():
    # one line per workload at seed 1, then one over `gallery run --out`
    runs = [run_script("scripts/record_digest.py", "--seeds", "1") for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    lines = runs[0].stdout.splitlines()
    assert [ln.split()[0] for ln in lines] == ["gallery", "fd_2d", "sphere_images",
                                               "gallery-run"]
    assert all(len(ln.split()[-1]) == 64 for ln in lines)
    assert runs[1].stdout == runs[0].stdout


def test_src_lines_counts_code_apart_from_docs(tmp_path):
    """A docstring or comment line raises ``lines`` alone; a statement raises both."""
    def count(body):
        (tmp_path / "src").mkdir(exist_ok=True)
        (tmp_path / "src" / "m.py").write_text(body, encoding="utf-8")
        out = run_script("scripts/src_lines.py", str(tmp_path))
        assert out.returncode == 0, out.stderr
        return dict(field.split("=") for field in out.stdout.split())

    base = 'def f(x):\n    """Twice x."""\n    return 2 * x\n'
    assert count(base) == {"lines": "3", "code": "2"}
    docs = ['"""A module."""\n' + base,
            base.replace('"""Twice x."""', '"""Twice x.\n\n    Of any number.\n    """'),
            base.replace("    return", "    # a comment\n    return"),
            base + "\n"]
    for body in docs:
        got = count(body)
        assert got["code"] == "2" and int(got["lines"]) > 3, body
    assert count(base + "y = f(1)\n") == {"lines": "4", "code": "3"}
    assert count(base.replace("    return", "    s = '''# not a comment\n'''\n    return")) \
        == {"lines": "5", "code": "4"}
