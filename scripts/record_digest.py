#!/usr/bin/env python3
"""Digests of every verdict record the benchmark and the gallery gate produce.

Prints one sha256 line per (workload, seed) over the records of one
untraced perfbench pass (``perfbench/run.py``'s ``run_pass``: label, status
and canonical record of every row), and one line over the standard output
and every file of ``mapnets gallery run --out``.  Run it in two checkouts
and ``diff`` the outputs: equal lines mean byte-identical records.  Nothing
is written under perfbench/.

Usage: python scripts/record_digest.py [--seeds 1 7] [--root CHECKOUT]
"""

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("gallery", "fd_2d", "sphere_images")


def load_run(root: Path):
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def workload_digest(run, workload: str, seed: int) -> str:
    res = run.run_pass(workload, seed, None)
    h = hashlib.sha256()
    for row, _latency in res.rows:
        h.update("\0".join((row.label, row.status, row.record)).encode() + b"\n")
    return f"{workload} seed={seed} rows={len(res.rows)} {h.hexdigest()}"


def gallery_digest(root: Path) -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(p for p in (str(root / "src"),
                                                      os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-m", "mapnets", "gallery", "run", "--out", out],
                              cwd=root, env=env, capture_output=True, timeout=600, check=False)
        h = hashlib.sha256(proc.stdout)
        files = sorted(p for p in Path(out).rglob("*") if p.is_file())
        for p in files:
            h.update(b"\0" + str(p.relative_to(out)).encode() + b"\0" + p.read_bytes())
    return f"gallery-run exit={proc.returncode} files={len(files)} {h.hexdigest()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout to digest (default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    run = load_run(root)
    for workload in WORKLOADS:
        for seed in args.seeds:
            print(workload_digest(run, workload, seed), flush=True)
    print(gallery_digest(root), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
