#!/usr/bin/env python3
"""Write ``BENCH_<pr>.json``: end-to-end benchmark metrics plus the size of src/
and the Tier-1 suite's count and wall time.

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``, with
this interpreter) once per declared workload, untraced, with one fixed seed
and length, and keeps the last line of each run: whether every verdict was
correct, the verdicts attempted and failed, and the end-to-end metrics.  It
adds the seed, the length, the host (cores, Python and numpy versions), the
Python lines under src/, and the count and wall time of one Tier-1 run
(``python -m pytest -q --continue-on-collection-errors``).  The file is
written at the repository root; per-run details go to perfbench/out/ as
usual.

Usage: python scripts/bench.py --pr N
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import src_lines  # scripts/src_lines.py, the count the CI step prints

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def run_workload(command: list, workload: str, seed: int, seconds: float) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0), "wall_s": wall}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    args = ap.parse_args(argv)
    seconds = float(bench["run_seconds"])
    command = bench["command"]
    if command[0] in ("python", "python3"):
        command = [sys.executable, *command[1:]]
    record = {
        "pr": args.pr,
        "seed": SEED,
        "seconds": seconds,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "src_lines": src_lines.counts(ROOT)[0],
        "workloads": {w["name"]: run_workload(command, w["name"], SEED, seconds)
                      for w in bench["workloads"]},
        "tier1": run_tier1(),
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
