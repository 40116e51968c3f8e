"""The committed ``BENCH_<pr>.json`` files (``scripts/bench.py``) keep their
schema: every workload and end-to-end metric ``BENCHMARK.json`` declares,
with its unit, plus the run settings, the host, the size of src/ and the
Tier-1 count.  The benchmark itself is not run."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_schema(path):
    rec = json.loads(path.read_text())
    assert set(rec) == {"pr", "seed", "seconds", "host", "src_lines", "workloads", "tier1"}
    assert path.name == f"BENCH_{rec['pr']}.json"
    assert isinstance(rec["seed"], int) and number(rec["seconds"]) and rec["seconds"] > 0
    assert set(rec["host"]) == {"nproc", "python", "numpy"}
    assert isinstance(rec["host"]["nproc"], int) and rec["host"]["nproc"] > 0
    assert isinstance(rec["src_lines"], int) and rec["src_lines"] > 0
    tier1 = rec["tier1"]
    assert set(tier1) == {"passed", "failed", "errors", "wall_s"}
    assert tier1["passed"] > 0 and number(tier1["wall_s"])
    assert list(rec["workloads"]) == [w["name"] for w in BENCHMARK["workloads"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for run in rec["workloads"].values():
        assert set(run) == {"correct", "attempted", "failed", "metrics"}
        assert isinstance(run["correct"], bool) and run["attempted"] > 0
        assert {k: m["unit"] for k, m in run["metrics"].items()} == units
        assert all(number(m["value"]) for m in run["metrics"].values())
