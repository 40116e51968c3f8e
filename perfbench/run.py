"""Verdict-throughput benchmark for mapnets.

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 35 --trace 0

Runs whole passes of one workload (see perfbench/README.md) until
``--seconds`` of passes have elapsed and, untraced, at least 100 verdicts
are timed.  Every pass starts from a freshly
imported package and freshly built nets, checks every verdict against its
hand-written answer and compares every verdict record with the first pass's,
byte for byte.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.
The last line of standard output is one JSON object; details go to
perfbench/out/.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
SRC_DIR = ROOT_DIR / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import layers as layer_trace  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, Row  # noqa: E402

SUBMODULES = ["jets", "manifold", "gmap", "asymptotics", "gpoints", "vbundle",
              "gallery", "config", "cli", "exprs"]

# Per-layer counters and the workloads on which each must read > 0; the
# layer-coverage self-check fails a traced run that reads 0 where listed.
REQUIRED_NONZERO = {
    "jets.fd_partial_calls": {"fd_2d"},
    "jets.jet_evals": {"gallery"},
    "manifold.derivs_calls": {"fd_2d", "gallery"},
    "manifold.contains_calls": {"gallery", "fd_2d", "sphere_images"},
    "manifold.margin_calls": {"gallery", "fd_2d", "sphere_images"},
    "manifold.representations_calls": {"gallery", "fd_2d", "sphere_images"},
    "manifold.map_eval_calls": {"gallery", "fd_2d", "sphere_images"},
    "manifold.distance_calls": {"gallery", "sphere_images"},
    "manifold.tensor_norm_calls": {"gallery", "fd_2d"},
    "gmap.check_cbounded_calls": {"gallery", "fd_2d", "sphere_images"},
    "gmap.check_single_chart_calls": {"gallery", "sphere_images"},
    "gmap.effective_reps_calls": {"gallery", "fd_2d"},
    "asymptotics.judge_calls": {"gallery", "fd_2d", "sphere_images"},
}


# verdict_s_p90 needs at least 10 samples beyond it.
MIN_LATENCY_SAMPLES = 100

# Host-speed calibration.  On a shared host the CPU speed of this process
# changes in bursts that last from seconds to minutes (by up to 1.5x on the
# host the baseline was measured on), so a whole run can fall in a slow or a
# fast period.  A fixed kernel of interpreter work and small numpy calls runs
# before every pass and after the last; each pass's times are scaled by
# REFERENCE_CALIBRATION_S / (median kernel time around the pass).  Reported
# times are therefore reference seconds: the time on a host where the kernel
# takes REFERENCE_CALIBRATION_S.  The report also prints the raw wall times.
REFERENCE_CALIBRATION_S = 0.04
CALIBRATION_SAMPLES = 3


class SetupError(RuntimeError):
    pass


# ======================================================================
# Fresh program state
# ======================================================================


def fresh_import():
    """Drop every loaded mapnets module and import the package again, so no
    net, atlas, per-net cache or registry survives from an earlier pass."""
    for name in [m for m in sys.modules if m == "mapnets" or m.startswith("mapnets.")]:
        del sys.modules[name]
    mapnets = importlib.import_module("mapnets")
    if Path(mapnets.__file__).resolve().parent != (SRC_DIR / "mapnets").resolve():
        raise SetupError(f"imported mapnets from {mapnets.__file__}, not from src/")
    pkg = {"mapnets": mapnets}
    for sub in SUBMODULES:
        pkg[sub] = importlib.import_module(f"mapnets.{sub}")
    return pkg


# ======================================================================
# One pass
# ======================================================================


class PassResult:
    def __init__(self, traced: bool):
        self.traced = traced
        self.setup_s = 0.0
        self.rows: list = []  # (Row, its latency in wall seconds)
        self.call_times: dict = {}
        self.verdict_s = 0.0
        self.runtime_warnings = 0
        self.layer: dict = {}
        self.speed = 1.0  # reference seconds per wall second, set after the run


def _calibration_kernel() -> float:
    acc = 0.0
    base = np.zeros(2)
    bins: dict = {}
    for i in range(3000):
        x = np.atleast_1d(np.asarray([i * 1e-3, 0.5], dtype=float))
        if np.all(x > base - 1.0) and np.all(np.isfinite(x)):
            acc += float(np.linalg.norm(x - base))
        bins[i % 31] = bins.get(i % 31, 0.0) + math.sin(acc)
    return acc


def calibrate() -> list:
    """Wall times of CALIBRATION_SAMPLES kernel runs, with the collector paused."""
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(CALIBRATION_SAMPLES):
            start = time.perf_counter()
            _calibration_kernel()
            times.append(time.perf_counter() - start)
        return times
    finally:
        gc.enable()


def run_pass(workload: str, seed: int, tracer) -> PassResult:
    res = PassResult(tracer is not None)
    gc.collect()
    t0 = time.perf_counter()
    modules = fresh_import()
    if tracer is not None:
        layer_trace.install(tracer, modules)
    calls = WORKLOADS[workload](SimpleNamespace(**modules), seed)
    res.setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.reset()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i, call in enumerate(calls):
            thunk = call.thunk
            if tracer is not None:
                tracer.verdict_id = i
                thunk = tracer.span(layer_trace.ROOT, thunk)
            start = time.perf_counter()
            try:
                result, error = thunk(), None
            except Exception as exc:  # a raising call is a failed verdict
                result, error = None, exc
            latency = time.perf_counter() - start
            res.verdict_s += latency
            res.call_times[call.label] = latency
            if error is None:
                rows = call.expand(result)
            else:
                traceback.print_exception(error, file=sys.stderr)
                rows = [Row(lbl, "raised", json.dumps(repr(error)), "failed")
                        for lbl in call.labels]
            res.rows.extend((row, latency if row.latency is None else row.latency)
                            for row in rows)
        res.runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    if tracer is not None:
        res.layer = layer_stats(tracer, res)
    return res


def layer_stats(tracer, res: PassResult) -> dict:
    calls, self_s = tracer.calls, tracer.self_s

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    n_verdicts = len(res.rows)
    out = {
        "jets.fd_partial_calls": c("jets.fd_partial"),
        "jets.fd_partial_s": s("jets.fd_partial"),
        "jets.jet_evals": c("jets.jet_var"),
        "jets.jet_s": s("jets.jet_var") + s("jets.jet_ops"),
        "manifold.derivs_calls": c("manifold.derivs"),
        "manifold.derivs_s": s("manifold.derivs"),
        "manifold.fd_share": c("jets.fd_partial") / max(1, c("manifold.derivs")),
        "manifold.runtime_warnings": res.runtime_warnings,
        "manifold.map_eval_unique_frac": len(tracer.eval_keys) / max(1, tracer.eval_total),
        "gmap.image_sweeps_per_verdict": (c("gmap.check_cbounded")
                                          + c("gmap.check_single_chart")
                                          + c("gmap.metric_gap_series")) / max(1, n_verdicts),
        "asymptotics.judge_calls": c("asymptotics.judge"),
        "asymptotics.judge_s": s("asymptotics.judge"),
    }
    for layer in ("contains", "margin", "representations", "map_eval", "distance",
                  "tensor_norm"):
        out[f"manifold.{layer}_calls"] = c(f"manifold.{layer}")
        out[f"manifold.{layer}_s"] = s(f"manifold.{layer}")
    for name in ("check_cbounded", "check_single_chart"):
        out[f"gmap.{name}_calls"] = c(f"gmap.{name}")
        out[f"gmap.{name}_s"] = s(f"gmap.{name}")
    for name in ("derivative_sup_series", "chart_gap_series", "metric_gap_series"):
        out[f"gmap.{name}_s"] = s(f"gmap.{name}")
    out["gmap.effective_reps_calls"] = c("gmap.effective_reps")
    for name in ("points_equal", "eval_at", "separate_by_points"):
        out[f"gpoints.{name}_s"] = s(f"gpoints.{name}")
    for name in ("matrix_gap_series", "check_vbhom_moderate", "vbhom_eval"):
        out[f"vbundle.{name}_s"] = s(f"vbundle.{name}")
    for name in layer_trace.GALLERY_ENTRIES:
        out[f"gallery.entry.{name}_s"] = s(f"gallery.entry.{name}")
    total = sum(self_s.values()) or 1.0
    for mod in layer_trace.MODULES:
        out[f"{mod}.self_share"] = sum(v for k, v in self_s.items()
                                       if k.split(".", 1)[0] == mod) / total
    out["bench.unwrapped_share"] = s(layer_trace.ROOT) / total
    return out


# ======================================================================
# Metrics
# ======================================================================


def quantile(values: list, q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes: list, speed=lambda p: p.speed) -> dict:
    """End-to-end metrics; times in reference seconds, or in wall seconds
    with ``speed=lambda p: 1.0``."""
    lat = [lat * speed(p) for p in passes for _row, lat in p.rows]
    rows = [row for p in passes for row, _lat in p.rows]
    n = len(rows)
    failed = sum(r.outcome == "failed" for r in rows)
    decided = sum(r.outcome == "correct" for r in rows)
    return {
        "setup_s": (statistics.median(p.setup_s * speed(p) for p in passes), "s"),
        "verdicts_per_s": (n / sum(p.verdict_s * speed(p) for p in passes), "1/s"),
        "verdict_s_p50": (statistics.median(lat), "s"),
        "verdict_s_p90": (quantile(lat, 90), "s"),
        "not_failed_frac": ((n - failed) / n, "ratio"),
        "decided_frac": (decided / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYER_UNITS = {"_calls": "count", "_evals": "count", "_s": "s", "_share": "ratio",
               "_frac": "ratio", "_warnings": "count", "_per_verdict": "count"}


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def per_layer(passes: list) -> tuple:
    """Per-layer metrics (median per traced pass) and per-module self-time
    shares (over all traced passes)."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics, shares = {}, {}
    for name in traced[0].layer:
        values = [p.layer[name] for p in traced]
        if name.endswith(".self_share") or name == "bench.unwrapped_share":
            shares[name] = (statistics.fmean(values), "ratio")
        else:
            unit = unit_of(name)
            if unit == "s":
                values = [p.layer[name] * p.speed for p in traced]
            metrics[name] = (statistics.median(values), unit)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(p.verdict_s * p.speed for p in traced)
        / statistics.median(p.verdict_s * p.speed for p in plain) - 1.0, "ratio")
    return metrics, shares


def coverage_check(workload: str, metrics: dict) -> None:
    for name, required in REQUIRED_NONZERO.items():
        if name not in metrics:
            raise layer_trace.CoverageError(f"counter {name} is not reported")
        if workload in required and metrics[name][0] == 0:
            raise layer_trace.CoverageError(
                f"counter {name} reads 0 on {workload}; a wrap target no longer sees the work")


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC_DIR.rglob("*.py")))


def metadata() -> dict:
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "src_lines": src_line_count(),
    }


# ======================================================================
# Main
# ======================================================================


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC_DIR / "mapnets" / "__init__.py").is_file():
        print(f"error: no mapnets package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    try:
        fresh_import()  # compiles bytecode once, outside any timed pass
    except (ImportError, SetupError) as exc:
        print(f"error: cannot import mapnets: {exc}", file=sys.stderr)
        return 2

    tracer = layer_trace.Tracer(keep_spans=True) if args.trace else None
    passes: list = []
    calibration = [calibrate()]
    started = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            p = run_pass(args.workload, args.seed, tracer if traced else None)
            passes.append(p)
            calibration.append(calibrate())
            if traced:
                tracer.keep_spans = False  # spans of the first traced pass only
            if tracer is None:
                done = sum(len(q.rows) for q in passes) >= MIN_LATENCY_SAMPLES
            else:
                done = len(passes) % 2 == 0
            if done and len(passes) >= 2 and time.perf_counter() - started >= args.seconds:
                break
    except layer_trace.CoverageError as exc:
        print(f"error: layer coverage: {exc}", file=sys.stderr)
        return 3

    for i, p in enumerate(passes):
        p.speed = REFERENCE_CALIBRATION_S / statistics.median(calibration[i] + calibration[i + 1])

    # Byte comparison with the first pass: a differing record fails its row.
    first = [row.record for row, _ in passes[0].rows]
    mismatches = 0
    for p in passes[1:]:
        records = [row.record for row, _ in p.rows]
        for i, (row, _lat) in enumerate(p.rows):
            if len(records) != len(first) or row.record != first[i]:
                row.outcome = "failed"
                mismatches += 1

    all_rows = [row for p in passes for row, _ in p.rows]
    known = KNOWN_DEFECTS.get(args.workload, set())
    unexpected = sorted({r.label for r in all_rows
                         if r.outcome == "failed" and r.label not in known})
    failed = sum(r.outcome == "failed" for r in all_rows)
    correct = not unexpected and mismatches == 0

    plain = [p for p in passes if not p.traced]
    e2e = end_to_end(plain)
    layer = shares = None
    if tracer is not None:
        layer, shares = per_layer(passes)
        try:
            coverage_check(args.workload, layer)
        except layer_trace.CoverageError as exc:
            print(f"error: layer coverage: {exc}", file=sys.stderr)
            return 3

    meta = metadata()
    n_rows = sum(len(p.rows) for p in plain)
    first_pass = passes[0]
    print(f"# mapnets benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} (untraced {len(plain)})")
    print(f"# metadata: {json.dumps(meta, sort_keys=True)}")
    print("# rows of the first pass: label, status, outcome, call seconds")
    for row, lat in first_pass.rows:
        print(f"#   {row.label:44s} {row.status:13s} {row.outcome:9s} {lat:.4f}")
    if unexpected:
        print(f"# unexpected failed rows: {unexpected}")
    if mismatches:
        print(f"# rows whose record differs from the first pass: {mismatches}")
    print(f"# end-to-end (untraced passes, {n_rows} verdicts, each one latency sample):")
    for name, (value, unit) in e2e.items():
        print(f"#   {name:28s} {value:.6g} {unit}")
    raw = end_to_end(plain, speed=lambda p: 1.0)
    print(f"#   raw wall times: " + ", ".join(
        f"{k} {raw[k][0]:.6g} {raw[k][1]}" for k in
        ("setup_s", "verdicts_per_s", "verdict_s_p50", "verdict_s_p90")))
    print(f"#   reference seconds per wall second: median "
          f"{statistics.median(p.speed for p in plain):.4g} over {len(plain)} passes")
    n_failed_plain = sum(r.outcome == "failed" for p in plain for r, _ in p.rows)
    print(f"#   {'failed_frac':28s} {n_failed_plain / n_rows:.6g} ratio "
          f"({n_failed_plain} of {n_rows})")
    print(f"#   {'runtime_warnings_per_pass':28s} "
          f"{statistics.median(p.runtime_warnings for p in plain):g} count")
    if layer is not None:
        print(f"# per-layer (median per traced pass, {len(passes) - len(plain)} passes):")
        for name, (value, unit) in layer.items():
            print(f"#   {name:40s} {value:.6g} {unit}")
        print("# self-time shares of the traced verdict time:")
        for name, (value, unit) in sorted(shares.items()):
            print(f"#   {name:40s} {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": meta, "correct": correct,
        "unexpected_failed_rows": unexpected, "record_mismatches": mismatches,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": None if layer is None else
        {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "self_shares": None if shares is None else {k: v for k, (v, _u) in shares.items()},
        "passes": [{"traced": p.traced, "setup_s": p.setup_s, "verdict_s": p.verdict_s,
                    "runtime_warnings": p.runtime_warnings, "call_s": p.call_times,
                    "speed": p.speed} for p in passes],
        "calibration_s": calibration,
        "rows": [{"label": r.label, "status": r.status, "outcome": r.outcome}
                 for r, _ in first_pass.rows],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    if tracer is not None:
        np.savez(OUT_DIR / f"{args.workload}-spans.npz", **tracer.export_spans())

    chosen = layer if layer is not None else e2e
    result = {
        "correct": correct,
        "attempted": len(all_rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
