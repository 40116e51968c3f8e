"""Command-line driver: JSON descriptions in, verdict records and CSV out.

Subcommands mirror the checks; ``gallery run`` is the integration gate
(exit code 0 iff every entry reproduces its expected verdicts).  Identical
config and spec yield byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .asymptotics import Status, Verdict
from .config import DEFAULT_CONFIG, Config
from .errors import MapnetsError, SpecError, expect_object
from .exprs import EXPRESSION_FAMILIES, build_expr
from .gallery import GALLERY, REGISTRY_ENV, SpecEnv, gallery_run_all, list_nets
from .gmap import (
    check_cbounded,
    check_equiv,
    check_equiv0,
    check_moderate,
    check_single_chart,
    compose,
)
from .gpoints import eval_at
from .manifold import BundleElement, LocalMap
from .vbundle import (
    TensorSectionNet,
    VBPoint,
    check_vbhom_equiv,
    check_vbhom_moderate,
    tangent,
    tensor_insert,
    vbhom_eval,
)


# ======================================================================
# Records and output
# ======================================================================


def verdict_record(check: str, inputs: dict, verdict: Verdict) -> dict:
    est = verdict.estimate
    rec = {
        "check": check,
        "inputs": inputs,
        "status": str(verdict.status),
        "slope": None if est is None or not math.isfinite(est.slope) else est.slope,
        "r2": None if est is None else est.r2,
        "n_or_m": None if est is None else est.n_or_m,
        "samples": ([] if verdict.series is None else
                    [[float(e), None if math.isinf(s) else float(s)]
                     for e, s in zip(verdict.series.eps, verdict.series.sup)]),
        "notes": verdict.notes,
    }
    if verdict.witness is not None:
        rec["witness"] = verdict.witness.as_record()
    return rec


def dump_json(record, path: Optional[str]) -> str:
    text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def write_series_csvs(out_dir: str, prefix: str, series: dict) -> None:
    """One CSV per series, named ``<prefix>__<key>.csv`` with every character
    that is not alphanumeric or one of ``-_.`` replaced by ``_``."""
    for key, s in series.items():
        if s is None:
            continue
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_"
                       for ch in f"{prefix}__{key}")
        with open(os.path.join(out_dir, f"{safe}.csv"), "w", encoding="utf-8") as fh:
            fh.write(s.to_csv())


def write_outputs(out_dir: Optional[str], name: str, record,
                  series: Optional[dict] = None) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        dump_json(record, os.path.join(out_dir, f"{name}.json"))
        write_series_csvs(out_dir, name, series or {})
    else:
        sys.stdout.write(dump_json(record, None))


def _collect_series(verdict: Verdict) -> dict:
    out = {}
    if verdict.series is not None:
        out["main"] = verdict.series
    for label, sub in verdict.details.items():
        if isinstance(sub, Verdict):
            if sub.series is not None:
                out[label] = sub.series
            for l2, s2 in sub.details.items():
                if isinstance(s2, Verdict) and s2.series is not None:
                    out[f"{label}.{l2}"] = s2.series
    return out


# ======================================================================
# Argument plumbing
# ======================================================================

# Config fields settable by flag (--grid-base ... --seed), typed by their defaults.
CONFIG_FLAGS = ("grid_base", "grid_k_min", "grid_k_max", "k_max", "n_cap",
                "m_probe", "r2_min", "vanish_tol", "margin_min", "seed")


def _add_config_flags(p: argparse.ArgumentParser, run=None) -> None:
    """The config and I/O flags; ``run`` is the subcommand function ``_run`` calls."""
    p.add_argument("--config", help="JSON file of config overrides")
    for name in CONFIG_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), type=type(getattr(DEFAULT_CONFIG, name)))
    p.add_argument("--out", help="directory for verdict JSON and series CSV")
    p.add_argument("--spec", help="JSON description of atlases/nets/regions/points")
    if run is not None:
        p.set_defaults(func=_run, run=run)


def _read_json(path: str, where: str):
    """The JSON value of a file; an unreadable file or malformed JSON is a SpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SpecError(str(exc), where) from exc


def _json_arg(text: str, where: str):
    """The JSON value of a flag; malformed JSON is a SpecError naming the flag."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise SpecError(str(exc), where) from exc


def _config_from(args) -> Config:
    """Defaults, then the --config file, then flags; any failure is a SpecError."""
    try:
        base = DEFAULT_CONFIG.as_dict()
        if args.config:
            base.update(_read_json(args.config, "config"))
        base.update({k: getattr(args, k) for k in CONFIG_FLAGS if getattr(args, k) is not None})
        cfg = Config.from_dict(base)
        cfg.grid()
    except (ValueError, TypeError) as exc:
        raise SpecError(str(exc), "config") from exc
    return cfg


def _env_from(args) -> SpecEnv:
    """The objects of the --spec description, on top of the registry."""
    return SpecEnv(_read_json(args.spec, "spec") if args.spec else {}, parent=REGISTRY_ENV)


def _run(args) -> int:
    """Shared driver of the record-writing subcommands: reads the config, the
    --spec objects and the grid, calls ``args.run(args, cfg, env, grid)`` ->
    (record, series, passed), writes the record and series, and returns
    exit code 0 iff passed, else 1."""
    cfg = _config_from(args)
    env = _env_from(args)
    record, series, passed = args.run(args, cfg, env, cfg.grid())
    write_outputs(args.out, args.cmd, record, series)
    return 0 if passed else 1


# ======================================================================
# Subcommands
# ======================================================================


def _verdict_out(args, inputs: dict, v: Verdict):
    return verdict_record(args.cmd, inputs, v), _collect_series(v), v.status is Status.PASS


def _check(args, cfg, env, grid):
    u = env.net(args.net)
    K = env.region(args.region)
    inputs = {"net": args.net, "region": args.region, "config": cfg.as_dict()}
    if args.cmd == "check-moderate":
        return _verdict_out(args, inputs, check_moderate(u, K, grid, cfg=cfg))
    cbounded = args.cmd == "check-cbounded"
    rep = (check_cbounded if cbounded else check_single_chart)(u, K, grid, cfg)
    return ({"check": args.cmd, "inputs": inputs, **rep.as_record()},
            {"margins": rep.margins} if cbounded else {}, rep.status is Status.PASS)


def _equiv(args, cfg, env, grid):
    u = env.net(args.net)
    v = env.net(args.net2)
    K = env.region(args.region)
    inputs = {"net": args.net, "net2": args.net2, "region": args.region,
              "config": cfg.as_dict()}
    if args.cmd == "check-equiv0":
        out = check_equiv0(u, v, K, None, grid, cfg)
    else:
        out = check_equiv(u, v, [K], grid, cfg.k_max, cfg)
    return _verdict_out(args, inputs, out)


def _eval_point(args, cfg, env, grid):
    u = env.net(args.net)
    p = env.point(args.point)
    return ({"check": "eval-point",
             "inputs": {"net": args.net, "point": args.point, "config": cfg.as_dict()},
             "result": eval_at(u, p, grid, cfg).as_record(grid)}, None, True)


def _compose(args, cfg, env, grid):
    inner = env.net(args.inner)
    outer = env.net(args.outer)
    K = env.region(args.region) if args.region else None
    w = compose(outer, inner, K=K, grid=grid, cfg=cfg)
    rec = {"check": "compose",
           "inputs": {"outer": args.outer, "inner": args.inner,
                      "region": args.region, "config": cfg.as_dict()},
           "tag": w.tag, "provenance": w.provenance}
    if args.point:
        rec["result"] = eval_at(w, env.point(args.point), grid, cfg).as_record(grid)
    return rec, None, True


def _vb_check(args, cfg, env, grid):
    """tangent, and vb-check: vb-moderateness of T(net), or with --net2 (a
    vb-check flag) the equivalence of T(net) and T(net2)."""
    u = tangent(env.net(args.net))
    K = env.region(args.region)
    inputs = {"net": args.net, "region": args.region, "config": cfg.as_dict()}
    if args.cmd == "tangent" or not args.net2:
        out = check_vbhom_moderate(u, K, grid, cfg.k_max, cfg)
    else:
        v2 = tangent(env.net(args.net2))
        out = check_vbhom_equiv(u, v2, K, grid, cfg.k_max, args.order0, cfg)
    if args.cmd == "vb-check":
        inputs["net2"] = args.net2
    return _verdict_out(args, inputs, out)


def _vb_eval(args, cfg, env, grid):
    u = tangent(env.net(args.net))
    p = env.point(args.point)
    xi = _json_arg(args.fiber, "--fiber")
    n = u.src.fiber_dim
    if not (isinstance(xi, list) and len(xi) == n
            and all(isinstance(c, (int, float)) for c in xi)):
        raise SpecError(f"expected a list of {n} numbers, the fiber dimension of "
                        f"{u.src.name}; got {args.fiber}", "--fiber")
    xi = np.asarray(xi, dtype=float)

    def at(eps: float, p=p, xi=xi):
        pt = p.at(eps)
        return BundleElement(pt.chart, pt.coords, xi)

    e = VBPoint(u.src, at, p.support, tag=f"tangent-point({args.point})")
    out = vbhom_eval(u, e, grid, cfg)
    samples = []
    for eps in grid.values():
        b = out.at(eps)
        samples.append({"eps": float(eps), "chart": b.chart,
                        "base": [float(c) for c in b.x],
                        "fiber": [float(c) for c in b.xi]})
    return ({"check": "vb-eval",
             "inputs": {"net": args.net, "point": args.point, "fiber": args.fiber,
                        "config": cfg.as_dict()},
             "growth": out.growth(grid, cfg).as_record(), "samples": samples}, None, True)


def _tensor_insert(args, cfg, env, grid):
    atlas = env.atlas(args.atlas)
    p = env.point(args.point)

    def scalar_tensor(spec, r, s, tag):
        factory = build_expr(spec)

        def coeffs(eps, factory=factory):
            f = factory(eps)
            return {cid: LocalMap.from_expr(f, name=tag) for cid in atlas.chart_ids}

        return TensorSectionNet(atlas, r, s, coeffs, tag=tag)

    tensor = scalar_tensor(_json_arg(args.tensor, "--tensor"), args.r, args.s, "tensor")
    omegas = [scalar_tensor(_json_arg(w, "--omega"), 0, 1, f"omega{i}")
              for i, w in enumerate(args.omega or [])]
    xis = [scalar_tensor(_json_arg(x, "--xi"), 1, 0, f"xi{i}")
           for i, x in enumerate(args.xi or [])]
    out = tensor_insert(tensor, omegas, xis, p, grid, cfg)
    return ({"check": "tensor-insert",
             "inputs": {"atlas": args.atlas, "point": args.point,
                        "type": [args.r, args.s], "config": cfg.as_dict()},
             "moderate_bound": None if out.moderate_bound is None
             else out.moderate_bound.as_record(),
             "samples": [[float(e), float(out(e))] for e in grid.values()]}, None, True)


def _cmd_gallery(args) -> int:
    cfg = _config_from(args)
    if args.action == "list":
        for entry in GALLERY:
            sys.stdout.write(f"{entry.name}: {entry.description}\n")
        sys.stdout.write(f"nets: {', '.join(list_nets())}\n")
        sys.stdout.write(f"expressions: {', '.join(EXPRESSION_FAMILIES)}\n")
        return 0
    summary, mismatches, all_series = gallery_run_all(cfg)
    ok = not mismatches
    record = {"check": "gallery-run", "config": cfg.as_dict(),
              "entries": summary, "mismatches": mismatches, "ok": ok}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        dump_json(record, os.path.join(args.out, "gallery.json"))
        for entry_name, series in all_series.items():
            write_series_csvs(args.out, entry_name, series)
    width = max(len(e["entry"]) for e in summary)
    for e in summary:
        mark = "ok " if e["ok"] else "FAIL"
        sys.stdout.write(f"{mark} {e['entry']:<{width}}  "
                         + "; ".join(f"{r['label']}={r['status']}" for r in e["rows"])
                         + "\n")
    for m in mismatches:
        sys.stdout.write(f"mismatch: {m}\n")
    sys.stdout.write(("all entries match\n" if ok else "MISMATCHES PRESENT\n"))
    return 0 if ok else 1


def _cmd_report(args) -> int:
    try:
        fnames = sorted(os.listdir(args.dir))
    except OSError as exc:
        raise SpecError(str(exc), "--dir") from exc
    rows = []
    for fname in fnames:
        if not fname.endswith(".json"):
            continue
        rec = expect_object(_read_json(os.path.join(args.dir, fname), fname), fname)
        status = rec.get("status") or ("ok" if rec.get("ok") else rec.get("check"))
        rows.append((fname, rec.get("check", "?"), status, rec.get("slope")))
    for fname, check, status, slope in rows:
        s = "" if slope is None else f" slope={slope:.3g}"
        sys.stdout.write(f"{fname}: {check} -> {status}{s}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mapnets",
        description="asymptotic verdicts for eps-nets of maps between chart atlases")
    sub = ap.add_subparsers(dest="cmd", required=True)

    req = {"required": True}
    commands = {  # the record-writing subcommands: name -> (run, {flag: argparse options})
        **{name: (_check, {"--net": req, "--region": req})
           for name in ("check-cbounded", "check-moderate", "check-single-chart")},
        **{name: (_equiv, {"--net": req, "--net2": req, "--region": req})
           for name in ("check-equiv", "check-equiv0")},
        "eval-point": (_eval_point, {"--net": req, "--point": req}),
        "compose": (_compose, {"--outer": req, "--inner": req, "--region": {}, "--point": {}}),
        "tangent": (_vb_check, {"--net": req, "--region": req}),
        "vb-check": (_vb_check, {"--net": req, "--net2": {}, "--region": req,
                                 "--order0": {"action": "store_true"}}),
        "vb-eval": (_vb_eval, {"--net": req, "--point": req, "--fiber": {"default": "[1.0]"}}),
        "tensor-insert": (_tensor_insert, {
            "--atlas": {"default": "line"}, "--point": req,
            "--tensor": {**req, "help": "expression spec (JSON)"},
            "--r": {"type": int, "default": 0}, "--s": {"type": int, "default": 1},
            "--omega": {"action": "append"}, "--xi": {"action": "append"}}),
    }
    for name, (run, flags) in commands.items():
        p = sub.add_parser(name)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        _add_config_flags(p, run)

    p = sub.add_parser("gallery")
    p.add_argument("action", choices=["list", "run"])
    _add_config_flags(p)
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("report")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return 2
    except MapnetsError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
