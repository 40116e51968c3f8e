"""Every name the perfbench span tracer wraps still exists in the package.

``perfbench/layers.py`` wraps mapnets functions and methods by name; a
renamed target makes a traced benchmark run stop with its coverage error.
This test resolves the same names the way the tracer does, without
installing any wrapper: a method must sit in its owner's own ``vars()`` (so
an inherited one does not count), a function must be a module attribute,
and every gallery entry the tracer times must be registered.  A name that
still exists can still be bypassed, so one traced pass per workload also
checks that every counter the benchmark requires to move does move.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


LAYERS = load_layers()


@pytest.mark.parametrize("layer,modname,qual", LAYERS.TARGETS,
                         ids=[f"{m}.{q}" for _, m, q in LAYERS.TARGETS])
def test_wrap_target_resolves(layer, modname, qual):
    mod = importlib.import_module(f"mapnets.{modname}")
    owner_name, _, attr = qual.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name, None)
        assert isinstance(owner, type), f"mapnets.{modname}.{owner_name} is not a class"
        assert attr in vars(owner), f"mapnets.{modname}.{qual} is not defined on its class"
    else:
        assert callable(getattr(mod, attr, None)), f"mapnets.{modname}.{qual} is gone"


def test_gallery_entries_resolve():
    from mapnets.gallery import GALLERY

    names = {e.name for e in GALLERY}
    missing = [n for n in LAYERS.GALLERY_ENTRIES if n not in names]
    assert missing == []


def test_target_modules_are_traced_modules():
    assert {m for _, m, _ in LAYERS.TARGETS} <= set(LAYERS.MODULES)


TRACED_PASS = """
import importlib.util, json, sys
sys.path.insert(0, {src!r})
spec = importlib.util.spec_from_file_location("perfbench_run", {run_py!r})
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
res = run.run_pass({workload!r}, 1, run.layer_trace.Tracer(keep_spans=False))
required = [name for name, wls in run.REQUIRED_NONZERO.items() if {workload!r} in wls]
print(json.dumps({{name: res.layer.get(name, 0) for name in required}}))
"""


@pytest.mark.parametrize("workload", ["gallery", "fd_2d", "sphere_images"])
def test_traced_pass_sees_the_work(workload):
    """One traced perfbench pass per workload, in a subprocess (a pass
    re-imports the package): every counter the benchmark requires to move on
    that workload reads > 0, so work that bypasses a traced name fails here.
    Nothing is written under perfbench/."""
    root = LAYERS_PY.parent.parent
    out_dir = root / "perfbench" / "out"
    before = sorted(out_dir.iterdir()) if out_dir.exists() else None
    code = TRACED_PASS.format(src=str(root / "src"), run_py=str(root / "perfbench" / "run.py"),
                              workload=workload)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counters = json.loads(proc.stdout.strip().splitlines()[-1])
    assert counters and all(v > 0 for v in counters.values()), counters
    assert (sorted(out_dir.iterdir()) if out_dir.exists() else None) == before
