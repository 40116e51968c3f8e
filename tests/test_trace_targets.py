"""Every name the perfbench span tracer wraps still exists in the package.

``perfbench/layers.py`` wraps mapnets functions and methods by name; a
renamed target makes a traced benchmark run stop with its coverage error.
This test resolves the same names the way the tracer does, without
installing any wrapper: a method must sit in its owner's own ``vars()`` (so
an inherited one does not count), a function must be a module attribute,
and every gallery entry the tracer times must be registered.
"""

import importlib
import importlib.util
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
