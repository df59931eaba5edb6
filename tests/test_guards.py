"""Structural guards: every module-level cache is bounded, and the bench
trace shim still finds every name it wraps."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import zetalog
from zetalog import expansion

SHIM = Path(__file__).resolve().parents[1] / "bench" / "shim.py"


def test_every_module_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(zetalog.__path__):
        module = importlib.import_module(f"zetalog.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)):
                caches[id(obj)] = (f"{module.__name__}.{name}", obj)
    unbounded = [name for name, fn in caches.values() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
    # zeta_even_pi_coeff, _partitions_min2, expand_lz, _profile_from_support,
    # _fully_expressible, _zeta_cached, build_s_table, _vmax, _tier_nodes
    assert len(caches) >= 9


def test_bench_shim_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_shim", SHIM)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)  # defines TARGETS; main() runs only as a script
    for modname, fname, _hot in shim.TARGETS:
        module = importlib.import_module(f"zetalog.{modname}")
        assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
    assert callable(expansion.expand_lz.cache_info)
    for cls_name in shim.RENDER_CLASSES:
        cls = getattr(expansion, cls_name)
        for meth in shim.RENDER_METHODS:
            assert callable(getattr(cls, meth, None)), f"{cls_name}.{meth}"
