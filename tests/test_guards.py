"""Structural guards: every module-level cache is bounded and no module
holds other growable state, only the combination fast path bypasses a
constructor, only the Bernoulli sign check raises AssertionError, the
exact layers hold no floats, the solver reads no
partition record, the CLI imports only
public library names, every exported name exists and resolves through
the lazy package, no module imports mpmath and no command loads it,
start-up and the exact commands load no dataclasses, each command
compiles only the layers it calls, and the bench trace shim still finds
and counts every name it wraps."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zetalog
from zetalog import expansion

ROOT = Path(__file__).resolve().parents[1]
SHIM = ROOT / "bench" / "shim.py"


def test_every_module_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(zetalog.__path__):
        module = importlib.import_module(f"zetalog.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)):
                # named by its home module, however many modules import it
                caches[id(obj)] = (f"{obj.__module__}.{obj.__qualname__}", obj)
    unbounded = [name for name, fn in caches.values() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []
    # a cache added or removed shows here, so its bound gets a look
    assert sorted(name for name, _ in caches.values()) == [
        "zetalog.coefficients._record",
        "zetalog.exact.zeta_even_pi_coeff",
        "zetalog.expansion._even_fold",
        "zetalog.expansion._partitions_min2",
        "zetalog.expansion.expand_lz",
        "zetalog.solver._even_kernel",
        "zetalog.solver._expressible_members",
        "zetalog.solver._odd_columns",
    ]


def test_no_module_level_containers():
    # every cache must be a bounded lru_cache that the audit above sees: a
    # module-level list, dict, set or bytearray is state that can grow past
    # it.  __builtins__ and a package's __path__ belong to the import system
    modules = [zetalog] + [
        importlib.import_module(f"zetalog.{info.name}")
        for info in pkgutil.iter_modules(zetalog.__path__)
    ]
    allowed = {"__all__", "__builtins__", "__path__"}
    found = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, (list, dict, set, bytearray)) and name not in allowed
    ]
    assert found == ["zetalog.cli._DISPATCH"]


def _scopes_where(match):
    """module:qualified scope of every node of src/zetalog that match accepts."""

    def scopes(node, scope=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from scopes(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if match(child):
                yield scope
            yield from scopes(child, scope)

    return [
        f"{path.stem}:{scope}"
        for path in sorted((ROOT / "src" / "zetalog").glob("*.py"))
        for scope in scopes(ast.parse(path.read_text()))
    ]


def test_object_new_only_in_combination_fast_path():
    # partitions and monomials are built only through their validating
    # constructors; _Combination._of alone skips __init__, for terms that
    # combination arithmetic has already checked
    def object_new(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        )

    assert _scopes_where(object_new) == ["expansion:_Combination._of"]


def test_assertion_error_only_in_bernoulli_check():
    # an AssertionError reaches the CLI as exit 1 and a traceback, outside
    # its exit codes, so no conjecture may raise one on the decision path;
    # the one left checks that zeta(2n) / pi^(2n) came out positive
    def raises_assertion_error(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    assert _scopes_where(raises_assertion_error) == ["exact:zeta_even_pi_coeff"]


def test_exact_layers_build_no_floats():
    # the decision path is exact: no float name or constant, and no import
    # of the numeric layer or mpmath, in any module it runs through
    found = []
    for name in ("exact", "partitions", "coefficients", "expansion", "solver"):
        path = ROOT / "src" / "zetalog" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "float":
                found.append((name, node.lineno, "float"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append((name, node.lineno, repr(node.value)))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    modules += [node.module or ""]
                for module in modules:
                    if module.split(".")[0] == "mpmath" or module.split(".")[-1] == "numerics":
                        found.append((name, node.lineno, module))
    assert found == []


def test_solver_reads_no_partition_record():
    # system columns take C_x and Ct from the parts of x; the certificate
    # check reads the records through expand_lz, so a wrong record can no
    # longer feed the solve and its check alike.  The solver imports nothing
    # from the coefficients module and names none of its record readers
    tree = ast.parse((ROOT / "src" / "zetalog" / "solver.py").read_text())
    names, modules = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(node.lineno, alias.name.split(".")[-1]) for alias in node.names]
            modules += [(node.lineno, alias.name.split(".")[-1]) for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                modules.append((node.lineno, (node.module or "").split(".")[-1]))
        elif isinstance(node, ast.Attribute):
            names.append((node.lineno, node.attr))
    record_side = {"_record", "composition_profile", "c_tilde", "little_c"}
    assert [(line, name) for line, name in names if name in record_side] == []
    assert [(line, module) for line, module in modules if module == "coefficients"] == []


def test_numerics_imports_nothing_from_exact():
    # zeta_value checks the pi-coefficients that exact's Bernoulli numbers
    # produce, so it must not be built from them too
    tree = ast.parse((ROOT / "src" / "zetalog" / "numerics.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                modules += [node.module or ""]
            found += [(node.lineno, m) for m in modules if m.split(".")[-1] == "exact"]
    assert found == []


def test_cli_imports_only_public_names():
    # the CLI prints what the library decides; a private import would let it
    # judge through a path that library callers never see
    tree = ast.parse((ROOT / "src" / "zetalog" / "cli.py").read_text())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "zetalog")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # "from zetalog import *" and misleads readers of the public surface
    modules = [zetalog] + [
        importlib.import_module(f"zetalog.{info.name}")
        for info in pkgutil.iter_modules(zetalog.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []
    assert all(hasattr(module, "__all__") for module in modules)


def test_public_surface_resolves_through_the_lazy_package():
    # every public name is the very object its home module exports, read
    # through the package's __getattr__; star-import, dir() and a missing
    # name behave as for a package that imported everything eagerly
    homes = {}
    for module, names in zetalog._EXPORTS:
        home = sys.modules[f"zetalog.{module}"]
        assert getattr(zetalog, module) is home
        for name in names:
            assert name in home.__all__, f"{module}.{name}"
            homes[name] = home
    assert zetalog.__all__ == [*homes, "__version__"]
    for name, home in homes.items():
        assert getattr(zetalog, name) is getattr(home, name), name
    namespace = {}
    exec("from zetalog import *", namespace)
    assert all(namespace[name] is getattr(zetalog, name) for name in zetalog.__all__)
    assert set(zetalog.__all__) <= set(dir(zetalog))
    with pytest.raises(AttributeError, match="no_such_name"):
        zetalog.no_such_name  # noqa: B018
    assert not hasattr(zetalog, "PARITY_CHOICES")


def test_no_module_imports_mpmath():
    # the numeric layer rounds, judges and prints its binary floats itself,
    # so no module names mpmath, not even in a function body or for typing
    found = []
    for path in sorted((ROOT / "src" / "zetalog").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(path.stem, node.lineno) for m in modules if m.split(".")[0] == "mpmath"]
    assert found == []


def test_no_command_imports_mpmath():
    # no command pays mpmath's import, verify included.  zetalog.numerics
    # is in sys.modules from the start, as a lazy module the bench shim can
    # look up right after import; which commands compile it is the load
    # table's test below.  Every process pays the start-up, so neither it
    # nor an exact command may load dataclasses or the inspect machinery
    # that module pulls in
    script = """
import sys
import zetalog.cli as cli
seen = ["zetalog.numerics" in sys.modules, "mpmath" in sys.modules]
heavy = [[m for m in ("dataclasses", "inspect") if m in sys.modules]]
for argv in (["expand", "3", "2"], ["table", "6", "--reduce"], ["express", "z3*z5"],
             ["survey", "--from", "3", "--to", "8"], ["partitions", "8"]):
    assert cli.main(argv) == 0, argv
    seen.append("mpmath" in sys.modules)
    heavy.append([m for m in ("dataclasses", "inspect") if m in sys.modules])
assert cli.main(["verify", "3", "2", "--digits", "15"]) == 0
seen.append("mpmath" in sys.modules)
print(seen, file=sys.stderr)
print(heavy, file=sys.stderr)
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines() == [str([True] + [False] * 7), str([[]] * 6)]


def _loaded_after(argv):
    # a fresh process per command, since a module once compiled stays so;
    # the lazy module type is a subclass of ModuleType until its first read
    script = """
import json, sys, types
def loaded():
    return sorted(name.partition(".")[2] for name, module in sys.modules.items()
                  if name.startswith("zetalog.") and type(module) is types.ModuleType)
import zetalog.cli as cli
present = sorted(name for name in sys.modules if name.startswith("zetalog."))
before = loaded()
code = cli.main(sys.argv[1:])
print(json.dumps([present, before, code, loaded()]), file=sys.stderr)
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


def test_each_command_compiles_only_its_layers():
    layers = ["coefficients", "exact", "expansion", "numerics", "partitions", "solver"]
    expansion_layers = {"partitions", "exact", "coefficients", "expansion"}
    load_table = (
        (["partitions", "8"], {"partitions"}),
        (["expand", "3", "2"], expansion_layers),
        (["table", "6", "--reduce"], expansion_layers),
        (["express", "z3*z5"], expansion_layers | {"solver"}),
        (["survey", "--from", "3", "--to", "8"], expansion_layers | {"solver"}),
        (["verify", "3", "2", "--digits", "15"], expansion_layers | {"numerics"}),
    )
    for argv, expected in load_table:
        present, before, code, after = _loaded_after(argv)
        assert present == [f"zetalog.{name}" for name in ["cli", *layers]], argv
        assert before == ["cli"], argv
        assert code == 0, argv
        assert after == sorted(["cli", *expected]), argv
    # a usage error from the library is caught before the precision-budget
    # clause is evaluated, so it compiles no numerics
    _, _, code, after = _loaded_after(["express", "z4"])
    assert code == 1 and "numerics" not in after


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


def test_bench_shim_counts_verify_routes(tmp_path):
    # the shim rebinds module attributes, so a route held in a table built at
    # import time would run unwrapped and show zero calls
    trace = tmp_path / "trace.json"
    argv = ["verify", "3", "2", "--digits", "15", "--method", "series"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(SHIM), str(trace), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(trace.read_text())["stats"]
    assert stats["numerics.lz_series"]["calls"] == 1
    assert stats["numerics.evaluate_reduced"]["calls"] == 1
    assert "numerics.lz_quadrature" not in stats


def test_bench_shim_counts_express_elimination(tmp_path):
    # express solves through solve_membership, which eliminates with rref, so
    # the trace books its elimination under exact.rref like a survey's
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(SHIM), str(trace), "express", "z3*z5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(trace.read_text())["stats"]
    assert stats["exact.solve_membership"]["calls"] == 1
    assert stats["exact.rref"]["calls"] == 1


def _load_bench_run():
    path = ROOT / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_call_graph_reaches_every_layer(tmp_path):
    # bench/run.py --trace 1 aborts when a per-layer metric of a workload
    # reads zero, e.g. once expand_lz stops calling little_c; this replays
    # one short op list per workload through the shim and applies that rule.
    # Like the workload, survey-range mixes both modes: an optimistic survey
    # makes no little_c call, and only the strict one reaches little_c,
    # expand_lz, reduce_even and the even-zeta constants, through the even
    # kernels of its lower-weight columns.  On verify-digits, lz_series
    # must still call build_s_table and evaluate_reduced zeta_value
    bench_run = _load_bench_run()
    ops = {
        "survey-range": [
            ["survey", "--from", "3", "--to", "8", "--format", "json"],
            ["survey", "--from", "3", "--to", "8", "--mode", "strict", "--format", "json"],
        ],
        "cli-queries": [
            ["expand", "3", "2"],
            ["table", "6", "--reduce"],
            ["express", "z3*z5", "--format", "latex"],
        ],
        "verify-digits": [
            ["verify", "3", "2", "--digits", "15"],
            ["verify", "4", "3", "--digits", "20", "--method", "both"],
        ],
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for workload, argvs in ops.items():
        traces = []
        for i, argv in enumerate(argvs):
            trace = tmp_path / f"{workload}-{i}.json"
            proc = subprocess.run(
                [sys.executable, str(SHIM), str(trace), *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            traces.append(json.loads(trace.read_text()))
        metrics = bench_run.layer_metrics(traces)
        zero = [m for m, _, home in bench_run.PER_LAYER if home == workload and not metrics[m]]
        assert zero == [], workload
