import ast
import importlib
import json
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

import kp5
import kp5.operators

# imports every kp5 module named on the command line on its own: the kp5
# modules loaded by the previous import are dropped first, so a module that
# only imports because another one was loaded before it fails here
_IMPORT_EACH = """
import importlib, sys
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "kp5" or m.startswith("kp5.")]:
        del sys.modules[loaded]
    importlib.import_module(name)
"""


def test_each_module_imports_on_its_own():
    src = Path(kp5.__file__).resolve().parent.parent
    # __main__ runs the command line when imported
    names = [
        f"kp5.{m.name}" for m in pkgutil.iter_modules(kp5.__path__)
        if m.name != "__main__"
    ]
    assert "kp5.cli" in names and "kp5.spectral" in names
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH, *names],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name the module imports (``__future__``
    aside) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in read]


def test_no_unused_imports():
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "kp5").glob("*.py")) + sorted(
        (root / "scripts").glob("*.py")
    )
    assert len(paths) > 10
    assert [u for path in paths for u in _unused_imports(path)] == []


def _private_names(path: Path) -> tuple[dict, set]:
    """The module-level ``_name``s a module defines ({name: line}, dunders
    aside) and every name it reads, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    defined = {k: v for k, v in defined.items()
               if k.startswith("_") and not k.startswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return defined, read


def test_no_unused_private_names():
    """Every module-level ``_name`` of ``src/kp5`` is read somewhere in
    ``src/kp5`` or ``scripts``, so a helper orphaned when its last caller
    goes fails here."""
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "kp5").glob("*.py")) + sorted(
        (root / "scripts").glob("*.py")
    )
    found = {path: _private_names(path) for path in paths}
    read = set().union(*(names for _, names in found.values()))
    unused = [f"{path.name}:{line} {name}"
              for path, (defined, _) in found.items() if path.parent.name == "kp5"
              for name, line in defined.items() if name not in read]
    assert unused == []


def test_benchmark_sample_builds_fields_through_the_integrator():
    """kp5bench/sample.py builds each workload's initial field through
    ``kp5.integrator.initial_field(cfg, grid)``, which is the one in
    ``kp5.initial_data``."""
    import kp5.initial_data
    import kp5.integrator

    assert kp5.integrator.initial_field is kp5.initial_data.initial_field


def test_benchmark_tracer_contract():
    """kp5bench/tracer.py wraps these two classmethods through the class
    ``__dict__``, and its self-test takes the norm of a zero field built
    from full-plane coefficients."""
    from kp5.diagnostics import SpaceTimeField
    from kp5.spectral import Grid2D, SpectralField

    assert isinstance(SpectralField.__dict__["from_coefficients"], classmethod)
    assert isinstance(SpaceTimeField.__dict__["from_slices"], classmethod)
    grid = Grid2D(8, 8, 1.0, 1.0)
    field = SpectralField.from_coefficients(grid, np.zeros((8, 8)))
    assert kp5.operators.gevrey_norm(field, 0.0, 0.0) == 0.0


def test_benchmark_tracer_targets_resolve():
    """Every module in kp5bench/tracer.py's LAYERS and every classmethod in
    its CLASSMETHODS is still in kp5, so a refactor that deletes one fails
    here, not with an AttributeError inside a traced benchmark run.  The
    tracer file is run from its source, which writes no bytecode there."""
    path = Path(__file__).resolve().parent.parent / "kp5bench" / "tracer.py"
    tracer = runpy.run_path(str(path))
    for layer in tracer["LAYERS"]:
        importlib.import_module(f"kp5.{layer}")
    for layer, cls_name, meth in tracer["CLASSMETHODS"]:
        cls = getattr(importlib.import_module(f"kp5.{layer}"), cls_name)
        assert isinstance(cls.__dict__[meth], classmethod), (cls_name, meth)


def test_benchmark_layer_metrics_name_live_functions():
    """Each per-layer metric of BENCHMARK.json that names a function of a
    traced module, ``<layer>.<function>.<stat>`` or
    ``<layer>.<Class>.<method>.<stat>``, resolves in ``kp5.<layer>``, apart
    from five whose functions are already gone (the next benchmark change
    drops them): deleting a traced function leaves a metric that reads 0
    in every run, so it fails here instead."""
    root = Path(__file__).resolve().parent.parent
    layers = runpy.run_path(str(root / "kp5bench" / "tracer.py"))["LAYERS"]
    metrics = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    dead = set()
    for metric in metrics:
        layer, *path, _ = metric["name"].split(".")
        if layer not in layers or not path:
            continue  # not a traced module, or a whole-layer metric
        target = importlib.import_module(f"kp5.{layer}")
        for name in path:
            target = getattr(target, name, None)
        if not callable(target):
            dead.add(".".join([layer, *path]))
    assert dead == {
        "picard.window_distance", "picard.doubling_check",
        "spectral.pointwise_square", "spectral.pointwise_product",
        "spectral.hermitian_part",
    }
