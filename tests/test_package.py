import os
import pkgutil
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
