import types

import numpy as np

import kp5


def test_public_names_resolve():
    assert len(set(kp5.__all__)) == len(kp5.__all__)
    for name in kp5.__all__:
        assert getattr(kp5, name) is not None, name
    # every public object the package imports is listed
    listed = set(kp5.__all__)
    for name, obj in vars(kp5).items():
        if not name.startswith("_") and not isinstance(obj, types.ModuleType):
            assert name in listed, name


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
    assert kp5.gevrey_norm(field, 0.0, 0.0) == 0.0
