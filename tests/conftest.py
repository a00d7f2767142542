import numpy as np
import pytest

from kp5.spectral import (
    Grid2D,
    PhysicalField,
    dealias,
    forward_transform,
    project_zero_x_mean,
)


# verdict lines collected by test_acceptance, echoed after the test table
# (print() inside passing tests is captured, this survives)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def grid16():
    """Unit torus, integer frequencies, small enough for O(n^4) oracles."""
    return Grid2D(16, 16, 2 * np.pi, 2 * np.pi)


@pytest.fixture
def grid32():
    return Grid2D(32, 32, 32 * np.pi, 32 * np.pi)


def random_band_field(grid, seed, scale=1.0):
    """Random real field restricted to the dealiased band, zero x-mean."""
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal((grid.nx, grid.ny))
    f = forward_transform(PhysicalField(grid, values))
    return dealias(project_zero_x_mean(f))


def full_plane_square(grid, coeffs):
    """Reference for the dealiased-square kernel, written out on the full
    plane with complex FFTs: coefficients of u^2 times the 2/3 mask."""
    n = grid.nx * grid.ny
    u = np.real(np.fft.ifft2(coeffs)) * n
    return np.fft.fft2(u * u) / n * grid.dealias_mask
