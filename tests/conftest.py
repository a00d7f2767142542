import math

import numpy as np
import pytest

from kp5.integrator import initial_field, resolve_dt
from kp5.operators import gevrey_norm
from kp5.spectral import Grid2D, SpectralField


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


def cut(grid, plane):
    """The 2/3 band of a half or full plane (..., nx, ny//2 + 1 or more):
    rows j = 0..nx//3 then -(nx//3)..-1, columns k = 0..ny//3."""
    jx = grid.nx // 3
    rows = np.r_[0 : jx + 1, grid.nx - jx : grid.nx]
    return plane[..., rows, : grid.ny // 3 + 1]


def half_plane(grid, band):
    """The rfft2 half plane (..., nx, ny//2 + 1) holding ``band`` on the
    2/3 band and zero off it."""
    half = np.zeros(band.shape[:-2] + (grid.nx, grid.ny // 2 + 1), dtype=complex)
    half[..., grid.band_j, : grid.ny // 3 + 1] = band
    return half


def random_band_field(grid, seed, scale=1.0):
    """Random real field restricted to the dealiased band, zero x-mean."""
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal((grid.nx, grid.ny))
    half = np.fft.rfft2(values, norm="forward")
    half[0] = 0.0  # the x-mean row
    return SpectralField(grid, cut(grid, half))


def full_plane_mask(grid):
    """The 2/3-rule mask on the full plane (3|j| <= nx and 3|k| <= ny)."""
    keep_x = 3 * np.abs(grid.j_index) <= grid.nx
    keep_y = 3 * np.abs(grid.k_index) <= grid.ny
    return keep_x[:, None] & keep_y[None, :]


def full_plane_square(grid, coeffs):
    """Reference for the dealiased-square kernel, written out on the full
    plane with complex FFTs: coefficients of u^2 times the 2/3 mask."""
    n = grid.nx * grid.ny
    u = np.real(np.fft.ifft2(coeffs)) * n
    return np.fft.fft2(u * u) / n * full_plane_mask(grid)


def window_rule(cfg, times):
    """The window step rule written out for a run sampled at ``times``:
    (grid_dt, sampled grid indices, steps, largest step).  Each gap of g
    grid steps is crossed in min(g, ceil(g * grid_dt / (cfl * delta)))
    steps, delta = c0 / (1 + ||f||_{G^sigma1})^exponent."""
    grid = cfg.make_grid()
    f = initial_field(cfg, grid)
    delta = cfg.delta.c0 / (1.0 + gevrey_norm(f, cfg.gevrey.sigma1, 0.0)) ** (
        cfg.delta.exponent
    )
    grid_dt, n = resolve_dt(cfg, grid, cfg.time.horizon)
    idx = sorted({min(n, round(t / grid_dt)) for t in times})
    steps, dt_max = 0, grid_dt
    for a, b in zip([0] + idx[:-1], idx):
        m = min(b - a, math.ceil((b - a) * grid_dt / (cfg.time.cfl * delta)))
        steps += m
        if m < b - a:
            dt_max = max(dt_max, (b - a) * grid_dt / m)
    return grid_dt, idx, steps, dt_max
