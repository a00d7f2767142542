import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_band_field
from kp5.config import DEFAULT_C0, GridConfig, InitialConfig, SimConfig, TimeConfig
from kp5.errors import PicardDivergenceError
from kp5.integrator import initial_field
from kp5.operators import (
    dispersion_symbol,
    gevrey_norm,
    half_plane_norms,
    semigroup_apply,
)
from kp5.picard import (
    TimeWindowField,
    _window_phases,
    cumulative_simpson_uniform,
    delta_rule,
    doubling_check,
    duhamel_apply,
    free_window,
    picard_iterate,
    window_distance,
)
from kp5.spectral import SpectralField, dealiased_square, full_plane


def test_delta_rule_values():
    assert delta_rule(1.0, 0.4, 2.0) == pytest.approx(0.1)
    assert delta_rule(0.0, 0.4, 2.0) == pytest.approx(0.4)
    assert delta_rule(3.0, 1.0, 2.0) == pytest.approx(1.0 / 16.0)
    with pytest.raises(ValueError):
        delta_rule(1.0, -0.4, 2.0)
    with pytest.raises(ValueError):
        delta_rule(1.0, 0.4, 1.0)  # window must shrink faster than 1/norm
    with pytest.raises(ValueError):
        delta_rule(float("nan"), 0.4, 2.0)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0, 100), b=st.floats(0, 100))
def test_delta_rule_monotone(a, b):
    lo, hi = sorted((a, b))
    assert delta_rule(hi, DEFAULT_C0, 2.0) <= delta_rule(lo, DEFAULT_C0, 2.0)


def test_cumulative_simpson_exact_on_quadratics():
    h = 0.23
    x = np.arange(7) * h
    f = 2 * x**2 - x + 3
    exact = 2 * x**3 / 3 - x**2 / 2 + 3 * x
    got = cumulative_simpson_uniform(f, h)
    assert np.allclose(got, exact, atol=1e-13)


def test_cumulative_simpson_even_points_exact_on_cubics():
    # full Simpson pairs integrate cubics exactly; the trailing
    # half-interval rule at odd points is one order lower
    h = 0.23
    x = np.arange(7) * h
    f = x**3 - 2 * x**2 + 3
    exact = x**4 / 4 - 2 * x**3 / 3 + 3 * x
    got = cumulative_simpson_uniform(f, h)
    assert np.allclose(got[::2], exact[::2], atol=1e-13)


def test_cumulative_simpson_three_points():
    h = 0.5
    x = np.arange(3) * h
    f = x**2
    got = cumulative_simpson_uniform(f, h)
    assert got[0] == 0.0
    assert got[2] == pytest.approx(x[2] ** 3 / 3, abs=1e-14)
    assert got[1] == pytest.approx(x[1] ** 3 / 3, abs=1e-14)


def test_cumulative_simpson_complex_fourth_order():
    """Refining h by 2 should cut the error by about 16."""

    def err(n):
        h = 1.0 / n
        x = np.arange(n + 1) * h
        f = np.exp(1j * 3 * x)
        exact = (np.exp(1j * 3 * x) - 1.0) / (3j)
        got = cumulative_simpson_uniform(f, h)
        assert got.dtype == np.complex128
        return np.max(np.abs(got - exact))

    ratio = err(32) / err(64)
    assert 12.0 < ratio < 20.0


def test_cumulative_simpson_stacked_arrays():
    h = 0.1
    x = np.arange(9) * h
    flat = cumulative_simpson_uniform(x**2, h)
    stacked = cumulative_simpson_uniform(
        np.stack([x**2, x**2]).T.reshape(9, 2, 1), h
    )
    assert np.allclose(stacked[:, 0, 0], flat)
    assert np.allclose(stacked[:, 1, 0], flat)


def test_window_validation(grid16):
    with pytest.raises(ValueError):
        TimeWindowField(grid16, 0.1, np.zeros((2, 16, 9), complex))  # even count
    with pytest.raises(ValueError):
        TimeWindowField(grid16, 0.1, np.zeros((1, 16, 9), complex))


def test_free_window_matches_semigroup(grid16):
    f = random_band_field(grid16, seed=2)
    w = free_window(f, delta=0.3, slices=8)
    assert w.half.shape == (9, 16, 9)
    assert w.times[0] == 0.0 and w.times[-1] == pytest.approx(0.3)
    for t, s in zip(w.times, w.half):
        exact = semigroup_apply(f, float(t))
        assert np.allclose(s, exact.half, rtol=0, atol=1e-15)


def test_duhamel_linear_mode_is_free_flow(grid16):
    f = random_band_field(grid16, seed=3)
    w = free_window(f, delta=0.2, slices=8)
    out = duhamel_apply(f, w, nonlinear=False)
    assert np.array_equal(out.half, w.half)


def test_window_phases_match_the_exponential(grid16):
    """Rows -j are filled as conjugates of rows j."""
    delta, n = 0.3, 9
    got = _window_phases(grid16, delta, n)
    times = np.linspace(0.0, delta, n)[:, None, None]
    want = np.exp(1j * times * dispersion_symbol(grid16)[None])
    assert got.shape == want.shape and not got.flags.writeable
    assert np.max(np.abs(got - want)) <= 1e-14


def test_duhamel_matches_derivative_before_quadrature():
    """Reference: the x-derivative applied to the forcing before the time
    quadrature; duhamel_apply applies it once, after."""
    f = picard_setup(amplitude=2.0)
    grid = f.grid
    w = free_window(f, 0.05, slices=16)
    phases = np.exp(1j * w.times[:, None, None] * dispersion_symbol(grid)[None])
    forcing = (1j * grid.xi_col) * dealiased_square(grid, w.half)
    cum = cumulative_simpson_uniform(np.conj(phases) * forcing, w.slice_dt)
    want = phases * (f.half - 0.5 * cum)
    got = duhamel_apply(f, w).half
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_duhamel_single_mode_closed_form(grid16):
    """One conjugate pair forces exactly its double mode.

    The mild solution on mode q = 2*(j0,k0) integrates in closed form,
    good to Simpson accuracy in the slice spacing.
    """
    j0, k0, amp = 1, 0, 0.05
    c = np.zeros((16, 16), dtype=complex)
    c[grid16.mode_index(j0, k0)] = amp
    c[grid16.mode_index(-j0, -k0)] = amp
    f = SpectralField.from_coefficients(grid16, c)
    delta = 0.05
    w = free_window(f, delta, slices=64)
    out = duhamel_apply(f, w)
    m = dispersion_symbol(grid16)
    m0 = m[grid16.mode_index(j0, k0)]
    q = (2 * j0, 2 * k0)
    mq = m[grid16.mode_index(*q)]
    xi_q = 2 * np.pi * (2 * j0) / grid16.lx
    omega = 2 * m0 - mq
    for t, s in zip(w.times, full_plane(grid16, out.half)):
        t = float(t)
        if omega != 0.0:
            integral = (np.exp(1j * omega * t) - 1.0) / (1j * omega)
        else:
            integral = t
        want = -0.5 * (1j * xi_q) * amp**2 * np.exp(1j * t * mq) * integral
        got = s[grid16.mode_index(*q)]
        assert abs(got - want) <= 1e-8 * amp**2  # Simpson error floor
        # no other modes are forced beyond the pair and its double
        live = {
            grid16.mode_index(*p)
            for p in ((j0, k0), (-j0, -k0), q, (-q[0], -q[1]))
        }
        rest = s.copy()
        for idx in live:
            rest[idx] = 0.0
        assert np.max(np.abs(rest)) < 1e-15


def test_window_distance_closed_form(grid16):
    f = random_band_field(grid16, seed=4)
    w1 = free_window(f, 0.1, slices=8)
    lam = 1.75
    w2 = free_window(SpectralField(grid16, lam * f.half), 0.1, slices=8)
    assert window_distance(w1, w1, 0.0, 0.0) == 0.0
    # the free flow is unitary on L2, so the gap is constant in time
    want = (lam - 1.0) * gevrey_norm(f, 0.0, 0.0)
    assert window_distance(w1, w2, 0.0, 0.0) == pytest.approx(want, rel=1e-12)


def picard_setup(amplitude=0.8):
    cfg = SimConfig(
        grid=GridConfig(nx=32, ny=32),
        time=TimeConfig(horizon=1.0),
        initial=InitialConfig(kind="gaussian", amplitude=amplitude, width=2.0),
    )
    grid = cfg.make_grid()
    f = initial_field(cfg, grid)
    return f


def test_picard_converges_and_contracts():
    f = picard_setup()
    sigma1 = 0.25
    norm = gevrey_norm(f, sigma1, 0.0)
    delta = delta_rule(norm, DEFAULT_C0, 2.0)
    res = picard_iterate(
        f, delta, sigma1=sigma1, sigma2=0.0, slices=32, n_max=20, tol=1e-10,
        nonlinear=True,
    )
    assert res.converged
    assert res.distances[-1] < 1e-10
    assert all(r < 1.0 for r in res.ratios[1:])
    dists = list(res.distances)
    assert dists == sorted(dists, reverse=True)
    assert len(res.sup_norms) == res.iterations
    assert all(math.isfinite(s) and s > 0 for s in res.sup_norms)
    # iteration starts from the free window anchored at the data
    assert np.array_equal(res.window.half[0], f.half)

    doubling = doubling_check(norm, res.sup_norms[-1])
    assert 1.0 - 1e-12 <= doubling.ratio <= 2.0


@pytest.mark.parametrize("n_max", [20, 2])
def test_doubling_check_reuses_the_iteration_norms(n_max):
    """The iteration's data norm and last sup norm give the same check,
    bit for bit, as norms recomputed from the data and the window, for a
    converged run and for one that stops at n_max."""
    f = picard_setup()
    sigma1 = 0.25
    norm = gevrey_norm(f, sigma1, 0.0)
    res = picard_iterate(
        f, delta_rule(norm, DEFAULT_C0, 2.0), sigma1=sigma1, slices=32,
        n_max=n_max, tol=1e-10,
    )
    assert res.converged == (n_max == 20)
    recomputed = doubling_check(
        gevrey_norm(f, sigma1, 0.0),
        float(half_plane_norms(f.grid, res.window.half, sigma1, 0.0).max()),
    )
    assert doubling_check(norm, res.sup_norms[-1]) == recomputed


def test_picard_divergence_detected():
    # window far beyond the contraction regime for data this large
    f = picard_setup(amplitude=40.0)
    with pytest.raises(PicardDivergenceError):
        picard_iterate(
            f, 2.0, sigma1=0.25, sigma2=0.0, slices=16, n_max=12, tol=1e-10,
            nonlinear=True,
        )


def test_picard_rejects_bad_iteration_budget():
    f = picard_setup()
    with pytest.raises(ValueError):
        picard_iterate(
            f, 0.01, sigma1=0.0, sigma2=0.0, slices=8, n_max=0, tol=1e-10,
            nonlinear=True,
        )


def test_window_is_read_only_half_plane(grid16):
    w = free_window(random_band_field(grid16, seed=5), 0.1, slices=4)
    assert w.half.shape == (5, 16, 9) and not w.half.flags.writeable

