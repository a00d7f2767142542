import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kp5.picard
from conftest import random_band_field
from kp5.acceptance import SUITE_MEMBERS, suite_cfg
from kp5.config import DEFAULT_C0, GridConfig, InitialConfig, SimConfig, TimeConfig
from kp5.errors import BlowUpError, PicardDivergenceError, SigmaOverflowError
from kp5.initial_data import initial_field
from kp5.operators import (
    _norm_weight,
    _weighted_norm,
    dispersion_symbol,
    gevrey_norm,
    max_admissible_sigma1,
    semigroup_apply,
)
from kp5.picard import (
    _pair_phases,
    _simpson_pair,
    delta_rule,
    duhamel_apply,
    free_window,
    picard_from_config,
    picard_iterate,
)
from kp5.spectral import Grid2D, SpectralField, dealiased_square, full_plane


def test_delta_rule_values():
    assert delta_rule(1.0, 0.4, 2.0) == pytest.approx(0.1)
    assert delta_rule(0.0, 0.4, 2.0) == pytest.approx(0.4)
    assert delta_rule(3.0, 1.0, 2.0) == pytest.approx(1.0 / 16.0)
    with pytest.raises(ValueError):
        delta_rule(1.0, -0.4, 2.0)
    with pytest.raises(ValueError):
        delta_rule(1.0, 0.4, 1.0)  # window must shrink faster than 1/norm
    with pytest.raises(ValueError):
        delta_rule(-1.0, 0.4, 2.0)
    # no window: a norm that is not finite, or a window below the
    # smallest double, is a blow-up at t = 0
    for norm in (float("nan"), float("inf"), 1e200):
        with pytest.raises(BlowUpError, match="no contraction window") as info:
            delta_rule(norm, 0.4, 2.0)
        assert info.value.time == 0.0 and info.value.records == []


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0, 100), b=st.floats(0, 100))
def test_delta_rule_monotone(a, b):
    lo, hi = sorted((a, b))
    assert delta_rule(hi, DEFAULT_C0, 2.0) <= delta_rule(lo, DEFAULT_C0, 2.0)


def cumulative_simpson_reference(values: np.ndarray, h: float) -> np.ndarray:
    """The whole-stack cumulative Simpson rule the Duhamel map once used,
    kept as the oracle of the pair step: even endpoints sum Simpson pairs,
    odd ones take h/12 * (5l + 8m - r) from the pair sums."""
    left, mid, right = values[0:-2:2], values[1:-1:2], values[2::2]
    out = np.empty_like(values)
    out[0] = 0.0
    pairs, odd = out[2::2], out[1::2]
    np.multiply(mid, 4.0, out=pairs)
    pairs += left
    pairs += right
    np.subtract(left, right, out=odd)
    odd *= 1.5
    odd += pairs
    odd *= h / 6.0
    pairs *= h / 3.0
    for i in range(1, pairs.shape[0]):
        pairs[i] += pairs[i - 1]
    odd[1:] += pairs[:-1]
    return out


def band_norms(grid, band, sigma1, sigma2):
    """The Gevrey norm of each slice of a band window."""
    table = _norm_weight(grid, sigma1, sigma2)
    return _weighted_norm(np.abs(band), table, grid.measure)


def window_phases(grid, delta: float, n: int) -> np.ndarray:
    """exp(i * t_i * m) on the band at all n window times at once, taken on
    rows 0 <= j <= nx//3 and conjugated onto rows -j."""
    times = np.linspace(0.0, delta, n)[:, None, None]
    m = dispersion_symbol(grid)
    top = grid.nx // 3 + 1
    phases = np.empty((n,) + m.shape, dtype=np.complex128)
    phases[:, :top] = np.exp(times * (1j * m[None, :top]))
    phases[:, top:] = np.conj(phases[:, top - 1 : 0 : -1])
    return phases


def duhamel_reference(f: SpectralField, window: np.ndarray, delta: float) -> np.ndarray:
    """The whole-stack Duhamel map, one new array: the square of every
    slice of the band ``window`` at once, rotated back, integrated by the
    reference rule, then the derivative, the data and the phases."""
    grid = f.grid
    n = window.shape[0]
    phases = window_phases(grid, delta, n)
    forcing = dealiased_square(grid, window)
    np.conjugate(forcing, out=forcing)
    forcing *= phases
    cum = cumulative_simpson_reference(forcing, delta / (n - 1))
    np.conjugate(cum, out=cum)
    cum *= -0.5j * grid.xi_col
    cum += f.band
    cum *= phases
    return cum


def pair_cumulative(values, h: float) -> np.ndarray:
    """The cumulative integral along axis 0 of an odd number of samples,
    one ``_simpson_pair`` step at a time."""
    v = np.asarray(values).reshape(len(values), -1)
    out = np.zeros_like(v)
    carry = out[0]  # the integral to the first sample
    for p in range(0, len(v) - 1, 2):
        _simpson_pair(v[p], v[p + 1], v[p + 2], h, carry, out[p + 1], out[p + 2])
        carry = out[p + 2]
    return out.reshape(np.shape(values))


def test_cumulative_simpson_exact_on_quadratics():
    h = 0.23
    x = np.arange(7) * h
    f = 2 * x**2 - x + 3
    exact = 2 * x**3 / 3 - x**2 / 2 + 3 * x
    got = pair_cumulative(f, h)
    assert np.allclose(got, exact, atol=1e-13)


def test_cumulative_simpson_even_points_exact_on_cubics():
    # full Simpson pairs integrate cubics exactly; the trailing
    # half-interval rule at odd points is one order lower
    h = 0.23
    x = np.arange(7) * h
    f = x**3 - 2 * x**2 + 3
    exact = x**4 / 4 - 2 * x**3 / 3 + 3 * x
    got = pair_cumulative(f, h)
    assert np.allclose(got[::2], exact[::2], atol=1e-13)


def test_cumulative_simpson_three_points():
    h = 0.5
    x = np.arange(3) * h
    f = x**2
    got = pair_cumulative(f, h)
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
        got = pair_cumulative(f, h)
        assert got.dtype == np.complex128
        return np.max(np.abs(got - exact))

    ratio = err(32) / err(64)
    assert 12.0 < ratio < 20.0


def test_cumulative_simpson_stacked_arrays():
    h = 0.1
    x = np.arange(9) * h
    flat = pair_cumulative(x**2, h)
    stacked = pair_cumulative(np.stack([x**2, x**2]).T.reshape(9, 2, 1), h)
    assert np.allclose(stacked[:, 0, 0], flat)
    assert np.allclose(stacked[:, 1, 0], flat)
    assert np.array_equal(flat, cumulative_simpson_reference(x**2, h))


def test_window_validation(grid16):
    """An odd slice count, fewer than two slices and a window length
    <= 0 are refused."""
    f = random_band_field(grid16, seed=1)
    for delta, slices in ((0.1, 3), (0.1, 1), (0.1, 0), (0.0, 8), (-0.1, 8)):
        with pytest.raises(ValueError):
            picard_iterate(
                f, delta, sigma1=0.0, sigma2=0.0, slices=slices, n_max=2,
                tol=1e-10,
            )


@pytest.mark.parametrize("factor", [1.01, 2.0])
def test_duhamel_refuses_rates_past_the_guard(grid16, factor):
    """A direct call past the overflow guard raises, naming the largest
    admissible sigma1, and leaves the window as it was.  Just past the
    guard the band weights stay finite; at twice it they overflow, and an
    unguarded sweep would return (nan, inf)."""
    f = random_band_field(grid16, seed=1)
    limit = max_admissible_sigma1(grid16)
    window = free_window(f, 0.01, slices=4)
    before = window.copy()
    with pytest.raises(SigmaOverflowError, match=f"{limit:g}"):
        duhamel_apply(f, window, 0.01, factor * limit, 0.0)
    assert np.array_equal(window, before)


def test_picard_refuses_rates_past_the_guard(grid16):
    """``picard_iterate`` refuses a rate past the guard: its first sweep's
    norms raise."""
    f = random_band_field(grid16, seed=1)
    limit = max_admissible_sigma1(grid16)
    with pytest.raises(SigmaOverflowError, match=f"{limit:g}"):
        picard_iterate(
            f, 0.01, sigma1=1.01 * limit, sigma2=0.0, slices=4, n_max=2,
            tol=1e-10,
        )


def test_free_window_matches_semigroup(grid16):
    f = random_band_field(grid16, seed=2)
    w = free_window(f, delta=0.3, slices=8)
    assert w.shape == (9, 11, 6)
    for t, s in zip(np.linspace(0.0, 0.3, 9), w):
        exact = semigroup_apply(f, float(t))
        assert np.allclose(s, exact.band, rtol=0, atol=1e-15)


def test_free_window_refuses_data_off_the_band(grid16):
    """A window holds the 2/3 band only, so data with modes off it are
    refused rather than cut: the field they would seed cannot be built."""
    f = random_band_field(grid16, seed=2)
    half = full_plane(grid16, f.band)[:, : grid16.ny // 2 + 1].copy()
    half[grid16.mode_index(6, 1)] = 1e-3  # 3*6 > 16: outside the band
    with pytest.raises(ValueError, match="2/3 band"):
        free_window(SpectralField(grid16, half), 0.1, slices=4)
    with pytest.raises(ValueError, match="2/3 band"):
        picard_iterate(
            SpectralField(grid16, half), 0.1, sigma1=0.0, sigma2=0.0,
            slices=4, n_max=2, tol=1e-10,
        )


@pytest.mark.parametrize("name, init", SUITE_MEMBERS)
def test_initial_field_data_fit_the_band(name, init):
    """Every initial-data kind the suite uses is a band, so its window
    starts at exactly the data."""
    f = initial_field(suite_cfg(init))
    w = free_window(f, 0.01, slices=2)
    assert np.array_equal(w[0], f.band)


def test_duhamel_linear_mode_is_free_flow(monkeypatch, grid16):
    """With the forcing zeroed the map returns the free window.  Not
    bitwise: the zero integral still passes through the rotated-frame
    products, which round differently from phases * f."""
    monkeypatch.setattr(
        kp5.picard, "dealiased_square", lambda grid, half: np.zeros_like(half)
    )
    f = random_band_field(grid16, seed=3)
    w = free_window(f, delta=0.2, slices=8)
    out = w.copy()
    duhamel_apply(f, out, 0.2, 0.0, 0.0)
    assert np.allclose(out, w, rtol=0, atol=1e-15)


@pytest.mark.parametrize("nx, ny", [(16, 16), (32, 16), (128, 128)])
def test_pair_phases_are_the_oracle_phases_on_the_band(nx, ny):
    """The Simpson pairs tile slices 1 on, and their phases joined are the
    whole-stack phases of those slices, bit for bit.  Slice 0 takes none:
    it is the data."""
    grid = Grid2D(nx, ny, 2 * math.pi, 2 * math.pi)
    delta, n = 0.3, 65
    pairs = [(s, phases.copy()) for s, phases in _pair_phases(grid, delta, n)]
    assert [(s.start, s.stop) for s, _ in pairs] == [
        (p, p + 2) for p in range(1, n, 2)
    ]
    got = np.concatenate([phases for _, phases in pairs])
    want = window_phases(grid, delta, n)[1:]
    assert got.shape == want.shape == (n - 1, 2 * (nx // 3) + 1, ny // 3 + 1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, init", SUITE_MEMBERS)
def test_picard_window_starts_at_the_data_bytes(name, init):
    """Slice 0 of a converged window is the data's band byte for byte,
    signed zeros included: no iterate writes it."""
    cfg = suite_cfg(init)
    f = initial_field(cfg)
    assert picard_from_config(cfg, f).window[0].tobytes() == f.band.tobytes()


def test_duhamel_matches_derivative_before_quadrature():
    """Reference: the x-derivative applied to the forcing before the time
    quadrature; duhamel_apply applies it once, after."""
    f = picard_setup(amplitude=2.0)
    grid = f.grid
    w = free_window(f, 0.05, slices=16)
    times = np.linspace(0.0, 0.05, 17)
    phases = np.exp(1j * times[:, None, None] * dispersion_symbol(grid)[None])
    forcing = (1j * grid.xi_col) * dealiased_square(grid, w)
    cum = cumulative_simpson_reference(np.conj(phases) * forcing, 0.05 / 16)
    want = phases * (f.band - 0.5 * cum)
    got = w.copy()
    duhamel_apply(f, got, 0.05, 0.0, 0.0)
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
    out = free_window(f, delta, slices=64)
    duhamel_apply(f, out, delta, 0.0, 0.0)
    m = dispersion_symbol(grid16)
    m0 = m[j0, k0]  # band rows j = 0..5 lead
    q = (2 * j0, 2 * k0)
    mq = m[q]
    xi_q = 2 * np.pi * (2 * j0) / grid16.lx
    omega = 2 * m0 - mq
    times = np.linspace(0.0, delta, 65)
    for t, s in zip(times, full_plane(grid16, out)):
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


def test_window_distance_closed_form():
    """The first recorded distance is the sup-slice norm of the free
    window minus the first iterate."""
    f = picard_setup(amplitude=2.0)
    delta, slices, sigma1 = 0.05, 16, 0.25
    res = picard_iterate(
        f, delta, sigma1=sigma1, sigma2=0.0, slices=slices, n_max=3, tol=1e-10,
    )
    free = free_window(f, delta, slices)
    first = free.copy()
    duhamel_apply(f, first, delta, sigma1, 0.0)
    want = band_norms(f.grid, free - first, sigma1, 0.0).max()
    assert res.distances[0] == want > 0.0


@pytest.mark.parametrize("nx, ny", [(32, 32), (32, 16)])
@pytest.mark.parametrize("slices", [2, 4, 16, 64])
def test_streamed_duhamel_matches_whole_stack_bitwise(nx, ny, slices):
    """The pair sweep writes, bit for bit, the whole-stack map's window,
    and its distance and sup norm are the whole-stack norms' maxima, over
    three iterations from the free window."""
    grid = Grid2D(nx, ny, 8.0 * math.pi, 8.0 * math.pi)
    f = random_band_field(grid, seed=slices, scale=4.0)
    delta, sigma1, sigma2 = 0.05, 0.25, 0.1
    window = free_window(f, delta, slices)
    for _ in range(3):
        want = duhamel_reference(f, window, delta)
        got = window.copy()
        distance, sup_norm = duhamel_apply(f, got, delta, sigma1, sigma2)
        assert got.tobytes() == want.tobytes()
        assert distance == band_norms(grid, window - want, sigma1, sigma2).max()
        assert sup_norm == band_norms(grid, want, sigma1, sigma2).max()
        assert distance > 0.0
        window = want


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
    )
    assert res.converged
    assert res.distances[-1] < 1e-10
    assert all(r < 1.0 for r in res.ratios[1:])
    dists = list(res.distances)
    assert dists == sorted(dists, reverse=True)
    assert len(res.sup_norms) == res.iterations
    assert all(math.isfinite(s) and s > 0 for s in res.sup_norms)
    # iteration starts from the free window anchored at the data
    assert np.array_equal(res.window[0], f.band)
    assert res.delta == delta and res.data_norm == norm
    assert 1.0 - 1e-12 <= res.doubling_ratio <= 2.0


@pytest.mark.parametrize("n_max", [20, 2])
def test_doubling_check_reuses_the_iteration_norms(n_max):
    """The derived doubling ratio equals, bit for bit, the ratio of norms
    recomputed from the data and the window, for a converged run and for
    one that stops at n_max."""
    f = picard_setup()
    sigma1 = 0.25
    norm = gevrey_norm(f, sigma1, 0.0)
    res = picard_iterate(
        f, delta_rule(norm, DEFAULT_C0, 2.0), sigma1=sigma1, sigma2=0.0,
        slices=32, n_max=n_max, tol=1e-10,
    )
    assert res.converged == (n_max == 20)
    recomputed = (
        float(band_norms(f.grid, res.window, sigma1, 0.0).max())
        / gevrey_norm(f, sigma1, 0.0)
    )
    assert res.doubling_ratio == recomputed


def test_picard_divergence_detected():
    # window far beyond the contraction regime for data this large
    f = picard_setup(amplitude=40.0)
    with pytest.raises(PicardDivergenceError):
        picard_iterate(
            f, 2.0, sigma1=0.25, sigma2=0.0, slices=16, n_max=12, tol=1e-10,
        )


def test_picard_rejects_bad_iteration_budget():
    f = picard_setup()
    with pytest.raises(ValueError):
        picard_iterate(
            f, 0.01, sigma1=0.0, sigma2=0.0, slices=8, n_max=0, tol=1e-10,
        )


def test_window_is_read_only_band(grid16):
    res = picard_iterate(
        random_band_field(grid16, seed=5), 0.1, sigma1=0.0, sigma2=0.0,
        slices=4, n_max=2, tol=1e-10,
    )
    assert res.window.shape == (5, 11, 6) and not res.window.flags.writeable



def test_picard_run_holds_one_band_window():
    """A run allocates one band window and temporaries of a few slices:
    each Simpson pair makes its own phases in a (2, band) buffer, so no
    window-sized phase table is held, and the traced peak stays under 1.6
    band windows (2.4 with the table; the half-plane layout peaked at 5)."""
    grid = Grid2D(64, 64, 16 * math.pi, 16 * math.pi)
    f = random_band_field(grid, seed=6)
    slices = 64
    band_window = (slices + 1) * (2 * (64 // 3) + 1) * (64 // 3 + 1) * 16
    tracemalloc.start()
    try:
        res = picard_iterate(
            f, 0.01, sigma1=0.25, sigma2=0.0, slices=slices, n_max=3, tol=1e-10,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 3
    assert band_window < peak < 1.6 * band_window
