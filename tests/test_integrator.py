import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kp5
import kp5.integrator
from conftest import (
    cut, full_plane_square, full_plane_wavenumbers, half_plane, random_band_field,
    window_rule,
)
from kp5.acceptance import SUITE_MEMBERS, suite_cfg
from kp5.config import (
    DeltaConfig,
    GevreyConfig,
    GridConfig,
    InitialConfig,
    OutputConfig,
    SimConfig,
    TimeConfig,
)
from kp5.diagnostics import radius_decay_run
from kp5.errors import BlowUpError
from kp5.integrator import (
    _half_rhs,
    _sampled_run,
    aligned_dt,
    cfl_dt,
    max_group_speed,
    resolve_dt,
    simulate,
    step,
    step_plan,
    window_cap,
)
from kp5.operators import gevrey_norm, semigroup_apply
from kp5.picard import delta_rule
from kp5.initial_data import KINDS, initial_field
from kp5.spectral import (
    Grid2D, SpectralField, full_plane, physical_values, x_derivative,
)

GRID_32x48 = Grid2D(32, 48, 16 * np.pi, 24 * np.pi)
GRID_64 = Grid2D(64, 64, 32 * np.pi, 32 * np.pi)


def small_cfg(**kw):
    base = dict(
        grid=GridConfig(nx=32, ny=32),
        time=TimeConfig(horizon=0.2, samples=3),
        initial=InitialConfig(kind="gaussian", amplitude=1.0, width=2.0),
    )
    base.update(kw)
    return SimConfig(**base)


def test_max_group_speed_hand_check(grid16):
    # scan the dealiased band directly
    best = 0.0
    for j in range(-5, 6):
        if j == 0:
            continue
        for k in range(-5, 6):
            xi, eta = float(j), float(k)
            best = max(best, 5 * xi**4 + eta**2 / xi**2)
    assert max_group_speed(grid16) == pytest.approx(best, rel=1e-13)
    assert cfl_dt(grid16, 1.0) == pytest.approx(1.0 / best)
    assert cfl_dt(grid16, 0.5) == pytest.approx(0.5 / best)


@pytest.mark.parametrize(
    "grid", [GRID_64, Grid2D(128, 128, 32 * np.pi, 32 * np.pi), GRID_32x48],
    ids=["64x64", "128x128", "32x48"],
)
def test_cfl_dt_is_the_explicit_band_maximum(grid):
    """The CFL step reads the largest 5 xi^4 + eta^2 / xi^2 over the band's
    modes with xi != 0, bit for bit: the sample times that the benchmark
    references hold at 1e-12 are multiples of it."""
    jx, ky = grid.nx // 3, grid.ny // 3
    best = max(
        5.0 * (2.0 * np.pi * j / grid.lx) ** 4
        + (2.0 * np.pi * k / grid.ly) ** 2 / (2.0 * np.pi * j / grid.lx) ** 2
        for j in range(-jx, jx + 1) if j != 0
        for k in range(ky + 1)
    )
    assert max_group_speed(grid) == best
    assert cfl_dt(grid, 0.7) == 0.7 / best


def test_aligned_dt():
    dt, n = aligned_dt(1.0, 0.3)
    assert (dt, n) == (0.25, 4)
    dt, n = aligned_dt(1.0, 0.25)
    assert n == 4 and dt == pytest.approx(0.25)
    dt, n = aligned_dt(0.2, 1.0)
    assert (dt, n) == (0.2, 1)


def _free_flow(monkeypatch):
    """Switch the nonlinearity off: every right-hand side is zero."""
    monkeypatch.setattr(
        kp5.integrator, "_half_rhs", lambda grid, c: np.zeros_like(c)
    )


def test_free_flow_equals_semigroup(monkeypatch, grid16):
    _free_flow(monkeypatch)
    f = random_band_field(grid16, seed=3)
    u = f
    for _ in range(3):
        u = step(u, 0.05)
    exact = semigroup_apply(f, 0.15)
    scale = np.max(np.abs(exact.band))
    assert np.max(np.abs(u.band - exact.band)) <= 1e-13 * scale


def test_linear_time_reversal(monkeypatch, grid16):
    _free_flow(monkeypatch)
    f = random_band_field(grid16, seed=5)
    u = f
    for _ in range(10):
        u = step(u, 0.02)
    for _ in range(10):
        u = step(u, -0.02)
    scale = np.max(np.abs(f.band))
    assert np.max(np.abs(u.band - f.band)) <= 1e-12 * scale


def test_nonlinear_term_is_transport_derivative(grid16):
    f = random_band_field(grid16, seed=7)
    square = full_plane_square(grid16, full_plane(grid16, f.band))
    direct = x_derivative(SpectralField.from_coefficients(grid16, square))
    assert np.allclose(_half_rhs(grid16, f.band), -0.5 * direct.band, atol=1e-15)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("grid", [GRID_32x48, GRID_64], ids=["32x48", "64x64"])
def test_half_plane_rhs_matches_nonlinear_term(grid):
    f = random_band_field(grid, seed=11)
    got = full_plane(grid, _half_rhs(grid, f.band))
    xi = full_plane_wavenumbers(grid)[0]
    want = (-0.5j) * xi * full_plane_square(grid, full_plane(grid, f.band))
    assert _rel_err(got, want) <= 1e-13


def _full_plane_step(grid, c, dt, nonlinear):
    """Reference: the full-plane complex-FFT IF-RK4 step, written out."""
    xi, eta = full_plane_wavenumbers(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(xi == 0.0, 0.0, xi**5 - eta**2 / xi)
    e_half, e_full = np.exp(0.5j * dt * m), np.exp(1j * dt * m)

    def rhs(c):
        return (-0.5j) * xi * full_plane_square(grid, c)

    if not nonlinear:
        return e_full * c
    g1 = rhs(c)
    g2 = np.conj(e_half) * rhs(e_half * (c + 0.5 * dt * g1))
    g3 = np.conj(e_half) * rhs(e_half * (c + 0.5 * dt * g2))
    g4 = np.conj(e_full) * rhs(e_full * (c + dt * g3))
    return e_full * (c + (dt / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4))


@pytest.mark.parametrize("grid", [GRID_32x48, GRID_64], ids=["32x48", "64x64"])
@pytest.mark.parametrize("nonlinear", [True, False])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_half_plane_steps_match_full_plane_rk4(monkeypatch, grid, nonlinear, sign):
    """Steps forward and (sign -1, a negative dt) back in time."""
    if not nonlinear:
        _free_flow(monkeypatch)
    f = random_band_field(grid, seed=13)
    dt = sign * cfl_dt(grid, 1.0)
    u = f
    want = full_plane(grid, f.band)
    for _ in range(20):
        u = step(u, dt)
        want = _full_plane_step(grid, want, dt, nonlinear)
    assert _rel_err(full_plane(grid, u.band), want) <= 1e-12


def _half_plane_step(grid, c, dt):
    """The IF-RK4 step on the whole rfft2 half plane (nx, ny//2 + 1), with
    the 2/3 mask applied to every square and Nyquist lines zero: the
    stepper's arithmetic before a field was its band, kept as a
    reference."""
    jx, cols = grid.nx // 3, grid.ny // 3 + 1
    xi, eta = full_plane_wavenumbers(grid)
    eta = eta[:, : grid.ny // 2 + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(xi == 0.0, 0.0, xi**5 - eta**2 / xi)
    e_half = np.exp(0.5j * dt * np.ascontiguousarray(np.broadcast_to(m, c.shape)))
    kick = np.ascontiguousarray(np.broadcast_to((-0.5j) * xi, c.shape))

    def rhs(c):
        u = np.fft.irfft(np.fft.ifft(c, axis=-2, norm="forward"), n=grid.ny, axis=-1,
                         norm="forward")
        u *= u
        sq = np.fft.rfft(u, axis=-1, norm="forward")
        kept = sq[..., :cols]
        np.fft.fft(kept, axis=-2, norm="forward", out=kept)
        kept[..., jx + 1 : grid.nx - jx, :] = 0.0
        sq[..., cols:] = 0.0
        sq *= kick
        return sq

    ec = e_half * c
    k1 = rhs(c)
    arg = np.multiply(k1, 0.5 * dt)
    arg += c
    arg *= e_half
    k2 = rhs(arg)
    np.multiply(k2, 0.5 * dt, out=arg)
    arg += ec
    k3 = rhs(arg)
    np.multiply(k3, dt, out=arg)
    arg += ec
    arg *= e_half
    k4 = rhs(arg)
    new_c = k1
    new_c *= e_half
    k2 += k3
    k2 *= 2.0
    new_c += k2
    new_c *= dt / 6.0
    new_c += ec
    new_c *= e_half
    k4 *= dt / 6.0
    new_c += k4
    column = new_c[:, 0]
    paired = 0.5 * (column + np.conj(column[-np.arange(grid.nx)]))
    if not np.array_equal(paired, column):
        new_c[:, 0] = paired
    return new_c


@pytest.mark.parametrize("grid", [GRID_64, GRID_32x48], ids=["64x64", "32x48"])
def test_band_steps_are_bitwise_the_half_plane_steps(grid):
    """Twenty steps of a band field equal, bit for bit, twenty steps of its
    zero-padded half plane under the half-plane reference step, which
    keeps every mode off the band exactly zero."""
    f = random_band_field(grid, seed=19, scale=0.3)
    half = half_plane(grid, f.band)
    dt = 4.0 * cfl_dt(grid, 1.0)
    for k in range(20):
        f = step(f, dt, k * dt)
        half = _half_plane_step(grid, half, dt)
    assert cut(grid, half).tobytes() == f.band.tobytes()
    half[grid.band_j, : grid.ny // 3 + 1] = 0.0
    assert not half.any()


@pytest.mark.parametrize("n", [32, 64])
def test_stacked_step_is_bitwise_per_field_steps(n):
    grid = Grid2D(n, n, 32 * np.pi, 32 * np.pi)
    fields = [random_band_field(grid, seed, 0.3) for seed in (1, 2, 3)]
    stack = SpectralField(grid, np.stack([f.band for f in fields]))
    dt = cfl_dt(grid, 1.0)
    for k in range(20):
        stack = step(stack, dt, k * dt)
        fields = [step(f, dt, k * dt) for f in fields]
    assert all(np.array_equal(stack.band[i], f.band) for i, f in enumerate(fields))


def test_l2_conserved_on_nonlinear_run(grid32):
    cfg = small_cfg()
    out = simulate(cfg)
    norms = [r.l2 for r in out.records]
    drift = max(abs(n - norms[0]) for n in norms) / norms[0]
    assert drift < 1e-10


def test_self_convergence_order(grid32):
    cfg = small_cfg(time=TimeConfig(horizon=0.1, samples=2))
    grid = cfg.make_grid()
    f = initial_field(cfg, grid)

    def run(dt, n):
        u = f
        for _ in range(n):
            u = step(u, dt)
        return u.band

    base_dt = 0.1 / 8
    u1 = run(base_dt, 8)
    u2 = run(base_dt / 2, 16)
    u3 = run(base_dt / 4, 32)
    e1 = gevrey_norm(SpectralField(grid, u1 - u2), 0, 0)
    e2 = gevrey_norm(SpectralField(grid, u2 - u3), 0, 0)
    order = math.log2(e1 / e2)
    assert order >= 3.5


def _counting_steps(monkeypatch) -> list:
    calls = []
    real = kp5.integrator.step

    def counted(field, dt, t=0.0):
        calls.append(dt)
        return real(field, dt, t)

    monkeypatch.setattr(kp5.integrator, "step", counted)
    return calls


def _blow_up(monkeypatch, amplitude):
    """The config of a Gaussian of this amplitude, the ``BlowUpError`` that
    ``simulate`` raises on it and the step sizes taken before."""
    cfg = small_cfg(
        initial=InitialConfig(kind="gaussian", amplitude=amplitude, width=2.0),
        time=TimeConfig(horizon=0.1, samples=2),
    )
    calls = _counting_steps(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
        simulate(cfg)
    return cfg, info.value, calls


def test_blow_up_reports_partial_records(monkeypatch):
    # a contraction window of ~1e-201, far below the grid step
    cfg, exc, calls = _blow_up(monkeypatch, 1e100)
    assert exc.time > 0.0
    assert len(exc.records) == 1  # the t = 0 sample was taken
    # the tiny window falls back to grid steps: no more of them than the
    # grid has, each exactly grid_dt
    grid_dt, n = resolve_dt(cfg, cfg.make_grid(), 0.1)
    assert 1 <= len(calls) <= n and set(calls) == {grid_dt}


def test_blow_up_when_the_window_underflows(monkeypatch):
    # c0 / (1 + norm)^2 underflows to 0, so there is no window at all: the
    # run aborts at t = 0, before its first sample and its first step
    _, exc, calls = _blow_up(monkeypatch, 1e200)
    assert str(exc) == "initial data leave no contraction window"
    assert (exc.time, exc.records, calls) == (0.0, [], [])


def test_runaway_norm_is_blow_up_at_its_sample(monkeypatch):
    """A norm past RUNAWAY_FACTOR times the initial one aborts the run at
    the sample that shows it; that sample is the last record kept."""
    real = kp5.integrator.step

    def tenfold(field, dt, t=0.0):
        return SpectralField(field.grid, 10.0 * real(field, dt, t).band)

    monkeypatch.setattr(kp5.integrator, "step", tenfold)
    # every grid step is a sample, and the data stay small enough that
    # a 1e9-fold larger field still steps finitely
    cfg = small_cfg(
        initial=InitialConfig(kind="gaussian", amplitude=1e-6, width=2.0),
        time=TimeConfig(horizon=0.02, samples=21, dt=0.001),
    )
    with pytest.raises(BlowUpError) as info:
        simulate(cfg)
    records = info.value.records
    limit = kp5.integrator.RUNAWAY_FACTOR * records[0].l2
    assert records[-1].l2 > limit
    assert all(r.l2 <= limit for r in records[:-1])
    assert len(records) == records[-1].steps + 1 < 21
    assert info.value.time == records[-1].t


def test_no_contraction_window_is_a_blow_up_at_t0():
    """No window: c0 / (1 + norm)^2 underflows, or the weighted norm
    itself overflows; either is a blow-up at t = 0."""
    cfg = small_cfg()
    grid = cfg.make_grid()
    band = np.zeros(grid.band_shape, dtype=complex)
    for amp, finite_norm in ((1e200, True), (1e308, False)):
        band[10, 2] = amp
        f = SpectralField(grid, band.copy())
        norm = gevrey_norm(f, cfg.gevrey.sigma1, 0.0)
        assert math.isfinite(norm) == finite_norm
        with pytest.raises(BlowUpError, match="no contraction window") as info:
            delta_rule(norm, cfg.delta.c0, cfg.delta.exponent)
        assert info.value.time == 0.0


def test_non_finite_step_is_dated_at_its_end():
    # the quadratic term of a 1e200 mode overflows within one step
    grid = small_cfg().make_grid()
    band = np.zeros(grid.band_shape, dtype=complex)
    band[3, 2] = 1e200
    f = SpectralField(grid, band)
    with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
        step(f, 0.125, 0.25)
    assert info.value.time == 0.375


def test_radius_decay_rejects_data_without_a_window():
    cfg = small_cfg(initial=InitialConfig(kind="gaussian", amplitude=1e200, width=2.0))
    with np.errstate(all="ignore"), pytest.raises(BlowUpError):
        radius_decay_run(cfg)


def test_step_plan_crosses_each_gap_in_window_steps():
    # gaps of 10, 3 and 12 grid steps of 0.1 under a cap of 0.35
    plan = step_plan({25, 0, 13, 10}, 0.1, 0.35)
    assert [(b, m) for b, _, m in plan] == [(0, 0), (10, 3), (13, 1), (25, 4)]
    assert [dt for _, dt, _ in plan[1:]] == pytest.approx([1.0 / 3, 0.3, 0.3])
    assert step_plan({4}, 0.1, 1.0) == [(4, pytest.approx(0.4), 1)]
    # a cap of the grid step or below: every grid step, of exactly grid_dt
    for cap in (0.1, 0.05):
        assert step_plan({0, 10, 13}, 0.1, cap) == [(0, 0.1, 0), (10, 0.1, 10), (13, 0.1, 3)]


def test_window_cap_is_cfl_times_delta_or_the_grid_step():
    cfg = small_cfg()
    assert window_cap(cfg, 0.1, 0.01) == 0.1
    assert window_cap(replace(cfg, time=replace(cfg.time, cfl=0.5)), 0.1, 0.01) == 0.05
    assert window_cap(cfg, 0.005, 0.01) == 0.01  # window below the grid step
    assert window_cap(cfg, math.nan, 0.01) == 0.01  # every grid point sampled
    assert window_cap(replace(cfg, time=replace(cfg.time, dt=0.01)), 0.1, 0.01) == 0.01


def test_dt_source_is_grid_without_a_longer_step():
    """A window below the grid step steps on the grid, and the telemetry of
    ``simulate`` and ``radius-decay`` says so."""
    cfg = small_cfg(delta=DeltaConfig(c0=1e-4))
    for run in (simulate(cfg), radius_decay_run(cfg).run):
        assert run.dt_source == "grid" and run.dt == run.grid_dt
        assert run.steps == round(run.records[-1].t / run.grid_dt)


@pytest.mark.parametrize("cfl", [1.0, 0.8])
def test_window_steps_keep_grid_times_and_match_grid_steps(cfl):
    cfg = small_cfg(
        time=TimeConfig(horizon=0.5, samples=6, cfl=cfl),
        gevrey=GevreyConfig(sigma1=0.25),
    )
    grid = cfg.make_grid()
    # an explicit dt equal to the CFL step takes every step of the grid
    on_grid = simulate(replace(cfg, time=replace(cfg.time, dt=cfl_dt(grid, cfl))))
    out = simulate(cfg)
    grid_dt, idx, steps, dt_max = window_rule(cfg, np.linspace(0.0, 0.5, 6))
    assert (on_grid.dt_source, out.dt_source) == ("explicit", "window")
    assert out.grid_dt == on_grid.grid_dt == on_grid.dt == grid_dt
    assert on_grid.steps == idx[-1]
    assert (out.steps, out.dt) == (steps, pytest.approx(dt_max, rel=1e-15))
    assert out.steps < on_grid.steps / 2 and out.records[-1].steps == out.steps
    assert [r.t for r in out.records] == [r.t for r in on_grid.records]
    assert [r.t for r in out.records] == [b * grid_dt for b in idx]
    # measured 6.1e-11 (cfl 1: 20 window steps against 51 grid steps)
    for a, b in zip(out.records, on_grid.records):
        got = (a.l2, *a.gevrey, a.remainder_l2)
        want = (b.l2, *b.gevrey, b.remainder_l2)
        assert max(abs(x - y) / abs(y) for x, y in zip(got, want)) <= 2e-10


def test_explicit_dt_takes_every_grid_step_bitwise(monkeypatch):
    cfg = small_cfg(time=TimeConfig(horizon=0.1, samples=3, dt=0.01))
    f = initial_field(cfg)
    grid_dt, n = resolve_dt(cfg, cfg.make_grid(), 0.1)
    assert (grid_dt, n) == (0.01, 10)
    run = _sampled_run(cfg, f, 1.0, [0.0, 0.05, 0.1], (), lambda *sample: sample)
    got = {steps: (t, field) for t, steps, field, _ in run.records}
    # the record function gets the L2 norm of the field it records
    assert all(l2 == gevrey_norm(field, 0.0, 0.0) for _, _, field, l2 in run.records)
    assert sorted(got) == [0, 5, 10]
    by_hand = f
    for k in range(1, n + 1):
        by_hand = step(by_hand, grid_dt)
        if k in got:
            assert np.array_equal(got[k][1].band, by_hand.band)
            assert got[k][0] == k * grid_dt
    calls = _counting_steps(monkeypatch)
    out = simulate(cfg)
    assert (out.steps, out.dt, out.grid_dt) == (10, 0.01, 0.01)
    assert calls == [0.01] * 10


def test_simulate_sampling_and_snapshots():
    cfg = small_cfg(
        time=TimeConfig(horizon=0.2, samples=5),
        output=OutputConfig(snapshot_times=(0.1,)),
    )
    out = simulate(cfg)
    assert len(out.records) == 5
    dt = out.records[1].t - out.records[0].t
    targets = np.linspace(0.0, 0.2, 5)
    for rec, want in zip(out.records, targets):
        assert abs(rec.t - want) <= 0.51 * dt
    assert out.records[0].steps == 0
    assert [r.steps for r in out.records] == sorted(r.steps for r in out.records)
    (snap_t, snap_field), = out.snapshots
    assert abs(snap_t - 0.1) <= 0.51 * dt
    assert snap_field.band.shape == (21, 11)


def test_simulate_deterministic():
    cfg = small_cfg(time=TimeConfig(horizon=0.05, samples=3))
    a = simulate(cfg)
    b = simulate(cfg)
    # repr equality is nan-tolerant and matches the CSV round-trip format
    for ra, rb in zip(a.records, b.records):
        assert repr(ra) == repr(rb)


def test_initial_field_is_dealiased_and_real():
    cfg = small_cfg()
    f = initial_field(cfg, cfg.make_grid())
    assert f.band.shape == f.grid.band_shape
    column = f.band[:, 0]
    assert np.array_equal(column, np.conj(column[-np.arange(len(column))]))
    assert not f.band[0].any()


_FAMILIES = {
    "gaussian": InitialConfig(kind="gaussian", amplitude=1.3, width=2.0),
    "gaussian_dx": InitialConfig(kind="gaussian_dx", amplitude=1.0, width=1.5),
    "line_soliton": InitialConfig(kind="line_soliton", amplitude=0.8, width=2.0, ky=2),
    "exp_spectrum": InitialConfig(kind="exp_spectrum", amplitude=0.5, decay_x=0.8,
                                  decay_y=0.6, phases="random"),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("grid", [GRID_32x48, GRID_64], ids=["32x48", "64x64"])
def test_initial_field_is_the_cut_of_its_constructor(kind, grid):
    """Each family's constructor builds its un-cut half plane, x-mean row
    zeroed, and ``initial_field`` is the one place that cuts it to the
    2/3 band: the field's band is that cut, bit for bit, with column k = 0
    paired as every field pairs it (which moves it by rounding only)."""
    init = _FAMILIES[kind]
    half = KINDS[kind](grid, init, 7)
    assert half.shape == (grid.nx, grid.ny // 2 + 1) and not half[0].any()
    want = cut(grid, half).copy()
    column = want[:, 0].copy()
    want[:, 0] = 0.5 * (column + np.conj(column[-np.arange(len(column))]))
    assert np.max(np.abs(want[:, 0] - column)) <= 1e-15 * np.max(np.abs(want))
    box = GridConfig(nx=grid.nx, ny=grid.ny, lx=grid.lx, ly=grid.ly)
    cfg = SimConfig(grid=box, initial=init, seed=7)
    assert np.array_equal(initial_field(cfg).band, want)


@pytest.mark.parametrize("name, peak, l2_lost", [
    ("spectrum-anisotropic", 0.3271, 0.0979),
    ("spectrum-isotropic", 0.6599, 0.0971),
    ("gaussian-dx", 0.8313, 0.0327),
])
def test_amplitude_is_the_peak_before_the_cut(name, peak, l2_lost):
    """A pin of today's behaviour, measured at 64^2: ``amplitude`` sizes
    the data before the x-mean projection and the 2/3 cut, so the field the
    flow runs peaks lower than the constructor's half plane and has lost
    part of its L2 norm.  Rescaling the cut data to ``amplitude`` will
    move these numbers."""
    cfg = suite_cfg(dict(SUITE_MEMBERS)[name])
    grid, init = cfg.make_grid(), cfg.initial
    u = physical_values(grid, initial_field(cfg).band)
    uncut = np.fft.irfft2(KINDS[init.kind](grid, init, cfg.seed), s=(grid.nx, grid.ny),
                          norm="forward")
    assert np.max(np.abs(u)) == pytest.approx(peak, abs=5e-5)
    lost = 1.0 - np.sqrt(np.sum(u**2) / np.sum(uncut**2))
    assert lost == pytest.approx(l2_lost, abs=5e-5)


# builds one 16^2 initial field of the given kind and phases in a fresh
# process and prints whether numpy.random was loaded
_LOADS_RANDOM = """
import sys
from kp5.config import GridConfig, InitialConfig, SimConfig
from kp5.initial_data import initial_field
init = InitialConfig(kind=sys.argv[1], phases=sys.argv[2])
initial_field(SimConfig(grid=GridConfig(nx=16, ny=16), initial=init))
print("numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("kind, phases, loads", [
    ("gaussian", "none", "False"),
    ("exp_spectrum", "none", "False"),
    ("exp_spectrum", "random", "True"),
])
def test_initial_field_loads_numpy_random_only_to_draw(kind, phases, loads):
    """Only random phases build the seed's generator: other data leave
    numpy.random unloaded, which costs a process milliseconds to import."""
    src = Path(kp5.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _LOADS_RANDOM, kind, phases],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == loads
