import math
import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import kp5
from conftest import cut, half_plane, random_band_field, window_rule
from kp5.acceptance import gronwall_check
from kp5.config import (
    GevreyConfig,
    GridConfig,
    InitialConfig,
    SimConfig,
    TimeConfig,
)
from kp5.diagnostics import (
    BILINEAR_SLICES,
    GevreyParams,
    SpaceTimeField,
    _HARMONICS,
    _basis_window,
    _log2_ratio,
    _random_bases,
    _tapered_dft,
    almost_conservation_run,
    bilinear_ratio_trials,
    bourgain_norm,
    bracket,
    check_bilinear_admissible,
    energy_identity_check,
    radius_decay_run,
    radius_estimate,
    uniqueness_gap,
    window_taper,
)
from kp5.errors import InadmissibleParamsError
from kp5.initial_data import exp_spectrum, gaussian
from kp5.integrator import (
    _record,
    _sampled_run,
    cfl_dt,
    initial_field,
    resolve_dt,
    step,
)
from kp5.operators import (
    gevrey_norm,
    half_plane_norms,
    remainder_n,
    semigroup_apply,
)
from kp5.picard import free_window
from kp5.spectral import Grid2D, SpectralField, full_plane, physical_values


def small_cfg(**kw):
    base = dict(
        grid=GridConfig(nx=32, ny=32),
        time=TimeConfig(horizon=0.3, samples=3),
        initial=InitialConfig(kind="gaussian", amplitude=0.5, width=2.0),
        gevrey=GevreyConfig(sigma1=0.25, sigma2=0.0),
    )
    base.update(kw)
    return SimConfig(**base)


GRID64 = Grid2D(64, 64, 32 * np.pi, 32 * np.pi)


def band_field(grid, half):
    """The field of a constructor's half plane, cut to the 2/3 band."""
    return SpectralField(grid, cut(grid, half))


# prints the repr of _line_fit on a 4,669-sample tail, A7's longest: log t
# over t in [5, 50] against a wavy log radius
_LINE_FIT_REPR = """
import numpy as np
from kp5.diagnostics import _line_fit
x = np.log(np.linspace(5.0, 50.0, 4669))
print(repr(_line_fit(x, np.log(1.1 + 0.05 * np.sin(7.0 * x) + 0.01 * np.cos(x * x)))))
"""


def test_line_fit_bytes_do_not_depend_on_the_blas_thread_count():
    """The fit's 1-D products stay below any BLAS threading threshold at
    A7's tail length, so one and two OpenBLAS threads give the same bits."""
    src = Path(kp5.__file__).resolve().parent.parent
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _LINE_FIT_REPR], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1] and outs[0].startswith(b"(")


def test_radius_estimate_recovers_planted_decay():
    for sigma in (0.4, 1.1):
        f = band_field(GRID64, exp_spectrum(GRID64, 1.0, sigma, sigma))
        sigma_est, residual = radius_estimate(f)
        assert sigma_est == pytest.approx(sigma, abs=1e-12)
        assert residual < 1e-10


@pytest.mark.parametrize("grid", [GRID64, Grid2D(64, 48, 32 * np.pi, 24 * np.pi)],
                         ids=["64x64", "64x48"])
def test_radius_estimate_reads_stepper_half_plane_exactly(grid):
    # white band noise: rows j and -j of the half plane differ in size, so
    # the envelope needs both; the reference fits the full-plane envelope
    f = random_band_field(grid, seed=21)
    stepped = step(f, 0.01)
    sigma_est, residual = radius_estimate(stepped)
    n = grid.nx // 2
    mag = np.abs(full_plane(grid, stepped.band))
    envelope = mag[1:n].max(axis=1)
    lo, hi = 0.25 * grid.xi_dealias, 0.75 * grid.xi_dealias
    keep = (grid.xi[1:n] >= lo) & (grid.xi[1:n] <= hi)
    x, y = grid.xi[1:n][keep], np.log(envelope[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
    assert np.count_nonzero(keep) >= 8
    assert sigma_est == pytest.approx(max(0.0, -slope), abs=1e-12)
    assert residual == pytest.approx(resid, rel=1e-12)


def test_radius_estimate_free_flow_invariant():
    f = band_field(GRID64, exp_spectrum(GRID64, 1.0, 0.8, 0.8))
    before = radius_estimate(f)[0]
    after = radius_estimate(semigroup_apply(f, 0.53))[0]
    assert after == pytest.approx(before, abs=1e-12)


def test_radius_estimate_needs_enough_shells(grid16):
    """Too few shells, or none at all, is a nan pair: no fit, not a collapse."""
    f = band_field(grid16, gaussian(grid16, 1.0, 2.0))
    empty = SpectralField(grid16, np.zeros_like(f.band))
    for field in (f, empty):
        assert all(math.isnan(v) for v in radius_estimate(field))


def test_radius_estimate_clamps_at_zero():
    """Growing spectra fit a negative rate; the estimate floors at 0."""
    f = band_field(GRID64, exp_spectrum(GRID64, 1.0, 0.5, 0.5))
    # overcompensate the planted decay so the envelope grows with frequency
    g = SpectralField(GRID64, f.band * np.exp(1.0 * np.abs(GRID64.xi_col)))
    assert radius_estimate(g)[0] == 0.0


def test_window_taper_normalized():
    for n_t, dt in ((16, 0.01), (64, 0.003)):
        psi = window_taper(n_t, dt)
        assert psi.shape == (n_t,)
        assert np.all(psi >= 0)
        assert dt * psi.sum() == pytest.approx(1.0, rel=1e-12)
        assert psi[0] < psi[n_t // 2]  # vanishes toward the ends


def test_space_time_field_shape_rules(grid16):
    f = random_band_field(grid16, seed=1)
    slices = np.stack([semigroup_apply(f, 0.01 * i).band for i in range(12)])
    with pytest.raises(ValueError):
        SpaceTimeField.from_slices(grid16, slices, 0.01)  # 12 is not a power of two
    for wrong in (half_plane(grid16, slices[:8]), slices[:8, :, :-1]):  # not a band
        with pytest.raises(ValueError, match=r"not 2/3 bands \(11, 6\) of the grid"):
            SpaceTimeField.from_slices(grid16, wrong, 0.01)
    field = SpaceTimeField.from_slices(grid16, slices[:8], 0.01)
    assert field.n_t == 8
    assert field.duration == pytest.approx(0.08)


def test_space_time_field_takes_its_coefficients_over(monkeypatch, grid16):
    """``from_slices`` hands its transform to the field, which makes that
    array read-only instead of copying it."""
    made = []
    fft = np.fft.fft

    def recording_fft(*args, **kwargs):
        made.append(fft(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.fft, "fft", recording_fft)
    f = random_band_field(grid16, seed=1)
    slices = np.stack([semigroup_apply(f, 0.01 * i).band for i in range(8)])
    field = SpaceTimeField.from_slices(grid16, slices, 0.01)
    assert len(made) == 1 and field.coeffs_tau is made[0]
    assert not field.coeffs_tau.flags.writeable


def test_bourgain_norm_zero_params_is_tapered_l2(grid16):
    """With every exponent off, the norm is the spacetime L2 of the
    tapered window: sqrt(sum_t dt * psi(t)^2 * ||u(t)||^2) by Parseval."""
    f = random_band_field(grid16, seed=7)
    w = free_window(f, 0.2, slices=16)  # a Picard window is a stack of bands
    field = SpaceTimeField.from_slices(grid16, w[:-1], 0.2 / 16)
    psi = window_taper(field.n_t, field.slice_dt)
    slice_l2 = [
        np.sqrt(grid16.lx * grid16.ly * np.sum(np.abs(c) ** 2))
        for c in full_plane(grid16, w[:-1])
    ]
    direct = np.sqrt(
        sum(
            field.slice_dt * p**2 * n**2
            for p, n in zip(psi, slice_l2)
        )
    )
    got = bourgain_norm(field, GevreyParams(b=0.0))
    assert got == pytest.approx(direct, rel=1e-12)


def test_bourgain_norm_orders_are_a_sum_over_modes(grid16):
    """At nonzero s1, s2, b and eps the squared norm is the measure times
    the sum over (tau, xi, eta) of lambda^2 |c|^2, with lambda^2 =
    <xi>^2s1 <eta>^2s2 <tau - m>^2b <(tau - m)/(1 + |xi|^5)>^2eps and the
    columns k > 0 counted twice, over the 2/3 band: rows j = 0..5 then
    -5..-1, columns k = 0..5 on the 16^2 grid."""
    f = random_band_field(grid16, seed=5)
    slices = np.stack([semigroup_apply(f, 0.03 * i).band for i in range(4)])
    field = SpaceTimeField.from_slices(grid16, slices, 0.03)
    assert field.coeffs_tau.shape == (4, 11, 6)
    s1, s2, b, eps = -0.5, 0.3, 0.6, 0.1
    total = 0.0
    for l, c in enumerate(field.coeffs_tau):
        tau = 2 * math.pi * (l if l < 2 else l - 4) / field.duration
        for r in range(11):
            j = r if r <= 5 else r - 11
            xi = 2 * math.pi * j / grid16.lx
            for k in range(6):
                eta = 2 * math.pi * k / grid16.ly
                mod = tau - (xi**5 - eta**2 / xi if j else 0.0)
                lam2 = ((1 + xi**2) ** s1 * (1 + eta**2) ** s2 * (1 + mod**2) ** b
                        * (1 + (mod / (1 + abs(xi) ** 5)) ** 2) ** eps)
                total += (1 if k == 0 else 2) * lam2 * abs(c[r, k]) ** 2
    want = math.sqrt(grid16.lx * grid16.ly * field.duration * total)
    got = bourgain_norm(field, GevreyParams(s1=s1, s2=s2, b=b, eps=eps))
    assert got == pytest.approx(want, rel=1e-12)


def test_bourgain_norm_monotone_in_b(grid16):
    f = random_band_field(grid16, seed=3)
    w = free_window(f, 0.25, slices=16)
    field = SpaceTimeField.from_slices(grid16, w[:-1], 0.25 / 16)
    lo = bourgain_norm(field, GevreyParams(b=0.0))
    hi = bourgain_norm(field, GevreyParams(b=0.55))
    assert 0 < lo <= hi


def test_bourgain_norm_penalizes_detuning(grid16):
    """A mode oscillating off the characteristic pays the <tau - m> weight.

    Uses the pair at (1,1), whose symbol value is 0, so the window can
    temporally resolve both the free phase and the detuned one.
    """
    c = np.zeros((16, 16), dtype=complex)
    c[grid16.mode_index(1, 1)] = 1.0
    c[grid16.mode_index(-1, -1)] = 1.0
    f = SpectralField.from_coefficients(grid16, c)
    dt, n = 0.02, 16
    on = [semigroup_apply(f, dt * i) for i in range(n)]
    detune = 2 * np.pi * 6 / (n * dt)  # six tau bins off the characteristic
    off = [np.exp(1j * detune * dt * i) * s.band for i, s in enumerate(on)]
    params = GevreyParams(b=0.55)
    def norm(slices):
        stack = np.stack(slices)
        return bourgain_norm(SpaceTimeField.from_slices(grid16, stack, dt), params)

    n_on, n_off = norm([s.band for s in on]), norm(off)
    assert n_off > 2.5 * n_on


def test_bracket():
    assert bracket(0.0) == 1.0
    assert bracket(3.0) == pytest.approx(math.sqrt(10.0))
    assert np.allclose(bracket(np.array([-4.0])), math.sqrt(17.0))


def test_admissibility_gate():
    good = GevreyParams(s1=-1.0, s2=0.0, b=0.55, beta=0.45, eps=0.0)
    check_bilinear_admissible(good)
    bad = [
        replace(good, s1=-1.3),
        replace(good, s2=-0.1),
        replace(good, b=0.5),
        replace(good, beta=0.5),
        replace(good, beta=0.3),
        replace(good, eps=0.3),
    ]
    for p in bad:
        with pytest.raises(InadmissibleParamsError):
            check_bilinear_admissible(p)


def test_bilinear_trials_deterministic():
    """Equal calls give equal ratios, also with another call between them:
    the value stacks a call keeps across its trials carry nothing over."""
    params = GevreyParams(s1=-1.0, s2=0.0, b=0.55, beta=0.45, eps=0.0)
    a = bilinear_ratio_trials(params, trials=4, seed=99, nx=16, ny=16)
    other = bilinear_ratio_trials(
        params, trials=4, seed=99, nx=16, ny=16, stream=1
    )
    b = bilinear_ratio_trials(params, trials=4, seed=99, nx=16, ny=16)
    assert a.ratios == b.ratios
    assert all(r > 0 and math.isfinite(r) for r in a.ratios)
    assert a.max_ratio == max(a.ratios)
    assert other.ratios != a.ratios


def full_plane_bases(grid, rng):
    """The trial bases built on the full plane: per base, Philox noise (real
    part, then imaginary part) times the envelope exp(-(|xi| + |eta|)), its
    Hermitian part (c + conj(c[-j, -k])) / 2, cut to the 2/3 band, zero
    x-mean."""
    envelope = np.exp(-(np.abs(grid.xi[:, None]) + np.abs(grid.eta)))
    bases = []
    for _ in range(5):
        re = rng.standard_normal((grid.nx, grid.ny))
        c = (re + 1j * rng.standard_normal((grid.nx, grid.ny))) * envelope
        mirror = np.roll(c[::-1, ::-1], shift=(1, 1), axis=(0, 1))
        band = cut(grid, 0.5 * (c + np.conj(mirror)))
        band[0] = 0.0
        bases.append(band)
    return np.stack(bases)


@pytest.mark.parametrize("nx, ny", [(16, 24), (32, 32), (64, 64)])
def test_random_bases_equal_the_full_plane_construction(nx, ny):
    grid = Grid2D(nx, ny, 32 * np.pi, 32 * np.pi)
    for seed, stream in ((0, 0), (7, 1), (1234, 0), (1234, 3)):
        rngs = [np.random.Generator(np.random.Philox(key=seed).jumped(stream))
                for _ in range(2)]
        for _ in range(2):
            got, want = _random_bases(grid, rngs[0]), full_plane_bases(grid, rngs[1])
            assert got.shape == (5, 2 * (nx // 3) + 1, ny // 3 + 1)
            assert np.array_equal(got, want)
        # the same draws, so the streams stay in step
        assert rngs[0].standard_normal() == rngs[1].standard_normal()


def test_random_bases_leave_the_stream_where_five_draws_do():
    grid = Grid2D(16, 24, 32 * np.pi, 32 * np.pi)
    rngs = [np.random.Generator(np.random.Philox(key=3)) for _ in range(2)]
    _random_bases(grid, rngs[0])
    for _ in range(5):
        rngs[1].standard_normal((2, 16, 24))
    assert rngs[0].standard_normal() == rngs[1].standard_normal()


@pytest.mark.parametrize("stack", [
    _HARMONICS.T,  # real, 2-D and read-only
    # complex and 3-D: pairs of normals read as real and imaginary parts
    np.random.default_rng(4).standard_normal((8, 6, 4, 2)).view(np.complex128)[..., 0],
])
def test_tapered_dft_is_the_transposed_taper_transform(stack):
    """The taper applied to one complex copy, transformed in place, gives the
    bits of the taper on the transposed stack and a fresh transform, and
    leaves the stack as it was."""
    before = stack.copy()
    psi = window_taper(len(stack), 0.125)
    want = np.fft.fft((psi * stack.T).T, axis=0, norm="forward")
    got = _tapered_dft(stack, 0.125)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(stack, before)


@pytest.mark.parametrize("nx, ny", [(16, 24), (64, 64)])
def test_basis_window_matches_the_assembled_slices(nx, ny):
    """Per-base physical values and space-time coefficients agree with the
    transforms of the assembled window, slice by slice."""
    grid = Grid2D(nx, ny, 32 * np.pi, 32 * np.pi)
    slice_dt = 1.0 / BILINEAR_SLICES
    bases = _random_bases(grid, np.random.Generator(np.random.Philox(key=5)))
    spectra = _tapered_dft(_HARMONICS.T, slice_dt)
    values = np.full((BILINEAR_SLICES, nx, ny), np.nan)
    field = _basis_window(grid, bases, spectra, slice_dt, values)
    u = np.tensordot(_HARMONICS, bases, axes=(0, 0))
    assert u.shape == (BILINEAR_SLICES, 2 * (nx // 3) + 1, ny // 3 + 1)
    for got, want in (
        (values, physical_values(grid, u)),
        (field.coeffs_tau, SpaceTimeField.from_slices(grid, u, slice_dt).coeffs_tau),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_bilinear_trials_reproduce_the_full_plane_reference():
    """The bilinear-64 benchmark configuration reproduces the maximum and
    q95 of the slice-by-slice trials on full-plane bases."""
    params = GevreyParams(s1=-1.0, s2=0.0, b=0.55, beta=0.45, eps=0.0)
    result = bilinear_ratio_trials(params, trials=64, seed=0, nx=64, ny=64)
    assert result.max_ratio == pytest.approx(0.00022354187290446077, rel=1e-12)
    assert result.q95 == pytest.approx(0.00022141900554283495, rel=1e-12)


def half_plane_bourgain_norm(grid, stack, slice_dt, params):
    """``bourgain_norm`` of a stack of half planes written out: the tapered
    time DFT, lambda^2 on the whole half plane with the columns 0 < k < ny/2
    counted twice, and one sum."""
    n_t = len(stack)
    psi = window_taper(n_t, slice_dt)[:, None, None]
    c = np.fft.fft(psi * stack, axis=0) / n_t
    tau = 2 * np.pi * np.fft.fftfreq(n_t, d=slice_dt)[:, None, None]
    xi, eta = grid.xi[:, None], grid.eta[None, : grid.ny // 2 + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(xi == 0, 0.0, xi**5 - eta**2 / xi)
    mod = tau - m
    lam2 = ((1 + xi**2) ** params.s1 * (1 + eta**2) ** params.s2 * (1 + mod**2) ** params.b
            * (1 + (mod / (1 + np.abs(xi) ** 5)) ** 2) ** params.eps)
    multiplicity = np.full(grid.ny // 2 + 1, 2.0)
    multiplicity[[0, -1]] = 1.0
    total = np.sum(multiplicity * lam2 * np.abs(c) ** 2)
    return math.sqrt(grid.measure * n_t * slice_dt * total)


def half_plane_trials(params, trials, seed, nx, ny):
    """The bilinear trials on half planes from the same draws: each window
    is the harmonic sum of its five bases, assembled slice by slice; the
    product is ``rfft2`` of u v zeroed off the 2/3 band, differentiated in
    x."""
    grid = Grid2D(nx, ny, 32 * np.pi, 32 * np.pi)
    rng = np.random.Generator(np.random.Philox(key=seed))
    slice_dt = 1.0 / BILINEAR_SLICES
    out = replace(params, b=-params.beta)
    ratios = []
    for _ in range(trials):
        halves = [np.tensordot(_HARMONICS, half_plane(grid, _random_bases(grid, rng)),
                               axes=(0, 0)) for _ in range(2)]
        (u, v) = (np.fft.irfft2(h, s=(nx, ny), norm="forward") for h in halves)
        prod = half_plane(grid, cut(grid, np.fft.rfft2(u * v, norm="forward")))
        prod *= 1j * grid.xi[:, None]
        du, dv = (half_plane_bourgain_norm(grid, h, slice_dt, params) for h in halves)
        ratios.append(half_plane_bourgain_norm(grid, prod, slice_dt, out) / (du * dv))
    return sorted(ratios)


@pytest.mark.parametrize("n", [16, 32])
def test_bilinear_trials_match_the_half_plane_oracle(n):
    """The band trials give the ratios of the half-plane trials built from
    the same draws, at orders where every factor of the weight counts."""
    params = GevreyParams(s1=-0.5, s2=0.3, b=0.6, beta=0.48, eps=0.1)
    got = bilinear_ratio_trials(params, 6, seed=21, nx=n, ny=n).ratios
    want = half_plane_trials(params, 6, 21, n, n)
    assert np.max(np.abs(np.subtract(got, want)) / np.abs(want)) <= 1e-14


def test_almost_conservation_scaling():
    cfg = small_cfg(initial=InitialConfig(kind="gaussian", amplitude=0.4, width=2.0))
    res = almost_conservation_run(cfg)
    assert res.sigmas == cfg.gevrey.ladder
    mags = [abs(d) for s, d in zip(res.sigmas, res.increments) if s > 0]
    assert all(m > 0 for m in mags)
    assert mags == sorted(mags)  # larger weight, larger defect
    assert 0.5 <= res.slope <= 1.5
    assert res.fit_failures == 0


def ladder_by_grid_steps(cfg):
    """The almost-conservation increments written out: every grid step of
    the window delta = c0 / (1 + ||f||_{G^max sigma})^exponent, keeping
    for each rate the signed deviation of largest magnitude (the first of
    equal ones)."""
    grid = cfg.make_grid()
    u = initial_field(cfg, grid)
    sigmas = cfg.gevrey.ladder
    delta = cfg.delta.c0 / (1.0 + gevrey_norm(u, max(sigmas), 0.0)) ** (
        cfg.delta.exponent
    )
    grid_dt, n = resolve_dt(cfg, grid, delta)
    init = [gevrey_norm(u, s, 0.0) ** 2 for s in sigmas]
    dev = [0.0] * len(sigmas)
    for _ in range(n):
        u = step(u, grid_dt)
        for i, s in enumerate(sigmas):
            d = gevrey_norm(u, s, 0.0) ** 2 - init[i]
            if abs(d) > abs(dev[i]):
                dev[i] = d
    return tuple(dev), grid_dt, n


def gap_by_grid_steps(cfg, eps):
    """The uniqueness samples written out: data and perturbation each step
    alone on every grid step of the horizon, and the envelope integral is
    the trapezoid rule over those steps."""
    grid = cfg.make_grid()
    u = initial_field(cfg, grid)
    bump = band_field(grid, gaussian(grid, 1.0, 2.0))
    v = SpectralField(grid, u.band + eps * (bump.band / gevrey_norm(bump, 0.0, 0.0)))
    grid_dt, n = resolve_dt(cfg, grid, cfg.time.horizon)

    def dx_sup(w):
        return float(np.max(np.abs(physical_values(grid, 1j * grid.xi_col * w.band))))

    def gap(a, b):
        return float(half_plane_norms(grid, a.band - b.band, 0.0, 0.0))

    gap0, integral, prev = gap(u, v), 0.0, dx_sup(u) + dx_sup(v)
    samples = [(0.0, gap0, gap0)]
    for k in range(1, n + 1):
        u, v = step(u, grid_dt), step(v, grid_dt)
        cur = dx_sup(u) + dx_sup(v)
        integral += 0.5 * grid_dt * (prev + cur)
        prev = cur
        samples.append((k * grid_dt, gap(u, v), gap0 * math.exp(0.25 * integral)))
    return samples, grid_dt


def test_ladder_and_gap_equal_their_grid_step_loops():
    cfg = small_cfg(initial=InitialConfig(kind="gaussian", amplitude=0.4, width=2.0))
    want, grid_dt, n = ladder_by_grid_steps(cfg)
    ladder = almost_conservation_run(cfg)
    assert ladder.increments == want and all(d != 0.0 for d in want)
    # one record per grid point of the window, the last holding the result
    assert (ladder.run.steps, ladder.run.dt, ladder.run.grid_dt) == (n, grid_dt, grid_dt)
    assert len(ladder.run.records) == n + 1 and ladder.run.records[0] == (0.0,) * 4

    want, grid_dt = gap_by_grid_steps(cfg, 1e-6)
    gap = uniqueness_gap(cfg, 1e-6)
    assert [(s.t, s.gap, s.bound) for s in gap.samples] == want
    assert (gap.run.steps, gap.run.dt, gap.run.grid_dt) == (len(want) - 1, grid_dt, grid_dt)
    assert gap.max_ratio == max(g / b for _, g, b in want[1:])


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_uniqueness_gap_refuses_eps_not_positive(eps):
    with pytest.raises(ValueError, match="eps"):
        uniqueness_gap(small_cfg(), eps)


def test_uniqueness_gap_without_a_later_sample_fails():
    """At horizon 0 the only sample is the t = 0 one, whose ratio is 1 by
    construction: there is no ratio to bound, so max_ratio is nan and the
    check fails."""
    cfg = small_cfg(grid=GridConfig(nx=16, ny=16), time=TimeConfig(horizon=0.0))
    res = uniqueness_gap(cfg, 1e-6)
    assert [s.t for s in res.samples] == [0.0]
    assert math.isnan(res.max_ratio) and not gronwall_check(res).passed


def test_uniqueness_gap_bound():
    cfg = small_cfg()
    eps = 1e-6
    res = uniqueness_gap(cfg, eps)
    assert res.samples[0].gap == pytest.approx(eps, rel=1e-9)
    assert res.samples[0].bound == pytest.approx(res.samples[0].gap, rel=1e-12)
    assert gronwall_check(res).passed
    assert res.max_ratio <= 1.1
    # reported over t > 0: the t = 0 ratio is 1 by construction
    assert res.max_ratio == max(s.gap / s.bound for s in res.samples[1:]) < 1.0
    assert res.samples[-1].t == pytest.approx(cfg.time.horizon)


def test_energy_identity_orders():
    cfg = small_cfg(gevrey=GevreyConfig(sigma1=0.3, sigma2=0.0))
    res = energy_identity_check(cfg)
    assert res.rows[0].rel_err <= 1e-3
    assert all(o >= 2.5 for o in res.orders)
    dts = [row.dt for row in res.rows]
    assert dts == sorted(dts, reverse=True)


def test_energy_identity_orders_on_zero_data_are_nan():
    """Zero data have zero errors at every dt, which fix no order."""
    cfg = small_cfg(initial=InitialConfig(kind="gaussian", amplitude=0.0, width=2.0),
                    gevrey=GevreyConfig(sigma1=0.3, sigma2=0.0))
    res = energy_identity_check(cfg)
    assert [row.rel_err for row in res.rows] == [0.0, 0.0, 0.0]
    assert len(res.orders) == 2 and all(math.isnan(o) for o in res.orders)


def test_log2_ratio_is_nan_unless_both_errors_are_positive():
    assert _log2_ratio(8.0, 0.5) == 4.0
    for a, b in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-1.0, 2.0), (math.nan, 1.0)):
        assert math.isnan(_log2_ratio(a, b))


def test_radius_decay_run_short():
    cfg = SimConfig(
        grid=GridConfig(nx=64, ny=64),
        time=TimeConfig(horizon=0.5),
        initial=InitialConfig(
            kind="exp_spectrum", amplitude=0.5, decay_x=1.0, decay_y=1.0,
            phases="random",
        ),
        gevrey=GevreyConfig(sigma1=1.0, sigma2=0.0),
        seed=11,
    )
    res = radius_decay_run(cfg)
    assert res.sigma0 == pytest.approx(1.0, abs=1e-6)
    assert res.collapse_time is None
    # sample times snap to integrator steps, so spacing jitters by one dt
    spacing = np.diff([s.t for s in res.samples])
    assert np.all(np.abs(spacing - res.delta) < 0.5 * res.delta)
    assert np.mean(spacing) == pytest.approx(res.delta, rel=0.05)
    assert all(s.sigma_est > 0.9 for s in res.samples)


def test_radius_decay_window_below_the_grid_step_samples_to_the_horizon():
    # delta 0.00135 against grid_dt 0.002226: every grid point is a sample,
    # the last one at the horizon, although span - 37 * delta > grid_dt / 2
    cfg = SimConfig(
        grid=GridConfig(nx=64, ny=64),
        time=TimeConfig(horizon=0.0512),
        initial=InitialConfig(kind="gaussian", amplitude=6.0, width=2.0),
        gevrey=GevreyConfig(sigma1=0.25),
    )
    res = radius_decay_run(cfg)
    grid_dt, n = resolve_dt(cfg, cfg.make_grid(), 0.0512)
    assert res.delta < grid_dt and res.run.dt_source == "grid"
    assert [s.t for s in res.samples] == [b * grid_dt for b in range(n + 1)]
    assert (n, res.samples[-1].t, res.run.steps) == (23, 0.0512, 23)


def test_failed_fit_is_nan_not_collapse(monkeypatch, grid16):
    import kp5.diagnostics

    # a Gaussian on 16^2 leaves too few shells to fit
    field = band_field(grid16, gaussian(grid16, 1.0, 2.0))
    rec = _record(small_cfg(), 0.0, 0, field, gevrey_norm(field, 0.0, 0.0))
    assert math.isnan(rec.sigma_est) and math.isnan(rec.residual)

    fit = kp5.diagnostics.radius_estimate
    calls = []

    def fail_second(field):
        calls.append(1)
        if len(calls) == 2:
            return math.nan, math.nan  # a planted failure
        return fit(field)

    monkeypatch.setattr(kp5.diagnostics, "radius_estimate", fail_second)
    cfg = SimConfig(
        grid=GridConfig(nx=64, ny=64),
        time=TimeConfig(horizon=0.2),
        initial=InitialConfig(
            kind="exp_spectrum", amplitude=0.5, decay_x=1.0, decay_y=1.0,
            phases="random",
        ),
        gevrey=GevreyConfig(sigma1=1.0, sigma2=0.0),
        seed=11,
    )
    res = radius_decay_run(cfg)
    assert len(res.samples) >= 3
    assert [math.isnan(s.sigma_est) for s in res.samples].count(True) == 1
    assert math.isnan(res.samples[1].sigma_est)
    assert res.fit_failures == 1
    assert res.collapse_time is None


def test_collapse_time_is_the_first_zero_fit(monkeypatch):
    """A fit clamped at 0 from the third sample on is a collapse at that
    sample's time, not at any later one."""
    import kp5.diagnostics

    fit = kp5.diagnostics.radius_estimate
    calls = []

    def zero_from_third(field):
        calls.append(1)
        return (0.0, 0.0) if len(calls) >= 3 else fit(field)

    monkeypatch.setattr(kp5.diagnostics, "radius_estimate", zero_from_third)
    res = radius_decay_run(small_cfg())
    assert len(res.samples) >= 4 and res.samples[2].t > 0.0
    assert [s.sigma_est == 0.0 for s in res.samples[:3]] == [False, False, True]
    assert res.collapse_time == res.samples[2].t


def spectrum_cfg(n, horizon, **kw):
    return SimConfig(
        grid=GridConfig(nx=n, ny=n),
        time=TimeConfig(horizon=horizon),
        initial=InitialConfig(
            kind="exp_spectrum", amplitude=0.5, decay_x=1.0, decay_y=1.0,
            phases="random",
        ),
        gevrey=GevreyConfig(**kw),
        seed=11,
    )


def test_half_plane_record_matches_full_plane_diagnostics():
    cfg = spectrum_cfg(64, 0.1, sigma1=0.5, sigma2=0.1)
    grid = cfg.make_grid()
    dt = cfl_dt(grid, 1.0)
    field = initial_field(cfg, grid)
    for _ in range(3):
        field = step(field, dt)
    rec = _record(cfg, 3 * dt, 3, field, gevrey_norm(field, 0.0, 0.0))
    c2 = np.abs(full_plane(grid, field.band)) ** 2

    def rel(got, want):
        return abs(got - want) / abs(want)

    def full_plane_norm(sigma1):
        weight = np.exp(2 * sigma1 * np.abs(grid.xi[:, None]))
        return math.sqrt(grid.measure * np.sum(weight * c2))

    assert rec.steps == 3 and rec.t == 3 * dt
    assert rel(rec.l2, full_plane_norm(0.0)) <= 1e-13
    assert len(rec.gevrey) == len(cfg.gevrey.ladder)
    for s, got in zip(cfg.gevrey.ladder, rec.gevrey):
        assert rel(got, full_plane_norm(s)) <= 1e-13
    rem = remainder_n(field, 0.5, 0.1)
    assert rel(rec.remainder_l2, gevrey_norm(rem, 0.0, 0.0)) <= 1e-13
    assert (rec.sigma_est, rec.residual) == radius_estimate(field)
    flat = replace(cfg, gevrey=replace(cfg.gevrey, sigma1=0.0, sigma2=0.0))
    zero = _record(flat, 3 * dt, 3, field, rec.l2)
    assert zero.remainder_l2 == 0.0
    assert (zero.l2, zero.gevrey) == (rec.l2, rec.gevrey)


def test_radius_decay_samples_match_record_path():
    # 64^2: at 32^2 the default band holds fewer than 8 shells and every
    # fit is nan
    cfg = spectrum_cfg(64, 0.3, sigma1=1.0, sigma2=0.0)
    res = radius_decay_run(cfg)
    assert len(res.samples) >= 3 and res.fit_failures == 0
    # the contraction-window times radius_decay_run samples at, through
    # the sample loop and record function of simulate
    times = np.arange(len(res.samples)) * res.delta
    f = initial_field(cfg)
    records = _sampled_run(cfg, f, res.delta, times, (), partial(_record, cfg)).records
    assert [r.t for r in records] == [s.t for s in res.samples]
    assert [(r.sigma_est, r.residual) for r in records] == [
        (s.sigma_est, s.residual) for s in res.samples
    ]
    grid_dt, idx, steps, dt_max = window_rule(cfg, times)
    run = res.run
    assert (run.grid_dt, run.steps) == (grid_dt, steps)
    assert run.dt == pytest.approx(dt_max, rel=1e-15)
    assert [s.t for s in res.samples] == [b * grid_dt for b in idx]
    assert run.steps < idx[-1] and run.dt_source == "window"
    assert set(run.phase_s) == {"stepping", "records"}
