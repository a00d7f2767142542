"""Measurement and verification experiments built on the integrator.

Contents: radius-of-analyticity fits from spectral tails, tapered
space-time (Bourgain-type) norms with the bilinear-estimate experiment,
almost-conservation ladders, long-horizon radius decay, a Gronwall
uniqueness envelope, and the weighted energy identity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import DEFAULT_LENGTH, InitialConfig, SimConfig
from .errors import InadmissibleParamsError
from .initial_data import make_initial_field
from .integrator import (
    SimulationOutput,
    _sampled_run,
    cfl_dt,
    initial_field,
    resolve_dt,
    step,
)
from .operators import (
    _weighted_norm,
    apply_gevrey,
    dispersion_symbol,
    gevrey_norm,
    half_plane_norms,
    l2_inner,
    ladder_norms,
    remainder_n,
)
from .picard import data_window
from .spectral import (
    Grid2D,
    SpectralField,
    _frozen,
    dealiased_coefficients,
    physical_values,
)

SPECTRAL_FLOOR = 1e-14  # shells below this fraction of the peak are noise
GRONWALL_ENVELOPE = 1.1  # A9 bounds the worst gap/bound over t > 0 by this
BILINEAR_SLICES = 16  # time slices of each bilinear trial window
_PHASE = 2.0 * np.pi * np.arange(BILINEAR_SLICES) / BILINEAR_SLICES
# the five slow time harmonics of a bilinear trial window, one row each
_HARMONICS = _frozen(np.stack([np.ones(BILINEAR_SLICES), np.cos(_PHASE),
                               np.sin(_PHASE), np.cos(2 * _PHASE), np.sin(2 * _PHASE)]))


# --- radius of analyticity from the spectral tail ---------------------------


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of y against x, in closed form."""
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    slope = float(dx @ (y - ym) / (dx @ dx))
    return slope, float(ym - slope * xm)


def _log2_ratio(a: float, b: float) -> float:
    """log2(a / b) for positive errors a and b, else nan."""
    return math.log2(a / b) if a > 0 and b > 0 else math.nan


def radius_estimate(field: SpectralField) -> tuple[float, float]:
    """Fit exp(-sigma |xi|) to the positive-xi spectral envelope: the decay
    rate sigma_est, clamped at 0, and the rms misfit of the log-linear model.

    The envelope of shell j is max_k |c[j, k]| over the full plane, read
    off the band: full-plane row j holds band row j and, conjugated, the
    columns k > 0 of row -j, so the envelope is the larger of their maxima.
    The fit band is [0.25, 0.75] of the dealiased cutoff; shells below the
    relative floor are dropped.  An empty spectrum or fewer than 8
    surviving shells gives (nan, nan): no fit is not a collapse, a genuine
    0.0 comes only from the clamp.
    """
    g = field.grid
    lo, hi = 0.25 * g.xi_dealias, 0.75 * g.xi_dealias
    n = g.nx // 3 + 1
    mag = np.abs(field.band)
    envelope = np.maximum(mag[1:n].max(axis=1), mag[: n - 1 : -1, 1:].max(axis=1))
    peak = float(mag.max())
    freqs = g.xi[1:n]
    keep = (freqs >= lo) & (freqs <= hi) & (envelope > SPECTRAL_FLOOR * peak)
    if np.count_nonzero(keep) < 8:  # an empty spectrum keeps no shell
        return math.nan, math.nan
    x = freqs[keep]
    y = np.log(envelope[keep])
    slope, intercept = _line_fit(x, y)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return max(0.0, -slope), resid


# --- tapered space-time fields and Bourgain-type norms ----------------------


def bracket(x):
    """Smoothed absolute value <x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + np.square(x))


@dataclass(frozen=True)
class GevreyParams:
    """Orders of ``bourgain_norm``: Sobolev orders s1/s2, modulation order b
    (<tau - m>^b), reduced modulation order beta of bilinear outputs and
    auxiliary order eps.  No exponential weight: it is submultiplicative, so
    the Gevrey bilinear estimate follows from the one at sigma = 0."""

    s1: float = 0.0
    s2: float = 0.0
    b: float = 0.55
    beta: float = 0.45
    eps: float = 0.0


def window_taper(n_t: int, slice_dt: float) -> np.ndarray:
    """C^2 polynomial bump (1 - s^2)^3 on the window, discrete mass 1."""
    duration = n_t * slice_dt
    t = slice_dt * np.arange(n_t)
    s = (t - 0.5 * duration) / (0.5 * duration)
    raw = np.clip(1.0 - s**2, 0.0, None) ** 3
    return raw / (raw.sum() * slice_dt)


def _tapered_dft(stack: np.ndarray, slice_dt: float) -> np.ndarray:
    """fft(psi * stack) / n_t along axis 0, psi the ``window_taper`` of call time."""
    psi = window_taper(len(stack), slice_dt).reshape((-1,) + (1,) * (stack.ndim - 1))
    out = np.multiply(psi, stack, dtype=np.complex128)  # the one tapered copy
    return np.fft.fft(out, axis=0, norm="forward", out=out)


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Time-DFT of a tapered stack of field slices on the 2/3 band.

    coeffs_tau[l, j, k] are coefficients against exp(i*(tau_l t + xi x +
    eta y)) with tau_l = 2 pi l / duration, on the 2/3 band of a
    ``SpectralField`` (the field is real, so the rest follow by
    conjugate reflection in (tau, xi, eta) and norms count columns k > 0
    twice); norms carry the measure lx * ly * duration.  The slice count
    must be a power of two.  The field takes the coefficient array over
    and makes it read-only.
    """

    grid: Grid2D
    slice_dt: float
    coeffs_tau: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs_tau, dtype=np.complex128)
        n_t = c.shape[0]
        if n_t < 4 or n_t & (n_t - 1):
            raise ValueError("slice count must be a power of two, at least 4")
        object.__setattr__(self, "coeffs_tau", _frozen(c))

    @property
    def n_t(self) -> int:
        return self.coeffs_tau.shape[0]

    @property
    def duration(self) -> float:
        return self.n_t * self.slice_dt

    @classmethod
    def from_slices(
        cls, grid: Grid2D, slices: np.ndarray, slice_dt: float
    ) -> "SpaceTimeField":
        """Tapered time transform of an (n_t, *grid.band_shape) stack of 2/3
        bands sampled every ``slice_dt``, such as a Picard window."""
        slices = np.asarray(slices)
        if slices.shape[1:] != grid.band_shape:
            raise ValueError(f"slices of shape {slices.shape[1:]} are not 2/3 bands "
                             f"{grid.band_shape} of the grid")
        return cls(grid, slice_dt, _tapered_dft(slices, slice_dt))


@lru_cache(maxsize=8)
def _xtsb_weight(
    grid: Grid2D, n_t: int, slice_dt: float, params: GevreyParams
) -> np.ndarray:
    """The square root of the ``bourgain_norm`` weight lambda^2 times the
    column multiplicity, on the 2/3 band: the table that turns
    |coefficient| into an amplitude."""
    tau = 2.0 * np.pi * np.fft.fftfreq(n_t, d=slice_dt)
    m = dispersion_symbol(grid)
    xi = grid.xi_col
    multiplicity = grid.half_multiplicity[None, :]
    mod = tau[:, None, None] - m[None, :, :]
    w = bracket(mod) ** (2.0 * params.b) * multiplicity
    if params.eps != 0.0:
        w = w * bracket(mod / (1.0 + np.abs(xi) ** 5)) ** (2.0 * params.eps)
    if params.s1 != 0.0:
        w = w * bracket(xi)[None, :, :] ** (2.0 * params.s1)
    if params.s2 != 0.0:
        w = w * bracket(grid.eta_row)[None, :, :] ** (2.0 * params.s2)
    w = np.sqrt(w)
    return _frozen(np.ascontiguousarray(np.broadcast_to(w, (n_t,) + m.shape)))


def bourgain_norm(field: SpaceTimeField, params: GevreyParams) -> float:
    """Weighted space-time L2 with dispersive modulation weights.

    lambda^2 = <xi>^2s1 <eta>^2s2 <tau - m>^2b <(tau - m)/(1+|xi|^5)>^2eps.
    At all-zero parameters this is the plain space-time L2 norm of the
    tapered window.
    """
    g = field.grid
    w = _xtsb_weight(g, field.n_t, field.slice_dt, params)
    amp = np.abs(field.coeffs_tau)
    return float(_weighted_norm(amp, w, g.measure * field.duration, axes=3))


# --- bilinear estimate experiment -------------------------------------------


def check_bilinear_admissible(params: GevreyParams) -> None:
    """Validate (s1, s2, b, beta, eps) against the admissible region.

    s = max(0, -s1) below 5/4; eps within [0, min(2/5 (5/4 - s), 3/20)];
    beta in [max(9/20, 1/2 - (5/4 - s)/2 + eps), 1/2); b > 1/2.
    """
    s = max(0.0, -params.s1)
    if not params.s1 > -1.25:
        raise InadmissibleParamsError("s1", f"must exceed -5/4, got {params.s1}")
    if params.s2 < 0:
        raise InadmissibleParamsError("s2", f"must be >= 0, got {params.s2}")
    if not params.b > 0.5:
        raise InadmissibleParamsError("b", f"must exceed 1/2, got {params.b}")
    eps_max = min(0.4 * (1.25 - s), 0.15)
    if not 0.0 <= params.eps <= eps_max:
        raise InadmissibleParamsError(
            "eps", f"must lie in [0, {eps_max:g}] at s1={params.s1}, got {params.eps}"
        )
    beta_lo = max(0.45, 0.5 - 0.5 * (1.25 - s) + params.eps)
    if not beta_lo <= params.beta < 0.5:
        raise InadmissibleParamsError(
            "beta", f"must lie in [{beta_lo:g}, 0.5) at s1={params.s1}, "
            f"eps={params.eps}; got {params.beta}"
        )


@lru_cache(maxsize=8)
def _band_tables(grid: Grid2D) -> tuple:
    """Flat positions in the full plane of the 2/3 band's modes off row
    j = 0, in band order (rows j = 1..nx//3 then -(nx//3)..-1, columns
    k = 0..ny//3), and of their mirror (-j, -k), and the trial envelope on
    them, which is also the one on the mirror: |xi_-j| = |xi_j| and
    |eta_-k| = |eta_k| exactly."""
    rows = grid.band_j[1:] % grid.nx
    cols = np.arange(grid.band_shape[1])
    at = (rows[:, None] * grid.ny + cols).ravel()
    mirror = ((-rows % grid.nx)[:, None] * grid.ny + -cols % grid.ny).ravel()
    envelope = np.exp(-(np.abs(grid.xi[:, None]) + np.abs(grid.eta))).ravel()
    return at, mirror, _frozen(envelope[at])


def _random_bases(grid: Grid2D, rng: np.random.Generator) -> np.ndarray:
    """The 2/3 bands (5, *grid.band_shape) of five random real fields:
    each draws full-plane noise c (real, then imaginary part) times
    exp(-(|xi| + |eta|)) and keeps its Hermitian part (c[j, k] +
    conj(c[-j, -k])) / 2 off the x-mean row.  One draw fills the noise of
    all five in the order of five draws."""
    at, mirror, envelope = _band_tables(grid)
    noise = rng.standard_normal((5, 2, grid.nx * grid.ny))
    band, flip = noise[..., at], noise[..., mirror]
    c = (band[:, 0] + 1j * band[:, 1]) * envelope
    c += np.conj((flip[:, 0] + 1j * flip[:, 1]) * envelope)
    c *= 0.5
    bases = np.zeros((5, *grid.band_shape), dtype=np.complex128)
    bases[:, 1:] = c.reshape(5, -1, grid.band_shape[1])  # the x-mean row stays 0
    return bases


def _basis_window(grid: Grid2D, bases, spectra, slice_dt: float, values: np.ndarray):
    """``SpaceTimeField`` of the window sum_b _HARMONICS[b] bases[b], per
    base, with its physical values written into the contiguous (n_t, nx,
    ny) array ``values``; ``spectra`` is ``_tapered_dft(_HARMONICS.T)``."""
    phys = physical_values(grid, bases).reshape(len(bases), -1)
    np.matmul(_HARMONICS.T, phys, out=values.reshape(len(values), -1))
    return SpaceTimeField(grid, slice_dt, np.tensordot(spectra, bases, 1))


@dataclass(frozen=True)
class BilinearResult:
    ratios: tuple[float, ...]
    max_ratio: float
    q95: float


def bilinear_ratio_trials(
    params: GevreyParams,
    trials: int,
    seed: int,
    *,
    nx: int,
    ny: int,
    stream: int = 0,
) -> BilinearResult:
    """Monte Carlo sup of the bilinear-output-to-input norm ratio,

        || dx(u v) ||_{X^{s1,s2,-beta,eps}} /
            (||u||_{X^{s1,s2,b,eps}} ||v||_{X^{s1,s2,b,eps}}),

    over random tapered windows of unit duration, BILINEAR_SLICES slices of
    five bases times five time harmonics, transformed per base on the 2/3
    band, on the 32 pi torus (``DEFAULT_LENGTH``).  Boundedness of the
    maximum under grid refinement is the finite-dimensional shadow of the
    continuum estimate.
    """
    check_bilinear_admissible(params)
    grid = Grid2D(nx, ny, DEFAULT_LENGTH, DEFAULT_LENGTH)
    slice_dt = 1.0 / BILINEAR_SLICES
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(stream))
    out_params = replace(params, b=-params.beta)
    spectra = _tapered_dft(_HARMONICS.T, slice_dt)
    kick = 1j * grid.xi_col
    # the physical values of u and v, kept across trials: allocated per trial,
    # they let the heap shrink and fault its pages in again
    values = np.empty((2, BILINEAR_SLICES, nx, ny))

    def norm(out: np.ndarray) -> float:
        field = _basis_window(grid, _random_bases(grid, rng), spectra, slice_dt, out)
        return bourgain_norm(field, params)

    def ratio() -> float:
        du, dv = norm(values[0]), norm(values[1])
        values[0] *= values[1]  # the product u v
        # dx of the dealiased product, through the square kernel's transform pair
        prod = dealiased_coefficients(grid, values[0])
        prod *= kick
        nu = bourgain_norm(SpaceTimeField.from_slices(grid, prod, slice_dt), out_params)
        return nu / (du * dv)

    arr = np.sort([ratio() for _ in range(trials)])
    return BilinearResult(
        ratios=tuple(arr.tolist()),
        max_ratio=float(arr[-1]),
        q95=float(arr[min(len(arr) - 1, int(0.95 * len(arr)))]),
    )


# --- almost conservation over one contraction window ------------------------


@dataclass(frozen=True)
class AlmostConservationResult:
    sigmas: tuple[float, ...]
    increments: tuple[float, ...]  # D(sigma): extremal signed energy deviation
    slope: float  # d log|D| / d log sigma over the positive-sigma entries
    delta: float
    fit_failures: int  # positive rates left out of the slope fit as D == 0
    run: SimulationOutput  # each record: the increments up to its time


def increment_fit(sigmas, increments) -> tuple[float, int]:
    """The slope of log|D| against log sigma over the positive rates with
    D != 0 (nan with fewer than two), and the count of those with D == 0."""
    positive = [(s, abs(d)) for s, d in zip(sigmas, increments) if s > 0]
    usable = [(s, d) for s, d in positive if d != 0]
    if len(usable) >= 2:
        xs = np.log([s for s, _ in usable])
        ys = np.log([d for _, d in usable])
        slope = _line_fit(xs, ys)[0]
    else:
        slope = float("nan")
    return slope, len(positive) - len(usable)


def almost_conservation_run(cfg: SimConfig) -> AlmostConservationResult:
    """Measure the weighted-energy deviation D(sigma) on one window, for
    each rate sigma of the configured ladder.

    D(sigma) is the signed deviation ||u(t)||^2 - ||f||^2 of largest
    magnitude over the window (the flux can carry either sign, so the
    one-sided sup would read 0 on data whose weighted energy decreases).
    The window length delta is set once, from the data norm at the largest
    sigma, so deviations are comparable across the ladder; D(0) is the L2
    drift and sits at integrator-roundoff scale.  ``_sampled_run`` samples
    every grid point of a horizon delta, each record holding the increments
    so far; the slope and ``fit_failures`` are ``increment_fit``'s.  Data
    that leave no contraction window raise ``BlowUpError``.
    """
    f = initial_field(cfg)
    sigmas = tuple(cfg.gevrey.ladder)
    delta = data_window(cfg, f, max(sigmas))
    init = [n**2 for n in ladder_norms(f, sigmas)]
    dev = [0.0] * len(sigmas)

    def record(t, steps, u, l2):
        for i, n in enumerate(ladder_norms(u, sigmas)):
            dev[i] = max(dev[i], n**2 - init[i], key=abs)  # a tie keeps dev[i]
        return tuple(dev)

    window = replace(cfg, time=replace(cfg.time, horizon=delta))
    run = _sampled_run(window, f, delta, None, (), record)
    increments = run.records[-1]
    slope, failures = increment_fit(sigmas, increments)
    return AlmostConservationResult(sigmas, increments, slope, delta, failures, run)


# --- long-horizon radius decay ----------------------------------------------


@dataclass(frozen=True)
class RadiusSample:
    t: float
    sigma_est: float
    residual: float


@dataclass(frozen=True)
class RadiusDecayResult:
    samples: tuple[RadiusSample, ...]
    delta: float
    sigma0: float  # fit at t = 0
    tail_p: float  # decay exponent of sigma_est ~ A t^-p on the tail
    tail_amp: float
    c_emp: float  # min over tail samples of t * sigma_est
    collapse_time: float | None  # first sample where the fit hit zero
    fit_failures: int  # samples whose fit found too few shells (sigma_est nan)
    run: SimulationOutput  # its records are the samples


def radius_decay_run(cfg: SimConfig) -> RadiusDecayResult:
    """Track the fitted radius at contraction-window spacing out to the
    horizon, then fit a power law on the tail (t past a tenth of the
    horizon).  The samples come from the sample loop of ``simulate``
    (``integrator._sampled_run``), so their times snap to the same
    sampling grid and the steps between them follow the same
    ``step_plan``; a window shorter than the grid step samples every grid
    point through the horizon.  A sample whose fit fails carries
    sigma_est = nan and counts in ``fit_failures``; only a fit clamped at 0
    counts as a collapse.  Each sample computes the radius fit and nothing
    else.  Data that leave no contraction window raise ``BlowUpError``."""
    f = initial_field(cfg)
    delta = data_window(cfg, f, cfg.gevrey.sigma1)
    span = cfg.time.horizon
    grid_dt, _ = resolve_dt(cfg, f.grid, span)
    # times under one grid step apart snap to every grid point, which None
    # asks for: span / delta times would be a huge count
    times = None
    if delta >= grid_dt:
        times = np.arange(int(np.floor(span / delta)) + 1) * delta
    run = _sampled_run(
        cfg, f, delta, times, (),
        lambda t, steps, field, l2: RadiusSample(t, *radius_estimate(field)),
    )
    samples = tuple(run.records)
    sigma0 = samples[0].sigma_est
    collapse = next((s.t for s in samples if s.sigma_est == 0.0), None)
    failures = sum(1 for s in samples if math.isnan(s.sigma_est))
    tail = [s for s in samples if s.t >= span / 10.0 and s.sigma_est > 0.0]
    if len(tail) >= 2:
        xs = np.log([s.t for s in tail])
        ys = np.log([s.sigma_est for s in tail])
        slope, intercept = _line_fit(xs, ys)
        tail_p, tail_amp = -slope, math.exp(intercept)
        c_emp = float(min(s.t * s.sigma_est for s in tail))
    else:
        tail_p, tail_amp, c_emp = float("nan"), float("nan"), float("nan")
    return RadiusDecayResult(
        samples, delta, sigma0, tail_p, tail_amp, c_emp, collapse, failures, run
    )


# --- Gronwall uniqueness envelope -------------------------------------------


@dataclass(frozen=True)
class GapSample:
    t: float
    gap: float
    bound: float


@dataclass(frozen=True)
class UniquenessResult:
    samples: tuple[GapSample, ...]
    max_ratio: float  # worst gap / bound over t > 0, nan if any is nan or none
    eps: float
    run: SimulationOutput  # its records are the samples


def uniqueness_gap(cfg: SimConfig, eps: float) -> UniquenessResult:
    """Evolve data and an eps-perturbation to the horizon; compare their L2
    gap with the Gronwall envelope gap(0) * exp(1/4 int (||u_x||_inf +
    ||v_x||_inf)), the integral by the trapezoid rule on the sampling grid.

    The perturbation is the unit-L2 Gaussian bump times eps > 0; both fields
    step as one stack through ``_sampled_run`` at every grid point, and a
    blow-up raises its ``BlowUpError`` with the samples so far."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    grid = cfg.make_grid()
    u = initial_field(cfg, grid)
    unit_bump = InitialConfig(kind="gaussian", amplitude=1.0, width=2.0)
    bump = make_initial_field(grid, unit_bump, cfg.seed)
    bump_l2 = gevrey_norm(bump, 0.0, 0.0)
    pair = SpectralField(grid, np.stack([u.band, u.band + eps * (bump.band / bump_l2)]))
    grid_dt, _ = resolve_dt(cfg, grid, cfg.time.horizon)

    def gap_of(w: SpectralField) -> float:
        return float(half_plane_norms(grid, w.band[0] - w.band[1], 0.0, 0.0))

    gap0, integral, prev = gap_of(pair), 0.0, None

    def record(t, steps, w, l2):
        nonlocal integral, prev
        u_x = physical_values(grid, 1j * grid.xi_col * w.band)
        cur = float(np.max(np.abs(u_x), axis=(1, 2)).sum())  # sup|u_x| + sup|v_x|
        if prev is not None:
            integral += 0.5 * grid_dt * (prev + cur)
        prev = cur
        return GapSample(t, gap_of(w), gap0 * math.exp(0.25 * integral))

    run = _sampled_run(cfg, pair, math.nan, None, (), record)
    samples = tuple(run.records)
    # the t = 0 ratio is 1 by construction: the worst later one, nan if none
    ratios = [s.gap / s.bound for s in samples if s.t > 0 and s.bound > 0]
    max_ratio = float(np.max(ratios)) if ratios else math.nan
    return UniquenessResult(samples, max_ratio, eps, run)


# --- weighted energy identity -----------------------------------------------


@dataclass(frozen=True)
class EnergyIdentityRow:
    dt: float
    lhs: float  # (||A u(dt)||^2 - ||A f||^2) / dt
    rhs: float  # Simpson average of the commutator flux <A u, N(u)>
    rel_err: float


@dataclass(frozen=True)
class EnergyIdentityResult:
    rows: tuple[EnergyIdentityRow, ...]
    orders: tuple[float, ...]  # log2(rel_err_i / rel_err_{i+1}), nan at a 0


def energy_identity_check(cfg: SimConfig) -> EnergyIdentityResult:
    """Check d/dt ||A u||^2 = <A u, N(u)> over single steps.

    The left side differences the weighted energy over one step of length
    dt (taken as two half-steps so a midpoint state exists); the right
    side integrates the flux with Simpson on the same three states.  Both
    carry O(dt^4) error against the semi-discrete identity, so rel_err
    shrinks at the integrator's order as dt halves, over dt = 8, 4 and 2
    times the configured (explicit or CFL) step.
    """
    grid = cfg.make_grid()
    f = initial_field(cfg, grid)
    s1, s2 = cfg.gevrey.sigma1, cfg.gevrey.sigma2
    base = cfg.time.dt if cfg.time.dt is not None else cfl_dt(grid, cfg.time.cfl)

    def flux(w: SpectralField) -> float:
        return l2_inner(apply_gevrey(w, s1, s2), remainder_n(w, s1, s2))

    rows = []
    for dt in (8.0 * base, 4.0 * base, 2.0 * base):
        mid = step(f, 0.5 * dt)
        end = step(mid, 0.5 * dt)
        # ||A u||^2 - ||A f||^2 = <A(u - f), A(u + f)>, free of cancellation
        lhs = l2_inner(
            apply_gevrey(SpectralField(grid, end.band - f.band), s1, s2),
            apply_gevrey(SpectralField(grid, end.band + f.band), s1, s2),
        ) / dt
        rhs = (flux(f) + 4.0 * flux(mid) + flux(end)) / 6.0
        scale = max(abs(lhs), abs(rhs), 1e-300)
        rows.append(EnergyIdentityRow(dt, lhs, rhs, abs(lhs - rhs) / scale))
    orders = tuple(_log2_ratio(a.rel_err, b.rel_err) for a, b in zip(rows, rows[1:]))
    return EnergyIdentityResult(tuple(rows), orders)
