"""Integrating-factor RK4 time stepping for the fifth-order KP-II flow.

In Fourier variables the equation reads  c_t = i*m*c + NL(c)  with the
stiff dispersion handled exactly: substituting c = exp(i*t*m) v leaves a
nonstiff system for v that classical RK4 integrates.  With the nonlinearity
switched off a step multiplies by exp(i*dt*m) exactly, i.e. the stepper
degenerates to the free propagator.

The stepper carries the ``rfft2`` half plane (modes k = 0..ny/2) of the
real solution, so realness holds by construction: each right-hand side is
one call of the dealiased-square kernel (``spectral.dealiased_square``, one
``irfft2`` and one ``rfft2``), and every stage multiply touches half the
modes.  ``StepperState.field`` rebuilds the full-plane ``SpectralField`` on
read by Hermitian reflection, so a run pays for it only where it records.
The Nyquist row and column stay zero: the dealias mask removes them from
every right-hand side and the phases never fill them.

The step size rule is dt = cfl / max|dm/dxi| over live (dealiased, xi != 0)
modes; dm/dxi = 5*xi^4 + eta^2/xi^2 is the x group velocity, the fastest
scale the nonlinear term can see.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import SimConfig, rng_from_seed
from .errors import BlowUpError, InsufficientSupportError
from .initial_data import make_initial_field
from .operators import dispersion_symbol, gevrey_norm, remainder_n
from .spectral import (
    Grid2D, SpectralField, dealias, dealiased_square, full_plane, half_plane,
)

RUNAWAY_FACTOR = 1e8  # norm growth beyond this aborts the run as blow-up


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampled instant of a run: time, norms, and radius fit."""

    t: float
    l2: float
    gevrey: tuple[float, ...]  # aligned with the configured sigma ladder
    sigma_est: float
    residual: float
    remainder_l2: float
    steps: int


@dataclass(frozen=True)
class StepperState:
    """Immutable stepper snapshot; ``step`` returns the advanced copy.

    ``half`` holds the rfft2 half plane, shape (nx, ny//2 + 1), of the real
    solution at time t.  Build a state from a field with ``from_field``.
    """

    grid: Grid2D
    half: np.ndarray
    t: float
    dt: float
    steps: int = 0
    nonlinear: bool = True
    dispersion_sign: float = 1.0  # -1 integrates the time-reversed flow

    @classmethod
    def from_field(
        cls, field: SpectralField, dt: float, *,
        nonlinear: bool = True, dispersion_sign: float = 1.0,
    ) -> "StepperState":
        """Start from a real field at t = 0; non-Hermitian coefficients
        raise ``SpectralSymmetryError``."""
        return cls(
            field.grid, _frozen(half_plane(field)), 0.0, dt,
            nonlinear=nonlinear, dispersion_sign=dispersion_sign,
        )

    @property
    def field(self) -> SpectralField:
        """The full-plane field, rebuilt from the half plane on every read."""
        return SpectralField(
            self.grid,
            full_plane(self.grid, self.half),
            hermitian=True,
            zero_x_mean=not self.half[0].any(),
        )

    @property
    def cfl_ratio(self) -> float:
        return self.dt * max_group_speed(self.grid)


@lru_cache(maxsize=8)
def max_group_speed(grid: Grid2D) -> float:
    """max over live modes of |dm/dxi| = 5 xi^4 + eta^2 / xi^2."""
    xi = grid.xi_col
    eta = grid.eta_row
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = 5.0 * xi**4 + eta**2 / xi**2
    live = grid.dealias_mask & (xi != 0.0)
    speed = np.broadcast_to(speed, (grid.nx, grid.ny))
    return float(speed[live].max())


def cfl_dt(grid: Grid2D, cfl: float = 1.0) -> float:
    return cfl / max_group_speed(grid)


def aligned_dt(span: float, dt_max: float) -> tuple[float, int]:
    """Shrink dt_max so an integer number of steps lands exactly on span.

    The 1e-9 slack keeps span/dt ratios that are integers up to rounding
    from gaining a spurious extra step.
    """
    if span <= 0:
        return dt_max, 0
    n = max(1, int(np.ceil(span / dt_max - 1e-9)))
    return span / n, n


@lru_cache(maxsize=8)
def _rhs_multiplier(grid: Grid2D) -> np.ndarray:
    """-1/2 i xi on the half plane: the x-derivative and the 1/2 of the
    transport term (a full array: broadcasting a column is slower)."""
    shape = (grid.nx, grid.ny // 2 + 1)
    return _frozen(np.ascontiguousarray(np.broadcast_to((-0.5j) * grid.xi_col, shape)))


def _half_rhs(grid: Grid2D, c: np.ndarray) -> np.ndarray:
    """-1/2 dx(u^2) with the square dealiased, on the half plane."""
    sq = dealiased_square(grid, c)
    sq *= _rhs_multiplier(grid)
    return sq


@lru_cache(maxsize=16)
def _half_phases(grid: Grid2D, signed_dt: float) -> tuple[np.ndarray, ...]:
    """exp(i dt m / 2), exp(i dt m) on the half plane, and their conjugates."""
    m = dispersion_symbol(grid)[:, : grid.ny // 2 + 1]
    e_half = np.exp(0.5j * signed_dt * m)
    e_full = np.exp(1j * signed_dt * m)
    return tuple(_frozen(a) for a in (e_half, e_full, np.conj(e_half), np.conj(e_full)))


def step(state: StepperState) -> StepperState:
    """Advance one dt with integrating-factor RK4."""
    grid = state.grid
    c = state.half
    dt = state.dt
    e_half, e_full, back_half, back_full = _half_phases(grid, dt * state.dispersion_sign)
    if state.nonlinear:
        g1 = _half_rhs(grid, c)
        g2 = back_half * _half_rhs(grid, e_half * (c + 0.5 * dt * g1))
        g3 = back_half * _half_rhs(grid, e_half * (c + 0.5 * dt * g2))
        g4 = back_full * _half_rhs(grid, e_full * (c + dt * g3))
        new_c = e_full * (c + (dt / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4))
    else:
        new_c = e_full * c
    if not np.all(np.isfinite(new_c.view(np.float64))):
        raise BlowUpError(
            f"non-finite coefficients after step to t={state.t + dt:g}",
            time=state.t + dt,
        )
    return replace(state, half=_frozen(new_c), t=state.t + dt, steps=state.steps + 1)


def initial_field(cfg: SimConfig, grid: Grid2D | None = None) -> SpectralField:
    """Configured initial data, projected and dealiased for the flow."""
    g = cfg.make_grid() if grid is None else grid
    return dealias(make_initial_field(g, cfg.initial, rng_from_seed(cfg.seed)))


def resolve_dt(cfg: SimConfig, grid: Grid2D, span: float) -> tuple[float, int]:
    """Step size for a run over ``span``: explicit dt or the CFL rule,
    shrunk so the final step lands exactly on the span."""
    base = cfg.time.dt if cfg.time.dt is not None else cfl_dt(grid, cfg.time.cfl)
    return aligned_dt(span, base)


def _record(
    cfg: SimConfig, field: SpectralField, t: float, steps: int
) -> DiagnosticsRecord:
    # imported here: diagnostics builds on this module
    from .diagnostics import radius_estimate

    try:
        fit = radius_estimate(field)
        sigma_est, residual = fit.sigma_est, fit.residual
    except InsufficientSupportError:
        # no fit is not a collapse: a genuine 0.0 comes only from the clamp
        sigma_est, residual = float("nan"), float("nan")
    rem = remainder_n(field, cfg.gevrey.sigma1, cfg.gevrey.sigma2)
    return DiagnosticsRecord(
        t=t,
        l2=gevrey_norm(field, 0.0, 0.0),
        gevrey=tuple(gevrey_norm(field, s, 0.0) for s in cfg.gevrey.ladder),
        sigma_est=sigma_est,
        residual=residual,
        remainder_l2=gevrey_norm(rem, 0.0, 0.0),
        steps=steps,
    )


@dataclass(frozen=True)
class SimulationOutput:
    records: list[DiagnosticsRecord]
    snapshots: list[tuple[float, SpectralField]]
    dt: float
    steps: int
    dt_source: str  # "cfl" or "explicit"
    phase_s: dict[str, float]  # wall seconds in "stepping" and "records"


def simulate(
    cfg: SimConfig, sample_times=None, snapshot_times=()
) -> SimulationOutput:
    """Run to the configured horizon, emitting records at sample times.

    Sample times snap to the nearest step, a shift below dt/2; records
    carry the exact step time n*dt.  ``snapshot_times`` additionally
    capture the full field.  Blow-up raises ``BlowUpError`` with the
    records collected so far attached (snapshots are not kept).  The
    output's ``phase_s`` splits the wall time between stepping and the
    records and snapshots, which include the full-plane rebuild.
    """
    grid = cfg.make_grid()
    f = initial_field(cfg, grid)
    horizon = cfg.time.horizon
    dt, n_total = resolve_dt(cfg, grid, horizon)
    dt_source = "cfl" if cfg.time.dt is None else "explicit"
    if sample_times is None:
        sample_times = np.linspace(0.0, horizon, cfg.time.samples)

    def to_step(t: float) -> int:
        return min(n_total, max(0, round(float(t) / dt))) if n_total > 0 else 0

    want = {to_step(t) for t in sample_times}
    want_snap = {to_step(t) for t in snapshot_times}

    clock = time.perf_counter
    stepping_s = 0.0
    t0 = clock()
    state = StepperState.from_field(f, dt)
    initial_l2 = gevrey_norm(f, 0.0, 0.0)
    records: list[DiagnosticsRecord] = []
    snapshots: list[tuple[float, SpectralField]] = []
    if 0 in want:
        records.append(_record(cfg, f, 0.0, 0))
    if 0 in want_snap:
        snapshots.append((0.0, f))
    for k in range(1, n_total + 1):
        t_step = clock()
        try:
            state = step(state)
        except BlowUpError as exc:
            raise BlowUpError(str(exc), time=exc.time, records=records) from None
        stepping_s += clock() - t_step
        if k not in want and k not in want_snap:
            continue
        field = state.field
        if k in want_snap:
            snapshots.append((k * dt, field))
        if k in want:
            rec = _record(cfg, field, k * dt, k)
            records.append(rec)
            if initial_l2 > 0 and rec.l2 > RUNAWAY_FACTOR * initial_l2:
                raise BlowUpError(
                    f"L2 norm {rec.l2:.3e} exceeds {RUNAWAY_FACTOR:g} x initial "
                    f"at t={rec.t:g}",
                    time=rec.t,
                    records=records,
                )
    phase_s = {"stepping": stepping_s, "records": clock() - t0 - stepping_s}
    return SimulationOutput(records, snapshots, dt, n_total, dt_source, phase_s)
