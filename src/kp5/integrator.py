"""Integrating-factor RK4 time stepping for the fifth-order KP-II flow.

In Fourier variables the equation reads  c_t = i*m*c + NL(c)  with the
stiff dispersion handled exactly: substituting c = exp(i*t*m) v leaves a
nonstiff system for v that classical RK4 integrates.  Where the
nonlinearity vanishes a step multiplies by exp(i*dt*m) exactly, i.e. the
stepper degenerates to the free propagator.

``step`` advances a ``SpectralField``, the 2/3 band of the real solution
or a stack of them, each slice stepped as it would be alone, so realness
and dealiasing hold by construction: each right-hand side is one call of
the dealiased-square kernel (``spectral.dealiased_square``, a row-padded
inverse and a band-pruned forward pair of 1-D passes), and every stage
multiply touches only the band's modes.  The RK4 stages are in Lawson
form: each stage stays in the frame where it was evaluated and is carried
forward by exp(i*dt*m/2), so no conjugate (backward) phase is stored or
applied; a negative dt steps back in time.
Callers keep the time and the step count.

Two step sizes.  The sampling grid is n * grid_dt with grid_dt = cfl /
max|dm/dxi| over live (band, xi != 0) modes, shrunk to divide the
horizon; dm/dxi = 5*xi^4 + eta^2/xi^2 is the x group velocity, the fastest
scale the nonlinear term can see.  Samples, records and snapshots snap to
this grid.  The steps themselves are longer: the integrating factor solves
the dispersion exactly, so the grid is only an accuracy guess, and each gap
of g grid steps between wanted samples is crossed in min(g, ceil(g *
grid_dt / (cfl * delta))) equal steps, where delta is the paper's
contraction window c0 / (1 + ||f||_{G^sigma1})^exponent.  A window shorter
than grid_dt steps on the grid, and so does an explicit ``time.dt``, which is
the step itself; data with no window raise ``BlowUpError``.  Every sampled run
(``simulate`` and three in ``diagnostics``) shares this plan and one sample
loop, ``_sampled_run``; only the fixed-step checks call ``step`` themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .config import SimConfig
from .errors import BlowUpError
from .initial_data import initial_field
from .operators import (
    band_norms, dispersion_symbol, gevrey_norm, ladder_norms, remainder_n,
)
from .picard import data_window
from .spectral import Grid2D, SpectralField, _frozen, dealiased_square

RUNAWAY_FACTOR = 1e8  # norm growth beyond this aborts the run as blow-up


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


@lru_cache(maxsize=8)
def max_group_speed(grid: Grid2D) -> float:
    """max of |dm/dxi| = 5 xi^4 + eta^2 / xi^2 over the band's modes with
    xi != 0."""
    xi = grid.xi_col
    eta = grid.eta_row
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = 5.0 * xi**4 + eta**2 / xi**2
    return float(speed[np.broadcast_to(xi != 0.0, speed.shape)].max())


def cfl_dt(grid: Grid2D, cfl: float) -> float:
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
    """-1/2 i xi on the 2/3 band: the x-derivative and the 1/2 of the
    transport term (a full array: broadcasting a column is slower)."""
    shape = grid.band_shape
    return _frozen(np.ascontiguousarray(np.broadcast_to((-0.5j) * grid.xi_col, shape)))


def _half_rhs(grid: Grid2D, c: np.ndarray) -> np.ndarray:
    """-1/2 dx(u^2) with the square dealiased, on the 2/3 band."""
    sq = dealiased_square(grid, c)
    sq *= _rhs_multiplier(grid)
    return sq


@lru_cache(maxsize=16)
def _half_phases(grid: Grid2D, dt: float) -> np.ndarray:
    """exp(i dt m / 2) on the 2/3 band."""
    return _frozen(np.exp(0.5j * dt * dispersion_symbol(grid)))


def step(field: SpectralField, dt: float, t: float = 0.0) -> SpectralField:
    """One integrating-factor RK4 step of length dt (Lawson stages) from
    ``field`` at time t; a negative dt steps back.  t only dates a
    non-finite step, which raises ``BlowUpError``.

    With E = exp(i dt m / 2) and h = dt, the stages are k1 = N(c),
    k2 = N(E(c + h/2 k1)), k3 = N(Ec + h/2 k2), k4 = N(E(Ec + h k3)) and
    the update is E(Ec + h/6 (E k1 + 2 (k2 + k3))) + h/6 k4: the classical
    IF-RK4 step with every stage kept in the frame where it was evaluated,
    so no conjugate phase is needed.  Stage sums are formed in place.
    """
    grid = field.grid
    c = field.band
    e_half = _half_phases(grid, dt)
    ec = e_half * c
    k1 = _half_rhs(grid, c)
    arg = np.multiply(k1, 0.5 * dt)
    arg += c
    arg *= e_half
    k2 = _half_rhs(grid, arg)
    np.multiply(k2, 0.5 * dt, out=arg)
    arg += ec
    k3 = _half_rhs(grid, arg)
    np.multiply(k3, dt, out=arg)
    arg += ec
    arg *= e_half
    k4 = _half_rhs(grid, arg)
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
    if not np.all(np.isfinite(new_c.view(np.float64))):
        raise BlowUpError(
            f"non-finite coefficients after step to t={t + dt:g}", time=t + dt
        )
    return SpectralField(grid, new_c)


def resolve_dt(cfg: SimConfig, grid: Grid2D, span: float) -> tuple[float, int]:
    """Sampling grid step for a run over ``span``: explicit dt or the CFL
    rule, shrunk so the last grid step lands exactly on the span."""
    base = cfg.time.dt if cfg.time.dt is not None else cfl_dt(grid, cfg.time.cfl)
    return aligned_dt(span, base)


def window_cap(cfg: SimConfig, delta: float, grid_dt: float) -> float:
    """The longest step between samples, cfl * delta; grid_dt (step on the
    grid) for an explicit dt and for a delta that is nan or below grid_dt."""
    if cfg.time.dt is not None or not delta >= grid_dt:
        return grid_dt
    return cfg.time.cfl * delta


def sample_steps(times, dt: float, steps: int) -> set[int]:
    """The sampling-grid indices nearest the given times, clamped to
    [0, steps]: a shift below dt/2; every index for ``times=None``."""
    if times is None:
        return set(range(steps + 1))
    return {min(steps, max(0, round(float(t) / dt))) for t in times}


def step_plan(
    wanted: set[int], grid_dt: float, cap: float
) -> list[tuple[int, float, int]]:
    """(grid index, step size, step count) for each wanted grid index in
    order.  The gap of g grid steps from the previous index (0 at first) is
    crossed in ceil(g * grid_dt / cap) equal steps when that is fewer than
    g, and otherwise in g steps of exactly grid_dt: always, under a cap of
    at most grid_dt (``window_cap`` of a run that steps on the grid)."""
    plan = []
    prev = 0
    for b in sorted(wanted):
        gap = b - prev
        dt, m = aligned_dt(gap * grid_dt, cap)
        if m >= gap:
            dt, m = grid_dt, gap
        plan.append((b, dt, m))
        prev = b
    return plan


def _record(
    cfg: SimConfig, t: float, steps: int, field: SpectralField, l2: np.ndarray
) -> DiagnosticsRecord:
    """The series row of a field at time t, reached in ``steps`` steps, with
    the L2 norm ``l2`` the sample loop already took (a 0-d array).  A failed
    radius fit reads sigma_est = residual = nan; at sigma1 = sigma2 = 0 the
    remainder is exactly 0.
    """
    # imported here: diagnostics builds on this module
    from .diagnostics import radius_estimate

    sigma_est, residual = radius_estimate(field)
    s1, s2 = cfg.gevrey.sigma1, cfg.gevrey.sigma2
    return DiagnosticsRecord(
        t=t,
        l2=float(l2),
        gevrey=tuple(ladder_norms(field, cfg.gevrey.ladder)),
        sigma_est=sigma_est,
        residual=residual,
        remainder_l2=gevrey_norm(remainder_n(field, s1, s2), 0.0, 0.0),
        steps=steps,
    )


@dataclass(frozen=True)
class SimulationOutput:
    records: list  # what the run's ``record`` built at each sample time
    snapshots: list[tuple[float, SpectralField]]
    dt: float  # the largest step taken
    grid_dt: float  # the sampling grid step
    steps: int  # IF-RK4 steps taken
    # "window" (a step of ``window_cap`` is longer than grid_dt), "grid" (no
    # step is) or "explicit" (``time.dt``)
    dt_source: str
    phase_s: dict[str, float]  # wall seconds in "stepping" and "records"

    @property
    def l2_drift(self) -> float:
        """max |l2 - l2[0]| / l2[0] over the records; nan without records
        or when l2[0] is 0."""
        if not self.records or self.records[0].l2 == 0.0:
            return float("nan")
        base = self.records[0].l2
        return max(abs(r.l2 - base) for r in self.records) / base


def _sampled_run(
    cfg: SimConfig, f: SpectralField, delta: float, times, snapshot_times, record
) -> SimulationOutput:
    """Step f, a field or a stack of fields, to the last of ``times`` (None:
    every grid point) and ``snapshot_times``, calling ``record(t, steps,
    field, l2)`` at each sample time (l2 the ``band_norms`` L2 norm of
    each slice) and keeping the field at each snapshot time.

    Times snap to the nearest point n*grid_dt of the sampling grid over the
    configured horizon, a shift below grid_dt/2, and each sample carries
    that exact time; the steps between them follow ``step_plan`` with the
    ``window_cap`` of the contraction window delta (sampling every grid
    point steps on the grid).  A non-finite step raises ``BlowUpError``,
    and so does a sampled slice whose L2 norm exceeds RUNAWAY_FACTOR times
    its initial one (its sample is kept); the error carries the samples
    taken so far (snapshots are not kept).  ``phase_s`` splits the wall
    time between stepping and the samples and snapshots.
    """
    grid_dt, n_total = resolve_dt(cfg, f.grid, cfg.time.horizon)
    want = sample_steps(times, grid_dt, n_total)
    want_snap = sample_steps(snapshot_times, grid_dt, n_total)
    plan = step_plan(want | want_snap, grid_dt, window_cap(cfg, delta, grid_dt))

    clock = time.perf_counter
    records = []
    snapshots: list[tuple[float, SpectralField]] = []
    records_s = 0.0
    t0 = clock()
    limit = RUNAWAY_FACTOR * band_norms(f.grid, f.band, 0.0, 0.0)
    t, steps = 0.0, 0
    try:
        for b, dt, m in plan:
            for k in range(m):
                f = step(f, dt, t + k * dt)
            t, steps = b * grid_dt, steps + m
            l2 = band_norms(f.grid, f.band, 0.0, 0.0)
            t_record = clock()
            if b in want_snap:
                snapshots.append((t, f))
            if b in want:
                records.append(record(t, steps, f, l2))
            records_s += clock() - t_record
            if (l2 > limit).any():
                raise BlowUpError(
                    f"L2 norm {np.max(l2):.3e} exceeds {RUNAWAY_FACTOR:g} x "
                    f"initial at t={t:g}",
                    time=t,
                )
    except BlowUpError as exc:
        raise BlowUpError(str(exc), time=exc.time, records=records) from None
    phase_s = {"stepping": clock() - t0 - records_s, "records": records_s}
    dt_max = max((dt for _, dt, m in plan if m), default=grid_dt)
    if cfg.time.dt is not None:
        source = "explicit"
    else:  # a window step is one longer than the grid step
        source = "window" if dt_max > grid_dt else "grid"
    return SimulationOutput(records, snapshots, dt_max, grid_dt, steps, source, phase_s)


def simulate(cfg: SimConfig) -> SimulationOutput:
    """The series rows at ``time.samples`` times evenly spaced over the
    horizon and the fields at ``output.snapshot_times``, stepped by
    ``_sampled_run`` with the contraction window of the configured data at
    the rate sigma1 (``picard.data_window``: ``BlowUpError`` if none)."""
    f = initial_field(cfg)
    return _sampled_run(
        cfg, f, data_window(cfg, f, cfg.gevrey.sigma1),
        np.linspace(0.0, cfg.time.horizon, cfg.time.samples),
        cfg.output.snapshot_times,
        partial(_record, cfg),
    )
