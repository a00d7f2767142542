"""Integrating-factor RK4 time stepping for the fifth-order KP-II flow.

In Fourier variables the equation reads  c_t = i*m*c + NL(c)  with the
stiff dispersion handled exactly: substituting c = exp(i*t*m) v leaves a
nonstiff system for v that classical RK4 integrates.  With the nonlinearity
switched off a step multiplies by exp(i*dt*m) exactly, i.e. the stepper
degenerates to the free propagator.

The stepper state carries the solution as a ``SpectralField``, the
``rfft2`` half plane (modes k = 0..ny/2) of the real solution, so realness
holds by construction: each right-hand side is one call of the
dealiased-square kernel (``spectral.dealiased_square``, an inverse and a
band-pruned forward pair of 1-D passes), and every stage multiply touches
half the modes.  The RK4 stages are in Lawson form: each stage stays in the
frame where it was evaluated and is carried forward by exp(i*dt*m/2), so no
conjugate (backward) phase is stored or applied.  Records, snapshots and
the radius fit read the state's field as it is.  The Nyquist row and column
stay zero: the dealias mask removes them from every right-hand side and the
phases never fill them.

Two step sizes.  The sampling grid is n * grid_dt with grid_dt = cfl /
max|dm/dxi| over live (dealiased, xi != 0) modes, shrunk to divide the
horizon; dm/dxi = 5*xi^4 + eta^2/xi^2 is the x group velocity, the fastest
scale the nonlinear term can see.  Samples, records and snapshots snap to
this grid.  The steps themselves are longer: the integrating factor solves
the dispersion exactly, so the grid is only an accuracy guess, and each gap
of g grid steps between wanted samples is crossed in min(g, ceil(g *
grid_dt / (cfl * delta))) equal steps, where delta is the paper's
contraction window c0 / (1 + ||f||_{G^sigma1})^exponent.  A non-finite
data norm or a window shorter than grid_dt steps on the grid, and so does an
explicit ``time.dt``, which is the step itself.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import SimConfig, rng_from_seed
from .errors import BlowUpError
from .initial_data import make_initial_field
from .operators import (
    _norm_weight, _weighted_norm, assert_sigma_within_guard,
    dispersion_symbol, gevrey_norm, remainder_n,
)
from .picard import delta_rule
from .spectral import Grid2D, SpectralField, dealias, dealiased_square

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

    ``field`` is the solution at time t; ``StepperState(f, dt)`` starts
    from f at t = 0.
    """

    field: SpectralField
    dt: float
    t: float = 0.0
    steps: int = 0
    nonlinear: bool = True
    dispersion_sign: float = 1.0  # -1 integrates the time-reversed flow


@lru_cache(maxsize=8)
def max_group_speed(grid: Grid2D) -> float:
    """max over live modes of |dm/dxi| = 5 xi^4 + eta^2 / xi^2."""
    xi = grid.xi_col
    eta = grid.eta_row
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = 5.0 * xi**4 + eta**2 / xi**2
    live = grid.dealias_mask & (xi != 0.0)
    speed = np.broadcast_to(speed, live.shape)
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
def _half_phases(grid: Grid2D, signed_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(i dt m / 2) and exp(i dt m) on the half plane."""
    m = dispersion_symbol(grid)
    return _frozen(np.exp(0.5j * signed_dt * m)), _frozen(np.exp(1j * signed_dt * m))


def step(state: StepperState) -> StepperState:
    """Advance one dt with integrating-factor RK4 (Lawson stages).

    With E = exp(i dt m / 2) and h = dt, the stages are k1 = N(c),
    k2 = N(E(c + h/2 k1)), k3 = N(Ec + h/2 k2), k4 = N(E(Ec + h k3)) and
    the update is E(Ec + h/6 (E k1 + 2 (k2 + k3))) + h/6 k4: the classical
    IF-RK4 step with every stage kept in the frame where it was evaluated,
    so no conjugate phase is needed.  Stage sums are formed in place.
    """
    grid = state.field.grid
    c = state.field.half
    dt = state.dt
    e_half, e_full = _half_phases(grid, dt * state.dispersion_sign)
    if state.nonlinear:
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
    else:
        new_c = e_full * c
    if not np.all(np.isfinite(new_c.view(np.float64))):
        raise BlowUpError(
            f"non-finite coefficients after step to t={state.t + dt:g}",
            time=state.t + dt,
        )
    return replace(
        state, field=SpectralField(grid, new_c), t=state.t + dt, steps=state.steps + 1
    )


def initial_field(cfg: SimConfig, grid: Grid2D | None = None) -> SpectralField:
    """Configured initial data, projected and dealiased for the flow."""
    g = cfg.make_grid() if grid is None else grid
    return dealias(make_initial_field(g, cfg.initial, rng_from_seed(cfg.seed)))


def resolve_dt(cfg: SimConfig, grid: Grid2D, span: float) -> tuple[float, int]:
    """Sampling grid step for a run over ``span``: explicit dt or the CFL
    rule, shrunk so the last grid step lands exactly on the span."""
    base = cfg.time.dt if cfg.time.dt is not None else cfl_dt(grid, cfg.time.cfl)
    return aligned_dt(span, base)


def dt_source(cfg: SimConfig) -> str:
    """Where the steps come from: "window" (``window_cap``) or "explicit"."""
    return "window" if cfg.time.dt is None else "explicit"


def contraction_window(cfg: SimConfig, f: SpectralField) -> float:
    """delta = c0 / (1 + ||f||_{G^sigma1})^exponent, the window over which
    the paper chains local solutions; nan when there is none (the norm is
    not finite, or the window underflows to 0)."""
    norm = gevrey_norm(f, cfg.gevrey.sigma1, 0.0)
    if not math.isfinite(norm):
        return math.nan
    delta = delta_rule(norm, cfg.delta.c0, cfg.delta.exponent)
    return delta if delta > 0.0 else math.nan


def window_cap(cfg: SimConfig, delta: float, grid_dt: float) -> float | None:
    """The longest step between samples, cfl * delta; None (step on the
    grid) for an explicit dt and for a delta that is nan or below grid_dt."""
    if cfg.time.dt is not None or not delta >= grid_dt:
        return None
    return cfg.time.cfl * delta


def sample_steps(times, dt: float, steps: int) -> set[int]:
    """The sampling-grid indices nearest the given times, clamped to
    [0, steps]: a shift below dt/2."""
    return {min(steps, max(0, round(float(t) / dt))) for t in times}


def step_plan(
    wanted: set[int], grid_dt: float, cap: float | None
) -> list[tuple[int, float, int]]:
    """(grid index, step size, step count) for each wanted grid index in
    order.  The gap of g grid steps from the previous index (0 at first) is
    crossed in ceil(g * grid_dt / cap) equal steps when that is fewer than
    g, and otherwise (or with no cap) in g steps of exactly grid_dt."""
    plan = []
    prev = 0
    for b in sorted(wanted):
        gap = b - prev
        dt, m = (grid_dt, gap) if cap is None else aligned_dt(gap * grid_dt, cap)
        if m >= gap:
            dt, m = grid_dt, gap
        plan.append((b, dt, m))
        prev = b
    return plan


def sampled_states(
    f: SpectralField, grid_dt: float, plan: list[tuple[int, float, int]]
) -> Iterator[tuple[int, StepperState]]:
    """Step f through a ``step_plan``, yielding (b, state) at each planned
    grid index b; the state has t = b * grid_dt exactly and counts in
    ``steps`` the steps taken so far.

    A non-finite step raises ``BlowUpError``.  So does a yielded state
    whose L2 norm exceeds RUNAWAY_FACTOR times the initial one; that check
    runs once the consumer has handled the state, so its sample is kept.
    """
    state = StepperState(f, grid_dt)
    initial_l2 = gevrey_norm(f, 0.0, 0.0)
    for b, dt, m in plan:
        if m:
            state = replace(state, dt=dt)
            for _ in range(m):
                state = step(state)
            state = replace(state, t=b * grid_dt)
        yield b, state
        l2 = gevrey_norm(state.field, 0.0, 0.0)
        if initial_l2 > 0 and l2 > RUNAWAY_FACTOR * initial_l2:
            raise BlowUpError(
                f"L2 norm {l2:.3e} exceeds {RUNAWAY_FACTOR:g} x initial at t={state.t:g}",
                time=state.t,
            )


def plan_totals(plan: list[tuple[int, float, int]], grid_dt: float) -> tuple[int, float]:
    """Steps a plan takes and its largest step (grid_dt when it takes none)."""
    return sum(m for _, _, m in plan), max((dt for _, dt, m in plan if m), default=grid_dt)


def _record(cfg: SimConfig, state: StepperState) -> DiagnosticsRecord:
    """The series row of a state, at its time ``state.t``.

    The L2 norm and the ladder share one amplitude array |c|, and the
    remainder is exactly 0 (not computed) when both sigmas are 0.
    """
    # imported here: diagnostics builds on this module
    from .diagnostics import radius_sample

    grid = state.field.grid
    amp = np.abs(state.field.half)

    def norm(sigma1: float) -> float:
        assert_sigma_within_guard(grid, sigma1, 0.0)
        table = _norm_weight(grid, sigma1, 0.0)
        return float(_weighted_norm(amp.copy(), table, grid.measure))

    s1, s2 = cfg.gevrey.sigma1, cfg.gevrey.sigma2
    if s1 == 0.0 and s2 == 0.0:
        remainder_l2 = 0.0
    else:
        remainder_l2 = gevrey_norm(remainder_n(state.field, s1, s2), 0.0, 0.0)
    fit = radius_sample(state)
    return DiagnosticsRecord(
        t=state.t,
        l2=norm(0.0),
        gevrey=tuple(norm(s) for s in cfg.gevrey.ladder),
        sigma_est=fit.sigma_est,
        residual=fit.residual,
        remainder_l2=remainder_l2,
        steps=state.steps,
    )


@dataclass(frozen=True)
class SimulationOutput:
    records: list[DiagnosticsRecord]
    snapshots: list[tuple[float, SpectralField]]
    dt: float  # the largest step taken
    grid_dt: float  # the sampling grid step
    steps: int  # IF-RK4 steps taken
    dt_source: str  # "window" or "explicit"
    phase_s: dict[str, float]  # wall seconds in "stepping" and "records"

    @property
    def l2_drift(self) -> float:
        """max |l2 - l2[0]| / l2[0] over the records; nan without records
        or when l2[0] is 0."""
        if not self.records or self.records[0].l2 == 0.0:
            return float("nan")
        base = self.records[0].l2
        return max(abs(r.l2 - base) for r in self.records) / base


def simulate(
    cfg: SimConfig, sample_times=None, snapshot_times=()
) -> SimulationOutput:
    """Run to the configured horizon, emitting records at sample times.

    Sample times snap to the nearest point n*grid_dt of the sampling grid,
    a shift below grid_dt/2, and records carry that exact time; the steps
    between them follow ``step_plan`` with the ``window_cap`` of the data,
    and the run ends at the last sample or snapshot.  ``snapshot_times``
    additionally capture the full field.  Blow-up raises ``BlowUpError``
    with the records collected so far attached (snapshots are not kept).
    The output's ``phase_s`` splits the wall time between stepping and the
    records and snapshots.
    """
    grid = cfg.make_grid()
    f = initial_field(cfg, grid)
    horizon = cfg.time.horizon
    grid_dt, n_total = resolve_dt(cfg, grid, horizon)
    if sample_times is None:
        sample_times = np.linspace(0.0, horizon, cfg.time.samples)
    want = sample_steps(sample_times, grid_dt, n_total)
    want_snap = sample_steps(snapshot_times, grid_dt, n_total)
    cap = window_cap(cfg, contraction_window(cfg, f), grid_dt)
    plan = step_plan(want | want_snap, grid_dt, cap)

    clock = time.perf_counter
    records: list[DiagnosticsRecord] = []
    snapshots: list[tuple[float, SpectralField]] = []
    records_s = 0.0
    t0 = clock()
    try:
        for b, state in sampled_states(f, grid_dt, plan):
            t_record = clock()
            if b in want_snap:
                snapshots.append((state.t, state.field))
            if b in want:
                records.append(_record(cfg, state))
            records_s += clock() - t_record
    except BlowUpError as exc:
        raise BlowUpError(str(exc), time=exc.time, records=records) from None
    phase_s = {"stepping": clock() - t0 - records_s, "records": records_s}
    steps, dt = plan_totals(plan, grid_dt)
    return SimulationOutput(
        records, snapshots, dt, grid_dt, steps, dt_source(cfg), phase_s
    )
