"""Integrating-factor RK4 time stepping for the fifth-order KP-II flow.

In Fourier variables the equation reads  c_t = i*m*c + NL(c)  with the
stiff dispersion handled exactly: substituting c = exp(i*t*m) v leaves a
nonstiff system for v that classical RK4 integrates.  With the nonlinearity
switched off a step multiplies by exp(i*dt*m) exactly, i.e. the stepper
degenerates to the free propagator.

The stepper carries the ``rfft2`` half plane (modes k = 0..ny/2) of the
real solution, so realness holds by construction: each right-hand side is
one call of the dealiased-square kernel (``spectral.dealiased_square``, an
inverse and a band-pruned forward pair of 1-D passes), and every stage
multiply touches half the modes.  The RK4 stages are in Lawson form: each
stage stays in the frame where it was evaluated and is carried forward by
exp(i*dt*m/2), so no conjugate (backward) phase is stored or applied.
``StepperState.field`` rebuilds the full-plane ``SpectralField`` on read
by Hermitian reflection, so a run pays for it only where it records a
radius fit or a snapshot; the record norms and the remainder read the half
plane.  The Nyquist row and column stay zero: the dealias mask removes
them from every right-hand side and the phases never fill them.

The step size rule is dt = cfl / max|dm/dxi| over live (dealiased, xi != 0)
modes; dm/dxi = 5*xi^4 + eta^2/xi^2 is the x group velocity, the fastest
scale the nonlinear term can see.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import SimConfig, rng_from_seed
from .errors import BlowUpError
from .initial_data import make_initial_field
from .operators import (
    _half_remainder, _weighted_norm, assert_sigma_within_guard,
    dispersion_symbol, gevrey_norm, half_plane_norms,
)
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
def _half_phases(grid: Grid2D, signed_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(i dt m / 2) and exp(i dt m) on the half plane."""
    m = dispersion_symbol(grid)[:, : grid.ny // 2 + 1]
    return _frozen(np.exp(0.5j * signed_dt * m)), _frozen(np.exp(1j * signed_dt * m))


def step(state: StepperState) -> StepperState:
    """Advance one dt with integrating-factor RK4 (Lawson stages).

    With E = exp(i dt m / 2) and h = dt, the stages are k1 = N(c),
    k2 = N(E(c + h/2 k1)), k3 = N(Ec + h/2 k2), k4 = N(E(Ec + h k3)) and
    the update is E(Ec + h/6 (E k1 + 2 (k2 + k3))) + h/6 k4: the classical
    IF-RK4 step with every stage kept in the frame where it was evaluated,
    so no conjugate phase is needed.  Stage sums are formed in place.
    """
    grid = state.grid
    c = state.half
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


def dt_source(cfg: SimConfig) -> str:
    """Where ``resolve_dt`` takes the step size from: "cfl" or "explicit"."""
    return "cfl" if cfg.time.dt is None else "explicit"


def sample_steps(times, dt: float, steps: int) -> set[int]:
    """The step indices nearest the given times, clamped to [0, steps]: a
    shift below dt/2."""
    return {min(steps, max(0, round(float(t) / dt))) for t in times}


def sampled_states(
    f: SpectralField, dt: float, steps: int, wanted: set[int]
) -> Iterator[StepperState]:
    """Step f forward ``steps`` times by dt, yielding the state at every
    step index in ``wanted`` (0 is f itself).

    A non-finite step raises ``BlowUpError``.  So does a yielded state
    whose L2 norm exceeds RUNAWAY_FACTOR times the initial one; that check
    runs once the consumer has handled the state, so its sample is kept.
    """
    state = StepperState.from_field(f, dt)
    initial_l2 = gevrey_norm(f, 0.0, 0.0)
    for k in range(steps + 1):
        if k > 0:
            state = step(state)
        if k not in wanted:
            continue
        yield state
        l2 = float(half_plane_norms(state.grid, state.half, 0.0, 0.0))
        if initial_l2 > 0 and l2 > RUNAWAY_FACTOR * initial_l2:
            t = state.steps * dt
            raise BlowUpError(
                f"L2 norm {l2:.3e} exceeds {RUNAWAY_FACTOR:g} x initial at t={t:g}",
                time=t,
            )


def _record(cfg: SimConfig, state: StepperState) -> DiagnosticsRecord:
    """The series row of a state, at its exact step time steps * dt.

    The L2 norm and the ladder share one half-plane |c|^2 array, the
    remainder runs on the half plane and is exactly 0 (not computed) when
    both sigmas are 0, and only the radius fit reads the rebuilt full plane.
    """
    # imported here: diagnostics builds on this module
    from .diagnostics import radius_sample

    grid, half = state.grid, state.half
    c2 = np.abs(half) ** 2 * grid.half_multiplicity

    def norm(sigma1: float) -> float:
        assert_sigma_within_guard(grid, sigma1, 0.0)
        return float(_weighted_norm(grid, c2, sigma1, 0.0, grid.measure))

    s1, s2 = cfg.gevrey.sigma1, cfg.gevrey.sigma2
    if s1 == 0.0 and s2 == 0.0:
        remainder_l2 = 0.0
    else:
        rem = _half_remainder(grid, half, s1, s2)
        remainder_l2 = float(half_plane_norms(grid, rem, 0.0, 0.0))
    fit = radius_sample(state)
    return DiagnosticsRecord(
        t=fit.t,
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
    dt: float
    steps: int
    dt_source: str  # "cfl" or "explicit"
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
    if sample_times is None:
        sample_times = np.linspace(0.0, horizon, cfg.time.samples)
    want = sample_steps(sample_times, dt, n_total)
    want_snap = sample_steps(snapshot_times, dt, n_total)

    clock = time.perf_counter
    records: list[DiagnosticsRecord] = []
    snapshots: list[tuple[float, SpectralField]] = []
    records_s = 0.0
    t0 = clock()
    try:
        for state in sampled_states(f, dt, n_total, want | want_snap):
            t_record = clock()
            if state.steps in want_snap:
                snapshots.append((state.steps * dt, state.field))
            if state.steps in want:
                records.append(_record(cfg, state))
            records_s += clock() - t_record
    except BlowUpError as exc:
        raise BlowUpError(str(exc), time=exc.time, records=records) from None
    phase_s = {"stepping": clock() - t0 - records_s, "records": records_s}
    return SimulationOutput(records, snapshots, dt, n_total, dt_source(cfg), phase_s)
