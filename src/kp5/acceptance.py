"""Acceptance gate: the quantitative checks the toolkit must pass.

Each criterion is a method returning a ``CriterionResult``: named checks,
each a measured value with the comparison and bound it must meet, from which
its pass/fail and its ``kp5 accept`` line derive.  ``run`` executes and times
a subset or all of them, yielding each result as its criterion finishes; the
same ``run`` backs the test suite and the ``kp5 accept`` subcommand, so the
gate cannot drift between the two.
"""

from __future__ import annotations

import math
import operator
import time
import traceback
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    DEFAULT_C_EMP,
    GevreyConfig,
    GridConfig,
    InitialConfig,
    SimConfig,
    TimeConfig,
)
from .diagnostics import (
    GRONWALL_ENVELOPE,
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
    energy_identity_check,
    radius_decay_run,
    radius_estimate,
    uniqueness_gap,
)
from .errors import ConfigError
from .initial_data import make_initial_field
from .integrator import aligned_dt, cfl_dt, initial_field, simulate, step
from .operators import (
    apply_gevrey,
    gevrey_norm,
    half_plane_norms,
    remainder_n,
    semigroup_apply,
)
from .picard import DOUBLING_BOUND, picard_from_config
from .spectral import (
    Grid2D,
    SpectralField,
    dealiased_square,
    full_plane,
    physical_values,
    x_antiderivative,
    x_derivative,
)

SUITE_SIGMA1 = 0.25  # analyticity rate used by the doubling/picard suite

# data suite for the doubling and agreement criteria: two Gaussian scales,
# a derivative profile, a modulated ridge, and two synthetic spectra
SUITE_MEMBERS = (
    ("gaussian-small", InitialConfig(kind="gaussian", amplitude=0.75, width=2.0)),
    ("gaussian-wide", InitialConfig(kind="gaussian", amplitude=1.5, width=3.0)),
    ("gaussian-dx", InitialConfig(kind="gaussian_dx", amplitude=1.0, width=2.0)),
    (
        "line-soliton",
        InitialConfig(kind="line_soliton", amplitude=1.0, width=2.0, ky=1),
    ),
    (
        "spectrum-anisotropic",
        InitialConfig(
            kind="exp_spectrum",
            amplitude=0.5,
            decay_x=1.0,
            decay_y=0.5,
            phases="random",
        ),
    ),
    (
        "spectrum-isotropic",
        InitialConfig(kind="exp_spectrum", amplitude=1.0, decay_x=0.7, decay_y=0.7),
    ),
)


def suite_cfg(init: InitialConfig, seed: int = 7) -> SimConfig:
    """The 64^2 run configuration of a suite member (also used by
    ``scripts/calibrate_c0.py``)."""
    return SimConfig(
        grid=GridConfig(nx=64, ny=64),
        initial=init,
        gevrey=GevreyConfig(sigma1=SUITE_SIGMA1, sigma2=0.0),
        seed=seed,
    )


_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}

# A4's gap bound.  Picard stops at update distance tol = 1e-10; with the
# suite's worst contraction ratio q <= 0.0055 the returned window is within
# q / (1 - q) * tol, about 5.5e-13, of the fixed point, and the rest of the
# gap is quadrature and stepping error (1.005e-12 in all).  Odd-endpoint
# Simpson weights (6, 6, 0)/12 in place of (5, 8, -1)/12 read 2.79e-10.
WINDOW_GAP_TOL = 1e-11


@dataclass(frozen=True)
class Check:
    """One named number of a criterion and the bound it must meet.

    It passes when the value is finite and, with an ``op`` (one of ``<=``,
    ``<``, ``>=``, ``>``), ``value op bound`` holds; without one it is a
    reported number that must still be finite.
    """

    name: str
    value: float
    op: str | None = None
    bound: float = math.nan

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and (
            self.op is None or _COMPARE[self.op](self.value, self.bound)
        )

    def __str__(self) -> str:
        text = f"{self.name} {self.value:.5g}"
        return text if self.op is None else f"{text} ({self.op} {self.bound:g})"


def window_gap(f: SpectralField, result) -> float:
    """A4's gap of one Picard run from the data f: the sup-slice norm at
    SUITE_SIGMA1 of the integrator's states at the slice times (each slice
    crossed in equal steps no longer than the CFL step) minus the window;
    ``scripts/calibrate_c0.py`` bounds it too."""
    window = result.window
    slice_dt = result.delta / (len(window) - 1)
    dt, sub = aligned_dt(slice_dt, cfl_dt(f.grid, 1.0))
    u = f
    stepped = [u.band]
    while len(stepped) < len(window):
        for _ in range(sub):
            u = step(u, dt)
        stepped.append(u.band)
    gap = np.stack(stepped) - window
    return float(half_plane_norms(f.grid, gap, SUITE_SIGMA1, 0.0).max())


def doubling_ratio_check(name: str, result) -> Check:
    """A3's check of a Picard run, and ``kp5 picard``'s ``doubling_passed``."""
    return Check(name, result.doubling_ratio, "<=", DOUBLING_BOUND)


def gronwall_check(result) -> Check:
    """A9's check of a uniqueness run, and ``kp5 uniqueness``'s ``passed``."""
    return Check("max gap/bound over t > 0", result.max_ratio, "<=", GRONWALL_ENVELOPE)


@dataclass(frozen=True)
class CriterionResult:
    """A criterion passes when it has checks and every one of them passes;
    one that raised has none, only its ``error``."""

    cid: str
    title: str
    checks: tuple[Check, ...]
    elapsed: float = 0.0
    error: str | None = None  # "<ExceptionClass>: <message>"

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def line(self) -> str:
        if self.error is not None:
            return f"{self.cid} ERROR {self.error}"
        status = "PASS" if self.passed else "FAIL"
        checks = ", ".join(map(str, self.checks))
        return f"{self.cid} {status} [{self.elapsed:6.1f}s] {self.title}: {checks}"


def bilinear_scale_checks() -> tuple[Check, Check]:
    """A10's scale pin, which its growth ratio cancels: at zero parameters a
    32^2 trial window's norm, per base and by ``from_slices``, is its tapered
    L2 norm sqrt(slice_dt * sum_t psi(t)^2 ||u(t)||^2), psi restated here."""
    n_t, slice_dt = 16, 1.0 / 16
    grid = Grid2D(32, 32, 32.0 * math.pi, 32.0 * math.pi)
    bases = _random_bases(grid, np.random.Generator(np.random.Philox(key=1234)))
    u = np.tensordot(_HARMONICS, bases, axes=(0, 0))  # band slices
    raw = (1.0 - (2.0 * np.arange(n_t) / n_t - 1.0) ** 2) ** 3
    psi = raw / (slice_dt * raw.sum())
    values = physical_values(grid, u)
    l2_sq = grid.cell_area * np.sum(values**2, axis=(1, 2))
    want = math.sqrt(slice_dt * np.sum(psi**2 * l2_sq))
    spectra = _tapered_dft(_HARMONICS.T, slice_dt)
    fields = {"": SpaceTimeField.from_slices(grid, u, slice_dt),
              "per-base ": _basis_window(grid, bases, spectra, slice_dt,
                                         np.empty_like(values))}
    return tuple(
        Check(f"{name}zero-parameter norm vs tapered physical L2 rel err",
              abs(bourgain_norm(f, GevreyParams(b=0.0)) - want) / want, "<=", 1e-12)
        for name, f in fields.items()
    )


class AcceptanceSuite:
    """Caches the shared Picard windows so A3/A4 pay for them once."""

    def __init__(self):
        self._windows = None

    # --- shared fixtures ---

    def picard_suite(self):
        if self._windows is None:
            out = []
            for name, init in SUITE_MEMBERS:
                cfg = suite_cfg(init)
                f = initial_field(cfg)
                out.append((name, f, picard_from_config(cfg, f)))
            self._windows = out
        return self._windows

    # --- criteria ---

    def a1(self) -> CriterionResult:
        out = simulate(SimConfig())  # defaults: 128^2, horizon 1, unit Gaussian
        return CriterionResult("A1", "L2 conservation on the default run", (
            Check("max relative drift", out.l2_drift, "<=", 1e-6),
            Check(f"{out.dt_source} steps", out.steps),
        ))

    def a2(self) -> CriterionResult:
        cfg = suite_cfg(InitialConfig(kind="gaussian", amplitude=1.0, width=2.0))
        f = initial_field(cfg)
        horizon = 0.5
        n0 = 14  # dt well above the CFL step so truncation dominates roundoff

        def evolve(n: int) -> np.ndarray:
            u = f
            for _ in range(n):
                u = step(u, horizon / n)
            return u.band

        bands = np.stack([evolve(n0 * 2**r) for r in range(3)])
        e01, e12 = half_plane_norms(f.grid, bands[:-1] - bands[1:], 0.0, 0.0)
        return CriterionResult("A2", "self-convergence order of the stepper", (
            Check("order", _log2_ratio(e01, e12), ">=", 3.5),
            Check("error dt/dt2", e01),
            Check("error dt2/dt4", e12),
        ))

    def a3(self) -> CriterionResult:
        suite = self.picard_suite()
        ratios = tuple(doubling_ratio_check(name, result) for name, f, result in suite)
        unconverged = sum(not result.converged for *_, result in suite)
        return CriterionResult("A3", "doubling bound on the contraction window", (
            *ratios, Check("unconverged members", unconverged, "<=", 0),
        ))

    def a4(self) -> CriterionResult:
        gaps, ratios = [], []
        for name, f, result in self.picard_suite():
            gaps.append(window_gap(f, result))
            ratios.extend(result.ratios)
        return CriterionResult("A4", "picard window matches the integrator", (
            Check("worst sup-slice gap", _worst(gaps), "<=", WINDOW_GAP_TOL),
            Check("worst contraction ratio", _worst(ratios), "<", 1.0),
        ))

    def a5(self) -> CriterionResult:
        cfg = suite_cfg(InitialConfig(kind="gaussian", amplitude=0.35, width=2.0))
        result = almost_conservation_run(cfg)
        increments = tuple(
            Check(f"|D({s:g})|", abs(d), ">", 0.0) if s > 0 else Check(f"D({s:g})", d)
            for s, d in zip(result.sigmas, result.increments)
        )
        return CriterionResult(
            "A5", "almost-conservation increment scales like sigma", (
                Check("slope", result.slope, ">=", 0.8),
                Check("slope", result.slope, "<=", 1.2),
                *increments,
            ))

    def a6(self) -> CriterionResult:
        cfg = suite_cfg(InitialConfig(kind="gaussian", amplitude=1.0, width=2.0))
        cfg = replace(cfg, gevrey=GevreyConfig(sigma1=0.5, sigma2=0.0))
        result = energy_identity_check(cfg)
        return CriterionResult("A6", "weighted energy identity", (
            Check("rel err", result.rows[0].rel_err, "<=", 1e-3),
            Check("at dt", result.rows[0].dt),
            *(Check("order", o, ">=", 3.0) for o in result.orders),
        ))

    def a7(self) -> CriterionResult:
        sigma1, horizon = 1.0, 50.0
        cfg = SimConfig(
            grid=GridConfig(nx=64, ny=64),
            time=TimeConfig(horizon=horizon),
            initial=InitialConfig(kind="exp_spectrum", amplitude=0.6, decay_x=sigma1,
                                  decay_y=sigma1, phases="random"),
            gevrey=GevreyConfig(sigma1=sigma1, sigma2=0.0),
            seed=11,
        )
        result = radius_decay_run(cfg)
        samples = result.samples
        early_cut = horizon / 50.0
        early_dev = _worst(
            [abs(s.sigma_est - sigma1) for s in samples if s.t <= early_cut]
        )
        collapses = sum(s.sigma_est == 0.0 for s in samples)
        return CriterionResult(
            "A7", "radius of analyticity decays no faster than 1/t", (
                Check(f"plateau dev on t<={early_cut:g} (planted {sigma1:g})",
                      early_dev, "<=", 0.05 * sigma1),
                Check("tail p", result.tail_p, "<=", 1.2),
                # a regression pin of the one seed-11 draw, not a bound
                # that holds across draws
                Check(f"C_emp (seed-{cfg.seed} pin)", result.c_emp,
                      ">=", DEFAULT_C_EMP),
                Check(f"sigma({horizon:g})", samples[-1].sigma_est),
                Check("samples", len(samples)),
                Check("failed fits", result.fit_failures, "<=", 0),
                Check("collapses", collapses, "<=", 0),
            ))

    def a8(self) -> CriterionResult:
        tol = 1e-10
        grid = Grid2D(64, 64, 32.0 * math.pi, 32.0 * math.pi)
        fits, drifts = [], []
        for sigma in (0.3, 0.7, 1.5):
            init = InitialConfig(kind="exp_spectrum", decay_x=sigma, decay_y=sigma)
            f = make_initial_field(grid, init, 0)
            fit = radius_estimate(f)[0]
            moved = radius_estimate(semigroup_apply(f, 0.37))[0]
            fits.append(Check(f"fit error ({sigma:g})", abs(fit - sigma), "<=", tol))
            drifts.append(
                Check(f"free-flow drift ({sigma:g})", abs(moved - fit), "<=", tol)
            )
        return CriterionResult(
            "A8", "planted spectral radius recovered and semigroup-invariant",
            (*fits, *drifts),
        )

    def a9(self) -> CriterionResult:
        cfg = suite_cfg(InitialConfig(kind="gaussian", amplitude=0.75, width=2.0))
        cfg = replace(cfg, time=TimeConfig(horizon=1.0))
        result = uniqueness_gap(cfg, 1e-6)
        return CriterionResult(
            "A9", "perturbation gap under the Gronwall envelope", (
                gronwall_check(result),
                Check("steps", result.run.steps),
            ))

    def a10(self) -> CriterionResult:
        params = GevreyParams(s1=-1.0, s2=0.0, b=0.55, beta=0.45, eps=0.0)
        coarse = bilinear_ratio_trials(params, 200, seed=1234, nx=32, ny=32, stream=0)
        fine = bilinear_ratio_trials(params, 200, seed=1234, nx=64, ny=64, stream=1)
        return CriterionResult(
            "A10", "bilinear ratio stays bounded under grid refinement", (
                Check("max ratio 32^2", coarse.max_ratio),
                Check("max ratio 64^2", fine.max_ratio),
                Check("growth", fine.max_ratio / coarse.max_ratio, "<=", 2.0),
                Check("q95", fine.q95),
                *bilinear_scale_checks(),
            ))

    def a11(self) -> CriterionResult:
        grid = Grid2D(16, 16, 2.0 * math.pi, 2.0 * math.pi)
        f = make_initial_field(grid, InitialConfig(
            kind="exp_spectrum", decay_x=0.4, decay_y=0.4, phases="random"), 99)

        def peak(a: np.ndarray) -> float:
            return float(np.max(np.abs(a)))

        def rel(a: np.ndarray, b: np.ndarray) -> float:
            return peak(a - b) / peak(b)

        n0, l2 = gevrey_norm(f, 0.2, 0.1), gevrey_norm(f, 0.0, 0.0)
        phys_l2 = math.sqrt(np.sum(physical_values(grid, f.band) ** 2) * grid.cell_area)
        n1 = gevrey_norm(semigroup_apply(f, 1.7), 0.2, 0.1)
        comp = apply_gevrey(apply_gevrey(f, 0.3, 0.2), 0.4, 0.1)
        group = semigroup_apply(semigroup_apply(f, 0.4), 0.9)
        single = np.zeros(grid.band_shape, dtype=complex)
        single[1, 0] = single[-1, 0] = 0.5  # one mode pair, (+-1, 0)
        sf = SpectralField(grid, single)
        oracle = _oracle_remainder(f, 0.5, 0.3)
        return CriterionResult(
            "A11", "operator algebra identities and convolution oracle", (
                Check("identity-weight",
                      peak(apply_gevrey(f, 0.0, 0.0).band - f.band), "<=", 0.0),
                Check("weight-composition",
                      rel(comp.band, apply_gevrey(f, 0.7, 0.3).band), "<=", 1e-12),
                Check("semigroup-unitary", abs(n1 - n0) / n0, "<=", 1e-13),
                Check("semigroup-group-law",
                      rel(group.band, semigroup_apply(f, 1.3).band), "<=", 1e-13),
                Check("dx-roundtrip",
                      rel(x_antiderivative(x_derivative(f)).band, f.band), "<=", 1e-13),
                Check("parseval", abs(phys_l2 - l2) / l2, "<=", 1e-12),
                Check("remainder-zero-sigma",
                      peak(remainder_n(f, 0.0, 0.0).band), "<=", 0.0),
                Check("remainder-single-mode",
                      peak(remainder_n(sf, 0.8, 0.0).band), "<=", 1e-12),
                Check("remainder-oracle",
                      rel(remainder_n(f, 0.5, 0.3).band, oracle), "<=", 1e-12),
            ))

    def a12(self) -> CriterionResult:
        cfg = SimConfig(
            grid=GridConfig(nx=32, ny=32),
            initial=InitialConfig(kind="exp_spectrum", amplitude=0.8, phases="random"),
            seed=3,
        )
        f = initial_field(cfg)
        fine, coarse = _equation_residual(f, 0.5, 1e-3), _equation_residual(f, 0.5, 4e-3)
        order = _log2_ratio(coarse, fine) / 2.0
        return CriterionResult("A12", "stepped states solve fifth-order KP-II", (
            Check("centred-difference residual at h=1e-3", fine, "<=", 1e-4),
            Check("order against h=4e-3", order, ">=", 1.8),
            Check("order against h=4e-3", order, "<=", 2.2),
        ))

    # --- driver ---

    ORDER = tuple(f"A{i}" for i in range(1, 13))

    def run(self, only=None) -> Iterator[CriterionResult]:
        """The results of the wanted criteria (all by default), each yielded
        as it finishes.  Every id is checked before any criterion runs; a
        criterion that raises gives an ``error`` result and the rest run."""
        wanted = list(self.ORDER) if not only else list(only)
        known = f"{self.ORDER[0]}..{self.ORDER[-1]}"
        for cid in wanted:
            if cid not in self.ORDER:
                raise ConfigError("only", f"unknown criterion {cid!r} (known: {known})")
        return map(self._timed, wanted)

    def _timed(self, cid: str) -> CriterionResult:
        start = time.perf_counter()
        try:
            res = getattr(self, cid.lower())()
        except Exception as exc:  # report it and run the rest
            traceback.print_exc()
            res = CriterionResult(cid, "", (), error=f"{type(exc).__name__}: {exc}")
        return replace(res, elapsed=time.perf_counter() - start)


def _worst(values) -> float:
    """The largest of the values, nan if any is nan (``max`` would drop it)."""
    return float(np.max(values))


def _oracle_remainder(field: SpectralField, sigma1: float, sigma2: float) -> np.ndarray:
    """Remainder by explicit linear convolution over the dealiased band, on
    the band.

    Independent of the FFT path: the convolution runs over the full-plane
    modes, in O(n^4) loops, only sensible on tiny grids.
    """
    g = field.grid
    kx, ky = g.nx // 3, g.ny // 3
    c = full_plane(g, field.band)
    weight = {}
    for j in range(-kx, kx + 1):
        for k in range(-ky, ky + 1):
            xi = 2.0 * np.pi * j / g.lx
            eta = 2.0 * np.pi * k / g.ly
            weight[(j, k)] = math.exp(sigma1 * abs(xi) + sigma2 * abs(eta))

    def conv(a: dict, b: dict) -> dict:
        out = {}
        for j in range(-kx, kx + 1):
            for k in range(ky + 1):
                acc = 0.0 + 0.0j
                for j1 in range(-kx, kx + 1):
                    j2 = j - j1
                    if abs(j2) > kx:
                        continue
                    for k1 in range(-ky, ky + 1):
                        k2 = k - k1
                        if abs(k2) > ky:
                            continue
                        acc += a[(j1, k1)] * b[(j2, k2)]
                out[(j, k)] = acc
        return out

    fd = {
        (j, k): c[g.mode_index(j, k)]
        for j in range(-kx, kx + 1)
        for k in range(-ky, ky + 1)
    }
    afd = {key: weight[key] * val for key, val in fd.items()}
    t1 = conv(afd, afd)
    t2 = conv(fd, fd)
    out = np.zeros(g.band_shape, dtype=complex)
    for j in range(-kx, kx + 1):
        for k in range(ky + 1):
            xi = 2.0 * np.pi * j / g.lx
            out[j % len(g.band_j), k] = (1j * xi) * (
                t1[(j, k)] - weight[(j, k)] * t2[(j, k)]
            )
    return out


def _equation_residual(f: SpectralField, t: float, h: float) -> float:
    """Relative L2 residual of the centred difference (u(t+h) - u(t-h)) / 2h
    of stepped states against the KP-II right-hand side at u(t),

        u_t = dx^5 u - dx^{-1} dy^2 u - 1/2 dx(u^2),

    built from the spectral derivatives and the product kernel, not from
    the stepper's dispersion symbol, so a sign error there shows.  The
    residual is the centred difference's O(h^2) error."""
    grid = f.grid
    u = f
    for _ in range(round(t / h) - 1):
        u = step(u, h)
    before = u.band
    u = step(u, h)
    after = step(u, h).band
    d5 = u
    for _ in range(5):
        d5 = x_derivative(d5)
    dyy = x_antiderivative(SpectralField(grid, (1j * grid.eta_row) ** 2 * u.band))
    rhs = d5.band - dyy.band - 0.5j * grid.xi_col * dealiased_square(grid, u.band)
    diff = (after - before) / (2.0 * h) - rhs
    norms = half_plane_norms(grid, np.stack([diff, rhs]), 0.0, 0.0)
    return float(norms[0] / norms[1])

