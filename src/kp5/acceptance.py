"""Acceptance gate: the quantitative checks the toolkit must pass.

Each criterion is a method returning a ``CriterionResult``; ``run`` executes
a subset or all of them.  The same functions back the test suite and the
``kp5 accept`` subcommand, so the gate cannot drift between the two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    DEFAULT_C_EMP,
    GevreyConfig,
    GridConfig,
    InitialConfig,
    PicardConfig,
    SimConfig,
    TimeConfig,
)
from .diagnostics import (
    GRONWALL_ENVELOPE,
    SpaceTimeField,
    _random_window,
    almost_conservation_run,
    bilinear_ratio_trials,
    bourgain_norm,
    energy_identity_check,
    radius_decay_run,
    radius_estimate,
    uniqueness_gap,
)
from .initial_data import exp_spectrum
from .integrator import cfl_dt, initial_field, simulate, step
from .operators import (
    GevreyParams,
    apply_gevrey,
    gevrey_norm,
    half_plane_norms,
    remainder_n,
    semigroup_apply,
)
from .picard import DOUBLING_BOUND, doubling_check, picard_from_config
from .spectral import (
    Grid2D,
    SpectralField,
    dealias,
    dealiased_square,
    full_plane,
    inverse_transform,
    physical_l2_norm,
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


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    passed: bool
    detail: str
    elapsed: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.cid} {status} [{self.elapsed:6.1f}s] {self.title}: {self.detail}"


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
                norm, delta, result = picard_from_config(cfg, f)
                out.append((name, cfg, f, norm, delta, result))
            self._windows = out
        return self._windows

    # --- criteria ---

    def a1(self) -> CriterionResult:
        tol = 1e-6
        cfg = SimConfig()  # defaults: 128^2, horizon 1, unit Gaussian
        out = simulate(cfg)
        drift = out.l2_drift
        return CriterionResult(
            "A1",
            "L2 conservation on the default run",
            drift <= tol,
            f"max relative drift {drift:.3e} (tol {tol:g}) over {out.steps} "
            f"{out.dt_source} steps",
            0.0,
        )

    def a2(self) -> CriterionResult:
        need = 3.5
        cfg = suite_cfg(InitialConfig(kind="gaussian", amplitude=1.0, width=2.0))
        f = initial_field(cfg)
        horizon = 0.5
        n0 = 14  # dt well above the CFL step so truncation dominates roundoff

        def evolve(n: int) -> np.ndarray:
            u = f
            for _ in range(n):
                u = step(u, horizon / n)
            return u.half

        halves = np.stack([evolve(n0 * 2**r) for r in range(3)])
        e01, e12 = half_plane_norms(f.grid, halves[:-1] - halves[1:], 0.0, 0.0)
        order = math.log2(e01 / e12) if e12 > 0 else float("inf")
        return CriterionResult(
            "A2",
            "self-convergence order of the stepper",
            order >= need,
            f"order {order:.2f} from errors {e01:.3e}, {e12:.3e} (need >= {need})",
            0.0,
        )

    def a3(self) -> CriterionResult:
        worst = 0.0
        details = []
        ok = True
        for name, cfg, f, norm, delta, result in self.picard_suite():
            check = doubling_check(norm, result.sup_norms[-1])
            ok = ok and check.passed and result.converged
            worst = max(worst, check.ratio)
            details.append(f"{name}={check.ratio:.3f}")
        return CriterionResult(
            "A3",
            "doubling bound on the contraction window",
            ok,
            f"worst ratio {worst:.3f} (bound {DOUBLING_BOUND:g}); " + ", ".join(details),
            0.0,
        )

    def a4(self) -> CriterionResult:
        tol = 10.0 * PicardConfig.tol
        worst = 0.0
        ratios_ok = True
        ok = True
        for name, cfg, f, norm, delta, result in self.picard_suite():
            window = result.window
            slice_dt = window.slice_dt
            sub = max(1, math.ceil(slice_dt / cfl_dt(f.grid, 1.0)))
            u = f
            stepped = [u.half]
            while len(stepped) < window.half.shape[0]:
                for _ in range(sub):
                    u = step(u, slice_dt / sub)
                stepped.append(u.half)
            gap = float(half_plane_norms(
                f.grid, np.stack(stepped) - window.half, SUITE_SIGMA1, 0.0
            ).max())
            worst = max(worst, gap)
            ok = ok and gap <= tol
            ratios_ok = ratios_ok and all(r < 1.0 for r in result.ratios)
        return CriterionResult(
            "A4",
            "picard window matches the integrator",
            ok and ratios_ok,
            f"worst sup-slice gap {worst:.3e} (tol {tol:g}); "
            f"contraction ratios all < 1: {ratios_ok}",
            0.0,
        )

    def a5(self) -> CriterionResult:
        lo, hi = 0.8, 1.2
        cfg = suite_cfg(InitialConfig(kind="gaussian", amplitude=0.35, width=2.0))
        result = almost_conservation_run(cfg)
        nonzero = all(
            math.isfinite(d) and d != 0.0
            for s, d in zip(result.sigmas, result.increments)
            if s > 0
        )
        ok = nonzero and lo <= result.slope <= hi
        pairs = ", ".join(
            f"D({s:g})={d:.3e}" for s, d in zip(result.sigmas, result.increments)
        )
        return CriterionResult(
            "A5",
            "almost-conservation increment scales like sigma",
            ok,
            f"slope {result.slope:.3f} (need within [{lo}, {hi}]); {pairs}",
            0.0,
        )

    def a6(self) -> CriterionResult:
        tol, min_order = 1e-3, 3.0
        cfg = suite_cfg(InitialConfig(kind="gaussian", amplitude=1.0, width=2.0))
        cfg = replace(cfg, gevrey=GevreyConfig(sigma1=0.5, sigma2=0.0))
        result = energy_identity_check(cfg)
        first = result.rows[0].rel_err
        order_ok = all(o >= min_order for o in result.orders)
        ok = first <= tol and order_ok
        return CriterionResult(
            "A6",
            "weighted energy identity",
            ok,
            f"rel err {first:.3e} at dt={result.rows[0].dt:.2e} (tol {tol:g}); "
            f"orders {', '.join(f'{o:.2f}' for o in result.orders)} "
            f"(need >= {min_order})",
            0.0,
        )

    def a7(self) -> CriterionResult:
        sigma1, horizon = 1.0, 50.0
        cfg = SimConfig(
            grid=GridConfig(nx=64, ny=64),
            time=TimeConfig(horizon=horizon),
            initial=InitialConfig(
                kind="exp_spectrum",
                amplitude=0.6,
                decay_x=sigma1,
                decay_y=sigma1,
                phases="random",
            ),
            gevrey=GevreyConfig(sigma1=sigma1, sigma2=0.0),
            seed=11,
        )
        result = radius_decay_run(cfg)
        early_cut = horizon / 50.0
        early_dev = max(
            abs(s.sigma_est - sigma1) for s in result.samples if s.t <= early_cut
        )
        plateau_ok = early_dev <= 0.05 * sigma1
        floor_ok = math.isfinite(result.c_emp) and result.c_emp >= DEFAULT_C_EMP
        p_ok = math.isfinite(result.tail_p) and result.tail_p <= 1.2
        final = result.samples[-1].sigma_est
        fits_ok = result.fit_failures == 0
        ok = (
            plateau_ok and floor_ok and p_ok and fits_ok
            and result.collapse_time is None
        )
        return CriterionResult(
            "A7",
            "radius of analyticity decays no faster than 1/t",
            ok,
            f"plateau dev {early_dev:.4f} on t<={early_cut:g} (planted {sigma1:g}), "
            f"tail p {result.tail_p:.3f} (<= 1.2), "
            f"C_emp {result.c_emp:.4f} (>= {DEFAULT_C_EMP:g}), "
            f"sigma({horizon:g}) = {final:.3f}, "
            f"failed fits {result.fit_failures} of {len(result.samples)} (need 0)",
            0.0,
        )

    def a8(self) -> CriterionResult:
        tol = 1e-10
        grid = Grid2D(64, 64, 32.0 * math.pi, 32.0 * math.pi)
        worst_fit = 0.0
        worst_invariance = 0.0
        for sigma in (0.3, 0.7, 1.5):
            f = exp_spectrum(grid, 1.0, sigma, sigma)
            fit = radius_estimate(f)
            worst_fit = max(worst_fit, abs(fit.sigma_est - sigma))
            moved = radius_estimate(semigroup_apply(f, 0.37))
            worst_invariance = max(
                worst_invariance, abs(moved.sigma_est - fit.sigma_est)
            )
        ok = worst_fit <= tol and worst_invariance <= tol
        return CriterionResult(
            "A8",
            "planted spectral radius recovered and semigroup-invariant",
            ok,
            f"worst fit error {worst_fit:.2e}, worst drift under free flow "
            f"{worst_invariance:.2e} (tol {tol:g})",
            0.0,
        )

    def a9(self) -> CriterionResult:
        eps = 1e-6
        cfg = suite_cfg(InitialConfig(kind="gaussian", amplitude=0.75, width=2.0))
        cfg = replace(cfg, time=TimeConfig(horizon=1.0))
        result = uniqueness_gap(cfg, eps)
        return CriterionResult(
            "A9",
            "perturbation gap under the Gronwall envelope",
            result.passed,
            f"max gap/bound over t > 0 {result.max_ratio:.4f} "
            f"(envelope {GRONWALL_ENVELOPE:g}) over {len(result.samples) - 1} steps",
            0.0,
        )

    def a10(self) -> CriterionResult:
        growth_bound, trials = 2.0, 200
        params = GevreyParams(s1=-1.0, s2=0.0, b=0.55, beta=0.45, eps=0.0)
        coarse = bilinear_ratio_trials(
            params, trials, seed=1234, nx=32, ny=32, stream=0
        )
        fine = bilinear_ratio_trials(
            params, trials, seed=1234, nx=64, ny=64, stream=1
        )
        growth = fine.max_ratio / coarse.max_ratio
        finite = math.isfinite(coarse.max_ratio) and math.isfinite(fine.max_ratio)
        # the growth ratio cancels a global scale error, so pin the scale:
        # at all-zero parameters the norm of a trial window is its tapered
        # space-time L2 norm, sqrt(slice_dt * sum_t psi(t)^2 ||u(t)||^2),
        # with the taper restated here and ||u(t)|| from physical values
        scale_tol, n_t, slice_dt = 1e-12, 16, 1.0 / 16
        grid = Grid2D(32, 32, 32.0 * math.pi, 32.0 * math.pi)
        u = _random_window(grid, n_t, np.random.Generator(np.random.Philox(key=1234)))
        raw = (1.0 - (2.0 * np.arange(n_t) / n_t - 1.0) ** 2) ** 3
        psi = raw / (slice_dt * raw.sum())
        l2_sq = grid.cell_area * np.sum(physical_values(grid, u) ** 2, axis=(1, 2))
        want = math.sqrt(slice_dt * np.sum(psi**2 * l2_sq))
        got = bourgain_norm(
            SpaceTimeField.from_slices(grid, u, slice_dt), GevreyParams(b=0.0)
        )
        scale_err = abs(got - want) / want
        ok = finite and growth <= growth_bound and scale_err <= scale_tol
        return CriterionResult(
            "A10",
            "bilinear ratio stays bounded under grid refinement",
            ok,
            f"max ratio {coarse.max_ratio:.4f} -> {fine.max_ratio:.4f}, growth "
            f"{growth:.3f} (bound {growth_bound:g}), q95 {fine.q95:.4f}; "
            f"zero-parameter norm vs tapered physical L2 rel err "
            f"{scale_err:.2e} (tol {scale_tol:g})",
            0.0,
        )

    def a11(self) -> CriterionResult:
        checks: list[tuple[str, float, float]] = []  # (name, value, tol)
        grid = Grid2D(16, 16, 2.0 * math.pi, 2.0 * math.pi)
        rng = np.random.Generator(np.random.Philox(key=99))
        f = dealias(exp_spectrum(grid, 1.0, 0.4, 0.4, rng=rng))

        # identity weight is exact
        checks.append(
            ("identity-weight", float(np.max(np.abs(
                apply_gevrey(f, 0.0, 0.0).half - f.half))), 0.0)
        )
        # weight composition
        comp = apply_gevrey(apply_gevrey(f, 0.3, 0.2), 0.4, 0.1)
        direct = apply_gevrey(f, 0.7, 0.3)
        scale = float(np.max(np.abs(direct.half)))
        checks.append(
            ("weight-composition", float(np.max(np.abs(
                comp.half - direct.half))) / scale, 1e-12)
        )
        # semigroup unitarity and group law
        n0 = gevrey_norm(f, 0.2, 0.1)
        n1 = gevrey_norm(semigroup_apply(f, 1.7), 0.2, 0.1)
        checks.append(("semigroup-unitary", abs(n1 - n0) / n0, 1e-13))
        ab = semigroup_apply(semigroup_apply(f, 0.4), 0.9)
        once = semigroup_apply(f, 1.3)
        checks.append(
            ("semigroup-group-law", float(np.max(np.abs(
                ab.half - once.half))) / float(np.max(np.abs(once.half))),
             1e-13)
        )
        # derivative/antiderivative round trip
        rt = x_antiderivative(x_derivative(f))
        checks.append(
            ("dx-roundtrip", float(np.max(np.abs(rt.half - f.half))) /
             float(np.max(np.abs(f.half))), 1e-13)
        )
        # Parseval anchor
        u = inverse_transform(f)
        checks.append(
            ("parseval", abs(physical_l2_norm(u) - gevrey_norm(f, 0.0, 0.0)) /
             gevrey_norm(f, 0.0, 0.0), 1e-12)
        )
        # remainder vanishes at zero weight, exactly
        rem0 = remainder_n(f, 0.0, 0.0)
        checks.append(
            ("remainder-zero-sigma", float(np.max(np.abs(rem0.half))), 0.0)
        )
        # remainder vanishes on a single mode pair
        single = np.zeros((grid.nx, grid.ny), dtype=complex)
        single[grid.mode_index(1, 0)] = 0.5
        single[grid.mode_index(-1, 0)] = 0.5
        sf = SpectralField.from_coefficients(grid, single)
        rem1 = remainder_n(sf, 0.8, 0.0)
        checks.append(
            ("remainder-single-mode", float(np.max(np.abs(rem1.half))), 1e-12)
        )
        # remainder against a direct convolution oracle
        rem = remainder_n(f, 0.5, 0.3)
        oracle = _oracle_remainder(f, 0.5, 0.3)
        rs = float(np.max(np.abs(oracle)))
        checks.append(
            ("remainder-oracle", float(np.max(np.abs(rem.half - oracle))) / rs,
             1e-12)
        )

        failed = [f"{n}={v:.2e}" for n, v, tol in checks if v > tol]
        worst = max(v / tol if tol > 0 else (1.0 if v > 0 else 0.0)
                    for _, v, tol in checks)
        return CriterionResult(
            "A11",
            "operator algebra identities and convolution oracle",
            not failed,
            ("all identities hold; worst margin "
             f"{worst:.2e} of tolerance") if not failed
            else "violations: " + ", ".join(failed),
            0.0,
        )

    def a12(self) -> CriterionResult:
        tol, lo, hi = 1e-4, 1.8, 2.2
        cfg = SimConfig(
            grid=GridConfig(nx=32, ny=32),
            initial=InitialConfig(kind="exp_spectrum", amplitude=0.8, phases="random"),
            seed=3,
        )
        f = initial_field(cfg)
        fine, coarse = _equation_residual(f, 0.5, 1e-3), _equation_residual(f, 0.5, 4e-3)
        order = math.log2(coarse / fine) / 2.0
        return CriterionResult(
            "A12",
            "stepped states solve fifth-order KP-II",
            fine <= tol and lo <= order <= hi,
            f"centred-difference residual {fine:.3e} at h=1e-3 (tol {tol:g}), "
            f"order {order:.2f} against h=4e-3 (need within [{lo}, {hi}])",
            0.0,
        )

    # --- driver ---

    ORDER = tuple(f"A{i}" for i in range(1, 13))

    def run(self, only=None) -> list[CriterionResult]:
        wanted = list(self.ORDER) if not only else list(only)
        results = []
        for cid in wanted:
            if cid not in self.ORDER:
                raise ValueError(f"unknown criterion {cid!r}")
            fn = getattr(self, cid.lower())
            start = time.perf_counter()
            res = fn()
            results.append(replace(res, elapsed=time.perf_counter() - start))
        return results


def _oracle_remainder(field: SpectralField, sigma1: float, sigma2: float) -> np.ndarray:
    """Remainder by explicit linear convolution over the dealiased band, on
    the half plane.

    Independent of the FFT path: the convolution runs over the full-plane
    modes, in O(n^4) loops, only sensible on tiny grids.
    """
    g = field.grid
    kx, ky = g.nx // 3, g.ny // 3
    c = full_plane(g, dealias(field).half)
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
    out = np.zeros((g.nx, g.ny // 2 + 1), dtype=complex)
    for j in range(-kx, kx + 1):
        for k in range(ky + 1):
            xi = 2.0 * np.pi * j / g.lx
            out[g.mode_index(j, k)] = (1j * xi) * (
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
    before = u.half
    u = step(u, h)
    after = step(u, h).half
    d5 = u
    for _ in range(5):
        d5 = x_derivative(d5)
    dyy = x_antiderivative(SpectralField(grid, (1j * grid.eta_row) ** 2 * u.half))
    rhs = d5.half - dyy.half - 0.5j * grid.xi_col * dealiased_square(grid, u.half)
    diff = (after - before) / (2.0 * h) - rhs
    norms = half_plane_norms(grid, np.stack([diff, rhs]), 0.0, 0.0)
    return float(norms[0] / norms[1])


def run_acceptance(only=None) -> list[CriterionResult]:
    return AcceptanceSuite().run(only)
