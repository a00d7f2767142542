"""Acceptance gate: every shipped claim, one pass/fail line each.

The suite object caches the expensive six-member contraction runs, so the
doubling and agreement criteria share work. Criteria run in their published
order through the same ``run`` as ``kp5 accept``; each test prints the
verdict line for the log.  A table of planted defects checks that each one
fails the criterion check meant to catch it.
"""

import math
from functools import partial

import numpy as np
import pytest

import kp5.acceptance
import kp5.diagnostics
import kp5.integrator
import kp5.picard
import kp5.spectral
from kp5.acceptance import AcceptanceSuite, Check, CriterionResult
from kp5.config import DEFAULT_C_EMP
from kp5.diagnostics import RadiusDecayResult, RadiusSample
from kp5.integrator import SimulationOutput
from kp5.spectral import Grid2D, SpectralField

import conftest

_RESULTS = {}


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite()


@pytest.mark.parametrize("cid", AcceptanceSuite.ORDER)
def test_criterion(suite, cid):
    (result,) = suite.run([cid])
    line = result.line
    _RESULTS[cid] = line
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert result.passed, line


def test_all_criteria_reported():
    assert set(_RESULTS) == set(AcceptanceSuite.ORDER)
    for cid in AcceptanceSuite.ORDER:
        print(_RESULTS[cid])


@pytest.mark.parametrize("c_emp, passed", [(DEFAULT_C_EMP, True), (0.99 * DEFAULT_C_EMP, False)])
def test_a7_floor_is_the_shipped_constant(monkeypatch, c_emp, passed):
    # a run that passes every other A7 condition: plateau at the planted
    # 1, flat tail, no failed or collapsed fit
    samples = (RadiusSample(0.0, 1.0, 0.0), RadiusSample(25.0, 1.0, 0.0),
               RadiusSample(50.0, 1.0, 0.0))
    run = SimulationOutput(list(samples), [], 0.01, 0.01, 3, "window", {})
    result = RadiusDecayResult(samples, 0.01, 1.0, 0.0, 1.0, c_emp, None, 0, run)
    monkeypatch.setattr(kp5.acceptance, "radius_decay_run", lambda cfg: result)
    assert AcceptanceSuite().a7().passed is passed


@pytest.mark.parametrize("check, passed", [
    (Check("reported", 3.0), True),
    (Check("reported", math.inf), False),
    (Check("bounded", 1.0, "<=", 1.0), True),
    (Check("bounded", 1.0, "<", 1.0), False),
    (Check("bounded", math.nan, ">=", 0.0), False),
    (Check("bounded", -math.inf, "<=", 0.0), False),
])
def test_check_needs_a_finite_value_within_its_bound(check, passed):
    assert check.passed is passed


def test_result_line_is_built_from_its_checks():
    result = CriterionResult("A0", "title", (
        Check("gap", 1.00512e-12, "<=", 1e-11), Check("steps", 48),
    ), elapsed=1.5)
    assert result.passed
    assert result.line == "A0 PASS [   1.5s] title: gap 1.0051e-12 (<= 1e-11), steps 48"
    assert not CriterionResult("A0", "title", ()).passed


def _plant_identity_step(monkeypatch):
    monkeypatch.setattr(kp5.acceptance, "step", lambda u, dt, t=0.0: u)


def _lawson_step(weights):
    """An IF-RK4 step in Lawson form with update weights ``weights`` / 6,
    built from the stepper's own phases and right-hand side: at (1, 2, 2, 1)
    it is ``step``."""
    b1, b2, b3, b4 = (w / 6.0 for w in weights)

    def lawson(field, dt, t=0.0):
        grid, c = field.grid, field.band
        e = kp5.integrator._half_phases(grid, dt)
        rhs = partial(kp5.integrator._half_rhs, grid)
        k1 = rhs(c)
        k2 = rhs(e * (c + 0.5 * dt * k1))
        k3 = rhs(e * c + 0.5 * dt * k2)
        k4 = rhs(e * (e * c + dt * k3))
        new = e * (e * c + dt * (b1 * e * k1 + b2 * k2 + b3 * k3)) + dt * b4 * k4
        return SpectralField(grid, new)

    return lawson


def test_lawson_step_at_classical_weights_is_the_stepper():
    f = conftest.random_band_field(Grid2D(32, 32, 32 * np.pi, 32 * np.pi), seed=4)
    want = kp5.integrator.step(f, 0.01).band
    got = _lawson_step((1, 2, 2, 1))(f, 0.01).band
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _plant_rk4_weights(monkeypatch):
    """RK4 update weights (1, 1.5, 1.5, 2)/6: they still sum to 1, so the
    step is consistent, but only first order."""
    monkeypatch.setattr(kp5.acceptance, "step", _lawson_step((1, 1.5, 1.5, 2)))


def _plant_nan_radius_fit(monkeypatch):
    monkeypatch.setattr(
        kp5.acceptance, "radius_estimate", lambda field: (math.nan, math.nan)
    )


def _plant_nan_semigroup(monkeypatch):
    monkeypatch.setattr(
        kp5.acceptance, "semigroup_apply",
        lambda field, t: SpectralField(field.grid, np.full_like(field.band, np.nan)),
    )


def _plant_simpson_trapezoid_odd_end(monkeypatch):
    """Odd endpoints of the cumulative rule weighted (6, 6, 0)/12, the
    trapezoid over the first half pair, in place of (5, 8, -1)/12, in the
    pair step of the Duhamel map."""
    simpson = kp5.picard._simpson_pair

    def planted(left, mid, right, h, carry, odd, pair):
        simpson(left, mid, right, h, carry, odd, pair)
        np.multiply(left + mid, 0.5 * h, out=odd)
        if carry is not None:
            odd += carry

    monkeypatch.setattr(kp5.picard, "_simpson_pair", planted)


def _plant_kp1_sign(monkeypatch):
    """The KP-I sign on the eta^2 / xi term where the stepper reads the
    dispersion symbol; A12's residual is built without that symbol."""

    def kp1_symbol(grid):
        xi, eta = grid.xi_col, grid.eta_row
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.where(xi == 0.0, 0.0, xi**5 + eta**2 / xi)
        return np.broadcast_to(m, grid.band_shape)

    monkeypatch.setattr(kp5.integrator, "dispersion_symbol", kp1_symbol)
    kp5.integrator._half_phases.cache_clear()


def _plant_undealiased_product(monkeypatch):
    """The product kernel's square taken without its zero padding: the
    transform pair runs on the band's own lattice of (2*(nx//3) + 1) by
    2*(ny//3) + 1 points, so the modes of the square past the band wrap
    back onto it, and the remainder keeps those aliased modes."""

    def values(grid, band):
        rows, cols = grid.band_shape
        return np.fft.irfft2(band, s=(rows, 2 * cols - 1), norm="forward")

    monkeypatch.setattr(kp5.spectral, "physical_values", values)
    monkeypatch.setattr(
        kp5.spectral, "dealiased_coefficients",
        lambda grid, values: np.fft.rfft2(values, norm="forward"),
    )


def _plant_rhs_coefficient(monkeypatch):
    """-0.45 i xi in place of -1/2 i xi on the stepper's transport term."""
    monkeypatch.setattr(
        kp5.integrator, "_rhs_multiplier",
        lambda grid: np.ascontiguousarray(
            np.broadcast_to(-0.45j * grid.xi_col, grid.band_shape)
        ),
    )


def _plant_unscaled_taper(monkeypatch):
    """The window taper normalised to discrete sum 1, raw / raw.sum(),
    instead of mass 1 (sum times slice_dt)."""
    taper = kp5.diagnostics.window_taper
    monkeypatch.setattr(
        kp5.diagnostics, "window_taper",
        lambda n_t, slice_dt: taper(n_t, slice_dt) * slice_dt,
    )


@pytest.mark.parametrize("plant, criterion, check", [
    pytest.param(_plant_identity_step, "A2", "order", id="identity-step"),
    pytest.param(_plant_rk4_weights, "A2", "order", id="rk4-weights"),
    pytest.param(_plant_nan_radius_fit, "A8", "fit error (0.3)", id="nan-radius-fit"),
    pytest.param(_plant_nan_semigroup, "A11", "semigroup-unitary", id="nan-semigroup"),
    pytest.param(_plant_simpson_trapezoid_odd_end, "A4", "worst sup-slice gap",
                 id="simpson-odd-end"),
    pytest.param(_plant_kp1_sign, "A12", "centred-difference residual at h=1e-3",
                 id="kp1-sign"),
    pytest.param(_plant_undealiased_product, "A11", "remainder-oracle",
                 id="undealiased-product"),
    pytest.param(_plant_rhs_coefficient, "A12", "centred-difference residual at h=1e-3",
                 id="rhs-coefficient"),
    pytest.param(_plant_unscaled_taper, kp5.acceptance.bilinear_scale_checks,
                 "zero-parameter norm vs tapered physical L2 rel err",
                 id="unscaled-taper"),
])
def test_planted_defect_fails_its_check(monkeypatch, plant, criterion, check):
    """``criterion`` is a criterion id, run through the suite, or the
    function that makes the criterion's named checks, run alone."""
    plant(monkeypatch)
    try:
        if callable(criterion):
            checks = criterion()
        else:
            (result,) = AcceptanceSuite().run([criterion])
            checks = result.checks
    finally:
        kp5.integrator._half_phases.cache_clear()
    failed = [c.name for c in checks if not c.passed]
    assert check in failed, [(c.name, c.value) for c in checks]
