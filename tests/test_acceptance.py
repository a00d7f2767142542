"""Acceptance gate: every shipped claim, one pass/fail line each.

The suite object caches the expensive six-member contraction runs, so the
doubling and agreement criteria share work. Criteria run in their published
order; each test prints the formatted verdict line for the log.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import kp5.acceptance
import kp5.integrator
from kp5.acceptance import AcceptanceSuite
from kp5.config import DEFAULT_C_EMP
from kp5.diagnostics import RadiusDecayResult, RadiusSample

import conftest

_RESULTS = {}


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite()


@pytest.mark.parametrize("cid", AcceptanceSuite.ORDER)
def test_criterion(suite, cid):
    start = time.perf_counter()
    result = getattr(suite, cid.lower())()
    line = replace(result, elapsed=time.perf_counter() - start).line
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
    result = RadiusDecayResult(
        samples, 0.01, 1.0, 0.0, 1.0, c_emp, None, 0, 3, 0.01, 0.01, "window", {},
    )
    monkeypatch.setattr(kp5.acceptance, "radius_decay_run", lambda cfg: result)
    assert AcceptanceSuite().a7().passed is passed


def test_a12_fails_on_a_kp1_sign(monkeypatch):
    """A12's residual is built without the dispersion symbol, so the KP-I
    sign on the eta^2 / xi term, planted where the stepper reads the
    symbol, fails it."""

    def kp1_symbol(grid):
        xi, eta = grid.xi_col, grid.eta_row
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.where(xi == 0.0, 0.0, xi**5 + eta**2 / xi)
        return np.broadcast_to(m, (grid.nx, grid.ny // 2 + 1))

    monkeypatch.setattr(kp5.integrator, "dispersion_symbol", kp1_symbol)
    kp5.integrator._half_phases.cache_clear()
    try:
        result = AcceptanceSuite().a12()
    finally:
        kp5.integrator._half_phases.cache_clear()
    assert not result.passed, result.line
