import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_plane_wavenumbers, random_band_field
from kp5.acceptance import _oracle_remainder
from kp5.errors import SigmaOverflowError
from kp5.operators import (
    SIGMA_GUARD_LIMIT,
    apply_gevrey,
    assert_sigma_within_guard,
    band_norms,
    dispersion_symbol,
    gevrey_norm,
    l2_inner,
    max_admissible_sigma1,
    remainder_n,
    semigroup_apply,
)
from kp5.spectral import (
    Grid2D,
    SpectralField,
    full_plane,
    physical_values,
)


def plant_pair(grid, j, k, amp):
    """Hermitian conjugate pair at +/-(j,k)."""
    c = np.zeros((grid.nx, grid.ny), dtype=complex)
    c[grid.mode_index(j, k)] = amp
    c[grid.mode_index(-j, -k)] = np.conj(amp)
    return SpectralField.from_coefficients(grid, c)


def test_single_pair_norm_closed_form(grid16):
    amp = 0.3 - 0.4j
    f = plant_pair(grid16, 3, 2, amp)
    sigma1, sigma2 = 0.5, 0.25
    expected = math.sqrt(
        grid16.lx
        * grid16.ly
        * 2.0
        * abs(amp) ** 2
        * math.exp(2 * (sigma1 * 3 + sigma2 * 2))
    )
    got = gevrey_norm(f, sigma1, sigma2)
    assert got == pytest.approx(expected, rel=1e-13)


def test_zero_weight_norm_is_l2(grid16):
    f = random_band_field(grid16, seed=4)
    c = full_plane(grid16, f.band)
    direct = np.sqrt(grid16.lx * grid16.ly * np.sum(np.abs(c) ** 2))
    assert gevrey_norm(f, 0.0, 0.0) == pytest.approx(direct, rel=1e-13)


def test_norm_survives_weights_whose_squares_overflow():
    """Sum stabilization: single weights fit in a double, their squares do
    not; j = 5 is the band's top row, and at j = 1 the empty high modes
    carry the overflowing weights."""
    grid = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    sigma1 = 81.0
    assert sigma1 < max_admissible_sigma1(grid)
    amp = 1e-3
    for j in (5, 1):
        f = plant_pair(grid, j, 0, amp)
        n = gevrey_norm(f, sigma1, 0.0)
        assert math.isfinite(n)
        log_expected = 0.5 * math.log(grid.lx * grid.ly * 2 * amp**2) + sigma1 * j
        assert math.log(n) == pytest.approx(log_expected, rel=1e-12)


@pytest.mark.parametrize(
    "sigma1, sigma2",
    [(0.0, 0.0), (0.3, 0.2), (0.0, 0.5), (150.0, 150.0), ("max", 0.0)],
)
def test_half_plane_norms_match_full_plane_gevrey_norm(sigma1, sigma2):
    """``band_norms`` of a stack of bands against the full-plane sum: band
    columns k > 0 stand for two modes each; the largest rates square
    weights beyond the double range, so the full-plane reference sums in
    logarithms.  "max" is the largest sigma1 the overflow guard admits."""
    grid = Grid2D(32, 48, 16 * np.pi, 24 * np.pi)
    if sigma1 == "max":
        sigma1 = max_admissible_sigma1(grid, sigma2)
    fields = [random_band_field(grid, seed=s) for s in (21, 22, 23)]
    stack = np.stack([f.band for f in fields])
    got = band_norms(grid, stack, sigma1, sigma2)
    assert got.shape == (3,)
    xi, eta = full_plane_wavenumbers(grid)
    logw = sigma1 * np.abs(xi) + sigma2 * np.abs(eta)
    for norm, f in zip(got, fields):
        c2 = np.abs(full_plane(grid, f.band)) ** 2
        terms = 2.0 * logw[c2 > 0] + np.log(c2[c2 > 0])
        top = terms.max()
        want = math.exp(0.5 * (top + math.log(grid.measure * np.exp(terms - top).sum())))
        assert np.isfinite(norm)
        assert abs(norm - want) <= 1e-13 * want
        assert abs(gevrey_norm(f, sigma1, sigma2) - norm) <= 1e-15 * norm


def test_overflowing_weighted_amplitude_gives_inf_not_nan():
    """The weight fits in a double, the weighted amplitude does not."""
    grid = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    sigma1 = max_admissible_sigma1(grid)
    f = plant_pair(grid, 5, 0, 1e140)  # weight exp(5 * sigma1) ~ 1e176
    stack = np.stack([f.band, np.zeros_like(f.band), 1e-100 * f.band])
    norms = band_norms(grid, stack, sigma1, 0.0)
    assert norms[0] == np.inf and norms[1] == 0.0 and np.isfinite(norms[2])
    assert gevrey_norm(f, sigma1, 0.0) == np.inf


def test_zero_stack_norms_are_exactly_zero(recwarn):
    grid = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    stack = np.zeros((3, *grid.band_shape), dtype=complex)
    for sigma1 in (0.0, 1.0, max_admissible_sigma1(grid)):
        norms = band_norms(grid, stack, sigma1, 0.0)
        assert norms.shape == (3,) and np.all(norms == 0.0)
    assert len(recwarn) == 0


def test_apply_gevrey_identity_and_composition(grid16):
    f = random_band_field(grid16, seed=8)
    ident = apply_gevrey(f, 0.0, 0.0)
    assert np.array_equal(ident.band, f.band)
    once = apply_gevrey(apply_gevrey(f, 0.3, 0.1), 0.2, 0.25)
    direct = apply_gevrey(f, 0.5, 0.35)
    assert np.allclose(once.band, direct.band, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    s_lo=st.floats(0.0, 1.0),
    s_hi=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_norm_monotone_in_sigma(s_lo, s_hi, seed):
    grid = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    f = random_band_field(grid, seed=seed)
    lo, hi = sorted((s_lo, s_hi))
    assert gevrey_norm(f, lo, 0.0) <= gevrey_norm(f, hi, 0.0) * (1 + 1e-12)


def test_sigma_guard(grid32):
    limit = max_admissible_sigma1(grid32)
    assert limit == pytest.approx(SIGMA_GUARD_LIMIT / grid32.xi_max)
    assert_sigma_within_guard(grid32, limit * 0.99, 0.0)
    with pytest.raises(SigmaOverflowError) as info:
        assert_sigma_within_guard(grid32, limit * 1.01, 0.0)
    assert f"{limit:g}" in str(info.value)  # the message names the largest sigma1


def test_dispersion_symbol_values(grid16):
    m = dispersion_symbol(grid16)
    assert m.shape == grid16.band_shape == (11, 6)
    assert m[2, 3] == pytest.approx(2**5 - 9 / 2)  # band rows: j = 0..5, -5..-1
    assert m[-2, 3] == pytest.approx(-(2**5) + 9 / 2)
    assert np.all(m[0, :] == 0.0)  # the xi = 0 fiber carries no phase


def test_semigroup_unitary_group_law(grid16):
    f = random_band_field(grid16, seed=10)
    n0 = gevrey_norm(f, 0.0, 0.0)
    moved = semigroup_apply(f, 0.37)
    assert gevrey_norm(moved, 0.0, 0.0) == pytest.approx(n0, rel=1e-13)
    two_hops = semigroup_apply(semigroup_apply(f, 0.21), 0.16)
    assert np.allclose(two_hops.band, moved.band, rtol=0, atol=1e-13 * n0)
    frozen = semigroup_apply(f, 0.0)
    assert np.array_equal(frozen.band, f.band)


def test_semigroup_inverse(grid16):
    f = random_band_field(grid16, seed=12)
    back = semigroup_apply(semigroup_apply(f, 1.3), -1.3)
    scale = np.max(np.abs(f.band))
    assert np.max(np.abs(back.band - f.band)) <= 1e-14 * scale


def test_l2_inner_matches_physical_integral(grid16):
    a = random_band_field(grid16, seed=1)
    b = random_band_field(grid16, seed=2)
    ua, ub = physical_values(grid16, a.band), physical_values(grid16, b.band)
    direct = grid16.cell_area * float(np.sum(ua * ub))
    assert l2_inner(a, b) == pytest.approx(direct, rel=1e-11)
    assert l2_inner(a, b) == pytest.approx(l2_inner(b, a), rel=1e-14)
    assert l2_inner(a, a) == pytest.approx(gevrey_norm(a, 0, 0) ** 2, rel=1e-12)


def test_remainder_vanishes_without_weight(grid16):
    f = random_band_field(grid16, seed=14)
    r = remainder_n(f, 0.0, 0.0)
    assert np.all(r.band == 0.0)


def test_remainder_single_pair_vanishes(grid16):
    # both branches see the same two-mode interactions, where the
    # triangle inequality for |xi| is an equality
    f = plant_pair(grid16, 2, 1, 0.7)
    r = remainder_n(f, 0.4, 0.2)
    assert np.max(np.abs(r.band)) < 1e-14


def test_remainder_matches_convolution_oracle(grid16):
    # A11's oracle: explicit linear convolution, written against the
    # definition and not the FFT path
    f = random_band_field(grid16, seed=17)
    got = remainder_n(f, 0.4, 0.15).band
    want = _oracle_remainder(f, 0.4, 0.15)
    scale = np.max(np.abs(want))
    assert scale > 0
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_remainder_output_is_real_with_zero_x_fiber(grid16):
    f = random_band_field(grid16, seed=18)
    r = remainder_n(f, 0.3, 0.0)
    assert not r.band[0].any()
    # column k = 0 pairs j with -j, as a real field's does
    col = r.band[:, 0]
    defect = np.max(np.abs(col - np.conj(col[-np.arange(11)])))
    assert defect <= 1e-15 * np.max(np.abs(r.band))
