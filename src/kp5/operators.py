"""Multiplier operators and norms for the fifth-order KP-II flow.

The linear part of the equation

    u_t - u_xxxxx + dx^{-1} u_yy + u u_x = 0

is diagonal in Fourier space with symbol m(xi, eta) = xi^5 - eta^2/xi
(defined as 0 on the xi = 0 fiber, which the flow never populates), so the
free propagator is the unitary multiplier exp(i*t*m).

Analyticity is tracked with exponential frequency weights
A = exp(sigma1*|xi| + sigma2*|eta|).  All weighted norms include the domain
measure,

    ||u||^2 = lx*ly * sum_{j,k} w(xi_j, eta_k) * |c[j,k]|^2,

so the unweighted case (sigma = s = 0) coincides with the physical L2 norm.
Every operator acts on a field's 2/3 band, where the columns k > 0 count
twice.  Weighted sums take no exponential per mode: the weights come from
cached tables, and each sum is the safe-scaled Euclidean norm of the
weighted amplitudes a = |c| * sqrt(multiplicity) * A, divided by their
largest value before squaring, so sigma values near the overflow guard
stay finite and the dominant shell is summed at full precision.
``gevrey_norm`` (one field), ``band_norms`` (a stack of bands), the
integrator's ladder, the Picard window's norms and the space-time
``bourgain_norm`` share that one sum.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SigmaOverflowError
from .spectral import Grid2D, SpectralField, _frozen, dealiased_square

# exp argument budget: exp(650) ~ 1e282 leaves headroom for the mode sums
SIGMA_GUARD_LIMIT = 650.0
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max


def max_admissible_sigma1(grid: Grid2D, sigma2: float = 0.0) -> float:
    """Largest sigma1 passing the overflow guard at the given sigma2."""
    budget = SIGMA_GUARD_LIMIT - sigma2 * grid.eta_max
    return max(0.0, budget / grid.xi_max)


def assert_sigma_within_guard(grid: Grid2D, sigma1: float, sigma2: float) -> None:
    if sigma1 < 0 or sigma2 < 0:
        raise ValueError("analyticity radii sigma1, sigma2 must be >= 0")
    load = sigma1 * grid.xi_max + sigma2 * grid.eta_max
    if load > SIGMA_GUARD_LIMIT:
        raise SigmaOverflowError(
            f"sigma1={sigma1:g}, sigma2={sigma2:g} put exp argument at "
            f"{load:.1f} > {SIGMA_GUARD_LIMIT:g} on this grid; largest "
            f"admissible sigma1 at this sigma2 is "
            f"{max_admissible_sigma1(grid, sigma2):.6g}"
        )


def _weighted_norm(
    amp: np.ndarray, table: np.ndarray, measure: float, axes: int = 2
) -> np.ndarray:
    """sqrt(measure * sum((amp * table)**2)) over the last ``axes`` axes of
    the nonnegative amplitudes ``amp``, one value per leading index (a 0-d
    array when there is none).

    ``amp`` is scaled in place, so pass an array the caller no longer needs.
    Each sum is taken as s * sqrt(measure * sum((a / s)**2)), s the largest
    weighted amplitude a, so no square overflows (Blue, ACM TOMS 4 (1978)
    15); no exponential is taken.  Zero data give exactly 0, and a weighted
    amplitude that overflows a double gives inf, never nan.
    """
    with np.errstate(over="ignore"):
        a = np.multiply(amp, table, out=amp)
        flat = a.reshape(a.shape[: a.ndim - axes] + (-1,))
        top = np.maximum.reduce(flat, axis=-1, keepdims=True)
        # clamped to the normal range, a zero sum stays 0 and one holding an
        # overflowed amplitude stays inf (inf / max is inf, not inf / inf)
        scale = np.minimum(np.maximum(top, _TINY), _HUGE)
        flat *= 1.0 / scale
        total = np.vecdot(flat, flat)
        return scale[..., 0] * np.sqrt(measure * total)


@lru_cache(maxsize=8)
def _weight(grid: Grid2D, sigma1: float, sigma2: float) -> np.ndarray:
    """exp(sigma1*|xi| + sigma2*|eta|) on the 2/3 band."""
    return _frozen(np.exp(sigma1 * np.abs(grid.xi_col) + sigma2 * np.abs(grid.eta_row)))


@lru_cache(maxsize=8)
def _norm_weight(grid: Grid2D, sigma1: float, sigma2: float) -> np.ndarray:
    """``_weight`` times the square root of the column multiplicity: the
    table that turns |c| into the amplitudes of a band norm."""
    return _frozen(_weight(grid, sigma1, sigma2) * np.sqrt(grid.column_multiplicity))


def apply_gevrey(field: SpectralField, sigma1: float, sigma2: float) -> SpectralField:
    """Multiply coefficients by exp(sigma1*|xi| + sigma2*|eta|)."""
    assert_sigma_within_guard(field.grid, sigma1, sigma2)
    return SpectralField(field.grid, field.band * _weight(field.grid, sigma1, sigma2))


def gevrey_norm(field: SpectralField, sigma1: float, sigma2: float) -> float:
    """Exponentially weighted L2 norm; equals physical L2 at sigma = 0."""
    return float(band_norms(field.grid, field.band, sigma1, sigma2))


def band_norms(
    grid: Grid2D, band: np.ndarray, sigma1: float, sigma2: float
) -> np.ndarray:
    """``gevrey_norm`` of the real fields with the given 2/3 bands, one per
    leading index (a 0-d array for a single band)."""
    assert_sigma_within_guard(grid, sigma1, sigma2)
    table = _norm_weight(grid, sigma1, sigma2)
    return _weighted_norm(np.abs(band), table, grid.measure)


def ladder_norms(field: SpectralField, sigmas) -> list[float]:
    """``gevrey_norm`` at each rate sigma1 of a ladder (sigma2 = 0), as one sum."""
    assert_sigma_within_guard(field.grid, max(sigmas), 0.0)
    tables = np.stack([_norm_weight(field.grid, s, 0.0) for s in sigmas])
    return _weighted_norm(np.abs(field.band) * tables, 1.0, field.grid.measure).tolist()


@lru_cache(maxsize=8)
def dispersion_symbol(grid: Grid2D) -> np.ndarray:
    """m(xi, eta) = xi^5 - eta^2/xi on the 2/3 band, zero on the xi = 0
    fiber."""
    xi = grid.xi_col
    eta = grid.eta_row
    with np.errstate(divide="ignore", invalid="ignore"):
        m = xi**5 - eta**2 / xi
    m = np.where(xi == 0.0, 0.0, m)
    return _frozen(np.ascontiguousarray(np.broadcast_to(m, grid.band_shape)))


def semigroup_apply(field: SpectralField, t: float) -> SpectralField:
    """Free evolution exp(i*t*m), a unitary multiplier on every norm here."""
    phase = np.exp(1j * t * dispersion_symbol(field.grid))
    return SpectralField(field.grid, field.band * phase)


def l2_inner(a: SpectralField, b: SpectralField) -> float:
    """Physical-space inner product of two real fields via their coefficients."""
    if a.grid != b.grid:
        raise ValueError("inner product requires a shared grid")
    g = a.grid
    products = np.real(a.band * np.conj(b.band)) * g.column_multiplicity
    return float(g.measure * np.sum(products))


def remainder_n(field: SpectralField, sigma1: float, sigma2: float) -> SpectralField:
    """Weight-commutator remainder N(f) = dx[(A f)^2 - A(f^2)].

    A is the exponential weight at (sigma1, sigma2); both squares go
    through the dealiased-square kernel.  Vanishes
    identically at sigma1 = sigma2 = 0 (exactly, in floating point: both
    branches then run on bitwise-equal inputs).  On single-mode data the
    two branches agree wherever the triangle inequality is an equality, so
    N = 0 there too.
    """
    grid = field.grid
    assert_sigma_within_guard(grid, sigma1, sigma2)
    weight = _weight(grid, sigma1, sigma2)
    f = field.band
    diff = dealiased_square(grid, weight * f)
    diff -= weight * dealiased_square(grid, f)
    diff *= 1j * grid.xi_col
    return SpectralField(grid, diff)
