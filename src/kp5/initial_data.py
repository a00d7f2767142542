"""Initial-condition families used by the simulations and experiments.

All constructors return the zero-x-mean ``rfft2`` half plane of their data,
shape (nx, ny//2 + 1), as a plain array: the flow map needs dx^{-1}, so the
j = 0 fiber is projected out: collocation values become
``rfft2(values, norm="forward")`` with row j = 0 zeroed.  ``amplitude`` means
the peak physical value before that projection (for the synthetic-spectrum
family the raw spectrum is rescaled to hit the requested peak), so data
sizes are comparable across families.  ``KINDS`` maps each config
``initial.kind`` to its constructor, and ``make_initial_field``, where
configured data enter, cuts the half plane to the 2/3 band of a
``SpectralField`` and rejects data that overflow a double.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .spectral import Grid2D, SpectralField, _mirror


def _from_values(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    half = np.fft.rfft2(values, norm="forward")
    half[0, :] = 0.0
    return half


def gaussian(grid: Grid2D, amplitude: float, width: float) -> np.ndarray:
    """Isotropic Gaussian bump centered in the domain."""
    x = grid.x_nodes[:, None] - grid.lx / 2.0
    y = grid.y_nodes[None, :] - grid.ly / 2.0
    values = amplitude * np.exp(-(x**2 + y**2) / width**2)
    return _from_values(grid, values)


def gaussian_dx(grid: Grid2D, amplitude: float, width: float) -> np.ndarray:
    """x-derivative of a Gaussian bump, normalized to peak ``amplitude``.

    The analytic derivative profile  -2x/w^2 * exp(-r^2/w^2)  peaks at
    sqrt(2/e)/w, so the prefactor is chosen to undo that.
    """
    x = grid.x_nodes[:, None] - grid.lx / 2.0
    y = grid.y_nodes[None, :] - grid.ly / 2.0
    peak = np.sqrt(2.0 / np.e) / width
    values = (
        amplitude / peak * (-2.0 * x / width**2) * np.exp(-(x**2 + y**2) / width**2)
    )
    return _from_values(grid, values)


def line_soliton(
    grid: Grid2D, amplitude: float, width: float, ky_mod: int = 1
) -> np.ndarray:
    """sech^2 ridge along y with a transverse cosine modulation."""
    x = grid.x_nodes[:, None] - grid.lx / 2.0
    y = grid.y_nodes[None, :]
    profile = amplitude / np.cosh(x / width) ** 2
    values = profile * np.cos(2.0 * np.pi * ky_mod * y / grid.ly)
    return _from_values(grid, values)


def exp_spectrum(
    grid: Grid2D,
    amplitude: float,
    decay_x: float,
    decay_y: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Synthetic field with exact spectral decay exp(-dx*|xi| - dy*|eta|).

    Every non-Nyquist mode with j != 0 carries the prescribed magnitude, so
    a radius fit on this data recovers ``decay_x`` to rounding error.  With
    an ``rng``, modes get random phases (Hermitian-paired so the field stays
    real); without one the coefficients are real and positive.  The whole
    spectrum, Nyquist row and column zeroed, is rescaled so the physical
    field peaks at ``amplitude``.
    """
    if decay_x < 0 or decay_y < 0:
        raise ValueError("spectral decay rates must be >= 0")
    g = grid
    eta = g.eta[None, : g.ny // 2 + 1]
    mag = np.exp(-decay_x * np.abs(g.xi[:, None]) - decay_y * np.abs(eta))
    mag[0, :] = 0.0
    mag[g.nx // 2, :] = 0.0
    mag[:, -1] = 0.0
    if rng is None:
        coeffs = mag.astype(np.complex128)
    else:
        # full-plane phases, antisymmetrized so c(-j,-k) = conj(c(j,k))
        # holds exactly; the half plane keeps columns k = 0..ny/2
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(g.nx, g.ny))
        theta = 0.5 * (theta - _mirror(theta))
        coeffs = mag * np.exp(1j * theta[:, : g.ny // 2 + 1])
    peak = float(np.max(np.abs(np.fft.irfft2(coeffs, s=(g.nx, g.ny), norm="forward"))))
    if peak == 0.0:
        return coeffs
    return coeffs * (amplitude / peak)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox): same seed, same stream, any order."""
    return np.random.Generator(np.random.Philox(key=seed))


# each constructor builds the generator only if its data draw from the seed,
# so other data never load numpy.random
KINDS = {
    "gaussian": lambda g, i, seed: gaussian(g, i.amplitude, i.width),
    "gaussian_dx": lambda g, i, seed: gaussian_dx(g, i.amplitude, i.width),
    "line_soliton": lambda g, i, seed: line_soliton(g, i.amplitude, i.width, i.ky),
    "exp_spectrum": lambda g, i, seed: exp_spectrum(
        g, i.amplitude, i.decay_x, i.decay_y,
        rng_from_seed(seed) if i.phases == "random" else None,
    ),
}


def make_initial_field(grid: Grid2D, init, seed: int) -> SpectralField:
    """The field of an ``InitialConfig``-shaped object (see config module):
    the half plane its kind's constructor in ``KINDS`` builds from the run's
    seed, cut to the 2/3 band; data that are not finite raise
    ``ConfigError``."""
    build = KINDS.get(init.kind)
    if build is None:
        raise ConfigError("initial.kind", f"unknown kind {init.kind!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        half = build(grid, init, seed)
    field = SpectralField(grid, half[grid.band_j, : grid.ny // 3 + 1])
    if not np.all(np.isfinite(field.band)):
        raise ConfigError(
            "initial.amplitude", f"{init.amplitude:g} overflows the {init.kind} data"
        )
    return field
