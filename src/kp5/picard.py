"""Successive approximation on a short contraction window.

The mild form of the flow on [0, delta],

    u(t) = S(t) f - 1/2 integral_0^t S(t - t') dx(w(t')^2) dt',

is iterated from the free evolution u_0(t) = S(t) f.  The data f is a
``SpectralField`` and a window is one complex array of shape
(slices + 1, nx, ny//2 + 1): the rfft2 half planes of the real field at
the slice times i * delta / slices, the layout of the field itself, so a
window is real by construction.  Every operation works on the whole stack
at once: the forcing is one call of the dealiased-square kernel over all
slices, the time integral is a cumulative composite Simpson rule along
axis 0 (an even slice count, so Simpson pairs tile the window), and the
iteration distance is the sup over slices of the half-plane Gevrey norm of
the difference (``operators.half_plane_norms``), written into the spent
window's buffer.  With contraction the per-iterate ratios sit well below 1
and the window length rule

    delta = c0 / (1 + ||f||)^exponent,  exponent > 1

keeps them there uniformly in the data size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import SimConfig
from .errors import BlowUpError, PicardDivergenceError
from .operators import dispersion_symbol, gevrey_norm, half_plane_norms
from .spectral import Grid2D, SpectralField, _frozen, dealiased_square

DOUBLING_BOUND = 2.0  # the window norm may reach this multiple of the data norm


def delta_rule(f_norm: float, c0: float, exponent: float) -> float:
    """Contraction window length c0 / (1 + f_norm)^exponent, decreasing in
    the data norm; nan when the data leave no window (the norm is not
    finite, or the window underflows to 0)."""
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    if not exponent > 1:
        raise ValueError("exponent must exceed 1")
    if f_norm < 0:
        raise ValueError("data norm must be >= 0")
    try:
        delta = c0 / (1.0 + f_norm) ** exponent
    except OverflowError:  # the window is below the smallest double
        return math.nan
    return delta if delta > 0.0 else math.nan


def data_window(cfg: SimConfig, f: SpectralField, sigma1: float, sigma2=0.0) -> float:
    """``delta_rule`` for the norm of the data f at the rates (sigma1, sigma2)
    and the configured constants; ``BlowUpError`` when the data leave none."""
    norm = gevrey_norm(f, sigma1, sigma2)
    delta = delta_rule(norm, cfg.delta.c0, cfg.delta.exponent)
    if math.isnan(delta):
        raise BlowUpError("initial data leave no contraction window", time=0.0)
    return delta


def cumulative_simpson_uniform(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly spaced samples along axis 0.

    Even endpoints use composite Simpson pairs, h/3 * (l + 4m + r);
    odd endpoints integrate the local parabola through the surrounding
    three samples over its first half, h/12 * (5l + 8m - r), taken from
    the pair sum as h/6 * ((l + 4m + r) + 3/2 (l - r)).  Works on complex
    data (axis 0 is time, trailing axes ride along) and fills one new
    array, with no temporaries of the pair size.
    """
    n = values.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of samples (even interval count)")
    left, mid, right = values[0:-2:2], values[1:-1:2], values[2::2]
    out = np.empty_like(values)
    out[0] = 0.0
    pairs, odd = out[2::2], out[1::2]
    np.multiply(mid, 4.0, out=pairs)
    pairs += left
    pairs += right
    np.subtract(left, right, out=odd)
    odd *= 1.5
    odd += pairs
    odd *= h / 6.0
    pairs *= h / 3.0
    # a running sum slice by slice: np.cumsum along axis 0 is several
    # times slower on this layout
    for i in range(1, pairs.shape[0]):
        pairs[i] += pairs[i - 1]
    odd[1:] += pairs[:-1]
    return out


@lru_cache(maxsize=1)
def _window_phases(grid: Grid2D, delta: float, n_slices: int) -> np.ndarray:
    """exp(i * t_i * m) on the half plane for every slice time, stacked
    along axis 0 (only the latest window's phases are kept).

    Since m(-xi, eta) = -m(xi, eta), only rows 0 <= j <= nx/2 take an
    exponential; rows -j are their conjugates.  The table is filled in
    place.
    """
    times = np.linspace(0.0, delta, n_slices)
    m = dispersion_symbol(grid)
    top = grid.nx // 2 + 1
    phases = np.empty((n_slices,) + m.shape, dtype=np.complex128)
    upper = phases[:, :top]
    np.multiply(times[:, None, None], 1j * m[None, :top], out=upper)
    np.exp(upper, out=upper)
    np.conjugate(phases[:, top - 2 : 0 : -1], out=phases[:, top:])
    return _frozen(phases)


def free_window(f: SpectralField, delta: float, slices: int) -> np.ndarray:
    """Free evolution S(t) f at the slices + 1 window times, a new
    (slices + 1, nx, ny//2 + 1) array."""
    return _window_phases(f.grid, delta, slices + 1) * f.half


def duhamel_apply(f: SpectralField, window: np.ndarray, delta: float) -> np.ndarray:
    """One mild-form application to a window of length delta: free flow of
    f plus the driven integral, as a new array of the window's shape.

    The propagator is commuted through the integral,
    S(t - t') = S(t) S(-t'), so a single cumulative quadrature in the
    rotated frame serves every output slice; the x-derivative commutes
    with the quadrature too and is applied once, after it.
    """
    grid = f.grid
    n = window.shape[0]
    phases = _window_phases(grid, delta, n)
    # rotate the square back by conj(phases) as conj(conj(F) * phases), in
    # place: no conjugated copy of the phase stack is made
    forcing = dealiased_square(grid, window)
    np.conjugate(forcing, out=forcing)
    forcing *= phases
    cum = cumulative_simpson_uniform(forcing, delta / (n - 1))
    np.conjugate(cum, out=cum)
    cum *= -0.5j * grid.xi_col
    cum += f.half
    cum *= phases
    return cum


@dataclass(frozen=True)
class PicardResult:
    """One Picard run on the window [0, delta]."""

    window: np.ndarray  # read-only (slices + 1, nx, ny//2 + 1) last iterate
    delta: float
    data_norm: float  # ||f|| at the iteration's rates
    distances: tuple[float, ...]  # d_n = sup-slice norm of u_n - u_{n-1}
    ratios: tuple[float, ...]  # d_n / d_{n-1}, one per n >= 2
    sup_norms: tuple[float, ...]  # sup-slice norm of each iterate
    converged: bool
    iterations: int

    @property
    def doubling_ratio(self) -> float:
        """The window norm over the data norm, at most DOUBLING_BOUND on a
        contraction window; 0 for zero data."""
        return self.sup_norms[-1] / self.data_norm if self.data_norm else 0.0


def picard_iterate(
    f: SpectralField,
    delta: float,
    *,
    sigma1: float,
    sigma2: float,
    slices: int,
    n_max: int,
    tol: float,
) -> PicardResult:
    """Iterate the mild form from the free window until the update
    distance drops under tol.

    Raises ``PicardDivergenceError`` after three consecutive non-decreasing
    distances: on a correctly sized window the map is a contraction, so
    sustained non-decrease means delta was too long.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not delta > 0:
        raise ValueError("window length must be positive")
    if slices < 2 or slices % 2:  # Simpson pairs tile the window
        raise ValueError("slices must be even and >= 2")
    grid = f.grid
    window = free_window(f, delta, slices)
    distances: list[float] = []
    sup_norms: list[float] = []
    for n in range(1, n_max + 1):
        cur = duhamel_apply(f, window, delta)
        # the spent window's buffer takes the difference; rebinding
        # ``window`` frees it before the next application
        np.subtract(window, cur, out=window)
        distances.append(float(half_plane_norms(grid, window, sigma1, sigma2).max()))
        sup_norms.append(float(half_plane_norms(grid, cur, sigma1, sigma2).max()))
        window = cur
        if distances[-1] <= tol:
            break
        if n >= 3 and distances[-1] >= distances[-2] >= distances[-3]:
            raise PicardDivergenceError(
                f"update distance stopped contracting after {n} iterations "
                f"({distances[-3]:.3e} -> {distances[-2]:.3e} -> "
                f"{distances[-1]:.3e}); use a shorter window (smaller delta)"
            )
    window.setflags(write=False)
    # with tol >= 0 a zero distance ends the loop, so no ratio divides by 0
    ratios = tuple(b / a for a, b in zip(distances, distances[1:]))
    return PicardResult(
        window, delta, gevrey_norm(f, sigma1, sigma2), tuple(distances), ratios,
        tuple(sup_norms), distances[-1] <= tol, n,
    )


def picard_from_config(cfg: SimConfig, f: SpectralField) -> PicardResult:
    """The Picard iteration that ``cfg`` sets for the data f, on the
    ``data_window`` at the config's rates (sigma1, sigma2)."""
    g, p = cfg.gevrey, cfg.picard
    delta = data_window(cfg, f, g.sigma1, g.sigma2)
    return picard_iterate(
        f, delta, sigma1=g.sigma1, sigma2=g.sigma2,
        slices=p.slices, n_max=p.n_max, tol=p.tol,
    )
