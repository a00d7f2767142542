"""Successive approximation on a short contraction window.

The mild form of the flow on [0, delta],

    u(t) = S(t) f - 1/2 integral_0^t S(t - t') dx(w(t')^2) dt',

is iterated from the free evolution u_0(t) = S(t) f.  The data f is a
``SpectralField`` whose modes lie on the 2/3 band, and so does every
iterate: S(t) is diagonal and the forcing is a dealiased square.  So a
window is one complex array of shape (slices + 1, 2*(nx//3) + 1, ny//3 + 1):
the rfft2 half planes of the real field at the slice times
i * delta / slices, kept on the band only (``spectral.to_band``; rows in FFT
order), so a window is real and dealiased by construction, and every
elementwise step and norm skips the modes the 2/3 rule drops.  A run keeps
one such buffer and no other array of its size: each iteration sweeps it
one Simpson pair of slices at a time (an even slice count, so the pairs tile
the window), making the pair's phases exp(i t m) afresh, squaring the pair
with the dealiased-square kernel (through ``spectral.from_band``), advancing
the cumulative Simpson integral from the slice before, and writing the new
pair over the old one once its update distance and norm are taken, so every
temporary holds a few slices and stays in cache.  The iteration distance is
the sup over slices of the Gevrey norm of the update.  With contraction the
per-iterate ratios sit well below 1 and the window rule

    delta = c0 / (1 + ||f||)^exponent,  exponent > 1

keeps them there uniformly in the data size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimConfig
from .errors import BlowUpError, PicardDivergenceError
from .operators import (
    _norm_weight,
    _weighted_norm,
    assert_sigma_within_guard,
    dispersion_symbol,
    gevrey_norm,
)
from .spectral import (
    Grid2D,
    SpectralField,
    dealiased_square,
    field_band,
    from_band,
    to_band,
)

DOUBLING_BOUND = 2.0  # the window norm may reach this multiple of the data norm


def delta_rule(f_norm: float, c0: float, exponent: float) -> float:
    """Contraction window length c0 / (1 + f_norm)^exponent, decreasing in
    the data norm.  Data that leave no window (a norm that is not finite,
    or a window that underflows to 0) raise ``BlowUpError`` at t = 0."""
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    if not exponent > 1:
        raise ValueError("exponent must exceed 1")
    if f_norm < 0:
        raise ValueError("data norm must be >= 0")
    try:
        delta = c0 / (1.0 + f_norm) ** exponent
    except OverflowError:  # the window is below the smallest double
        delta = 0.0
    if not delta > 0.0:  # also a nan or infinite norm
        raise BlowUpError("initial data leave no contraction window", time=0.0)
    return delta


def data_window(cfg: SimConfig, f: SpectralField, sigma1: float, sigma2=0.0) -> float:
    """``delta_rule`` for the norm of the data f at the rates (sigma1, sigma2)
    and the configured constants."""
    return delta_rule(gevrey_norm(f, sigma1, sigma2), cfg.delta.c0, cfg.delta.exponent)


def _simpson_pair(left, mid, right, h, carry, odd, pair) -> None:
    """One Simpson pair of a cumulative integral of samples spaced h apart.

    ``pair`` gets the integral to ``right``, h/3 * (l + 4m + r), and ``odd``
    the integral to ``mid`` of the parabola through the three samples,
    h/12 * (5l + 8m - r), taken from the pair sum as
    h/6 * ((l + 4m + r) + 3/2 (l - r)); both add ``carry``, the integral to
    ``left`` (None at the start, where it is 0).  Works on complex arrays
    of any shape, with no temporaries.
    """
    np.multiply(mid, 4.0, out=pair)
    pair += left
    pair += right
    np.subtract(left, right, out=odd)
    odd *= 1.5
    odd += pair
    odd *= h / 6.0
    pair *= h / 3.0
    if carry is not None:
        pair += carry
        odd += carry


def _block_phases(grid: Grid2D, delta: float, n_slices: int):
    """Slice 0 alone, then each Simpson pair (slices p+1, p+2), as
    (slice, phases): exp(i * t_i * m) on the 2/3 band at the block's times,
    written into one reused contiguous (2, band) buffer, so a block's
    phases hold only until the next block is taken.

    Since m(-xi, eta) = -m(xi, eta), only rows 0 <= j <= nx//3 take an
    exponential; rows -j are their conjugates.
    """
    times = np.linspace(0.0, delta, n_slices)
    m = to_band(grid, dispersion_symbol(grid))
    top = grid.nx // 3 + 1
    rate = 1j * m[None, :top]
    buffer = np.empty((2,) + m.shape, dtype=np.complex128)
    for s in [slice(0, 1)] + [slice(p, p + 2) for p in range(1, n_slices, 2)]:
        t = times[s]
        phases = buffer[: len(t)]
        upper = phases[:, :top]
        np.multiply(t[:, None, None], rate, out=upper)
        np.exp(upper, out=upper)
        np.conjugate(phases[:, top - 1 : 0 : -1], out=phases[:, top:])
        yield s, phases


def free_window(f: SpectralField, delta: float, slices: int) -> np.ndarray:
    """Free evolution S(t) f at the slices + 1 window times, a new
    (slices + 1, 2*(nx//3) + 1, ny//3 + 1) band array.  Data with modes
    off the 2/3 band raise ``ValueError``: the window could not hold them."""
    band = field_band(f)
    window = np.empty((slices + 1,) + band.shape, dtype=np.complex128)
    for s, phases in _block_phases(f.grid, delta, slices + 1):
        np.multiply(phases, band, out=window[s])
    return window


def duhamel_apply(
    f: SpectralField, window: np.ndarray, delta: float, sigma1: float, sigma2: float
) -> tuple[float, float]:
    """One mild-form application to a band window of length delta, free
    flow of f plus the driven integral, written over the window.  Returns
    the update distance and the sup norm of the new window: the sup-slice
    norms at the rates (sigma1, sigma2) of old - new and of new.  The rates
    must pass the overflow guard, which ``picard_iterate`` checks.

    The propagator is commuted through the integral,
    S(t - t') = S(t) S(-t'), so one cumulative quadrature in the rotated
    frame serves every output slice; the x-derivative commutes with the
    quadrature too and is applied once, after it.  The sweep takes one
    Simpson pair (slices p+1, p+2) at a time, so every temporary holds a
    few slices: a new slice depends only on old slices at or before it,
    whose squares are taken before they are overwritten.
    """
    grid, n = f.grid, window.shape[0]
    table = to_band(grid, _norm_weight(grid, sigma1, sigma2))
    data = to_band(grid, f.half)
    kick = -0.5j * to_band(grid, grid.xi_col)
    norms = np.empty((2, n))  # per slice: ||old - new|| and ||new||
    left = carry = None
    for s, phases in _block_phases(grid, delta, n):
        # the square rotated back by conj(phases) as conj(conj(F) * phases),
        # in place: no conjugated copy of the phases is made
        forcing = to_band(grid, dealiased_square(grid, from_band(grid, window[s])))
        np.conjugate(forcing, out=forcing)
        forcing *= phases
        # the update and the new slices side by side, for one norm call
        out = np.empty((2,) + forcing.shape, dtype=np.complex128)
        update, cum = out
        if left is None:  # the integral to slice 0 is 0
            cum[...] = 0.0
        else:
            _simpson_pair(left, *forcing, delta / (n - 1), carry, *cum)
            carry = cum[1].copy()
        left = forcing[-1]
        np.conjugate(cum, out=cum)
        cum *= kick
        cum += data
        cum *= phases
        np.subtract(window[s], cum, out=update)
        norms[:, s] = _weighted_norm(np.abs(out), table, grid.measure)
        window[s] = cum
    return float(norms[0].max()), float(norms[1].max())


@dataclass(frozen=True)
class PicardResult:
    """One Picard run on the window [0, delta]."""

    window: np.ndarray  # read-only band window of the last iterate
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
    assert_sigma_within_guard(f.grid, sigma1, sigma2)
    window = free_window(f, delta, slices)
    distances: list[float] = []
    sup_norms: list[float] = []
    for n in range(1, n_max + 1):
        distance, sup_norm = duhamel_apply(f, window, delta, sigma1, sigma2)
        distances.append(distance)
        sup_norms.append(sup_norm)
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
