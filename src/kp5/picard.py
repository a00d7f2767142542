"""Successive approximation on a short contraction window.

The mild form of the flow on [0, delta],

    u(t) = S(t) f - 1/2 integral_0^t S(t - t') dx(w(t')^2) dt',

is iterated from the free evolution u_0(t) = S(t) f.  The data f is a
``SpectralField`` and a window (``TimeWindowField``) is one read-only
complex array ``half`` of shape (n, nx, ny//2 + 1): the rfft2 half planes
of the real field at the n uniform slice times, the layout of the field
itself, so a window is real by construction.  Every operation works on the
whole stack at once: the forcing is one call of the dealiased-square kernel
over all slices, the time integral is a cumulative composite Simpson rule
along axis 0 (an even slice count, so Simpson pairs tile the window), and
the iteration distance is the sup over slices of the half-plane Gevrey norm
of the difference (columns 0 < k < ny/2 counted twice).  With contraction the per-iterate
ratios sit well below 1 and the window length rule

    delta = c0 / (1 + ||f||)^exponent,  exponent > 1

keeps them there uniformly in the data size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import SimConfig
from .errors import PicardDivergenceError
from .operators import dispersion_symbol, gevrey_norm, half_plane_norms
from .spectral import Grid2D, SpectralField, dealiased_square


@dataclass(frozen=True, eq=False)
class TimeWindowField:
    """Half planes of the field at times i * delta / (n - 1), i = 0 .. n-1.

    ``half`` has shape (n, nx, ny//2 + 1) with n odd and at least 3; the
    window takes the array over and makes it read-only.
    """

    grid: Grid2D
    delta: float
    half: np.ndarray

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("window length must be positive")
        h = np.asarray(self.half, dtype=np.complex128)
        if h.ndim != 3 or h.shape[1:] != (self.grid.nx, self.grid.ny // 2 + 1):
            raise ValueError(
                f"window shape {h.shape} is not (n, {self.grid.nx}, "
                f"{self.grid.ny // 2 + 1}) for this grid"
            )
        if h.shape[0] < 3 or h.shape[0] % 2 == 0:
            raise ValueError(
                "window needs an even slice count (odd number of sample points)"
            )
        h.setflags(write=False)
        object.__setattr__(self, "half", h)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.delta, self.half.shape[0])

    @property
    def slice_dt(self) -> float:
        return self.delta / (self.half.shape[0] - 1)


def delta_rule(f_norm: float, c0: float, exponent: float) -> float:
    """Contraction window length; decreasing in the data norm."""
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    if not exponent > 1:
        raise ValueError("exponent must exceed 1")
    if not (np.isfinite(f_norm) and f_norm >= 0):
        raise ValueError("data norm must be finite and >= 0")
    try:
        return c0 / (1.0 + f_norm) ** exponent
    except OverflowError:  # the window is below the smallest double
        return 0.0


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
    phases.setflags(write=False)
    return phases


def free_window(
    f: SpectralField, delta: float, slices: int = 64
) -> TimeWindowField:
    """Free evolution S(t) f sampled on the window grid."""
    phases = _window_phases(f.grid, delta, slices + 1)
    return TimeWindowField(f.grid, delta, phases * f.half)


def duhamel_apply(
    f: SpectralField, w: TimeWindowField, nonlinear: bool = True
) -> TimeWindowField:
    """One mild-form application: free flow of f plus the driven integral.

    The propagator is commuted through the integral,
    S(t - t') = S(t) S(-t'), so a single cumulative quadrature in the
    rotated frame serves every output slice; the x-derivative commutes
    with the quadrature too and is applied once, after it.  With
    ``nonlinear`` off the forcing is zero and the output is exactly the
    free window.
    """
    if f.grid != w.grid:
        raise ValueError("data and window must share a grid")
    grid = w.grid
    c = f.half
    phases = _window_phases(grid, w.delta, w.half.shape[0])
    if not nonlinear:
        return TimeWindowField(grid, w.delta, phases * c)
    # rotate the square back by conj(phases) as conj(conj(F) * phases), in
    # place: no conjugated copy of the phase stack is made
    forcing = dealiased_square(grid, w.half)
    np.conjugate(forcing, out=forcing)
    forcing *= phases
    cum = cumulative_simpson_uniform(forcing, w.slice_dt)
    np.conjugate(cum, out=cum)
    cum *= -0.5j * grid.xi_col
    cum += c
    cum *= phases
    return TimeWindowField(grid, w.delta, cum)


def window_distance(
    a: TimeWindowField, b: TimeWindowField, sigma1: float, sigma2: float
) -> float:
    """sup over slices of the Gevrey-norm difference."""
    if a.half.shape != b.half.shape or a.grid != b.grid:
        raise ValueError("windows must share grid and slicing")
    return _sup_norm(a.grid, a.half - b.half, sigma1, sigma2)


def _sup_norm(grid: Grid2D, half: np.ndarray, sigma1: float, sigma2: float) -> float:
    return float(half_plane_norms(grid, half, sigma1, sigma2).max())


@dataclass(frozen=True)
class PicardResult:
    window: TimeWindowField
    distances: tuple[float, ...]  # d_n = sup-slice norm of u_n - u_{n-1}
    ratios: tuple[float, ...]  # d_n / d_{n-1}
    sup_norms: tuple[float, ...]  # sup-slice norm of each iterate
    converged: bool
    iterations: int


def picard_iterate(
    f: SpectralField,
    delta: float,
    *,
    sigma1: float = 0.0,
    sigma2: float = 0.0,
    slices: int = 64,
    n_max: int = 30,
    tol: float = 1e-10,
    nonlinear: bool = True,
) -> PicardResult:
    """Iterate the mild form from the free window until the update
    distance drops under tol.

    Raises ``PicardDivergenceError`` after three consecutive non-decreasing
    distances: on a correctly sized window the map is a contraction, so
    sustained non-decrease means delta was too long.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    prev = free_window(f, delta, slices)
    distances: list[float] = []
    sup_norms: list[float] = []
    ratios: tuple[float, ...] = ()
    for n in range(1, n_max + 1):
        cur = duhamel_apply(f, prev, nonlinear=nonlinear)
        d = window_distance(cur, prev, sigma1, sigma2)
        distances.append(d)
        sup_norms.append(_sup_norm(cur.grid, cur.half, sigma1, sigma2))
        ratios = tuple(
            distances[i] / distances[i - 1]
            for i in range(1, len(distances))
            if distances[i - 1] > 0
        )
        if d <= tol:
            return PicardResult(
                cur, tuple(distances), ratios, tuple(sup_norms), True, n
            )
        if n >= 3 and distances[-1] >= distances[-2] >= distances[-3]:
            raise PicardDivergenceError(
                f"update distance stopped contracting after {n} iterations "
                f"({distances[-3]:.3e} -> {distances[-2]:.3e} -> "
                f"{distances[-1]:.3e}); use a shorter window (smaller delta)"
            )
        prev = cur
    return PicardResult(
        prev, tuple(distances), ratios, tuple(sup_norms), False, n_max
    )


def picard_from_config(
    cfg: SimConfig, f: SpectralField
) -> tuple[float, float, PicardResult]:
    """The data norm, the window delta and the Picard iteration that ``cfg``
    sets for the data f; the norm and the iteration distance are taken at
    the config's rates (sigma1, sigma2)."""
    g, p = cfg.gevrey, cfg.picard
    norm = gevrey_norm(f, g.sigma1, g.sigma2)
    delta = delta_rule(norm, cfg.delta.c0, cfg.delta.exponent)
    result = picard_iterate(
        f, delta, sigma1=g.sigma1, sigma2=g.sigma2,
        slices=p.slices, n_max=p.n_max, tol=p.tol,
    )
    return norm, delta, result


@dataclass(frozen=True)
class DoublingResult:
    ratio: float  # sup-slice norm over data norm; 0 for zero data
    passed: bool
    sup_norm: float
    f_norm: float


def doubling_check(
    f_norm: float, sup_norm: float, bound: float = 2.0
) -> DoublingResult:
    """Is the window norm at most ``bound`` times the data norm?

    ``f_norm`` and ``sup_norm`` are what ``picard_from_config`` measured:
    the data norm and ``PicardResult.sup_norms[-1]``, the sup-slice norm
    of the returned window, both at the iteration's rates.
    """
    if f_norm == 0.0:
        return DoublingResult(0.0, sup_norm == 0.0, sup_norm, f_norm)
    ratio = sup_norm / f_norm
    return DoublingResult(ratio, ratio <= bound, sup_norm, f_norm)
