"""Discrete Fourier representation of real fields on a periodic rectangle.

Conventions
-----------
A field u(x, y) on [0, lx) x [0, ly) is stored as Fourier-series
coefficients (``SpectralField``); its collocation values (shape (nx, ny),
axis 0 = x) are plain arrays, read with ``physical_values``::

    u(x, y) = sum_{j,k} c[j, k] * exp(i * (xi_j * x + eta_k * y))

with xi_j = 2*pi*j/lx and eta_k = 2*pi*k/ly, so a real cosine ``a*cos(xi*x)``
stores ``a/2`` at the paired modes +-j.  A real field has c[-j, -k] =
conj(c[j, k]), so it is fixed by its ``rfft2`` half plane: the (nx, ny//2 + 1)
columns k = 0..ny/2, rows j in FFT order.  That half plane is the one layout
of a field and of a stack of fields stepped together (leading axes batch
fields); a Picard window, a snapshot and a space-time stack, whose slices are
all dealiased, keep only their 2/3 band (``Grid2D.band_shape``,
``field_band``, ``to_band``/``from_band``).
Forward transform is ``rfft2/(nx*ny)`` (``np.fft.rfft2(values, norm="forward")``,
whose half plane a ``SpectralField`` takes over), inverse is ``irfft2 * nx * ny``
(``physical_values``); every multiplier acts on the half plane
(``Grid2D.xi_col`` and ``Grid2D.eta_row`` broadcast over it).  Each column
0 < k < ny/2 stands for itself and its conjugate partner, so half-plane norms
count it twice (``Grid2D.half_multiplicity``).  The Nyquist row (j = nx/2)
and column (k = ny/2) are exactly zero.

Full-plane coefficients enter only through ``SpectralField.from_coefficients``,
the one place that checks Hermitian symmetry, and no run command uses it; a
half plane is real by construction, as a field keeps only the Hermitian
part of its column k = 0 (the one column paired with itself).
``full_plane`` rebuilds the full plane for reference computations only.

Every product of fields goes through one kernel: ``dealiased_square`` is
``physical_values`` (an ``ifft`` along x and an ``irfft`` along y), the
pointwise square, and ``dealiased_coefficients`` (an ``rfft`` along y,
then the x pass only on the ny//3 + 1 columns the 2/3 band keeps), over
all leading axes at once.  A product u*v uses the same transform pair.
The 2/3 rule drops modes with 3*|j| > nx or 3*|k| > ny, so squares of
band-limited fields are alias-free.  The modes it keeps, cut from a half
plane, are the band: rows j = 0..nx//3 then -(nx//3)..-1, columns
k = 0..ny//3.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IllPosedInversionError,
    SnapshotFormatError,
    SpectralSymmetryError,
)

HERMITIAN_RTOL = 1e-10  # relative symmetry defect ``from_coefficients`` accepts
X_MEAN_RTOL = 1e-13  # relative zero-x-fiber mass tolerated by the antiderivative


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid2D:
    """Periodic rectangle [0, lx) x [0, ly) sampled on an nx-by-ny lattice.

    nx and ny must be even.  ``j_index``/``k_index`` list the full complex
    FFT frequency set; the half plane keeps k = 0..ny/2 of it, and the
    multiplier arrays (``eta_row``, ``dealias_mask``) have its shape.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 8 or self.nx % 2 or self.ny < 8 or self.ny % 2:
            raise ValueError("grid sizes must be even and at least 8")
        if not (0 < self.lx < math.inf and 0 < self.ly < math.inf):
            raise ValueError("domain lengths must be positive and finite")

    @cached_property
    def j_index(self) -> np.ndarray:
        """Integer x-frequency indices in FFT order: 0, 1, ..., -1."""
        return _frozen(np.fft.fftfreq(self.nx, d=1.0 / self.nx).astype(np.int64))

    @cached_property
    def k_index(self) -> np.ndarray:
        return _frozen(np.fft.fftfreq(self.ny, d=1.0 / self.ny).astype(np.int64))

    @cached_property
    def xi(self) -> np.ndarray:
        """x wavenumbers xi_j = 2*pi*j/lx, FFT order."""
        return _frozen(2.0 * np.pi * self.j_index / self.lx)

    @cached_property
    def eta(self) -> np.ndarray:
        return _frozen(2.0 * np.pi * self.k_index / self.ly)

    @cached_property
    def xi_col(self) -> np.ndarray:
        return _frozen(self.xi[:, None].copy())

    @cached_property
    def eta_row(self) -> np.ndarray:
        """eta on the half-plane columns k = 0..ny/2, shape (1, ny//2 + 1)."""
        return _frozen(self.eta[None, : self.ny // 2 + 1].copy())

    @cached_property
    def x_nodes(self) -> np.ndarray:
        return _frozen((self.lx / self.nx) * np.arange(self.nx))

    @cached_property
    def y_nodes(self) -> np.ndarray:
        return _frozen((self.ly / self.ny) * np.arange(self.ny))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True on the half-plane modes kept by the 2/3 rule (3|j| <= nx and
        3|k| <= ny)."""
        keep_x = 3 * np.abs(self.j_index) <= self.nx
        keep_y = 3 * np.abs(self.k_index[: self.ny // 2 + 1]) <= self.ny
        return _frozen(keep_x[:, None] & keep_y[None, :])

    @cached_property
    def half_multiplicity(self) -> np.ndarray:
        """How many full-plane modes each half-plane column stands for:
        1 at k = 0 and k = ny/2, 2 in between."""
        w = np.full(self.ny // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return _frozen(w)

    @property
    def band_shape(self) -> tuple[int, int]:
        """Shape of a field's 2/3 band (``to_band``): rows j = 0..nx//3 and
        -(nx//3)..-1, columns k = 0..ny//3."""
        return 2 * (self.nx // 3) + 1, self.ny // 3 + 1

    @property
    def xi_max(self) -> float:
        """Largest lattice |xi| (the Nyquist magnitude)."""
        return np.pi * self.nx / self.lx

    @property
    def eta_max(self) -> float:
        return np.pi * self.ny / self.ly

    @property
    def xi_dealias(self) -> float:
        """Largest |xi| surviving the 2/3 rule."""
        return 2.0 * np.pi * (self.nx // 3) / self.lx

    @property
    def measure(self) -> float:
        return self.lx * self.ly

    @property
    def cell_area(self) -> float:
        return (self.lx / self.nx) * (self.ly / self.ny)

    def mode_index(self, j: int, k: int) -> tuple[int, int]:
        """Array position of integer frequency pair (j, k)."""
        return j % self.nx, k % self.ny


def _mirror(a: np.ndarray) -> np.ndarray:
    """A full-plane array sampled at (-j, -k) (indexing only)."""
    return np.roll(a[::-1, ::-1], shift=(1, 1), axis=(0, 1))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A real field as its read-only rfft2 half plane, shape (nx, ny//2 + 1),
    or a stack of real fields, whose leading axes index the slices.

    The field takes the array over and makes it read-only.  It copies only
    to zero the Nyquist row and column or to pair column k = 0, which
    stands for itself: it keeps c[j, 0] <- (c[j, 0] + conj(c[-j, 0])) / 2,
    the part of that column that ``irfft2`` reads, in every slice.  Every
    transform and multiplier here keeps the pairing up to rounding.
    """

    grid: Grid2D
    half: np.ndarray

    def __post_init__(self):
        g = self.grid
        h = np.asarray(self.half, dtype=np.complex128)
        if h.shape[-2:] != (g.nx, g.ny // 2 + 1):
            raise ValueError(
                f"half-plane shape {h.shape} does not end in the grid's "
                f"({g.nx}, {g.ny // 2 + 1})"
            )
        column = h[..., 0]
        paired = 0.5 * (column + np.conj(column[..., -g.j_index]))
        if (
            h[..., g.nx // 2, :].any() or h[..., -1].any()
            or not np.array_equal(paired, column)
        ):
            h = h.copy()
            h[..., 0] = paired
            h[..., g.nx // 2, :] = 0.0
            h[..., -1] = 0.0
        object.__setattr__(self, "half", _frozen(h))

    @classmethod
    def from_coefficients(cls, grid: Grid2D, coeffs: np.ndarray) -> "SpectralField":
        """The field with full-plane coefficients ``coeffs`` (shape (nx, ny),
        FFT order).

        The Nyquist row and column are zeroed first; what is left must be
        Hermitian, c[-j, -k] = conj(c[j, k]), to HERMITIAN_RTOL of its
        largest entry, or ``SpectralSymmetryError`` is raised.
        """
        c = np.array(coeffs, dtype=np.complex128)
        if c.shape != (grid.nx, grid.ny):
            raise ValueError(f"coeffs shape {c.shape} does not match grid")
        c[grid.nx // 2, :] = 0.0
        c[:, grid.ny // 2] = 0.0
        defect = np.max(np.abs(c - np.conj(_mirror(c))))
        if defect > HERMITIAN_RTOL * np.max(np.abs(c)):
            raise SpectralSymmetryError(
                f"coefficients are not Hermitian (defect {defect:.3e}); "
                "a real field needs c[-j, -k] = conj(c[j, k])"
            )
        return cls(grid, c[:, : grid.ny // 2 + 1].copy())


def x_derivative(field: SpectralField) -> SpectralField:
    """Multiply by i*xi.  The j = 0 fiber becomes exactly zero."""
    return SpectralField(field.grid, (1j * field.grid.xi_col) * field.half)


def x_antiderivative(field: SpectralField) -> SpectralField:
    """Divide by i*xi, the inverse of ``x_derivative`` on zero-x-mean fields.

    Data whose j = 0 fiber holds more than X_MEAN_RTOL of the L2 norm are
    rejected: there the symbol 1/(i*xi) is undefined.
    """
    g = field.grid
    c = field.half
    c2 = np.abs(c) ** 2 * g.half_multiplicity
    total, fiber = np.sqrt(c2.sum()), np.sqrt(c2[0].sum())
    if fiber > X_MEAN_RTOL * total:
        raise IllPosedInversionError(
            f"x-antiderivative of data with j=0 fiber mass "
            f"{fiber:.3e} ({fiber / total:.3e} of total)"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c / (1j * g.xi_col)
    out[0, :] = 0.0
    return SpectralField(g, out)


def dealias(field: SpectralField) -> SpectralField:
    """Zero modes outside the 2/3-rule band."""
    return SpectralField(field.grid, field.half * field.grid.dealias_mask)


# --- full plane and the dealiased-square kernel -----------------------------


def full_plane(grid: Grid2D, half: np.ndarray) -> np.ndarray:
    """Full-plane coefficients of the real fields with the given half planes.

    The missing columns k = ny/2+1..ny-1 are filled by Hermitian reflection,
    c[j, k] = conj(c[-j, ny - k]) (indexing and conjugation only); leading
    axes batch.
    """
    nx, ny = grid.nx, grid.ny
    full = np.empty(half.shape[:-1] + (ny,), dtype=np.complex128)
    full[..., : ny // 2 + 1] = half
    reflected = half[..., -grid.j_index % nx, ny // 2 - 1 : 0 : -1]
    full[..., ny // 2 + 1 :] = np.conj(reflected)
    return full


def physical_values(grid: Grid2D, half: np.ndarray) -> np.ndarray:
    """Collocation values from half-plane coefficients: ``ifft`` along x,
    then ``irfft`` along y (what ``irfft2`` does, without its N-d wrapper)."""
    cols = np.fft.ifft(half, axis=-2, norm="forward")
    return np.fft.irfft(cols, n=grid.ny, axis=-1, norm="forward")


def dealiased_coefficients(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """Half-plane coefficients of collocation values with the modes outside
    the 2/3 band zeroed, equal to ``rfft2(values) * dealias_mask``.

    ``rfft`` along y, then the x pass in place on only the ny//3 + 1
    columns the band keeps; the rows 3|j| > nx of those columns and every
    other column are set to zero.
    """
    c = np.fft.rfft(values, axis=-1, norm="forward")
    kept = c[..., : grid.ny // 3 + 1]
    np.fft.fft(kept, axis=-2, norm="forward", out=kept)
    jx = grid.nx // 3
    kept[..., jx + 1 : grid.nx - jx, :] = 0.0
    c[..., grid.ny // 3 + 1 :] = 0.0
    return c


def dealiased_square(grid: Grid2D, half: np.ndarray) -> np.ndarray:
    """Half-plane coefficients of the 2/3-dealiased square u^2."""
    u = physical_values(grid, half)
    u *= u
    return dealiased_coefficients(grid, u)


# --- the 2/3 band -----------------------------------------------------------


def to_band(grid: Grid2D, half: np.ndarray) -> np.ndarray:
    """The half-plane coefficients on the 2/3 band, a new array of shape
    (..., 2*(nx//3) + 1, ny//3 + 1): rows j = 0..nx//3, then -(nx//3)..-1
    (FFT order), columns k = 0..ny//3 (indexing only)."""
    jx, cols = grid.nx // 3, grid.ny // 3 + 1
    return np.concatenate(
        (half[..., : jx + 1, :cols], half[..., grid.nx - jx :, :cols]), axis=-2
    )


def from_band(grid: Grid2D, band: np.ndarray) -> np.ndarray:
    """The half plane, a new array, with ``band`` (the layout of ``to_band``)
    on the 2/3 band and zero off it."""
    jx, cols = grid.nx // 3, grid.ny // 3 + 1
    half = np.zeros(band.shape[:-2] + (grid.nx, grid.ny // 2 + 1), np.complex128)
    half[..., : jx + 1, :cols] = band[..., : jx + 1, :]
    half[..., grid.nx - jx :, :cols] = band[..., jx + 1 :, :]
    return half


def field_band(field: SpectralField) -> np.ndarray:
    """``to_band`` of the field's half plane.  A field with modes off the
    2/3 band raises ``ValueError``: the band could not hold them."""
    g = field.grid
    if field.half[..., ~g.dealias_mask].any():
        raise ValueError("field has modes off the 2/3 band; dealias it first")
    return to_band(g, field.half)


# --- binary snapshots -------------------------------------------------------
#
# Layout (little endian): magic "KP5S", version u32, nx u32, ny u32,
# lx f64, ly f64, then the field's 2/3 band (``field_band``), the
# (2*(nx//3) + 1) * (ny//3 + 1) complex128 coefficients in C (row-major)
# order.  Version 1 (the full plane) is refused.

SNAPSHOT_MAGIC = b"KP5S"
SNAPSHOT_VERSION = 2
_HEADER = struct.Struct("<4sIIIdd")


def save_snapshot(field: SpectralField, path) -> None:
    g = field.grid
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, g.nx, g.ny, g.lx, g.ly)
    body = np.ascontiguousarray(field_band(field), dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def load_snapshot(path) -> SpectralField:
    """Read a snapshot; a payload that is not the band of a real field
    (non-finite, or column k = 0 not paired) raises ``SnapshotFormatError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError("snapshot truncated before header end")
    magic, version, nx, ny, lx, ly = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}")
    try:
        grid = Grid2D(nx, ny, lx, ly)
    except ValueError as exc:
        raise SnapshotFormatError(str(exc)) from exc
    shape = grid.band_shape
    expected = _HEADER.size + 16 * shape[0] * shape[1]
    if len(raw) != expected:
        raise SnapshotFormatError(f"snapshot length {len(raw)} != expected {expected}")
    band = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(shape)
    if not np.all(np.isfinite(band)):
        raise SnapshotFormatError("snapshot contains non-finite coefficients")
    # pairing column 0 is idempotent, so only an unpaired payload changes
    field = SpectralField(grid, from_band(grid, band))
    if not np.array_equal(to_band(grid, field.half), band):
        raise SnapshotFormatError("snapshot column k = 0 is unpaired: not a real field")
    return field
