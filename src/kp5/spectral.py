"""Discrete Fourier representation of real fields on a periodic rectangle.

Conventions
-----------
A field u(x, y) on [0, lx) x [0, ly) is stored as Fourier-series
coefficients (``SpectralField``); its collocation values (shape (nx, ny),
axis 0 = x) are plain arrays, read with ``physical_values``::

    u(x, y) = sum_{j,k} c[j, k] * exp(i * (xi_j * x + eta_k * y))

with xi_j = 2*pi*j/lx and eta_k = 2*pi*k/ly, so a real cosine ``a*cos(xi*x)``
stores ``a/2`` at the paired modes +-j.  A real field has c[-j, -k] =
conj(c[j, k]), so it is fixed by its modes with k >= 0.  Every field here is
dealiased by the 2/3 rule, which keeps the modes with 3*|j| <= nx and
3*|k| <= ny, so a field is stored as its 2/3 band (``Grid2D.band_shape``):
rows j = 0..nx//3 then -(nx//3)..-1 (``Grid2D.band_j``, FFT order of the
band's own length), columns k = 0..ny//3.  The band is the one layout of a
field, of a stack of fields stepped together (leading axes batch fields),
of a Picard window, a snapshot and a space-time stack.
Forward transform is ``rfft2/(nx*ny)`` cut to the band
(``dealiased_coefficients``), inverse is ``irfft2 * nx * ny`` of the band
padded with zeros (``physical_values``); every multiplier acts on the band
(``Grid2D.xi_col`` and ``Grid2D.eta_row`` broadcast over it).  Each column
k > 0 stands for itself and its conjugate partner, so band norms count it
twice (``Grid2D.half_multiplicity``).

Full-plane coefficients enter only through ``SpectralField.from_coefficients``,
the one place that checks Hermitian symmetry, and no run command uses it; a
band is real by construction, as a field keeps only the Hermitian part of
its column k = 0 (the one column paired with itself).  ``full_plane``
rebuilds the full plane for reference computations only.

Every product of fields goes through one kernel: ``dealiased_square`` is
``physical_values`` (the band's rows padded into an (nx, ny//3 + 1) buffer,
an ``ifft`` along x on those columns and an ``irfft`` along y, which pads
the columns), the pointwise square, and ``dealiased_coefficients`` (an
``rfft`` along y, then the x pass only on the ny//3 + 1 columns the band
keeps, cut to its rows), over all leading axes at once.  A product u*v uses
the same transform pair.  Squares of band-limited fields are alias-free.
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
    FFT frequency set; the 2/3 band keeps rows ``band_j`` and columns
    k = 0..ny//3 of it, and the multiplier arrays (``xi_col``, ``eta_row``)
    broadcast over the band.
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
    def band_j(self) -> np.ndarray:
        """Integer x-frequencies of the band's rows: 0..nx//3, then
        -(nx//3)..-1 (the FFT order of the band's own length)."""
        jx = self.nx // 3
        return _frozen(np.r_[: jx + 1, -jx:0])

    @cached_property
    def xi(self) -> np.ndarray:
        """x wavenumbers xi_j = 2*pi*j/lx, FFT order."""
        return _frozen(2.0 * np.pi * self.j_index / self.lx)

    @cached_property
    def eta(self) -> np.ndarray:
        return _frozen(2.0 * np.pi * self.k_index / self.ly)

    @cached_property
    def xi_col(self) -> np.ndarray:
        """xi on the band's rows, shape (2*(nx//3) + 1, 1)."""
        return _frozen(self.xi[self.band_j][:, None])

    @cached_property
    def eta_row(self) -> np.ndarray:
        """eta on the band's columns k = 0..ny//3, shape (1, ny//3 + 1)."""
        return _frozen(self.eta[None, : self.ny // 3 + 1].copy())

    @cached_property
    def x_nodes(self) -> np.ndarray:
        return _frozen((self.lx / self.nx) * np.arange(self.nx))

    @cached_property
    def y_nodes(self) -> np.ndarray:
        return _frozen((self.ly / self.ny) * np.arange(self.ny))

    @cached_property
    def half_multiplicity(self) -> np.ndarray:
        """How many full-plane modes each band column stands for: 1 at
        k = 0, 2 at k > 0 (the band ends before the Nyquist column)."""
        w = np.full(self.ny // 3 + 1, 2.0)
        w[0] = 1.0
        return _frozen(w)

    @property
    def band_shape(self) -> tuple[int, int]:
        """Shape of a field's 2/3 band: rows ``band_j``, columns
        k = 0..ny//3."""
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
        """Full-plane array position of integer frequency pair (j, k)."""
        return j % self.nx, k % self.ny


def _mirror(a: np.ndarray) -> np.ndarray:
    """A full-plane array sampled at (-j, -k) (indexing only)."""
    return np.roll(a[::-1, ::-1], shift=(1, 1), axis=(0, 1))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A real field as its read-only 2/3 band, shape ``grid.band_shape``, or
    a stack of real fields, whose leading axes index the slices; any other
    trailing shape raises ``ValueError``.

    The field takes the array over and makes it read-only.  It copies only
    to pair column k = 0, which stands for itself: it keeps
    c[j, 0] <- (c[j, 0] + conj(c[-j, 0])) / 2, the part of that column that
    ``physical_values`` reads, in every slice.  Every transform and
    multiplier here keeps the pairing up to rounding.
    """

    grid: Grid2D
    band: np.ndarray

    def __post_init__(self):
        g = self.grid
        b = np.asarray(self.band, dtype=np.complex128)
        if b.shape[-2:] != g.band_shape:
            raise ValueError(
                f"coefficients of shape {b.shape} do not end in the grid's "
                f"2/3 band {g.band_shape}"
            )
        column = b[..., 0]
        paired = 0.5 * (column + np.conj(column[..., -np.arange(len(g.band_j))]))
        if not np.array_equal(paired, column):
            b = b.copy()
            b[..., 0] = paired
        object.__setattr__(self, "band", _frozen(b))

    @classmethod
    def from_coefficients(cls, grid: Grid2D, coeffs: np.ndarray) -> "SpectralField":
        """The field with full-plane coefficients ``coeffs`` (shape (nx, ny),
        FFT order), cut to the 2/3 band.

        The coefficients must be Hermitian, c[-j, -k] = conj(c[j, k]), to
        HERMITIAN_RTOL of their largest entry, or ``SpectralSymmetryError``
        is raised; modes off the band are dropped.
        """
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape != (grid.nx, grid.ny):
            raise ValueError(f"coeffs shape {c.shape} does not match grid")
        defect = np.max(np.abs(c - np.conj(_mirror(c))))
        if defect > HERMITIAN_RTOL * np.max(np.abs(c)):
            raise SpectralSymmetryError(
                f"coefficients are not Hermitian (defect {defect:.3e}); "
                "a real field needs c[-j, -k] = conj(c[j, k])"
            )
        return cls(grid, c[grid.band_j, : grid.ny // 3 + 1])


def x_derivative(field: SpectralField) -> SpectralField:
    """Multiply by i*xi.  The j = 0 fiber becomes exactly zero."""
    return SpectralField(field.grid, (1j * field.grid.xi_col) * field.band)


def x_antiderivative(field: SpectralField) -> SpectralField:
    """Divide by i*xi, the inverse of ``x_derivative`` on zero-x-mean fields.

    Data whose j = 0 fiber holds more than X_MEAN_RTOL of the L2 norm are
    rejected: there the symbol 1/(i*xi) is undefined.
    """
    g = field.grid
    c = field.band
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


# --- full plane and the dealiased-square kernel -----------------------------


def full_plane(grid: Grid2D, band: np.ndarray) -> np.ndarray:
    """Full-plane coefficients (..., nx, ny), FFT order, of the real fields
    with the given 2/3 bands: each band mode at (j, k), its conjugate at the
    mirror (-j, -k) and zero off the band (indexing and conjugation only);
    leading axes batch.  For reference computations only."""
    cols = band.shape[-1]
    full = np.zeros(band.shape[:-2] + (grid.nx, grid.ny), dtype=np.complex128)
    full[..., grid.band_j, :cols] = band
    full[..., -grid.band_j, grid.ny - cols + 1 :] = np.conj(band[..., cols - 1 : 0 : -1])
    return full


def physical_values(grid: Grid2D, band: np.ndarray) -> np.ndarray:
    """Collocation values (..., nx, ny) of 2/3 bands: the band's rows padded
    with zeros into an (nx, ny//3 + 1) buffer, an ``ifft`` along x in place
    on those columns, then an ``irfft`` along y, which pads the columns
    (what ``irfft2`` does on the zero-padded half plane)."""
    jx = grid.nx // 3
    cols = np.empty(band.shape[:-2] + (grid.nx, band.shape[-1]), dtype=np.complex128)
    cols[..., : jx + 1, :] = band[..., : jx + 1, :]
    cols[..., jx + 1 : grid.nx - jx, :] = 0.0
    cols[..., grid.nx - jx :, :] = band[..., jx + 1 :, :]
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    return np.fft.irfft(cols, n=grid.ny, axis=-1, norm="forward")


def dealiased_coefficients(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """The 2/3 bands of collocation values, ``rfft2(values)`` cut to the
    band: ``rfft`` along y, then the x pass in place on only the ny//3 + 1
    columns the band keeps, whose band rows are returned (a new array)."""
    c = np.fft.rfft(values, axis=-1, norm="forward")
    kept = c[..., : grid.ny // 3 + 1]
    np.fft.fft(kept, axis=-2, norm="forward", out=kept)
    return kept[..., grid.band_j, :]


def dealiased_square(grid: Grid2D, band: np.ndarray) -> np.ndarray:
    """The 2/3 band of the dealiased square u^2."""
    u = physical_values(grid, band)
    u *= u
    return dealiased_coefficients(grid, u)


# --- binary snapshots -------------------------------------------------------
#
# Layout (little endian): magic "KP5S", version u32, nx u32, ny u32,
# lx f64, ly f64, then the field's 2/3 band, the
# (2*(nx//3) + 1) * (ny//3 + 1) complex128 coefficients in C (row-major)
# order.  Version 1 (the full plane) is refused.

SNAPSHOT_MAGIC = b"KP5S"
SNAPSHOT_VERSION = 2
_HEADER = struct.Struct("<4sIIIdd")


def save_snapshot(field: SpectralField, path) -> None:
    g = field.grid
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, g.nx, g.ny, g.lx, g.ly)
    body = np.ascontiguousarray(field.band, dtype="<c16").tobytes()
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
    field = SpectralField(grid, band)
    if not np.array_equal(field.band, band):
        raise SnapshotFormatError("snapshot column k = 0 is unpaired: not a real field")
    return field
