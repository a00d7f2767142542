"""Discrete Fourier representation of real fields on a periodic rectangle.

Conventions
-----------
A field u(x, y) on [0, lx) x [0, ly) is stored either on the collocation
grid (``PhysicalField``, shape (nx, ny), axis 0 = x) or as Fourier-series
coefficients in FFT ordering (``SpectralField``)::

    u(x, y) = sum_{j,k} c[j, k] * exp(i * (xi_j * x + eta_k * y))

with xi_j = 2*pi*j/lx and eta_k = 2*pi*k/ly, so a real cosine ``a*cos(xi*x)``
stores ``a/2`` at the paired modes +-j.  Forward transform is ``fft2/(nx*ny)``,
inverse is ``real(ifft2(c) * nx * ny)``.

Invariants maintained by every constructor and operation:

* the Nyquist row (j = nx/2) and column (k = ny/2) are exactly zero;
* ``hermitian`` fields satisfy c[-j, -k] = conj(c[j, k]), so the physical
  field is real;
* ``zero_x_mean`` fields have an exactly zero j = 0 fiber, which is what
  makes the x-antiderivative well defined.

Half plane
----------
A real field is fixed by its ``rfft2`` half plane, the (nx, ny//2 + 1)
columns k = 0..ny/2; the stepper state, Picard windows and space-time
fields are stored that way, with any leading axes as a batch (time slices).
Each half-plane column 0 < k < ny/2 stands for itself and its conjugate
partner, so half-plane norms count it twice (``Grid2D.half_multiplicity``).

Every product of fields goes through one kernel: ``dealiased_square`` is
``physical_values`` (an ``ifft`` along x and an ``irfft`` along y), the
pointwise square, and ``dealiased_coefficients`` (an ``rfft`` along y,
then the x pass only on the ny//3 + 1 columns the 2/3 band keeps), over
all leading axes at once.  A product u*v uses the same transform pair.
The 2/3 rule drops modes with 3*|j| > nx or 3*|k| > ny, so squares of
band-limited fields are alias-free.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IllPosedInversionError,
    SnapshotFormatError,
    SpectralSymmetryError,
)

HERMITIAN_RTOL = 1e-10  # relative defect tolerated when detecting symmetry
X_MEAN_RTOL = 1e-13  # relative zero-x-fiber mass tolerated by the antiderivative


@dataclass(frozen=True)
class Grid2D:
    """Periodic rectangle [0, lx) x [0, ly) sampled on an nx-by-ny lattice.

    nx and ny must be even.  ``j_index``/``k_index`` list the full complex
    FFT frequency set; the half plane keeps k = 0..ny/2 of it.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 8 or self.nx % 2 or self.ny < 8 or self.ny % 2:
            raise ValueError("grid sizes must be even and at least 8")
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError("domain lengths must be positive")

    @cached_property
    def j_index(self) -> np.ndarray:
        """Integer x-frequency indices in FFT order: 0, 1, ..., -1."""
        j = np.fft.fftfreq(self.nx, d=1.0 / self.nx).astype(np.int64)
        j.setflags(write=False)
        return j

    @cached_property
    def k_index(self) -> np.ndarray:
        k = np.fft.fftfreq(self.ny, d=1.0 / self.ny).astype(np.int64)
        k.setflags(write=False)
        return k

    @cached_property
    def xi(self) -> np.ndarray:
        """x wavenumbers xi_j = 2*pi*j/lx, FFT order."""
        v = 2.0 * np.pi * self.j_index / self.lx
        v.setflags(write=False)
        return v

    @cached_property
    def eta(self) -> np.ndarray:
        v = 2.0 * np.pi * self.k_index / self.ly
        v.setflags(write=False)
        return v

    @cached_property
    def xi_col(self) -> np.ndarray:
        v = self.xi[:, None].copy()
        v.setflags(write=False)
        return v

    @cached_property
    def eta_row(self) -> np.ndarray:
        v = self.eta[None, :].copy()
        v.setflags(write=False)
        return v

    @cached_property
    def x_nodes(self) -> np.ndarray:
        v = (self.lx / self.nx) * np.arange(self.nx)
        v.setflags(write=False)
        return v

    @cached_property
    def y_nodes(self) -> np.ndarray:
        v = (self.ly / self.ny) * np.arange(self.ny)
        v.setflags(write=False)
        return v

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True on modes kept by the 2/3 rule (3|j| <= nx and 3|k| <= ny)."""
        keep_x = 3 * np.abs(self.j_index) <= self.nx
        keep_y = 3 * np.abs(self.k_index) <= self.ny
        m = keep_x[:, None] & keep_y[None, :]
        m.setflags(write=False)
        return m

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        """``dealias_mask`` on the half plane, as complex 0/1 (a complex
        times complex multiply is about twice as fast as mixed dtypes)."""
        m = self.dealias_mask[:, : self.ny // 2 + 1].astype(np.complex128)
        m.setflags(write=False)
        return m

    @cached_property
    def half_multiplicity(self) -> np.ndarray:
        """How many full-plane modes each half-plane column stands for:
        1 at k = 0 and k = ny/2, 2 in between."""
        w = np.full(self.ny // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        w.setflags(write=False)
        return w

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


def conjugate_reflection(coeffs: np.ndarray) -> np.ndarray:
    """conj(c) sampled at (-j, -k): the Hermitian partner of each mode."""
    return np.conj(np.roll(coeffs[::-1, ::-1], shift=(1, 1), axis=(0, 1)))


def is_hermitian(coeffs: np.ndarray, rtol: float = HERMITIAN_RTOL) -> bool:
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return True
    defect = np.max(np.abs(coeffs - conjugate_reflection(coeffs)))
    return bool(defect <= rtol * scale)


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian-symmetric subspace (real physical part)."""
    return 0.5 * (coeffs + conjugate_reflection(coeffs))


@dataclass(frozen=True, eq=False)
class PhysicalField:
    """Real field values on the collocation grid, shape (nx, ny)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("physical field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients of a field, with symmetry/mean bookkeeping.

    ``hermitian`` asserts c[-j,-k] = conj(c[j,k]) (real physical field);
    ``zero_x_mean`` asserts the j = 0 fiber is exactly zero.  Flags are
    trusted by downstream operations, so construct through
    ``from_coefficients`` (which detects them) unless the flags are known
    from the producing operation.
    """

    grid: Grid2D
    coeffs: np.ndarray
    hermitian: bool = False
    zero_x_mean: bool = False

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"coeffs shape {c.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        c[self.grid.nx // 2, :] = 0.0
        c[:, self.grid.ny // 2] = 0.0
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_coefficients(cls, grid: Grid2D, coeffs: np.ndarray) -> "SpectralField":
        """Build a field from raw coefficients, detecting both flags.

        The Nyquist row/column is zeroed before detection, so symmetry is
        judged on the part of the array the toolkit actually uses.
        """
        c = np.array(coeffs, dtype=np.complex128)
        if c.shape != (grid.nx, grid.ny):
            raise ValueError(f"coeffs shape {c.shape} does not match grid")
        c[grid.nx // 2, :] = 0.0
        c[:, grid.ny // 2] = 0.0
        return cls(
            grid,
            c,
            hermitian=is_hermitian(c),
            zero_x_mean=bool(np.all(c[0, :] == 0.0)),
        )

    def with_coeffs(
        self, coeffs: np.ndarray, *, hermitian: bool | None = None,
        zero_x_mean: bool | None = None,
    ) -> "SpectralField":
        """Same grid, new coefficients; flags default to the current ones."""
        return SpectralField(
            self.grid,
            coeffs,
            hermitian=self.hermitian if hermitian is None else hermitian,
            zero_x_mean=self.zero_x_mean if zero_x_mean is None else zero_x_mean,
        )


def forward_transform(field: PhysicalField) -> SpectralField:
    """Collocation values -> Fourier-series coefficients (fft2 / (nx*ny))."""
    g = field.grid
    c = np.fft.fft2(field.values) / (g.nx * g.ny)
    c[g.nx // 2, :] = 0.0
    c[:, g.ny // 2] = 0.0
    return SpectralField(
        g, c, hermitian=True, zero_x_mean=bool(np.all(c[0, :] == 0.0))
    )


def inverse_transform(field: SpectralField) -> PhysicalField:
    """Coefficients -> real collocation values.

    Requires the hermitian flag: without symmetry the physical field is not
    real and silently dropping the imaginary part would corrupt it.
    """
    if not field.hermitian:
        raise SpectralSymmetryError(
            "inverse transform requires Hermitian-symmetric coefficients"
        )
    g = field.grid
    values = np.real(np.fft.ifft2(field.coeffs)) * (g.nx * g.ny)
    return PhysicalField(g, values)


def x_derivative(field: SpectralField) -> SpectralField:
    """Multiply by i*xi.  The j = 0 fiber becomes exactly zero."""
    c = (1j * field.grid.xi_col) * field.coeffs
    return field.with_coeffs(c, zero_x_mean=True)


def x_antiderivative(field: SpectralField) -> SpectralField:
    """Divide by i*xi, the inverse of ``x_derivative`` on zero-x-mean fields.

    Data with relative mass above X_MEAN_RTOL on the j = 0 fiber is
    rejected: there the symbol 1/(i*xi) is undefined.
    """
    g = field.grid
    c = field.coeffs
    if not field.zero_x_mean:
        total = np.linalg.norm(c)
        fiber = np.linalg.norm(c[0, :])
        if total > 0 and fiber > X_MEAN_RTOL * total:
            raise IllPosedInversionError(
                f"x-antiderivative of data with j=0 fiber mass "
                f"{fiber:.3e} ({fiber / total:.3e} of total)"
            )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c / (1j * g.xi_col)
    out[0, :] = 0.0
    return field.with_coeffs(out, zero_x_mean=True)


def dealias(field: SpectralField) -> SpectralField:
    """Zero modes outside the 2/3-rule band."""
    return field.with_coeffs(field.coeffs * field.grid.dealias_mask)


def project_zero_x_mean(field: SpectralField) -> SpectralField:
    """Zero the j = 0 fiber, making the x-antiderivative well defined."""
    c = field.coeffs.copy()
    c[0, :] = 0.0
    return field.with_coeffs(c, zero_x_mean=True)


# --- rfft2 half plane and the dealiased-square kernel -----------------------


def half_plane(field: SpectralField) -> np.ndarray:
    """The k = 0..ny/2 columns of a real field, as a new array.

    Non-Hermitian coefficients raise ``SpectralSymmetryError``: the half
    plane stands for a real field and would silently drop the rest.
    """
    if not field.hermitian:
        raise SpectralSymmetryError(
            "the half plane stores real fields; got non-Hermitian coefficients"
        )
    return np.array(field.coeffs[:, : field.grid.ny // 2 + 1])


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
    the 2/3 band zeroed, equal to ``rfft2(values) * half_dealias_mask``.

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


def physical_l2_norm(field: PhysicalField) -> float:
    """sqrt(sum u^2 * dx * dy), the discrete L2 norm."""
    return float(np.sqrt(np.sum(field.values**2) * field.grid.cell_area))


# --- binary snapshots -------------------------------------------------------
#
# Layout (little endian): magic "KP5S", version u32, nx u32, ny u32,
# lx f64, ly f64, then nx*ny complex128 coefficients in C (row-major) order.

SNAPSHOT_MAGIC = b"KP5S"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIIdd")


def save_snapshot(field: SpectralField, path) -> None:
    g = field.grid
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, g.nx, g.ny, g.lx, g.ly
    )
    body = np.ascontiguousarray(field.coeffs, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def load_snapshot(path) -> SpectralField:
    """Read a snapshot, recomputing flags rather than trusting the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError("snapshot truncated before header end")
    magic, version, nx, ny, lx, ly = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}")
    expected = _HEADER.size + nx * ny * 16
    if len(raw) != expected:
        raise SnapshotFormatError(
            f"snapshot length {len(raw)} != expected {expected}"
        )
    try:
        grid = Grid2D(nx, ny, lx, ly)
    except ValueError as exc:
        raise SnapshotFormatError(str(exc)) from exc
    coeffs = (
        np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
        .reshape(nx, ny)
        .astype(np.complex128)
    )
    if not np.all(np.isfinite(coeffs.view(np.float64))):
        raise SnapshotFormatError("snapshot contains non-finite coefficients")
    if np.any(coeffs[nx // 2, :] != 0.0) or np.any(coeffs[:, ny // 2] != 0.0):
        raise SnapshotFormatError("snapshot violates the Nyquist-zero invariant")
    return SpectralField.from_coefficients(grid, coeffs)
