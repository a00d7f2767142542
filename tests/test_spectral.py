import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cut, full_plane_mask, full_plane_square, half_plane, random_band_field,
)
from kp5.errors import IllPosedInversionError, SnapshotFormatError, SpectralSymmetryError
from kp5.initial_data import gaussian_dx, line_soliton
from kp5.operators import gevrey_norm
from kp5.spectral import (
    Grid2D,
    SNAPSHOT_MAGIC,
    SpectralField,
    dealiased_coefficients,
    dealiased_square,
    full_plane,
    load_snapshot,
    physical_values,
    save_snapshot,
    x_antiderivative,
    x_derivative,
)


def physical_l2(grid, u):
    """sqrt(sum u^2 * dx * dy), the discrete L2 norm of collocation values."""
    return np.sqrt(np.sum(u**2) * grid.cell_area)


def test_grid_rejects_odd_and_tiny_sizes():
    with pytest.raises(ValueError):
        Grid2D(15, 16, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid2D(16, 6, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid2D(16, 16, -1.0, 1.0)


def test_grid_frequencies(grid16):
    # 2*pi box, so xi_j = j and eta_k = k
    assert grid16.xi[3] == pytest.approx(3.0)
    assert grid16.xi[grid16.nx - 1] == pytest.approx(-1.0)
    assert grid16.xi_max == pytest.approx(8.0)
    assert grid16.xi_dealias == pytest.approx(5.0)
    assert grid16.measure == pytest.approx(4 * np.pi**2)


def test_mode_index_wraps_negative(grid16):
    assert grid16.mode_index(3, 2) == (3, 2)
    assert grid16.mode_index(-1, -2) == (15, 14)


def test_dealias_mask_band(grid16):
    """The band holds exactly the half-plane modes the 2/3 rule keeps
    (3|j| <= nx and 3|k| <= ny), its rows in the FFT order of its own
    length, and the multiplier tables broadcast over it."""
    j = grid16.j_index
    k = np.arange(9)  # the half-plane columns
    assert sorted(grid16.band_j) == sorted(j[3 * np.abs(j) <= grid16.nx])
    assert np.array_equal(grid16.band_j, np.fft.fftfreq(11, d=1 / 11).astype(int))
    assert grid16.band_shape == (11, np.count_nonzero(3 * k <= grid16.ny)) == (11, 6)
    assert np.array_equal(grid16.xi_col, grid16.xi[grid16.band_j][:, None])
    assert grid16.eta_row.shape == (1, 6)
    assert list(grid16.half_multiplicity) == [1, 2, 2, 2, 2, 2]


def test_forward_matches_direct_dft():
    """Spot-check the series convention on the band against an explicit
    O(n^2) sum."""
    grid = Grid2D(8, 8, 2 * np.pi, 5.0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((8, 8))
    c = full_plane(grid, dealiased_coefficients(grid, u))
    for j in (0, 1, 6, 7):  # j = 0, 1, -2, -1: the band's rows
        for k in (0, 2, 6, 7):
            acc = 0.0j
            for m in range(8):
                for p in range(8):
                    acc += u[m, p] * np.exp(-2j * np.pi * (j * m / 8 + k * p / 8))
            acc /= 64.0
            assert abs(c[j, k] - acc) <= 1e-13 * (1.0 + abs(acc))


def test_transform_round_trip(grid16):
    f = random_band_field(grid16, seed=11)
    u = physical_values(grid16, f.band)
    back = SpectralField(grid16, dealiased_coefficients(grid16, u))
    assert np.allclose(back.band, f.band, rtol=0, atol=1e-14)
    again = physical_values(grid16, back.band)
    assert np.allclose(again, u, rtol=0, atol=1e-13)


def test_parseval(grid16):
    """Discrete integral of u^2 equals the weighted coefficient sum."""
    f = random_band_field(grid16, seed=5)
    u = physical_values(grid16, f.band)
    phys = physical_l2(grid16, u)
    spec = np.sqrt(grid16.lx * grid16.ly * np.sum(np.abs(full_plane(grid16, f.band)) ** 2))
    assert phys == pytest.approx(spec, rel=1e-12)


def test_only_hermitian_coefficients_become_a_field(grid16):
    """Only Hermitian coefficients become a field, so nothing else can
    reach physical_values through one."""
    c = np.zeros((16, 16), dtype=complex)
    c[grid16.mode_index(2, 1)] = 1.0  # no conjugate partner
    with pytest.raises(SpectralSymmetryError):
        SpectralField.from_coefficients(grid16, c)
    c[grid16.mode_index(-2, -1)] = 1.0
    u = physical_values(grid16, SpectralField.from_coefficients(grid16, c).band)
    assert u.dtype == np.float64


def test_from_coefficients_checks_symmetry_and_x_mean(grid16):
    """from_coefficients detects the Hermitian symmetry; the zero-x-mean
    property is read off the j = 0 fiber."""
    c = np.zeros((16, 16), dtype=complex)
    c[grid16.mode_index(2, 3)] = 1.0 + 2.0j
    c[grid16.mode_index(-2, -3)] = 1.0 - 2.0j
    f = SpectralField.from_coefficients(grid16, c)
    assert np.array_equal(full_plane(grid16, f.band), c)
    assert not f.band[0].any()
    # a defect within HERMITIAN_RTOL of the largest entry is accepted
    c[grid16.mode_index(-2, -3)] += 1e-11
    SpectralField.from_coefficients(grid16, c)
    bad = c.copy()
    bad[grid16.mode_index(0, 1)] = 0.5  # (0,1) has no partner at (0,-1)
    with pytest.raises(SpectralSymmetryError):
        SpectralField.from_coefficients(grid16, bad)
    c[grid16.mode_index(0, 1)] = 0.5
    c[grid16.mode_index(0, -1)] = 0.5
    g = SpectralField.from_coefficients(grid16, c)
    assert g.band[0].any()
    with pytest.raises(IllPosedInversionError):
        x_antiderivative(g)


def test_field_refuses_a_trailing_shape_other_than_its_band(grid16):
    """A field is its 2/3 band: a half plane, a full plane or a band short
    of a row or a column is refused with a named error, as a stack of
    them is, so no mode off the band can reach a field."""
    for shape in ((16, 9), (16, 16), (10, 6), (11, 5), (2, 16, 9), (11,), ()):
        with pytest.raises(ValueError, match=r"the grid's 2/3 band \(11, 6\)"):
            SpectralField(grid16, np.zeros(shape, dtype=complex))
    f = SpectralField(grid16, np.zeros((2, 11, 6)))
    assert f.band.shape == (2, 11, 6) and not f.band.flags.writeable


def test_half_plane_column_zero_is_paired(grid16):
    """Column k = 0 stands for itself, and a field keeps its Hermitian
    part, the part irfft2 reads: a lone 1j at (1, 0) is the real field
    -sin(x), whose norm is the physical L2 norm pi*sqrt(2), not 2*pi."""
    band = np.zeros(grid16.band_shape, dtype=complex)
    band[1, 0] = 1j
    f = SpectralField(grid16, band)
    assert (f.band[1, 0], f.band[-1, 0]) == (0.5j, -0.5j)  # band row -1 is j = -1
    u = physical_values(grid16, f.band)
    assert np.allclose(u, -np.sin(grid16.x_nodes)[:, None], atol=1e-15)
    assert gevrey_norm(f, 0.0, 0.0) == pytest.approx(np.pi * np.sqrt(2), rel=1e-14)
    assert physical_l2(grid16, u) == pytest.approx(np.pi * np.sqrt(2), rel=1e-14)
    # a paired band is taken over as it is
    assert SpectralField(grid16, f.band).band is f.band


def test_stacked_field_pairs_and_zeroes_every_slice(grid16):
    """A stack of bands is a stack of real fields: each slice is what it
    would be as a field of its own."""
    rng = np.random.default_rng(5)
    shape = (2, 3, *grid16.band_shape)
    bands = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack = SpectralField(grid16, bands)
    assert stack.band.shape == (2, 3, 11, 6) and not stack.band.flags.writeable
    for index in np.ndindex(2, 3):
        single = SpectralField(grid16, bands[index])
        assert np.array_equal(stack.band[index], single.band)
        column = stack.band[index][:, 0]
        assert np.array_equal(column, np.conj(column[-np.arange(11)]))
    # a stack of paired bands is taken over as it is
    assert SpectralField(grid16, stack.band).band is stack.band
    with pytest.raises(ValueError):
        SpectralField(grid16, bands[..., :5])


def test_full_plane_rebuilds_hermitian_field():
    grid = Grid2D(32, 48, 2 * np.pi, 3 * np.pi)
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((32, 48)) + 1j * rng.standard_normal((32, 48))
    # the Hermitian part, c[j, k] = (raw[j, k] + conj(raw[-j, -k])) / 2
    c = 0.5 * (raw + np.conj(raw[-grid.j_index % 32][:, -grid.k_index % 48]))
    band = SpectralField.from_coefficients(grid, c).band
    assert band.shape == grid.band_shape == (21, 17)
    full = full_plane(grid, band)
    # the field keeps the band and drops every mode off it
    assert np.array_equal(full, c * full_plane_mask(grid))
    # a transformed real field comes back to roundoff
    f = random_band_field(grid, seed=6)
    want = np.fft.fft2(physical_values(grid, f.band)) / (32 * 48)
    assert np.max(np.abs(full_plane(grid, f.band) - want)) <= 1e-15 * np.max(np.abs(want))


def test_x_derivative_on_planted_wave(grid16):
    x = grid16.x_nodes[:, None]
    y = grid16.y_nodes[None, :]
    u = np.sin(2 * x) * np.cos(3 * y)
    f = SpectralField(grid16, dealiased_coefficients(grid16, u))
    du = physical_values(grid16, x_derivative(f).band)
    expected = 2 * np.cos(2 * x) * np.cos(3 * y)
    assert np.allclose(du, expected, atol=1e-12)


def test_x_antiderivative_round_trip(grid16):
    f = random_band_field(grid16, seed=13)
    back = x_antiderivative(x_derivative(f))
    expected = f.band.copy()
    expected[0] = 0.0
    assert np.allclose(back.band, expected, atol=1e-13)
    assert not back.band[0].any()


def test_x_antiderivative_rejects_x_mean(grid16):
    y = grid16.y_nodes[None, :]
    u = np.tile(np.cos(3 * y), (16, 1))  # pure y-dependence, j=0 fiber mass
    f = SpectralField(grid16, dealiased_coefficients(grid16, u))
    with pytest.raises(IllPosedInversionError):
        x_antiderivative(f)


def test_square_of_single_cosine(grid16):
    """cos(2x)^2 = 1/2 + cos(4x)/2, all inside the dealiased band."""
    x = grid16.x_nodes[:, None]
    u = np.broadcast_to(np.cos(2 * x), (16, 16)).copy()
    f = SpectralField(grid16, dealiased_coefficients(grid16, u))
    c = full_plane(grid16, dealiased_square(grid16, f.band))
    assert c[grid16.mode_index(0, 0)] == pytest.approx(0.5, abs=1e-14)
    assert c[grid16.mode_index(4, 0)] == pytest.approx(0.25, abs=1e-14)
    assert c[grid16.mode_index(-4, 0)] == pytest.approx(0.25, abs=1e-14)
    live = {grid16.mode_index(j, 0) for j in (0, 4, -4)}
    for j in range(16):
        for k in range(16):
            if (j, k) not in live:
                assert abs(c[j, k]) < 1e-14


def test_square_alias_is_removed(grid16):
    # 2*5 = 10 wraps to mode -6, outside the band kept by the 2/3 rule
    x = grid16.x_nodes[:, None]
    u = np.broadcast_to(np.cos(5 * x), (16, 16)).copy()
    f = SpectralField(grid16, dealiased_coefficients(grid16, u))
    c = full_plane(grid16, dealiased_square(grid16, f.band))
    assert c[grid16.mode_index(0, 0)] == pytest.approx(0.5, abs=1e-14)
    c[grid16.mode_index(0, 0)] = 0.0
    assert np.max(np.abs(c)) < 1e-14


def test_batched_square_matches_full_plane_square():
    """One kernel call over a stack equals the complex-FFT square of each
    slice."""
    grid = Grid2D(32, 48, 16 * np.pi, 24 * np.pi)
    rng = np.random.default_rng(8)
    fields = [random_band_field(grid, seed=s) for s in (1, 2, 3)]
    noise = rng.standard_normal((32, 48))
    fields.append(SpectralField(grid, dealiased_coefficients(grid, noise)))
    stack = np.stack([f.band for f in fields])
    got = full_plane(grid, dealiased_square(grid, stack))
    assert got.shape == (4, 32, 48)
    for sq, f in zip(got, fields):
        want = full_plane_square(grid, full_plane(grid, f.band))
        assert np.max(np.abs(sq - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "nx, ny, batch",
    [(32, 48, ()), (64, 64, ()), (16, 40, ()), (24, 32, (3, 2))],
    ids=["32x48", "64x64", "16x40", "24x32-batched"],
)
def test_transform_pair_equals_2d_transforms(nx, ny, batch):
    """The band-pruned forward pass equals rfft2 cut to the band exactly
    (ny % 3 != 0 included), the row-padded inverse pass equals irfft2 of the
    band padded into the half plane exactly, and neither touches its
    input."""
    grid = Grid2D(nx, ny, 2 * np.pi, 3 * np.pi)
    rng = np.random.default_rng(nx + ny)
    values = rng.standard_normal(batch + (nx, ny))
    kept = values.copy()
    got = dealiased_coefficients(grid, values)
    want = cut(grid, np.fft.rfft2(values, norm="forward"))
    assert got.shape == want.shape == batch + grid.band_shape
    assert np.array_equal(got, want)
    assert np.array_equal(values, kept)
    band = rng.standard_normal(want.shape) + 1j * rng.standard_normal(want.shape)
    kept = band.copy()
    assert np.array_equal(
        physical_values(grid, band),
        np.fft.irfft2(half_plane(grid, band), s=(nx, ny), norm="forward"),
    )
    assert np.array_equal(band, kept)


@pytest.mark.parametrize("nx, ny", [(16, 16), (32, 16), (64, 64)])
def test_band_round_trip(nx, ny):
    """``full_plane`` puts each band mode at (j, k), j in ``band_j``, and
    its conjugate at (-j, -k), zero off the 2/3 band, batching over leading
    axes; the band cut from it is the band again, bit for bit."""
    grid = Grid2D(nx, ny, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(nx + ny)
    shape = (3, *grid.band_shape)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    band = SpectralField(grid, raw).band  # column 0 paired
    full = full_plane(grid, band)
    assert full.shape == (3, nx, ny)
    assert np.array_equal(cut(grid, full), band)
    assert np.array_equal(full, np.conj(full[:, -grid.j_index][:, :, -grid.k_index]))
    assert not full[:, ~full_plane_mask(grid)].any()
    assert np.array_equal(full_plane(grid, band[1]), full[1])


def test_dealias_idempotent(grid16):
    """The kernel's forward pass is a projection: dealiasing the values of
    a dealiased field gives its band back, to rounding."""
    u = np.random.default_rng(2).standard_normal((16, 16))
    once = dealiased_coefficients(grid16, u)
    twice = dealiased_coefficients(grid16, physical_values(grid16, once))
    assert np.max(np.abs(twice - once)) <= 1e-15 * np.max(np.abs(once))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_parseval_property(seed):
    grid = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    f = random_band_field(grid, seed=seed)
    u = physical_values(grid, f.band)
    spec = np.sqrt(grid.lx * grid.ly * np.sum(np.abs(full_plane(grid, f.band)) ** 2))
    assert physical_l2(grid, u) == pytest.approx(spec, rel=1e-11, abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_round_trip_property(seed):
    grid = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    f = random_band_field(grid, seed=seed)
    u = physical_values(grid, f.band)
    back = SpectralField(grid, dealiased_coefficients(grid, u))
    scale = np.max(np.abs(f.band)) + 1e-30
    assert np.max(np.abs(back.band - f.band)) <= 1e-13 * scale


def test_snapshot_round_trip(tmp_path, grid16):
    f = random_band_field(grid16, seed=21)
    path = tmp_path / "field.kp5s"
    save_snapshot(f, path)
    g = load_snapshot(path)
    assert g.grid == grid16
    assert np.array_equal(g.band, f.band)
    # the v2 layout: header, then the 2/3 band in row-major order
    raw = path.read_bytes()
    assert len(raw) == 32 + 16 * 11 * 6
    assert struct.unpack_from("<4sIIIdd", raw) == (
        SNAPSHOT_MAGIC, 2, 16, 16, 2 * np.pi, 2 * np.pi,
    )
    body = np.frombuffer(raw, dtype="<c16", offset=32).reshape(11, 6)
    assert np.array_equal(body, f.band)


def _saved_snapshot(tmp_path, grid, seed=1):
    """The bytes (a bytearray) and path of a random band field's snapshot."""
    path = tmp_path / "field.kp5s"
    save_snapshot(random_band_field(grid, seed=seed), path)
    return bytearray(path.read_bytes()), path


def test_snapshot_writer_refuses_modes_off_the_band(tmp_path, grid16):
    """A snapshot holds the 2/3 band only, so data with modes off it are
    refused rather than cut: the field they would be saved from cannot be
    built, and no file is written."""
    f = random_band_field(grid16, seed=1)
    half = full_plane(grid16, f.band)[:, : grid16.ny // 2 + 1].copy()
    half[grid16.mode_index(6, 1)] = 1e-3  # 3*6 > 16: outside the band
    path = tmp_path / "field.kp5s"
    with pytest.raises(ValueError, match="2/3 band"):
        save_snapshot(SpectralField(grid16, half), path)
    assert not path.exists()


def test_snapshot_rejects_non_hermitian_payload(tmp_path, grid16):
    """Column k = 0 is its own conjugate partner: an entry c[1, 0] without
    c[-1, 0] = conj(c[1, 0]) is not a real field."""
    raw, path = _saved_snapshot(tmp_path, grid16, seed=2)
    offset = 32 + (1 * 6 + 0) * 16  # band row j = 1, column k = 0
    raw[offset : offset + 16] = np.complex128(1.0 + 0.5j).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="column k = 0 is unpaired"):
        load_snapshot(path)


def test_snapshot_bad_magic(tmp_path, grid16):
    raw, path = _saved_snapshot(tmp_path, grid16)
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="bad magic"):
        load_snapshot(path)


def test_snapshot_truncated(tmp_path, grid16):
    raw, path = _saved_snapshot(tmp_path, grid16)
    path.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(SnapshotFormatError, match="length"):
        load_snapshot(path)
    path.write_bytes(raw[:10])
    with pytest.raises(SnapshotFormatError, match="before header end"):
        load_snapshot(path)


def test_snapshot_rejects_bad_version(tmp_path, grid16):
    raw, path = _saved_snapshot(tmp_path, grid16)
    assert raw[:4] == SNAPSHOT_MAGIC
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="version 99"):
        load_snapshot(path)


def test_snapshot_refuses_a_v1_file(tmp_path, grid16):
    """Version 1 stored the full plane; it is refused, not read."""
    path = tmp_path / "field.kp5s"
    header = struct.pack("<4sIIIdd", SNAPSHOT_MAGIC, 1, 16, 16, 2 * np.pi, 2 * np.pi)
    full = full_plane(grid16, random_band_field(grid16, seed=1).band)
    path.write_bytes(header + full.astype("<c16").tobytes())
    with pytest.raises(SnapshotFormatError, match="version 1$"):
        load_snapshot(path)


def test_snapshot_rejects_a_payload_sized_for_another_grid(tmp_path, grid16):
    raw, path = _saved_snapshot(tmp_path, grid16)
    struct.pack_into("<I", raw, 8, 32)  # nx = 32: a 21-row band
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="length"):
        load_snapshot(path)


def test_snapshot_rejects_non_finite_values(tmp_path, grid16):
    raw, path = _saved_snapshot(tmp_path, grid16)
    raw[-16:] = np.complex128(complex(1.0, np.nan)).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="non-finite"):
        load_snapshot(path)


@pytest.mark.parametrize("offset, fmt, value", [
    (8, "<I", 15),  # odd nx
    (12, "<I", 6),  # ny below 8
    (16, "<d", -1.0),  # negative lx
    (16, "<d", math.inf),  # infinite lx
    (24, "<d", math.inf),  # infinite ly
    (16, "<d", math.nan),  # lx not a number
])
def test_snapshot_rejects_an_invalid_grid(tmp_path, grid16, offset, fmt, value):
    raw, path = _saved_snapshot(tmp_path, grid16)
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="grid sizes|domain lengths"):
        load_snapshot(path)


@pytest.mark.parametrize("n", [64, 128])
def test_gaussian_dx_peaks_at_its_amplitude(n):
    """The derivative profile is scaled by its analytic peak sqrt(2/e)/w, so
    the sampled field, read off the constructor's un-cut half plane, peaks
    at the amplitude up to the grid's sampling."""
    grid = Grid2D(n, n, 32 * np.pi, 32 * np.pi)
    values = np.fft.irfft2(gaussian_dx(grid, 1.5, 2.0), s=(n, n), norm="forward")
    assert np.max(np.abs(values)) == pytest.approx(1.5, rel=0.02)


@pytest.mark.parametrize("ky", [1, 3, -2])
def test_line_soliton_lives_on_its_column(ky):
    """cos(2 pi ky y / ly) is one y-harmonic of the torus: the half plane is
    zero off column |ky| to rounding."""
    grid = Grid2D(64, 64, 32 * np.pi, 32 * np.pi)
    mag = np.abs(line_soliton(grid, 1.0, 2.0, ky))
    off = np.delete(mag, abs(ky), axis=1)
    assert np.max(off) <= 1e-12 * np.max(mag)
