import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_plane_mask, full_plane_square, random_band_field
from kp5.errors import IllPosedInversionError, SnapshotFormatError, SpectralSymmetryError
from kp5.operators import gevrey_norm
from kp5.spectral import (
    Grid2D,
    SNAPSHOT_MAGIC,
    SpectralField,
    dealias,
    dealiased_coefficients,
    dealiased_square,
    full_plane,
    load_snapshot,
    physical_values,
    project_zero_x_mean,
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
    mask = grid16.dealias_mask
    j = grid16.j_index
    k = np.arange(9)  # the half-plane columns
    keep = (3 * np.abs(j)[:, None] <= grid16.nx) & (3 * k[None, :] <= grid16.ny)
    assert np.array_equal(mask, keep)
    assert grid16.eta_row.shape == (1, 9)


def test_forward_matches_direct_dft():
    """Spot-check the series convention against an explicit O(n^2) sum."""
    grid = Grid2D(8, 8, 2 * np.pi, 5.0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((8, 8))
    c = full_plane(grid, SpectralField(grid, np.fft.rfft2(u, norm="forward")).half)
    for j in (0, 1, 3, 5):
        for k in (0, 2, 7):
            acc = 0.0j
            for m in range(8):
                for p in range(8):
                    acc += u[m, p] * np.exp(-2j * np.pi * (j * m / 8 + k * p / 8))
            acc /= 64.0
            assert abs(c[j, k] - acc) <= 1e-13 * (1.0 + abs(acc))


def test_transform_round_trip(grid16):
    f = random_band_field(grid16, seed=11)
    u = physical_values(grid16, f.half)
    back = SpectralField(grid16, np.fft.rfft2(u, norm="forward"))
    assert np.allclose(back.half, f.half, rtol=0, atol=1e-14)
    again = physical_values(grid16, back.half)
    assert np.allclose(again, u, rtol=0, atol=1e-13)


def test_parseval(grid16):
    """Discrete integral of u^2 equals the weighted coefficient sum."""
    f = random_band_field(grid16, seed=5)
    u = physical_values(grid16, f.half)
    phys = physical_l2(grid16, u)
    spec = np.sqrt(grid16.lx * grid16.ly * np.sum(np.abs(full_plane(grid16, f.half)) ** 2))
    assert phys == pytest.approx(spec, rel=1e-12)


def test_only_hermitian_coefficients_become_a_field(grid16):
    """Only Hermitian coefficients become a field, so nothing else can
    reach physical_values through one."""
    c = np.zeros((16, 16), dtype=complex)
    c[grid16.mode_index(2, 1)] = 1.0  # no conjugate partner
    with pytest.raises(SpectralSymmetryError):
        SpectralField.from_coefficients(grid16, c)
    c[grid16.mode_index(-2, -1)] = 1.0
    u = physical_values(grid16, SpectralField.from_coefficients(grid16, c).half)
    assert u.dtype == np.float64


def test_from_coefficients_checks_symmetry_and_x_mean(grid16):
    """from_coefficients detects the Hermitian symmetry; the zero-x-mean
    property is read off the j = 0 fiber."""
    c = np.zeros((16, 16), dtype=complex)
    c[grid16.mode_index(2, 3)] = 1.0 + 2.0j
    c[grid16.mode_index(-2, -3)] = 1.0 - 2.0j
    f = SpectralField.from_coefficients(grid16, c)
    assert np.array_equal(full_plane(grid16, f.half), c)
    assert not f.half[0].any()
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
    assert g.half[0].any()
    with pytest.raises(IllPosedInversionError):
        x_antiderivative(g)


def test_nyquist_always_zeroed(grid16):
    f = SpectralField(grid16, np.ones((16, 9), dtype=complex))
    assert np.all(f.half[8, :] == 0.0)
    assert np.all(f.half[:, 8] == 0.0)
    assert not f.half.flags.writeable
    g = SpectralField.from_coefficients(grid16, np.ones((16, 16)))
    assert np.array_equal(g.half, f.half)


def test_half_plane_column_zero_is_paired(grid16):
    """Column k = 0 stands for itself, and a field keeps its Hermitian
    part, the part irfft2 reads: a lone 1j at (1, 0) is the real field
    -sin(x), whose norm is the physical L2 norm pi*sqrt(2), not 2*pi."""
    half = np.zeros((16, 9), dtype=complex)
    half[1, 0] = 1j
    f = SpectralField(grid16, half)
    assert (f.half[1, 0], f.half[-1, 0]) == (0.5j, -0.5j)
    u = physical_values(grid16, f.half)
    assert np.allclose(u, -np.sin(grid16.x_nodes)[:, None], atol=1e-15)
    assert gevrey_norm(f, 0.0, 0.0) == pytest.approx(np.pi * np.sqrt(2), rel=1e-14)
    assert physical_l2(grid16, u) == pytest.approx(np.pi * np.sqrt(2), rel=1e-14)
    # a paired plane is taken over as it is
    assert SpectralField(grid16, f.half).half is f.half


def test_stacked_field_pairs_and_zeroes_every_slice(grid16):
    """A stack of half planes is a stack of real fields: each slice is
    what it would be as a field of its own."""
    rng = np.random.default_rng(5)
    halves = rng.standard_normal((2, 3, 16, 9)) + 1j * rng.standard_normal((2, 3, 16, 9))
    stack = SpectralField(grid16, halves)
    assert stack.half.shape == (2, 3, 16, 9) and not stack.half.flags.writeable
    for index in np.ndindex(2, 3):
        single = SpectralField(grid16, halves[index])
        assert np.array_equal(stack.half[index], single.half)
        column = stack.half[index][:, 0]
        assert np.array_equal(column, np.conj(column[-grid16.j_index]))
        assert not stack.half[index][8].any() and not stack.half[index][:, 8].any()
    # a stack of paired planes is taken over as it is
    assert SpectralField(grid16, stack.half).half is stack.half
    with pytest.raises(ValueError):
        SpectralField(grid16, halves[..., :8])


def test_full_plane_rebuilds_hermitian_field():
    grid = Grid2D(32, 48, 2 * np.pi, 3 * np.pi)
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((32, 48)) + 1j * rng.standard_normal((32, 48))
    raw[16, :] = 0.0
    raw[:, 24] = 0.0
    # the Hermitian part, c[j, k] = (raw[j, k] + conj(raw[-j, -k])) / 2
    c = 0.5 * (raw + np.conj(raw[-grid.j_index % 32][:, -grid.k_index % 48]))
    half = SpectralField.from_coefficients(grid, c).half
    assert half.shape == (32, 25)
    full = full_plane(grid, half)
    assert np.array_equal(full, c)
    assert not full[16, :].any() and not full[:, 24].any()
    # a transformed real field comes back to roundoff
    f = random_band_field(grid, seed=6)
    want = np.fft.fft2(physical_values(grid, f.half)) / (32 * 48)
    assert np.max(np.abs(full_plane(grid, f.half) - want)) <= 1e-15 * np.max(np.abs(want))


def test_x_derivative_on_planted_wave(grid16):
    x = grid16.x_nodes[:, None]
    y = grid16.y_nodes[None, :]
    u = np.sin(2 * x) * np.cos(3 * y)
    f = SpectralField(grid16, np.fft.rfft2(u, norm="forward"))
    du = physical_values(grid16, x_derivative(f).half)
    expected = 2 * np.cos(2 * x) * np.cos(3 * y)
    assert np.allclose(du, expected, atol=1e-12)


def test_x_antiderivative_round_trip(grid16):
    f = random_band_field(grid16, seed=13)
    back = x_antiderivative(x_derivative(f))
    expected = project_zero_x_mean(f)
    assert np.allclose(back.half, expected.half, atol=1e-13)
    assert not back.half[0].any()


def test_x_antiderivative_rejects_x_mean(grid16):
    y = grid16.y_nodes[None, :]
    u = np.tile(np.cos(3 * y), (16, 1))  # pure y-dependence, j=0 fiber mass
    f = SpectralField(grid16, np.fft.rfft2(u, norm="forward"))
    with pytest.raises(IllPosedInversionError):
        x_antiderivative(f)


def test_square_of_single_cosine(grid16):
    """cos(2x)^2 = 1/2 + cos(4x)/2, all inside the dealiased band."""
    x = grid16.x_nodes[:, None]
    u = np.broadcast_to(np.cos(2 * x), (16, 16)).copy()
    f = SpectralField(grid16, np.fft.rfft2(u, norm="forward"))
    c = full_plane(grid16, dealiased_square(grid16, f.half))
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
    f = dealias(SpectralField(grid16, np.fft.rfft2(u, norm="forward")))
    c = full_plane(grid16, dealiased_square(grid16, f.half))
    assert c[grid16.mode_index(0, 0)] == pytest.approx(0.5, abs=1e-14)
    c[grid16.mode_index(0, 0)] = 0.0
    assert np.max(np.abs(c)) < 1e-14


def test_batched_square_matches_full_plane_square():
    """One kernel call over a stack equals the complex-FFT square of each
    slice, band-limited or not (the aliased part is masked the same way)."""
    grid = Grid2D(32, 48, 16 * np.pi, 24 * np.pi)
    rng = np.random.default_rng(8)
    fields = [random_band_field(grid, seed=s) for s in (1, 2, 3)]
    noise = rng.standard_normal((32, 48))
    fields.append(SpectralField(grid, np.fft.rfft2(noise, norm="forward")))
    stack = np.stack([f.half for f in fields])
    got = full_plane(grid, dealiased_square(grid, stack))
    assert got.shape == (4, 32, 48)
    for sq, f in zip(got, fields):
        want = full_plane_square(grid, full_plane(grid, f.half))
        assert np.max(np.abs(sq - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "nx, ny, batch",
    [(32, 48, ()), (64, 64, ()), (16, 40, ()), (24, 32, (3, 2))],
    ids=["32x48", "64x64", "16x40", "24x32-batched"],
)
def test_transform_pair_equals_2d_transforms(nx, ny, batch):
    """The band-pruned forward pass equals rfft2 times the half-plane mask
    exactly (ny % 3 != 0 included), the inverse pass equals irfft2 exactly,
    and neither touches its input."""
    grid = Grid2D(nx, ny, 2 * np.pi, 3 * np.pi)
    rng = np.random.default_rng(nx + ny)
    values = rng.standard_normal(batch + (nx, ny))
    kept = values.copy()
    got = dealiased_coefficients(grid, values)
    want = np.fft.rfft2(values, norm="forward") * grid.dealias_mask
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(values, kept)
    half = rng.standard_normal(want.shape) + 1j * rng.standard_normal(want.shape)
    kept = half.copy()
    assert np.array_equal(
        physical_values(grid, half),
        np.fft.irfft2(half, s=(nx, ny), norm="forward"),
    )
    assert np.array_equal(half, kept)


def test_dealias_idempotent(grid16):
    u = np.random.default_rng(2).standard_normal((16, 16))
    f = SpectralField(grid16, np.fft.rfft2(u, norm="forward"))
    once = dealias(f)
    twice = dealias(once)
    assert np.array_equal(once.half, twice.half)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_parseval_property(seed):
    grid = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    f = random_band_field(grid, seed=seed)
    u = physical_values(grid, f.half)
    spec = np.sqrt(grid.lx * grid.ly * np.sum(np.abs(full_plane(grid, f.half)) ** 2))
    assert physical_l2(grid, u) == pytest.approx(spec, rel=1e-11, abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_round_trip_property(seed):
    grid = Grid2D(16, 16, 2 * np.pi, 2 * np.pi)
    f = random_band_field(grid, seed=seed)
    u = physical_values(grid, f.half)
    back = SpectralField(grid, np.fft.rfft2(u, norm="forward"))
    scale = np.max(np.abs(f.half)) + 1e-30
    assert np.max(np.abs(back.half - f.half)) <= 1e-13 * scale


def test_snapshot_round_trip(tmp_path, grid16):
    f = random_band_field(grid16, seed=21)
    path = tmp_path / "field.kp5s"
    save_snapshot(f, path)
    g = load_snapshot(path)
    assert g.grid == grid16
    assert np.array_equal(g.half, f.half)
    # the v1 layout: header, then the full plane in row-major order
    raw = path.read_bytes()
    assert len(raw) == 32 + 16 * 16 * 16
    body = np.frombuffer(raw, dtype="<c16", offset=32).reshape(16, 16)
    assert np.array_equal(body, full_plane(grid16, f.half))


def test_snapshot_rejects_non_hermitian_payload(tmp_path, grid16):
    f = random_band_field(grid16, seed=2)
    path = tmp_path / "field.kp5s"
    save_snapshot(f, path)
    raw = bytearray(path.read_bytes())
    header = len(raw) - 16 * 16 * 16
    c = np.zeros((16, 16), dtype="<c16")
    c[1, 1] = 1.0  # c[-1, -1] stays zero
    raw[header:] = c.tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)


def test_snapshot_bad_magic(tmp_path, grid16):
    f = random_band_field(grid16, seed=1)
    path = tmp_path / "field.kp5s"
    save_snapshot(f, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)


def test_snapshot_truncated(tmp_path, grid16):
    f = random_band_field(grid16, seed=1)
    path = tmp_path / "field.kp5s"
    save_snapshot(f, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)
    path.write_bytes(raw[:10])
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)


def test_snapshot_rejects_nyquist_content(tmp_path, grid16):
    f = random_band_field(grid16, seed=1)
    path = tmp_path / "field.kp5s"
    save_snapshot(f, path)
    raw = bytearray(path.read_bytes())
    header = len(raw) - 16 * 16 * 16
    # poke a nonzero value into the Nyquist row (array row nx//2 = 8)
    offset = header + (8 * 16 + 0) * 16
    raw[offset : offset + 16] = np.complex128(1.0 + 0j).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)


def test_snapshot_rejects_bad_version(tmp_path, grid16):
    f = random_band_field(grid16, seed=1)
    path = tmp_path / "field.kp5s"
    save_snapshot(f, path)
    raw = bytearray(path.read_bytes())
    assert raw[:4] == SNAPSHOT_MAGIC
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)
