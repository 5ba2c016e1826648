import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covnet.errors import FieldFormatError
from covnet.fields import (
    FieldMatrix,
    cross_gram,
    make_grid,
    read_fields,
    write_fields,
)
from covnet.rng import gaussian, make_rng


def test_grid_1d_midpoints():
    grid = make_grid(1, [4])
    np.testing.assert_allclose(
        grid.coordinates().ravel(), [0.125, 0.375, 0.625, 0.875]
    )


def test_grid_2d_row_major():
    grid = make_grid(2, [2, 3])
    assert grid.n_points == 6
    pts = grid.coordinates()
    np.testing.assert_allclose(pts[0], [0.25, 1 / 6])
    # flat index walks the last axis fastest
    np.testing.assert_allclose(pts[1], [0.25, 3 / 6])
    np.testing.assert_allclose(pts[3], [0.75, 1 / 6])


def test_grid_3d_size():
    assert make_grid(3, [25, 25, 25]).n_points == 15625


@pytest.mark.parametrize("sizes", [[0], [3, -1], [-2, 2]])
def test_grid_rejects_nonpositive_sizes(sizes):
    with pytest.raises(ValueError):
        make_grid(len(sizes), sizes)


def test_grid_rejects_wrong_length():
    with pytest.raises(ValueError):
        make_grid(2, [4])


def test_grid_axes_stop_where_numpy_arrays_do():
    # coordinates() meshes the axes into one array of d dimensions
    assert make_grid(32, [1] * 32).coordinates().shape == (1, 32)
    with pytest.raises(ValueError, match="grid needs 1 to 32 axes, got 33"):
        make_grid(33, [1] * 33)


def test_flat_index_clips_points_outside_the_cube():
    grid = make_grid(2, [2, 3])
    pts = np.array([[-0.5, 0.5], [1.5, 0.5], [0.0, 1.0], [0.99, 0.0]])
    np.testing.assert_array_equal(grid.flat_index(pts), [1, 4, 2, 3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_flat_index_rejects_nonfinite_points(bad):
    grid = make_grid(2, [2, 3])
    pts = np.full((4, 2), 0.5)
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="evaluation points must be finite"):
        grid.flat_index(pts)


@pytest.mark.parametrize("shape", [(4, 1), (4, 3), (2, 2, 2)])
def test_flat_index_rejects_points_of_the_wrong_dimension(shape):
    with pytest.raises(ValueError, match=r"points must be \(M, 2\)"):
        make_grid(2, [2, 3]).flat_index(np.full(shape, 0.5))


def inner_product_loop(a, b):
    """Midpoint-quadrature L2 inner product as a scalar loop."""
    return sum(float(a[i]) * float(b[i]) for i in range(len(a))) / len(a)


def test_inner_product_ones():
    grid = make_grid(2, [3, 5])
    f = FieldMatrix(grid, np.ones((1, grid.n_points)))
    assert cross_gram(f)[0, 0] == 1.0


def test_inner_product_orthogonal():
    grid = make_grid(1, [2])
    f = FieldMatrix(grid, np.array([[1.0, -1.0], [1.0, 1.0]]))
    assert cross_gram(f)[0, 1] == 0.0


def test_inner_product_matches_scalar_loop():
    grid = make_grid(2, [8, 8])
    rng = make_rng(5)
    a = gaussian(rng, 64)
    b = gaussian(rng, 64)
    oracle = inner_product_loop(a, b)
    got = cross_gram(FieldMatrix(grid, np.stack([a, b])))[0, 1]
    assert abs(got - oracle) <= 1e-14 * abs(oracle)


def test_inner_product_length_mismatch():
    grid = make_grid(1, [4])
    with pytest.raises(ValueError):
        FieldMatrix(grid, np.ones((2, 3)))


def test_cross_gram_single_ones_row():
    grid = make_grid(1, [5])
    f = FieldMatrix(grid, np.ones((1, 5)))
    np.testing.assert_allclose(cross_gram(f), [[1.0]])


def test_cross_gram_orthogonal_rows():
    grid = make_grid(1, [2])
    f = FieldMatrix(grid, np.array([[1.0, -1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(cross_gram(f), np.eye(2))


def test_cross_gram_matches_loop_oracle():
    grid = make_grid(1, [64])
    rng = make_rng(9)
    a = FieldMatrix(grid, gaussian(rng, (5, 64)))
    got = cross_gram(a)
    oracle = np.array(
        [[inner_product_loop(a.values[i], a.values[j]) for j in range(5)] for i in range(5)]
    )
    np.testing.assert_allclose(got, oracle, rtol=1e-13)


def test_gram_self_is_psd():
    grid = make_grid(1, [30])
    f = FieldMatrix(grid, gaussian(make_rng(2), (6, 30)))
    g = cross_gram(f)
    smallest = np.linalg.eigvalsh(g)[0]
    assert smallest >= -1e-10 * np.trace(g)
    assert np.all(np.diag(g) >= 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3, 3, allow_nan=False))
def test_inner_product_bilinear(seed, alpha):
    grid = make_grid(1, [16])
    rng = make_rng(seed)
    a, b, c = (gaussian(rng, 16) for _ in range(3))
    g = cross_gram(FieldMatrix(grid, np.stack([alpha * a + b, a, b, c])))
    lhs = g[0, 3]
    rhs = alpha * g[1, 3] + g[2, 3]
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_field_matrix_rejects_nonfinite():
    grid = make_grid(1, [2])
    with pytest.raises(ValueError):
        FieldMatrix(grid, np.array([[1.0, np.inf]]))


def test_roundtrip_bit_identical(tmp_path):
    grid = make_grid(3, [2, 3, 4])
    f = FieldMatrix(grid, gaussian(make_rng(4), (7, 24)))
    path = tmp_path / "f.cvnf"
    write_fields(path, f)
    back = read_fields(path)
    assert back.grid == grid
    assert np.array_equal(back.values, f.values)
    assert back.values.flags.writeable


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.cvnf"
    path.write_bytes(b"XXXX" + b"\0" * 40)
    with pytest.raises(FieldFormatError) as err:
        read_fields(path)
    assert err.value.offset == 0


def test_read_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.cvnf"
    path.write_bytes(b"CVNF" + (99).to_bytes(4, "little") + b"\0" * 40)
    with pytest.raises(FieldFormatError) as err:
        read_fields(path)
    assert err.value.offset == 4


def test_read_rejects_truncation(tmp_path):
    grid = make_grid(1, [3])
    f = FieldMatrix(grid, np.arange(6.0).reshape(2, 3))
    path = tmp_path / "t.cvnf"
    write_fields(path, f)
    # header says N=2, K=3 but keep only 5 of the 6 payload doubles
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 8])
    with pytest.raises(FieldFormatError):
        read_fields(path)


def test_read_rejects_nonfinite(tmp_path):
    grid = make_grid(1, [2])
    f = FieldMatrix(grid, np.ones((1, 2)))
    path = tmp_path / "n.cvnf"
    write_fields(path, f)
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FieldFormatError) as err:
        read_fields(path)
    assert err.value.offset == len(blob) - 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_reports_the_first_nonfinite_value(tmp_path, bad):
    grid = make_grid(2, [3, 2])
    values = np.arange(24.0).reshape(4, 6)
    path = tmp_path / "n.cvnf"
    write_fields(path, FieldMatrix(grid, values))
    blob = bytearray(path.read_bytes())
    payload = len(blob) - values.nbytes
    for i in (17, 9):
        blob[payload + 8 * i : payload + 8 * i + 8] = np.array([bad]).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FieldFormatError, match="non-finite field value") as err:
        read_fields(path)
    assert err.value.offset == payload + 8 * 9
    with pytest.raises(ValueError, match="finite"):
        FieldMatrix(grid, np.frombuffer(bytes(blob[payload:])).reshape(4, 6))


@pytest.mark.parametrize("sizes, n", [([1], 1), ([3, 2], 0), ([2, 3, 4], 7), ([40, 40], 5)])
def test_write_fields_bytes_are_the_tobytes_encoding(tmp_path, sizes, n):
    grid = make_grid(len(sizes), sizes)
    f = FieldMatrix(grid, gaussian(make_rng(3), (n, grid.n_points)))
    path = tmp_path / "f.cvnf"
    write_fields(path, f)
    want = header(sizes, n) + np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    assert path.read_bytes() == want
    assert np.array_equal(read_fields(path).values, f.values)


def test_field_files_are_written_and_read_without_a_copy(tmp_path, traced_peak):
    f = FieldMatrix(make_grid(2, [64, 64]), gaussian(make_rng(5), (400, 4096)))
    path = tmp_path / "f.cvnf"
    assert traced_peak(lambda: write_fields(path, f)) <= 2**20
    assert traced_peak(lambda: read_fields(path)) <= f.values.nbytes + 2**20


def header(sizes, n):
    """A CVNF header with no payload."""
    return (
        b"CVNF"
        + struct.pack("<II", 1, len(sizes))
        + struct.pack(f"<{len(sizes)}I", *sizes)
        + struct.pack("<Q", n)
    )


@pytest.mark.parametrize(
    "sizes, n",
    [((2**31, 2**31, 2**31), 3), ((2**32 - 1, 2**32 - 1), 1), ((2**31, 2**31), 0)],
    ids=["d3_2^31", "d2_2^32-1", "no_fields"],
)
def test_read_rejects_grid_size_overflow(tmp_path, sizes, n):
    # the grid size would wrap to 0 or go negative in int64 arithmetic, and
    # with no fields the payload check alone would pass an unaddressable grid
    path = tmp_path / "big.cvnf"
    path.write_bytes(header(sizes, n))
    with pytest.raises(FieldFormatError) as err:
        read_fields(path)
    assert err.value.offset >= 0


@pytest.mark.parametrize("d", [0, 33, 2**32 - 1])
def test_read_rejects_a_dimension_outside_the_grid_range(tmp_path, d):
    # the sizes are never read: the dimension alone is refused
    path = tmp_path / "d.cvnf"
    path.write_bytes(b"CVNF" + struct.pack("<II", 1, d))
    with pytest.raises(FieldFormatError, match=f"dimension must lie in \\[1, 32\\], got {d}"):
        read_fields(path)


def test_grid_size_is_exact_beyond_int64():
    assert make_grid(3, [2**31] * 3).n_points == 2**93


def test_centered_removes_mean():
    grid = make_grid(1, [4])
    f = FieldMatrix(grid, np.array([[1.0, 2, 3, 4], [3.0, 4, 5, 6]]))
    np.testing.assert_allclose(f.centered().values.mean(axis=0), 0.0, atol=1e-15)


def read_through_fifo(tmp_path, blob):
    """read_fields on a named pipe that a thread fills with `blob`."""
    fifo = tmp_path / "fields.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            try:
                fh.write(blob)
            except BrokenPipeError:  # the reader stopped early
                pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read_fields(fifo)
    finally:
        writer.join()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_fields_from_a_pipe(tmp_path):
    f = FieldMatrix(make_grid(2, [40, 40]), gaussian(make_rng(8), (30, 1600)))
    path = tmp_path / "f.cvnf"
    write_fields(path, f)
    blob = path.read_bytes()
    assert np.array_equal(read_through_fifo(tmp_path, blob).values, f.values)
    # the errors and offsets a regular file gets
    cases = [
        (blob[:3], "truncated file while reading magic", 3),
        (blob[:14], "truncated file while reading grid sizes", 14),
        (blob[:-5], "truncated file while reading field values", len(blob) - 5),
        (blob + b"x", "trailing bytes after field values", len(blob)),
    ]
    for bad, msg, offset in cases:
        (tmp_path / "fields.fifo").unlink(missing_ok=True)
        with pytest.raises(FieldFormatError, match=msg) as err:
            read_through_fifo(tmp_path, bad)
        assert err.value.offset == offset
        path.write_bytes(bad)
        with pytest.raises(FieldFormatError, match=msg) as err:
            read_fields(path)
        assert err.value.offset == offset


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_fields_from_a_pipe_rejects_an_unallocatable_count(tmp_path):
    # a pipe has no size to check the payload against before allocating
    with pytest.raises(FieldFormatError, match="do not fit in memory") as err:
        read_through_fifo(tmp_path, header([3, 2], 2**63))
    assert err.value.offset == 20
