"""Voxel grids on the unit cube, field samples, inner products, and file I/O.

The domain is always [0,1]^d partitioned into a regular K_1 x ... x K_d voxel
grid; evaluation points are the voxel midpoints, so averaging over the D grid
values is an exact midpoint quadrature with weight 1/D.  An N x D matrix of
grid values, one row per observed field, is the data currency of the whole
package.
"""

from __future__ import annotations

import math
import os
import stat
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldFormatError, _check_memory

FIELD_MAGIC = b"CVNF"
FIELD_VERSION = 1
# largest header read, in bytes, that read_fields asks the file for at once
_READ_CHUNK = 1 << 16
# Grid.coordinates meshes the axes into one d-dimensional array, and numpy
# before 2.0 allows at most 32 array dimensions
_MAX_AXES = 32


@dataclass(frozen=True)
class Grid:
    """Regular voxel grid on [0,1]^d with midpoint evaluation locations.

    Flat indices are row-major over the per-axis sizes: index i maps to the
    multi-index (j_1, ..., j_d) and to the midpoint ((j_k + 0.5) / K_k)_k.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= len(self.sizes) <= _MAX_AXES:
            raise ValueError(f"grid needs 1 to {_MAX_AXES} axes, got {len(self.sizes)}")
        if any(int(k) <= 0 for k in self.sizes):
            raise ValueError(f"grid sizes must be positive, got {self.sizes}")
        object.__setattr__(self, "sizes", tuple(int(k) for k in self.sizes))

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def n_points(self) -> int:
        return math.prod(self.sizes)

    def coordinates(self) -> np.ndarray:
        """All midpoints as an (D, d) array in flat-index order, checked against memory."""
        n, d = self.n_points, self.d
        _check_memory(n * d, f"the {d} coordinates of {n} grid points")
        axes = [(np.arange(k) + 0.5) / k for k in self.sizes]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def flat_index(self, points: np.ndarray) -> np.ndarray:
        """Nearest-voxel flat indices for points in [0,1]^d (rows).

        Points outside the cube map to the nearest edge voxel, however far
        out: they are clipped to the cube in floating point, before u * K
        and the integer cast, so nothing overflows.  Points are checked as
        by _points.
        """
        pts = np.clip(_points(points, self.d), 0.0, 1.0)
        idx = [
            np.minimum(pts[:, k] * self.sizes[k], self.sizes[k] - 1).astype(np.int64)
            for k in range(self.d)
        ]
        return np.ravel_multi_index(idx, self.sizes)


def _points(points, d: int) -> np.ndarray:
    """Evaluation points as a checked finite (M, d) float array; a 1-D array is one point."""
    u = np.atleast_2d(np.asarray(points, dtype=float))
    if u.ndim != 2 or u.shape[1] != d:
        raise ValueError(f"points must be (M, {d}), got {u.shape}")
    if not _all_finite(u):
        raise ValueError("evaluation points must be finite")
    return u


def _point_pairs(u, v, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Paired evaluation points as two checked (M, d) arrays of one shape."""
    u, v = _points(u, d), _points(v, d)
    if u.shape != v.shape:
        raise ValueError(f"paired points must have one shape, got {u.shape} and {v.shape}")
    return u, v


def make_grid(d: int, sizes) -> Grid:
    """Build a Grid, checking that `sizes` lists one positive size per axis."""
    sizes = tuple(int(k) for k in sizes)
    if int(d) != len(sizes):
        raise ValueError(f"expected {d} sizes, got {len(sizes)}")
    return Grid(sizes)


@dataclass(frozen=True)
class FieldMatrix:
    """N fields discretized on a common grid; row n holds field n's values."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 2:
            raise ValueError(f"field values must be 2-D, got shape {vals.shape}")
        if vals.shape[1] != self.grid.n_points:
            raise ValueError(
                f"row length {vals.shape[1]} does not match grid size {self.grid.n_points}"
            )
        if not _all_finite(vals):
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def centered(self) -> "FieldMatrix":
        """Fields with the empirical mean field subtracted."""
        return FieldMatrix(self.grid, self.values - self.values.mean(axis=0))


def _all_finite(a: np.ndarray) -> bool:
    # min and max propagate nan and show an infinity, so no N x D mask is made
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def cross_gram(f: FieldMatrix) -> np.ndarray:
    """All pairwise inner products between rows of `f`, as an N x N array.

    The result is symmetrized so that the Gram is exactly symmetric.
    """
    g = (f.values @ f.values.T) / f.grid.n_points
    return (g + g.T) / 2.0


def _read_exact(fh, offset: int, n: int, what: str) -> bytes:
    """The next n bytes of fh, whose position is `offset`.

    Reads at most _READ_CHUNK bytes at a time, so a header that declares a
    huge length costs no more memory than the bytes the stream holds.
    """
    buf = bytearray()
    while len(buf) < n:
        chunk = fh.read(min(n - len(buf), _READ_CHUNK))
        if not chunk:
            raise FieldFormatError(f"truncated file while reading {what}", offset + len(buf))
        buf += chunk
    return bytes(buf)


def write_fields(path, f: FieldMatrix) -> None:
    """Write a field matrix in the CVNF binary format (little endian).

    Layout: magic "CVNF", u32 version, u32 d, d x u32 sizes, u64 N, then
    N*D float64 values row-major.  No padding anywhere.
    """
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<II", FIELD_VERSION, f.grid.d))
        fh.write(struct.pack(f"<{f.grid.d}I", *f.grid.sizes))
        fh.write(struct.pack("<Q", f.n))
        # the array's own buffer, not a bytes copy of it
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))


def read_fields(path) -> FieldMatrix:
    """Read a CVNF field file, validating structure and payload.

    The file is read front to back, so a pipe works too, and the values are
    read straight into the one array the result holds.  A regular file's
    size is checked against the payload before that array is allocated.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 0, 4, "magic")
        if magic != FIELD_MAGIC:
            raise FieldFormatError(f"bad magic {magic!r}, expected {FIELD_MAGIC!r}", 0)
        (version,) = struct.unpack("<I", _read_exact(fh, 4, 4, "version"))
        if version != FIELD_VERSION:
            raise FieldFormatError(f"unsupported version {version}", 4)
        (d,) = struct.unpack("<I", _read_exact(fh, 8, 4, "dimension"))
        if not 1 <= d <= _MAX_AXES:
            raise FieldFormatError(f"dimension must lie in [1, {_MAX_AXES}], got {d}", 8)
        sizes = struct.unpack(f"<{d}I", _read_exact(fh, 12, 4 * d, "grid sizes"))
        offset = 12 + 4 * d
        for k, k_size in enumerate(sizes):
            if k_size == 0:
                raise FieldFormatError(f"zero grid size on axis {k}", 12 + 4 * k)
        (n,) = struct.unpack("<Q", _read_exact(fh, offset, 8, "sample count"))
        offset += 8
        n_points = math.prod(sizes)
        if 8 * n_points > sys.maxsize:
            raise FieldFormatError(f"grid of {n_points} points is too large", 12)
        end = offset + 8 * n * n_points
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and end > st.st_size:
            raise FieldFormatError("truncated file while reading field values", st.st_size)
        try:
            values = np.empty((n, n_points), "<f8")
        except (MemoryError, ValueError):
            raise FieldFormatError(
                f"{n} fields of {n_points} points do not fit in memory", offset - 8
            ) from None
        got = fh.readinto(values)
        if got < values.nbytes:
            raise FieldFormatError("truncated file while reading field values", offset + got)
        if fh.read(1):
            raise FieldFormatError("trailing bytes after field values", end)
    if not _all_finite(values):
        first = int(np.flatnonzero(~np.isfinite(values.ravel()))[0])
        raise FieldFormatError("non-finite field value", offset + 8 * first)
    return FieldMatrix(make_grid(d, sizes), values)
