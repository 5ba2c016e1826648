"""Analytic covariance kernels and Gaussian random field simulation.

Five kernel families on [0,1]^d: the Brownian sheet, the integrated Brownian
sheet, rotated versions of both, and the Matern covariance.  The product
kernels factor over axes; rotation composes them with an orthogonal map of
the coordinates, which destroys separability.  Rotated coordinates can leave
[0,1]^d, so the per-axis Brownian covariances are the two-sided ones,
(|u|+|v|-|u-v|)/2 for Brownian motion and 1{uv>=0} c_ibm(|u|,|v|) for its
integral; on [0,1] these coincide with min(u,v) and the usual integrated-BM
formula, and they stay valid covariances on all of R (the raw formulas do
not, and yield indefinite matrices after rotation).  Only the Matern kernel
needs scipy.special (gamma and the Bessel kv); it is imported on the first
Matern evaluation, so a process that draws or scores no Matern field never
loads it.

Sampling draws rows L z with L a jittered Cholesky factor of the kernel
matrix at the grid midpoints, optionally adding i.i.d. pointwise measurement
noise from stream 3 of the draw's seed.  For the unrotated product kernels
the D x D matrix is never formed: on a tensor grid it is C_1 (x) ... (x) C_d
with C_k the 1-D kernel matrix of axis k, and chol(A (x) B) = chol(A) (x)
chol(B), so L is applied as one K_k x K_k factor per axis.  Rotated sheets
and Matern are not separable; they take the dense factor of the whole grid.
Either way each factor overwrites the N x D draw block by block, so beside a
noise draw that is the only N x D array a sample holds; memory is checked
for both.  The dense factor is written over the kernel matrix (by LAPACK
beyond _CHOLESKY_BLOCK points), and a failed attempt's matrix is dropped
and the retry factors a freshly built one, so the dense path holds one
D x D array beside the draw; it is capped at KERNEL_MATRIX_CAP points,
checked before anything is allocated.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericError, ResourceLimitError, _check_memory
from .fields import FieldMatrix, Grid, _point_pairs, make_grid
from .model import _POINT_BLOCK, _point_blocks
from .rng import gaussian, make_rng

# The cap keeps three D x D float64 arrays within 4 GiB: 24 D^2 <= 2^32 gives
# D <= 13377.  The dense sampler itself holds one, so for it the cap is
# conservative; but a caller that factors kernel_matrix with
# np.linalg.cholesky holds three (the matrix, LAPACK's working copy and the
# factor), and a larger cap would admit larger dense draws, whose O(D^3)
# factorization is already the sampler's slowest step.
KERNEL_MATRIX_CAP = math.isqrt((4 << 30) // (3 * 8))
# kernel values per row block in kernel_matrix, so that its temporaries stay
# about _MATRIX_BLOCK floats whatever the grid size
_MATRIX_BLOCK = 1 << 16
# a kernel matrix of at most this many rows is factored by np.linalg.cholesky
# on a copy, a larger one in place by LAPACK
_CHOLESKY_BLOCK = 1024


def _check_rotation(o: np.ndarray, d: int) -> np.ndarray:
    o = np.asarray(o, dtype=float)
    if o.shape != (d, d):
        raise ValueError(f"rotation must be {d}x{d}, got {o.shape}")
    # negated, so that a nan entry, whose comparisons are all false, is refused
    if not np.abs(o.T @ o - np.eye(d)).max() <= 1e-12:
        raise ValueError("rotation matrix is not orthogonal to 1e-12")
    return o


class _Kernel:
    """Base of the five kernel families: a covariance c evaluated at point pairs."""

    def kernel_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """c(u_i, v_i) for paired rows of two finite (M, d) point arrays.

        Exactly symmetric: every family's formula is symmetric in u and v
        operation by operation.
        """
        u, v = _point_pairs(u, v, self.d)
        return _evaluate_rotated(self, _rotate(self, u), _rotate(self, v))


@dataclass(frozen=True)
class BrownianSheet(_Kernel):
    """Product of standard Brownian motion covariances min(u_k, v_k)."""

    d: int = 2


@dataclass(frozen=True)
class _RotatedSheet(_Kernel):
    """A product kernel evaluated at rotated coordinates."""

    rotation: np.ndarray

    def __post_init__(self):
        o = _check_rotation(self.rotation, np.asarray(self.rotation).shape[0])
        object.__setattr__(self, "rotation", o)

    @property
    def d(self) -> int:
        return self.rotation.shape[0]


@dataclass(frozen=True)
class RotatedBrownianSheet(_RotatedSheet):
    """Brownian sheet covariance evaluated at rotated coordinates."""


@dataclass(frozen=True)
class IntegratedBrownianSheet(_Kernel):
    """Product of integrated Brownian motion covariances."""

    d: int = 2


@dataclass(frozen=True)
class RotatedIntegratedBrownianSheet(_RotatedSheet):
    """Integrated Brownian sheet covariance at rotated coordinates."""


@dataclass(frozen=True)
class Matern(_Kernel):
    """Isotropic Matern covariance with smoothness nu and unit scale."""

    nu: float
    d: int = 2

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError(f"matern smoothness must be positive, got {self.nu}")


@dataclass(frozen=True)
class NoiseSpec:
    """I.i.d. centered Gaussian measurement noise of s.d. sigma added per grid value."""

    sigma: float

    def __post_init__(self):
        if not self.sigma >= 0:  # so that nan is refused too
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        # every Box-Muller normal is below sqrt(-2 ln 2^-53) ~ 8.58 in size,
        # so noise of a sigma whose 9 sigma is finite cannot overflow
        if not math.isfinite(9.0 * float(self.sigma)):
            raise ValueError(f"sigma {self.sigma} is so large that its noise can overflow")


def rotation_2d_45() -> np.ndarray:
    """The 45-degree planar rotation used in the 2-D rotated examples."""
    s = 1.0 / np.sqrt(2.0)
    return np.array([[s, -s], [s, s]])


def rotation_3d_composed() -> np.ndarray:
    """Composition O_z O_y O_x of the three basic 45-degree 3-D rotations."""
    s = 1.0 / np.sqrt(2.0)
    ox = np.array([[1, 0, 0], [0, s, -s], [0, s, s]])
    oy = np.array([[s, 0, s], [0, 1, 0], [-s, 0, s]])
    oz = np.array([[s, -s, 0], [s, s, 0], [0, 0, 1]])
    return oz @ oy @ ox


def _bm_axis(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # two-sided Brownian covariance; equals min(u, v) for u, v >= 0
    return 0.5 * (np.abs(u) + np.abs(v) - np.abs(u - v))


def _ibm_axis(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # two-sided integrated Brownian covariance; equals the one-sided
    # formula (m^2/2)(M - m/3) with m = min, M = max for u, v >= 0
    m = np.minimum(np.abs(u), np.abs(v))
    big = np.maximum(np.abs(u), np.abs(v))
    return np.where(u * v >= 0, 0.5 * m * m * (big - m / 3.0), 0.0)


def _matern_radial(nu: float, r: np.ndarray) -> np.ndarray:
    # imported here: scipy.special adds about 0.2 s and 24 MiB to a process
    # that has imported covnet, and only the Matern kernel needs it
    from scipy.special import gamma, kv

    x = np.sqrt(2.0 * nu) * r
    out = np.ones_like(x)
    pos = x > 0
    xp = x[pos]
    out[pos] = (2.0 ** (1.0 - nu) / gamma(nu)) * xp**nu * kv(nu, xp)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"matern evaluation produced non-finite values (nu={nu})")
    return out


def _rotate(spec: _Kernel, u: np.ndarray) -> np.ndarray:
    """Points (..., d) in the kernel's own coordinates: rotated for rotated sheets."""
    if not isinstance(spec, _RotatedSheet):
        return u
    # rotate (M, d) rows: a stacked matmul would round differently
    return (u.reshape(-1, spec.d) @ spec.rotation.T).reshape(u.shape)


def _evaluate_rotated(spec: _Kernel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c(u, v) over broadcastable (..., d) arrays of already rotated points."""
    shape = np.broadcast_shapes(u.shape[:-1], v.shape[:-1])
    if isinstance(spec, Matern):
        r2 = np.zeros(shape)
        for k in range(spec.d):
            delta = u[..., k] - v[..., k]
            r2 += delta * delta
        return _matern_radial(spec.nu, np.sqrt(r2))
    integrated = (IntegratedBrownianSheet, RotatedIntegratedBrownianSheet)
    axis = _ibm_axis if isinstance(spec, integrated) else _bm_axis
    out = np.ones(shape)
    for k in range(spec.d):
        out *= axis(u[..., k], v[..., k])
    return out


def _check_dimension(spec: _Kernel, grid: Grid) -> None:
    if grid.d != spec.d:
        raise ValueError(f"kernel is {spec.d}-dimensional, grid is {grid.d}-dimensional")


def kernel_matrix(spec: _Kernel, grid: Grid) -> np.ndarray:
    """Dense D x D kernel values at the grid midpoints, exactly symmetric.

    Filled in blocks of rows, so that beyond the result its temporaries
    hold about _MATRIX_BLOCK values.
    """
    _check_dimension(spec, grid)
    n = grid.n_points
    _check_cap(n)
    pts = _rotate(spec, grid.coordinates())
    c = np.empty((n, n))
    step = max(1, _MATRIX_BLOCK // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        c[rows] = _evaluate_rotated(spec, pts[rows, None], pts[None, :])
    return c


def _cholesky_in_place(c: np.ndarray) -> bool:
    """Overwrite c with its Cholesky factor, zeros above the diagonal.

    A matrix of at most _CHOLESKY_BLOCK points is factored exactly as by
    np.linalg.cholesky(c), which works on a copy.  A larger one is factored
    in place by LAPACK's dpotrf on its transpose: c's lower triangle is the
    Fortran-ordered upper triangle of c.T, so dpotrf needs no copy of c, and
    scipy's wrapper then zeroes the other triangle.  Returns False when c is
    not numerically positive definite, with c possibly overwritten.
    """
    if c.shape[0] <= _CHOLESKY_BLOCK:
        try:
            c[...] = np.linalg.cholesky(c)
        except np.linalg.LinAlgError:
            return False
        return True
    # imported here: scipy.linalg.lapack adds about 0.2 s and 26 MiB to a
    # process that has imported covnet, and only larger matrices need it
    from scipy.linalg.lapack import dpotrf

    _, info = dpotrf(c.T, lower=False, overwrite_a=True, clean=True)
    return not info


def _jittered_cholesky(build: Callable[[], np.ndarray]) -> np.ndarray:
    """Cholesky factor of build() + jitter I, escalating jitter from 1e-12 trace / n.

    build() returns a new, exactly symmetric matrix on every call.  Each
    attempt adds its jitter to a fresh matrix's diagonal and writes the
    factor, zero above the diagonal, over it; a failed attempt's matrix is
    dropped before the next is built, so one matrix is held at a time.
    """
    c = build()
    n = c.shape[0]
    base = 1e-12 * np.trace(c) / n
    if base == 0 and not c.any():
        return c  # a zero covariance has the zero factor
    for attempt in range(7):
        if attempt:
            del c
            c = build()
        jitter = base * 10.0**attempt
        c.flat[:: n + 1] += jitter
        if _cholesky_in_place(c):
            return c
    raise NumericError(f"cholesky failed for kernel matrix even with jitter {jitter:g}")


def _check_cap(n: int, where: str = "") -> None:
    if n > KERNEL_MATRIX_CAP:
        raise ResourceLimitError(
            f"kernel matrix of {n} points exceeds kernel matrix cap {KERNEL_MATRIX_CAP}{where}"
        )


def _block_factors(spec: _Kernel, grid: Grid, n: int = 1, noisy: bool = False) -> list[np.ndarray]:
    """Cholesky factors whose Kronecker product factors the kernel matrix.

    A product kernel gets one factor per axis, from its 1-D kernel matrix;
    every other kernel gets one dense factor of the whole grid.  Each factor
    is checked against KERNEL_MATRIX_CAP, and then the n draws (and their
    noise, when noisy) against memory, before any factor is built.
    """
    _check_dimension(spec, grid)
    grids, where = [grid], ""
    if isinstance(spec, (BrownianSheet, IntegratedBrownianSheet)):
        spec, grids = type(spec)(1), [make_grid(1, [k]) for k in grid.sizes]
        where = f": one axis factor of a grid of {grid.n_points} points"
    for g in grids:
        _check_cap(g.n_points, where)
    what = f"{n} fields of {grid.n_points} points" + (" and their noise" if noisy else "")
    _check_memory((1 + noisy) * n * grid.n_points, what)
    return [_jittered_cholesky(partial(kernel_matrix, spec, g)) for g in grids]


def sample_gaussian_fields(
    spec: _Kernel, grid: Grid, n: int, seed: int, noise: NoiseSpec | None = None
) -> FieldMatrix:
    """Draw n i.i.d. centered Gaussian fields with covariance `spec` on `grid`.

    Rows are L z with z standard normal and L L^T the kernel matrix plus a
    diagonal jitter (Brownian-type matrices are numerically semidefinite);
    the jitter starts at 1e-12 times the mean diagonal and escalates by
    factors of 10.  For BrownianSheet and IntegratedBrownianSheet on a grid
    of two or more axes, L is the Kronecker product of the jittered per-axis
    factors and costs O(sum K_k^3) to build, with no D x D array; every
    other kernel factors its dense kernel matrix in place, which holds one
    D x D array (beyond 1024 points; np.linalg.cholesky's copy and factor
    below) and is capped at KERNEL_MATRIX_CAP points.  The factors are
    applied in place to the standard normal draw, which becomes the
    returned values, and the noise is added in place, so the sample holds
    one N x D array beside its noise draw.
    Deterministic for a fixed seed: the fields come from its stream 0 and
    the noise, when sigma > 0, from its stream 3, independent of every
    field draw and leaving this one unchanged.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    n_points = grid.n_points
    noisy = noise is not None and noise.sigma > 0
    factors = _block_factors(spec, grid, n, noisy)
    values = gaussian(make_rng(seed), (n, n_points))
    _kronecker_in_place(factors, values)
    if noisy:
        e = gaussian(make_rng(seed, stream=3), (n, n_points))
        e *= noise.sigma
        values += e
    return FieldMatrix(grid, values)


def _kronecker_in_place(factors: list[np.ndarray], y: np.ndarray) -> None:
    """Overwrite each row of y with (F_1 (x) ... (x) F_d) applied to it.

    A single factor (a dense kernel, or a 1-D grid) is the fastest axis.

    Axis k maps every (K_k, after) slice of y, after the product of the
    later axis sizes, in blocks of slices holding about _POINT_BLOCK x K_k
    values, so one block's product is the only temporary; each slice is its
    own product, so that blocking changes no bit.  Once every later axis has
    size 1, axis k varies fastest and is one (rows, K_k) product, taken in
    the row blocks of _point_blocks; past _POINT_BLOCK rows that rounds like
    the whole product for some K_k (up to 256, and 512) but not for others
    (300, 625).
    """
    sizes = [f.shape[0] for f in factors]
    for k, f in enumerate(factors):
        after = math.prod(sizes[k + 1 :])
        if after == 1:
            rows = y.reshape(-1, sizes[k])
            for block in _point_blocks(rows.shape[0]):
                rows[block] = rows[block] @ f.T
        else:
            y3 = y.reshape(-1, sizes[k], after)
            step = max(1, _POINT_BLOCK // after)
            for start in range(0, y3.shape[0], step):
                block = slice(start, start + step)
                y3[block] = np.matmul(f, y3[block])
