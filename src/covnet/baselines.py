"""Grid-level baseline estimators and Monte-Carlo relative error.

The empirical covariance and the best separable (nearest Kronecker product)
estimator are discretized objects; to compare them with functional
estimators at arbitrary points they are continued piecewise-constantly over
the voxels (nearest-voxel lookup).  The relative Hilbert-Schmidt error of
any point-evaluable estimate against a reference kernel is estimated from
uniform point pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTruthError, ResourceLimitError
from .fields import FieldMatrix, Grid
from .rng import make_rng, uniform
from .simulate import KernelSpec, kernel_pairs

DENSE_CAP = 4096


@dataclass(frozen=True)
class DenseCovariance:
    """Covariance values at all grid-point pairs (D x D, symmetric)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        n = self.grid.n_points
        if vals.shape != (n, n):
            raise ValueError(f"dense covariance must be {n}x{n}, got {vals.shape}")
        object.__setattr__(self, "values", (vals + vals.T) / 2.0)

    def kernel_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Nearest-voxel piecewise-constant continuation."""
        return self.values[self.grid.flat_index(u), self.grid.flat_index(v)]

    def hs_norm(self) -> float:
        """Hilbert-Schmidt norm of the induced operator (D^-1 Frobenius)."""
        return float(np.linalg.norm(self.values)) / self.grid.n_points


@dataclass(frozen=True)
class SeparableCovariance:
    """Kronecker-factored covariance A (x) B on a 2-D grid."""

    grid: Grid
    a: np.ndarray = field(repr=False)  # (K1, K1), first axis
    b: np.ndarray = field(repr=False)  # (K2, K2), second axis

    def __post_init__(self):
        if self.grid.d != 2:
            raise ValueError("separable covariance is defined for d = 2 only")
        k1, k2 = self.grid.sizes
        if self.a.shape != (k1, k1) or self.b.shape != (k2, k2):
            raise ValueError("factor shapes do not match the grid")

    def kernel_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(u)
        v = np.atleast_2d(v)
        k1, k2 = self.grid.sizes
        i1 = np.clip((u[:, 0] * k1).astype(np.int64), 0, k1 - 1)
        j1 = np.clip((v[:, 0] * k1).astype(np.int64), 0, k1 - 1)
        i2 = np.clip((u[:, 1] * k2).astype(np.int64), 0, k2 - 1)
        j2 = np.clip((v[:, 1] * k2).astype(np.int64), 0, k2 - 1)
        return self.a[i1, j1] * self.b[i2, j2]


@dataclass(frozen=True)
class ZeroCovariance:
    """The zero estimator; its relative error is exactly 1."""

    def kernel_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.zeros(np.atleast_2d(u).shape[0])


@dataclass(frozen=True)
class TrueKernel:
    """A reference kernel wrapped as a point-evaluable estimate."""

    spec: KernelSpec

    def kernel_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return kernel_pairs(self.spec, u, v)


def empirical_covariance(f: FieldMatrix, cap: int = DENSE_CAP) -> DenseCovariance:
    """N^-1 X^T X at the grid nodes; expects pre-centered fields."""
    if f.grid.n_points > cap:
        raise ResourceLimitError(
            f"grid size {f.grid.n_points} exceeds dense covariance cap {cap}"
        )
    return DenseCovariance(f.grid, f.values.T @ f.values / f.n)


def best_separable_2d(c: DenseCovariance) -> SeparableCovariance:
    """Frobenius-nearest Kronecker product A (x) B of a 2-D dense covariance.

    Uses the leading singular pair of the Van Loan-Pitsianis rearrangement;
    factors are scaled to equal Frobenius norm and sign-fixed so that
    trace(A) >= 0.
    """
    if c.grid.d != 2:
        raise ValueError("best separable baseline supports d = 2 only")
    k1, k2 = c.grid.sizes
    rearranged = (
        c.values.reshape(k1, k2, k1, k2).transpose(0, 2, 1, 3).reshape(k1 * k1, k2 * k2)
    )
    u, s, vt = np.linalg.svd(rearranged, full_matrices=False)
    a = np.sqrt(s[0]) * u[:, 0].reshape(k1, k1)
    b = np.sqrt(s[0]) * vt[0].reshape(k2, k2)
    if np.trace(a) < 0:
        a, b = -a, -b
    return SeparableCovariance(c.grid, a, b)


def relative_error_mc(
    estimate, truth: KernelSpec, d: int, m: int = 100_000, seed: int = 0
) -> float:
    """Monte-Carlo relative Hilbert-Schmidt error of `estimate` vs `truth`.

    sqrt(mean (chat - c)^2 / mean c^2) over m uniform point pairs on the
    cube.  `estimate` is anything exposing kernel_pairs(U, V); `truth` may
    be a KernelSpec or another point-evaluable object.
    """
    if m < 1:
        raise ValueError("need at least one Monte-Carlo pair")
    rng = make_rng(seed)
    u = uniform(rng, (m, d))
    v = uniform(rng, (m, d))
    true_vals = (
        truth.kernel_pairs(u, v)
        if hasattr(truth, "kernel_pairs")
        else kernel_pairs(truth, u, v)
    )
    denom = float((true_vals * true_vals).mean())
    if denom == 0.0:
        raise DegenerateTruthError("reference kernel vanishes on all sampled pairs")
    est_vals = estimate.kernel_pairs(u, v)
    num = float(((est_vals - true_vals) ** 2).mean())
    return float(np.sqrt(num / denom))
