"""Grid-level baseline estimators and Monte-Carlo relative error.

The empirical covariance and the best separable (nearest Kronecker product)
estimator are discretized objects; to compare them with functional
estimators at arbitrary points they are continued piecewise-constantly over
the voxels (nearest-voxel lookup).  Both are computed from the N x D field
matrix and never form the D x D covariance: the empirical one evaluates
N^-1 sum_n X_n(u) X_n(v) pair by pair, and the separable one takes the
leading singular pair of the rearranged covariance through partial inner
products of the fields.  The relative Hilbert-Schmidt error of any
point-evaluable estimate against a reference kernel is estimated from
uniform point pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTruthError, _check_memory
from .fields import FieldMatrix, Grid, _point_pairs
from .rng import make_rng

# point pairs per block in EmpiricalCovariance.kernel_pairs, so that its
# temporaries are _PAIR_CHUNK x N however many pairs are asked for.  At 128
# the two gathered blocks stay in L2: 50,000 pairs of 300 fields on 40 x 40
# took 23 ms against 36 ms at 512 (2 MiB L2 per core), with the same bits
_PAIR_CHUNK = 128


@dataclass(frozen=True)
class EmpiricalCovariance:
    """Empirical covariance N^-1 sum_n X_n(u) X_n(v) of the held fields."""

    fields: FieldMatrix

    def __post_init__(self):
        if self.fields.n < 1:
            raise ValueError("empirical covariance needs at least one field")

    def kernel_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Nearest-voxel piecewise-constant continuation."""
        u, v = _point_pairs(u, v, self.fields.grid.d)
        iu = self.fields.grid.flat_index(u)
        iv = self.fields.grid.flat_index(v)
        # one D x N copy, so that each pair gathers two contiguous rows
        xt = np.ascontiguousarray(self.fields.values.T)
        out = np.empty(iu.shape[0])
        for start in range(0, iu.shape[0], _PAIR_CHUNK):
            block = slice(start, start + _PAIR_CHUNK)
            out[block] = np.einsum("ij,ij->i", xt[iu[block]], xt[iv[block]])
        return out / self.fields.n


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
        u, v = _point_pairs(u, v, self.grid.d)
        i1, i2 = np.unravel_index(self.grid.flat_index(u), self.grid.sizes)
        j1, j2 = np.unravel_index(self.grid.flat_index(v), self.grid.sizes)
        return self.a[i1, j1] * self.b[i2, j2]


@dataclass(frozen=True)
class ZeroCovariance:
    """The zero estimator; its relative error is exactly 1."""

    def kernel_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # the zero kernel has no dimension: any one u and v share will do
        u, _ = _point_pairs(u, v, np.atleast_2d(u).shape[-1])
        return np.zeros(u.shape[0])


def best_separable_2d(emp: EmpiricalCovariance) -> SeparableCovariance:
    """Frobenius-nearest Kronecker product A (x) B of a 2-D empirical covariance.

    Uses the leading singular pair of the Van Loan-Pitsianis rearrangement
    of the covariance, applied through the fields (Masak, Sarkar & Panaretos,
    partial inner product): with X_n field n as a K1 x K2 matrix, the
    rearranged operator maps B to N^-1 sum_n X_n B X_n^T and its transpose
    maps A to N^-1 sum_n X_n^T A X_n.  Factors are scaled to equal Frobenius
    norm and sign-fixed so that trace(A) >= 0.
    """
    grid = emp.fields.grid
    if grid.d != 2:
        raise ValueError("best separable baseline supports d = 2 only")
    k1, k2 = grid.sizes
    x = emp.fields.values
    n = x.shape[0]
    if not x.any():  # e.g. one centered field; ARPACK rejects a zero operator
        return SeparableCovariance(grid, np.zeros((k1, k1)), np.zeros((k2, k2)))
    # xt[i1, n, i2] = X_n[i1, i2], so both products below are plain matmuls
    xt = np.ascontiguousarray(x.reshape(n, k1, k2).transpose(1, 0, 2))
    rows = xt.reshape(k1, n * k2)
    stack = xt.reshape(k1 * n, k2)

    def matvec(b):
        return ((stack @ b.reshape(k2, k2)).reshape(k1, n * k2) @ rows.T).ravel() / n

    def rmatvec(a):
        return (stack.T @ (a.reshape(k1, k1) @ rows).reshape(k1 * n, k2)).ravel() / n

    # with a unit axis the rearrangement is one row or one column, where
    # ARPACK cannot run but the singular pair is closed-form
    if k1 == 1:
        b = rmatvec(np.ones(1))
        s = np.linalg.norm(b)
        a, b = np.full((1, 1), np.sqrt(s)), b.reshape(k2, k2) / np.sqrt(s)
    elif k2 == 1:
        a = matvec(np.ones(1))
        s = np.linalg.norm(a)
        a, b = a.reshape(k1, k1) / np.sqrt(s), np.full((1, 1), np.sqrt(s))
    else:
        # imported here: scipy.sparse.linalg adds about 0.3 s and 30 MiB to a
        # process that has imported covnet, and only this call needs it
        from scipy.sparse.linalg import LinearOperator, svds

        op = LinearOperator((k1 * k1, k2 * k2), matvec, rmatvec, dtype=float)
        # ARPACK starts from vec(I) of the smaller factor, which is never
        # orthogonal to the leading factor of a nonzero covariance.  Four
        # Krylov vectors suffice for one singular pair: ARPACK's default 20
        # took 43 operator products on a 40 x 40 grid, four take 11 to 23.
        # svds needs k < ncv < min(K1^2, K2^2), hence 3 on a 2 x K grid
        ncv = min(4, min(k1, k2) ** 2 - 1)
        u, s, vt = svds(op, k=1, ncv=ncv, v0=np.eye(min(k1, k2)).ravel())
        a = np.sqrt(s[0]) * u[:, 0].reshape(k1, k1)
        b = np.sqrt(s[0]) * vt[0].reshape(k2, k2)
    if np.trace(a) < 0:
        a, b = -a, -b
    return SeparableCovariance(grid, a, b)


def relative_error_mc(estimate, truth, d: int, m: int = 100_000, seed: int = 0) -> float:
    """Monte-Carlo relative Hilbert-Schmidt error of `estimate` vs `truth`.

    sqrt(mean (chat - c)^2 / mean c^2) over m uniform point pairs on the
    cube.  Each side is any covariance with kernel_pairs(u, v): a kernel
    spec, a fitted model or an estimator.
    Pairs that exceed memory raise ResourceLimitError before allocating.
    """
    [err] = _relative_errors([estimate], truth, d, m, seed)
    return err


def _relative_errors(estimates, truth, d: int, m: int, seed: int) -> list[float]:
    """relative_error_mc of each estimate, all on one draw of the m pairs.

    The pairs are drawn and the truth is evaluated once, so each error has
    the bits of its own relative_error_mc call.
    """
    if m < 1:
        raise ValueError("need at least one Monte-Carlo pair")
    _check_memory(2 * m * d, f"M = {m} Monte-Carlo point pairs in {d} dimensions")
    rng = make_rng(seed)
    u = rng.random((m, d))
    v = rng.random((m, d))
    true_vals = truth.kernel_pairs(u, v)
    denom = float((true_vals * true_vals).mean())
    if denom == 0.0:
        raise DegenerateTruthError("reference kernel vanishes on all sampled pairs")
    errors = []
    for estimate in estimates:
        est_vals = estimate.kernel_pairs(u, v)
        num = float(((est_vals - true_vals) ** 2).mean())
        errors.append(float(np.sqrt(num / denom)))
    return errors
