"""Eigendecomposition of a fitted covariance without forming the operator.

The eigenfunctions of a kernel sum_{r,s} lambda_{r,s} g_r(u) g_s(v) live in
span(g_1, ..., g_R): psi = sum_r a_r g_r.  With the constituent Gram
G[r,s] = int g_r g_s, the coefficient vectors solve the generalized
symmetric eigenproblem

    (G Lambda G) a = eta G a,      a^T G a = 1.

G is estimated by Monte Carlo over uniform points on the cube; the
generalized problem is solved by whitening G (dropping near-null directions,
since trained constituents are frequently nearly collinear) rather than by a
Cholesky factor, which would not exist for rank-deficient G.  Everything here
is R x R: the cost never depends on any data grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModelError, _check_memory
from .model import FittedCovariance
from .rng import make_rng, uniform

GRAM_DROP_TOL = 1e-10  # relative eigenvalue cutoff when whitening G
EIGENVALUE_CLAMP = 1e-14  # eta below this times eta_max are set to 0
DEFAULT_GRAM_SAMPLES = 100_000


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and eigenfunction coefficients of a fitted covariance.

    Row i of `coeffs` holds the a_i expressing psi_i = sum_r a_{i,r} g_r.
    Only the `rank` pairs supported by the constituent Gram are stored; the
    remaining eigenvalues are exactly zero and carry no coefficients.
    """

    values: np.ndarray  # (rank,), descending, >= 0
    coeffs: np.ndarray = field(repr=False)  # (rank, R)

    @property
    def rank(self) -> int:
        return self.values.shape[0]


def constituent_gram(
    model: FittedCovariance, m: int = DEFAULT_GRAM_SAMPLES, seed: int = 0
) -> np.ndarray:
    """Estimate int g_r g_s by averaging over m uniform points on the cube.

    Returns the symmetrized R x R Gram G.  Points whose coordinates and
    constituent values exceed memory raise ResourceLimitError before
    allocating.
    """
    if m < 1:
        raise ValueError("need at least one sample point")
    arch = model.arch
    _check_memory(m * (arch.d + arch.r), f"M = {m} sample points of R = {arch.r} constituents")
    pts = uniform(make_rng(seed), (m, arch.d))
    z = model.constituents(pts)
    g = z.T @ z / m
    return (g + g.T) / 2.0


def eigendecompose(model: FittedCovariance, gram: np.ndarray) -> EigenSystem:
    """Solve (G Lambda G) a = eta G a by whitening G.

    Directions of G with eigenvalue below GRAM_DROP_TOL times the largest
    are dropped; eigenvalues below EIGENVALUE_CLAMP times the largest are
    clamped to exactly 0 (as are the tiny negatives the clamp implies).
    """
    r = model.arch.r
    if gram.shape != (r, r):
        raise ValueError(f"gram must be {r}x{r} for the model's R, got {gram.shape}")
    s, v = np.linalg.eigh(gram)
    if s[-1] <= 0:
        raise DegenerateModelError("constituent gram is numerically zero")
    keep = s > GRAM_DROP_TOL * s[-1]
    sk = s[keep]
    vk = v[:, keep]
    white = vk / np.sqrt(sk)  # maps whitened coords back to coefficient space
    half = vk * np.sqrt(sk)  # equals G @ white
    t = half.T @ model.lam @ half
    t = (t + t.T) / 2.0
    eta, c = np.linalg.eigh(t)
    order = np.argsort(eta)[::-1]
    eta = eta[order]
    coeffs = (white @ c[:, order]).T
    eta = np.where(eta < EIGENVALUE_CLAMP * max(eta[0], 0.0), 0.0, eta)
    eta = np.maximum(eta, 0.0)
    return EigenSystem(values=eta, coeffs=coeffs)


def eval_eigenfunction(
    model: FittedCovariance, system: EigenSystem, i: int, points: np.ndarray
) -> np.ndarray:
    """Values of psi_i = sum_r a_{i,r} g_r at the given points."""
    if not 0 <= i < system.rank:
        raise IndexError(f"eigenfunction index {i} out of range [0, {system.rank})")
    z = model.constituents(points)
    return z @ system.coeffs[i]


def threshold_lambda(model: FittedCovariance, lam_max: float) -> FittedCovariance:
    """Cap Lambda's eigenvalues at lam_max, leaving constituents untouched."""
    if not lam_max > 0:
        raise ValueError("threshold must be positive")
    eta, e = np.linalg.eigh(model.lam)
    capped = np.minimum(eta, lam_max)
    lam = (e * capped) @ e.T
    return FittedCovariance(
        model.arch, model.params, (lam + lam.T) / 2.0, model.mean_coeffs
    )
