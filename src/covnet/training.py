"""Gram-form fitting loss, exact reverse-mode gradients, and the ADAM loop.

The squared Hilbert-Schmidt distance between the empirical covariance of the
data and the empirical covariance of the fitted fields Xi Z^T expands into
three double sums of squared inner products,

    l = N^-2 sum <X_n, X_m>^2 + N^-2 sum <Y_n, Y_m>^2 - 2 N^-2 sum <X_n, Y_m>^2,

which only ever touches N x N and R x R Grams, never a D x D object.  With
S = Xi^T Xi, Gz = Z^T Z / D and P = X Z / D this is

    term_gg = tr(S Gz S Gz) / N^2,    term_xg = tr(S P^T P) / N^2,

and the gradients of the total follow in closed form:

    dl/dXi = (4 / N^2) Xi (Gz S Gz - P^T P),
    dl/dZ  = (4 / (N^2 D)) (Z S Gz S - X^T P S),

after which dl/dZ is pulled back through the constituent networks.  The
joint-mean variant adds the mean-mismatch penalty of the uncentered
criterion; its pieces are folded into the matching self/cross terms so the
breakdown identity total = xx + gg - 2 xg is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TrainingDivergedError
from .fields import FieldMatrix, cross_gram
from .model import (
    Architecture,
    FittedCovariance,
    ModelParams,
    backward_constituents,
    eval_constituents,
    forward_constituents,
    init_params,
    lambda_from_coefficients,
    pack_params,
    unpack_params,
)
from .rng import make_rng

PRE_CENTER = "pre_center"
JOINT_MEAN = "joint_mean"

DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class LossBreakdown:
    """Self terms, cross term, and their combination total = xx + gg - 2 xg."""

    term_xx: float
    term_gg: float
    term_xg: float

    @property
    def total(self) -> float:
        return self.term_xx + self.term_gg - 2.0 * self.term_xg


@dataclass(frozen=True)
class TrainConfig:
    """ADAM hyperparameters, stopping rule, and centering mode."""

    epochs: int = 5000
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    rel_tol: float = 1e-7
    rel_window: int = 50
    seed: int = 0
    center_mode: str = PRE_CENTER
    batch: int | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("adam betas must lie in [0, 1)")
        if self.eps <= 0 or self.rel_tol < 0 or self.epochs < 1:
            raise ValueError("bad eps / rel_tol / epochs")
        if self.center_mode not in (PRE_CENTER, JOINT_MEAN):
            raise ValueError(f"unknown center_mode {self.center_mode!r}")
        if self.batch is not None and self.batch < 2:
            raise ValueError("batch size must be at least 2 when given")


def data_self_term(f: FieldMatrix) -> float:
    """The parameter-free term N^-2 sum <X_n, X_m>^2 (compute once per fit)."""
    return _gram_self_term(cross_gram(f).values)


def _gram_self_term(g: np.ndarray) -> float:
    """N^-2 sum g_nm^2 for an N x N data Gram g."""
    return float((g * g).sum()) / g.shape[0] ** 2


def _core(
    x: np.ndarray,
    points: np.ndarray,
    params: ModelParams,
    arch: Architecture,
    xi: np.ndarray,
    term_xx: float,
    include_mean: bool,
    want_grads: bool,
):
    n, n_points = x.shape
    z, cache = forward_constituents(params, arch, points)
    gz = z.T @ z / n_points
    s = xi.T @ xi
    p = x @ z / n_points

    sgz = s @ gz
    term_gg = float((sgz * sgz.T).sum()) / n**2
    ptp = p.T @ p
    term_xg = float((s * ptp).sum()) / n**2

    if include_mean:
        xbar = x.mean(axis=0)
        xibar = xi.mean(axis=0)
        pbar = p.mean(axis=0)
        m_xx = float(xbar @ xbar) / n_points
        m_yy = float(xibar @ gz @ xibar)
        m_xy = float(pbar @ xibar)
        term_xx = term_xx + m_xx**2
        term_gg = term_gg + m_yy**2
        term_xg = term_xg + m_xy**2

    breakdown = LossBreakdown(term_xx, term_gg, term_xg)
    if not want_grads:
        return breakdown, None, None

    dxi = (4.0 / n**2) * (xi @ (gz @ s @ gz - ptp))
    dz = (4.0 / (n**2 * n_points)) * (z @ (s @ gz @ s) - x.T @ (p @ s))
    if include_mean:
        dxibar = 4.0 * (m_yy * (gz @ xibar) - m_xy * pbar)
        dxi = dxi + dxibar / n
        ybar = z @ xibar
        dz = dz + (4.0 / n_points) * np.outer(m_yy * ybar - m_xy * xbar, xibar)
    dparams = backward_constituents(params, arch, cache, dz)
    return breakdown, dparams, dxi


def loss(
    f: FieldMatrix, params: ModelParams, arch: Architecture, xi: np.ndarray
) -> LossBreakdown:
    """Three-term Gram loss; expects pre-centered fields in pre_center mode."""
    xi = np.asarray(xi, dtype=float)
    breakdown, _, _ = _core(
        f.values, f.grid.coordinates(), params, arch, xi,
        data_self_term(f), include_mean=False, want_grads=False,
    )
    return breakdown


def loss_with_mean(
    f: FieldMatrix, params: ModelParams, arch: Architecture, xi: np.ndarray
) -> LossBreakdown:
    """Uncentered three-term loss plus the mean-mismatch penalty.

    The mean penalty ||Xbar (x) Xbar - Ybar (x) Ybar||^2 expands into squared
    Gram row-means; its three pieces are folded into the matching terms of
    the breakdown.
    """
    xi = np.asarray(xi, dtype=float)
    breakdown, _, _ = _core(
        f.values, f.grid.coordinates(), params, arch, xi,
        data_self_term(f), include_mean=True, want_grads=False,
    )
    return breakdown


def gradients(
    f: FieldMatrix,
    params: ModelParams,
    arch: Architecture,
    xi: np.ndarray,
    include_mean: bool = False,
) -> tuple[ModelParams, np.ndarray]:
    """Exact gradients of the selected loss w.r.t. all parameters and Xi."""
    xi = np.asarray(xi, dtype=float)
    _, dparams, dxi = _core(
        f.values, f.grid.coordinates(), params, arch, xi,
        0.0, include_mean=include_mean, want_grads=True,
    )
    return dparams, dxi


@dataclass
class AdamState:
    """First and second moment accumulators, one entry per parameter."""

    m: np.ndarray
    v: np.ndarray

    @staticmethod
    def zeros(size: int) -> "AdamState":
        return AdamState(np.zeros(size), np.zeros(size))


def adam_step(
    theta: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    t: int,
) -> np.ndarray:
    """Standard bias-corrected ADAM update (mutates the moment state)."""
    if t < 1:
        raise ValueError("adam step index starts at 1")
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    mhat = state.m / (1.0 - beta1**t)
    vhat = state.v / (1.0 - beta2**t)
    return theta - lr * mhat / (np.sqrt(vhat) + eps)


def fit(
    f: FieldMatrix, arch: Architecture, cfg: TrainConfig
) -> tuple[FittedCovariance, np.ndarray]:
    """Fit a covariance network to observed fields with ADAM.

    Returns the frozen model (Lambda from centered coefficients; mean
    coefficients kept in joint_mean mode) and a loss trace of shape (T, 4)
    with columns (total, term_xx, term_gg, term_xg).  Row e records the loss
    at the parameters entering epoch e; a final row records the loss after
    the last step.  With minibatching the recorded row is the mean over the
    epoch's batches (the batch gradients of the cross-sample terms are
    biased; full batch is the default).

    Stops early when the running-minimum total improves by less than
    rel_tol (relatively) over rel_window epochs; raises
    TrainingDivergedError if the loss becomes non-finite or exceeds 1e6
    times its initial value.
    """
    if f.n < 2:
        raise ValueError("need at least two fields to fit a covariance")
    x = f.values - f.values.mean(axis=0) if cfg.center_mode == PRE_CENTER else f.values
    include_mean = cfg.center_mode == JOINT_MEAN
    points = f.grid.coordinates()
    # one data Gram per fit: each minibatch's self-term is its B x B block
    gram = cross_gram(FieldMatrix(f.grid, x)).values
    term_xx = _gram_self_term(gram)

    params, xi = init_params(arch, f.n, cfg.seed)
    theta = np.concatenate([pack_params(params), xi.ravel()])
    n_net = theta.size - xi.size
    state = AdamState.zeros(theta.size)
    batch_rng = make_rng(cfg.seed, stream=1)

    trace_rows: list[tuple[float, float, float, float]] = []
    running_min: list[float] = []
    initial_total: float | None = None
    t = 0

    for epoch in range(cfg.epochs):
        params = unpack_params(theta[:n_net], arch)
        xi = theta[n_net:].reshape(f.n, arch.r)
        if cfg.batch is None or cfg.batch >= f.n:
            breakdown, dparams, dxi = _core(
                x, points, params, arch, xi, term_xx, include_mean, want_grads=True
            )
            totals = [breakdown.total]
            rows = [breakdown]
            t += 1
            grad = np.concatenate([pack_params(dparams), dxi.ravel()])
            theta = adam_step(theta, grad, state, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, t)
        else:
            perm = batch_rng.permutation(f.n)
            totals = []
            rows = []
            for start in range(0, f.n, cfg.batch):
                idx = perm[start : start + cfg.batch]
                if idx.size < 2:
                    continue  # a 1-sample remainder has no covariance signal
                params = unpack_params(theta[:n_net], arch)
                xi = theta[n_net:].reshape(f.n, arch.r)
                xb = x[idx]
                sub_xx = _gram_self_term(gram[np.ix_(idx, idx)])
                breakdown, dparams, dxi_b = _core(
                    xb, points, params, arch, xi[idx], sub_xx, include_mean, True
                )
                totals.append(breakdown.total)
                rows.append(breakdown)
                dxi = np.zeros_like(xi)
                dxi[idx] = dxi_b
                t += 1
                grad = np.concatenate([pack_params(dparams), dxi.ravel()])
                theta = adam_step(
                    theta, grad, state, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, t
                )
        mean_total = float(np.mean(totals))
        trace_rows.append(
            (
                mean_total,
                float(np.mean([b.term_xx for b in rows])),
                float(np.mean([b.term_gg for b in rows])),
                float(np.mean([b.term_xg for b in rows])),
            )
        )
        if initial_total is None:
            initial_total = mean_total
        if not np.isfinite(mean_total) or (
            initial_total > 0 and mean_total > DIVERGENCE_FACTOR * initial_total
        ):
            raise TrainingDivergedError("training diverged", epoch)
        running_min.append(
            mean_total if not running_min else min(running_min[-1], mean_total)
        )
        w = cfg.rel_window
        if len(running_min) > w:
            prev = running_min[-w - 1]
            if prev - running_min[-1] < cfg.rel_tol * max(prev, 1e-300):
                break

    params = unpack_params(theta[:n_net], arch)
    xi = theta[n_net:].reshape(f.n, arch.r)
    breakdown, _, _ = _core(x, points, params, arch, xi, term_xx, include_mean, False)
    trace_rows.append(
        (breakdown.total, breakdown.term_xx, breakdown.term_gg, breakdown.term_xg)
    )

    lam = lambda_from_coefficients(xi, center=True)
    mean_coeffs = None
    if include_mean:
        # the criterion is quadratic in the fitted fields, so their common
        # sign is unidentified; align the estimated mean with the data mean
        mean_coeffs = xi.mean(axis=0)
        z = eval_constituents(params, arch, points)
        if float((z @ mean_coeffs) @ x.mean(axis=0)) < 0:
            mean_coeffs = -mean_coeffs
    model = FittedCovariance(arch, params, lam, mean_coeffs)
    return model, np.array(trace_rows)


def fit_config_with_seed(cfg: TrainConfig, seed: int) -> TrainConfig:
    """Copy of a config with the seed replaced (used for CV cell seeding)."""
    return replace(cfg, seed=seed)
