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

after which dl/dZ is pulled back through the constituent networks.

Several candidate architectures can train on the same fields in lockstep
(`_fit_lockstep`, which cross-validation runs once per fold): same seed,
epochs and minibatch order.  They share the data, its Gram and each step's
two N x D data products X Z and (P S)^T X, formed once for all candidates
side by side, and nothing else: each candidate has its own parameters,
coefficients and ADAM moments.  `fit` is its one-candidate case.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError, _check_memory
from .fields import FieldMatrix, cross_gram
from .model import (
    Architecture,
    FittedCovariance,
    _walk,
    backward_constituents,
    count_parameters,
    init_params,
)
from .rng import make_rng

DIVERGENCE_FACTOR = 1e6
# ADAM's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
STOP_WINDOW = 50  # epochs over which the running-minimum loss must improve


@dataclass(frozen=True)
class LossBreakdown:
    """Self terms, cross term, and their combination total = xx + gg - 2 xg."""

    term_xx: float
    term_gg: float
    term_xg: float

    @property
    def total(self) -> float:
        return self.term_xx + self.term_gg - 2.0 * self.term_xg


def _is_count(value) -> bool:
    """An integer, and not a bool (True would count as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainConfig:
    """Epoch budget, ADAM step size, stopping tolerance, seed, batch."""

    epochs: int = 5000
    lr: float = 1e-2
    rel_tol: float = 1e-7
    seed: int = 0
    batch: int | None = None

    def __post_init__(self):
        if not _is_count(self.epochs):
            raise ValueError(f"epochs must be an integer, got {self.epochs!r}")
        if self.batch is not None and not _is_count(self.batch):
            raise ValueError(f"batch must be an integer or None, got {self.batch!r}")
        if not (0 < self.lr < math.inf):
            raise ValueError("learning rate must be positive and finite")
        if not (0 <= self.rel_tol < math.inf):
            raise ValueError("rel_tol must be nonnegative and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch is not None and self.batch < 2:
            raise ValueError(f"batch must be >= 2 (at least 2 fields per step), got {self.batch}")


def data_self_term(f: FieldMatrix) -> float:
    """The parameter-free term N^-2 sum <X_n, X_m>^2 (compute once per fit)."""
    return _gram_self_term(cross_gram(f))


def _gram_self_term(g: np.ndarray) -> float:
    """N^-2 sum g_nm^2 for an N x N data Gram g."""
    return float((g * g).sum()) / g.shape[0] ** 2


def _side_by_side(blocks: list[np.ndarray]) -> np.ndarray:
    """Column blocks as one array; a single block is returned as it is."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def _spans(sizes) -> list[slice]:
    """Consecutive slices of the given sizes, starting at 0."""
    edges = list(itertools.accumulate(sizes, initial=0))
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _core(
    x: np.ndarray,
    points: np.ndarray,
    params: list[np.ndarray],
    archs: list[Architecture],
    xis: list[np.ndarray],
    term_xx: float,
    want_grads: bool,
):
    """Loss terms, and optionally gradients, of candidates trained in lockstep.

    Candidate c has parameters params[c], architecture archs[c] and
    coefficients xis[c], (n, R_c).  The two N x D x R data products, X Z and
    (P S)^T X, are each formed once for all candidates' constituents side by
    side; the Gram algebra is each candidate's own, on its column block.
    Each Z is the (D, R) view of a contiguous, feature-major Z^T (see
    `model`), from the one constituent walk; with want_grads the walk also
    fills each candidate's activation cache, which the backward pass reads.
    Returns the per-candidate breakdowns and, with want_grads, the
    per-candidate parameter and coefficient gradients.
    """
    n, n_points = x.shape
    blocks = _spans(arch.r for arch in archs)
    caches = [[] if want_grads else None for _ in archs]
    zs = [_walk(p, a, points, cache) for p, a, cache in zip(params, archs, caches)]
    # each Z is the (D, R) view of a contiguous Z^T; the Z^T blocks stack along rows
    zt_all = zs[0].T if len(zs) == 1 else np.concatenate([z.T for z in zs])
    p_all = x @ zt_all.T
    p_all /= n_points

    breakdowns, algebra = [], []
    for xi, block, z in zip(xis, blocks, zs):
        p = p_all[:, block]
        gz = z.T @ z
        gz /= n_points
        s = xi.T @ xi
        sgz = s @ gz
        term_gg = float((sgz * sgz.T).sum()) / n**2
        ptp = p.T @ p
        term_xg = float((s * ptp).sum()) / n**2
        breakdowns.append(LossBreakdown(term_xx, term_gg, term_xg))
        algebra.append((gz, s, sgz, ptp))
    if not want_grads:
        return breakdowns, None, None

    # dZ^T = (S Gz S)^T Z^T - (P S)^T X is formed feature-major, (R, D) like
    # the constituent engine's activations, so that the backward pass reads
    # it as contiguous rows; the R x N by N x D data product also runs
    # faster than X^T (P S) would.  One such product serves every candidate,
    # and each dZ^T is formed in place in its rows as
    # -((P S)^T X - (S Gz S)^T Z^T), which rounds identically
    psx = _side_by_side([p_all[:, b] @ s for b, (_, s, *_) in zip(blocks, algebra)]).T @ x
    dparams, dxis = [], []
    for param, arch, xi, block, z, cache, (gz, s, sgz, ptp) in zip(
        params, archs, xis, blocks, zs, caches, algebra
    ):
        dxi = xi @ (gz @ s @ gz - ptp)
        dxi *= 4.0 / n**2
        dzt = psx[block]
        dzt -= (sgz @ s).T @ z.T
        dzt *= -4.0 / (n**2 * n_points)
        dparams.append(backward_constituents(param, arch, cache, dzt.T))
        dxis.append(dxi)
    return breakdowns, dparams, dxis


def loss(
    f: FieldMatrix,
    params: np.ndarray,
    arch: Architecture,
    xi: np.ndarray,
) -> LossBreakdown:
    """Three-term Gram loss; expects pre-centered fields."""
    xi = np.asarray(xi, dtype=float)
    [breakdown], _, _ = _core(
        f.values, f.grid.coordinates(), [params], [arch], [xi],
        data_self_term(f), want_grads=False,
    )
    return breakdown


def gradients(
    f: FieldMatrix,
    params: np.ndarray,
    arch: Architecture,
    xi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the loss w.r.t. all parameters and Xi; expects pre-centered fields."""
    xi = np.asarray(xi, dtype=float)
    _, [dparams], [dxi] = _core(
        f.values, f.grid.coordinates(), [params], [arch], [xi], 0.0, want_grads=True
    )
    return dparams, dxi


def adam_step(
    theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, lr: float, t: int
) -> np.ndarray:
    """Bias-corrected ADAM update; overwrites the moments m and v in place.

    Returns the updated parameters as a new array; theta is left as it is.
    Each element is rounded exactly as in the textbook expression
    theta - lr * mhat / (sqrt(vhat) + eps), through two temporaries.
    """
    if t < 1:
        raise ValueError("adam step index starts at 1")
    step = np.multiply(grad, 1.0 - BETA1)
    m *= BETA1
    m += step
    np.multiply(grad, 1.0 - BETA2, out=step)
    step *= grad
    v *= BETA2
    v += step
    denom = np.divide(v, 1.0 - BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - BETA1**t, out=step)
    step *= lr
    step /= denom
    return np.subtract(theta, step, out=step)


def fit(
    f: FieldMatrix, arch: Architecture, cfg: TrainConfig
) -> tuple[FittedCovariance, np.ndarray]:
    """Fit a covariance network to observed fields with ADAM.

    The fields are centered by their sample mean first.  Returns the frozen
    model and a loss trace of shape (T, 4) with columns (total, term_xx,
    term_gg, term_xg); the model's Lambda = Xi^T Xi / N is the second
    moment that the trace's last row scored.  Row e records the loss
    at the parameters entering epoch e; a final row records the loss after
    the last step.  With minibatching the recorded row is the mean over the
    epoch's batches (the batch gradients of the cross-sample terms are
    biased; full batch is the default).

    Stops early when the running-minimum total improves by less than
    rel_tol (relatively) over STOP_WINDOW epochs; raises
    TrainingDivergedError if the loss becomes non-finite or exceeds 1e6
    times its initial value, and ResourceLimitError, before allocating,
    if the parameters and coefficients exceed memory.  This is the
    one-candidate case of `_fit_lockstep`.
    """
    [outcome] = _fit_lockstep(f, [arch], cfg)
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return outcome


@dataclass
class _Candidate:
    """One candidate's parameters, (n, R) coefficients, their ADAM moments, and stopping state."""

    index: int
    arch: Architecture
    params: np.ndarray
    xi: np.ndarray
    moments: list = field(init=False)  # (m, v) of params, then of xi
    trace: list = field(default_factory=list)
    running_min: list = field(default_factory=list)

    def __post_init__(self):
        self.moments = [(np.zeros_like(a), np.zeros_like(a)) for a in (self.params, self.xi)]


def _fit_lockstep(
    f: FieldMatrix, archs: list[Architecture], cfg: TrainConfig
) -> list[tuple[FittedCovariance, np.ndarray] | TrainingDivergedError]:
    """Fit every architecture to the same fields with `cfg`, in lockstep.

    Each candidate trains exactly as `fit` trains it alone: the same seed,
    epochs and minibatch order, its own parameters, coefficients and ADAM
    moments, its own trace, early stop and divergence check.  They share the
    centered data, its Gram and each step's two data products (see `_core`),
    and nothing else.  A candidate that stops or diverges is frozen and the
    others go on.  Returns, per candidate in order, (model, trace) or the
    TrainingDivergedError that ended it.
    """
    if f.n < 2:
        raise ValueError("need at least two fields to fit a covariance")
    for arch in archs:
        # checked before anything is allocated: the parameters, Lambda and coefficients
        _check_memory(
            count_parameters(arch) + f.n * arch.r,
            f"R = {arch.r} constituents with {arch.depth} hidden layers",
        )
    f = f.centered()
    x = f.values
    points = f.grid.coordinates()
    gram = cross_gram(f)
    term_xx = _gram_self_term(gram)

    live = []
    for i, arch in enumerate(archs):
        live.append(_Candidate(i, arch, *init_params(arch, f.n, cfg.seed)))
    outcomes: list = [None] * len(archs)
    minibatch = cfg.batch is not None and cfg.batch < f.n
    batch_rng = make_rng(cfg.seed, stream=1)
    t = 0
    for epoch in range(cfg.epochs):
        # (sample index, data self-term) per step; a minibatch's self-term
        # is its B x B block of the data Gram
        if not minibatch:
            batches = [(slice(None), term_xx)]
        else:
            perm = batch_rng.permutation(f.n)
            batches = [
                (idx, _gram_self_term(gram[np.ix_(idx, idx)]))
                for idx in (perm[s : s + cfg.batch] for s in range(0, f.n, cfg.batch))
                # a 1-sample remainder has no covariance signal
                if idx.size >= 2
            ]
        archs_live = [c.arch for c in live]
        rows: list[list[LossBreakdown]] = [[] for _ in live]
        for idx, sub_xx in batches:
            breakdowns, dparams, dxis = _core(
                x[idx], points, [c.params for c in live], archs_live,
                [c.xi[idx] for c in live], sub_xx, want_grads=True,
            )
            t += 1
            for c, row, b, dp, dxi in zip(live, rows, breakdowns, dparams, dxis):
                row.append(b)
                if minibatch:  # samples outside the batch get no gradient
                    full = np.zeros_like(c.xi)
                    full[idx] = dxi
                    dxi = full
                (m_net, v_net), (m_xi, v_xi) = c.moments
                c.params = adam_step(c.params, dp, m_net, v_net, cfg.lr, t)
                c.xi = adam_step(c.xi, dxi, m_xi, v_xi, cfg.lr, t)

        going_on = []
        for c, row in zip(live, rows):
            # a one-batch epoch's row is its breakdown as it is
            terms = [(b.total, b.term_xx, b.term_gg, b.term_xg) for b in row]
            mean = terms[0] if len(terms) == 1 else tuple(float(np.mean(k)) for k in zip(*terms))
            c.trace.append(mean)
            total, initial = mean[0], c.trace[0][0]
            if not np.isfinite(total) or (initial > 0 and total > DIVERGENCE_FACTOR * initial):
                outcomes[c.index] = TrainingDivergedError("training diverged", epoch)
                continue
            c.running_min.append(total if not c.running_min else min(c.running_min[-1], total))
            stalled = False
            if len(c.running_min) > STOP_WINDOW:
                prev = c.running_min[-STOP_WINDOW - 1]
                stalled = prev - c.running_min[-1] < cfg.rel_tol * max(prev, 1e-300)
            if stalled or epoch == cfg.epochs - 1:
                outcomes[c.index] = _freeze(x, points, c.params, c.arch, c.xi, term_xx, c.trace)
            else:
                going_on.append(c)
        live = going_on
        if not live:
            break
    return outcomes


def _freeze(x, points, params, arch, xi, term_xx, trace_rows):
    """A candidate's model, and its trace with the row of its final parameters."""
    [breakdown], _, _ = _core(x, points, [params], [arch], [xi], term_xx, want_grads=False)
    trace_rows.append(
        (breakdown.total, breakdown.term_xx, breakdown.term_gg, breakdown.term_xg)
    )
    # Lambda = S / N, the second moment that this last row scored
    model = FittedCovariance(arch, params, xi.T @ xi / xi.shape[0])
    return model, np.array(trace_rows)
