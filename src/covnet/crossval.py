"""V-fold cross-validation over CovNet architectures.

The CV score of a fitted model against a held-out fold is the squared
Hilbert-Schmidt distance between the validation empirical covariance and the
frozen model, the fitting criterion's three terms on the validation fields:
with Z the constituents on the validation grid, Gz = Z^T Z / D and
Q = X_va Z / D,

    score = N2^-2 sum <X_n, X_m>^2 + tr((Gz Lambda)^2) - (2 / N2) tr(Q Lambda Q^T).

Fold assignment is a seeded shuffle followed by a contiguous V-way split.
Every candidate architecture trains with one TrainConfig, reseeded per fold,
so on a fold they all train in lockstep (`training._fit_lockstep`): one
centered training matrix and Gram per fold, and each step's two N x D data
products formed once for all candidates side by side.  Each candidate still
has its own parameters, ADAM moments, trace, early stop and divergence
check.  Every cell of a fold is scored as by `cv_loss`, against one
validation self-term, so a fold computes one training and one validation
Gram.  Equal candidates train once per fold and share their cells, so they
tie exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CovnetError, TrainingDivergedError
from .fields import FieldMatrix
from .model import Architecture, FittedCovariance, count_parameters
from .rng import make_rng
from .training import LossBreakdown, TrainConfig, _fit_lockstep, data_self_term


def cv_loss(model: FittedCovariance, f_va: FieldMatrix) -> float:
    """Squared HS distance between a frozen model and a validation sample.

    Expects pre-centered validation fields (their empirical covariance is
    the reference being matched).
    """
    return _cv_loss(model, f_va, data_self_term(f_va))


def _cv_loss(model: FittedCovariance, f_va: FieldMatrix, term_xx: float) -> float:
    """`cv_loss`, given the validation fields' self-term, which a fold's cells share."""
    z = model.constituents(f_va.grid.coordinates())
    gz = z.T @ z / f_va.grid.n_points
    gl = gz @ model.lam
    gg = float((gl * gl.T).sum())
    q = f_va.values @ z / f_va.grid.n_points
    xg = float(((q @ model.lam) * q).sum()) / f_va.n
    return LossBreakdown(term_xx, gg, xg).total


@dataclass(frozen=True)
class CvCell:
    candidate: int
    fold: int
    loss: float
    failed: bool = False


@dataclass(frozen=True)
class CvReport:
    """Per-cell CV losses, per-candidate means, and the selected candidate."""

    candidates: tuple[Architecture, ...]
    cells: tuple[CvCell, ...] = field(repr=False)
    mean_losses: tuple[float, ...] = ()
    selected: int = 0

    def candidate_label(self, i: int) -> str:
        arch = self.candidates[i]
        label = f"{arch.variant} R={arch.r}"
        if arch.widths:
            label += f" L={arch.depth}"
        return label


def _fold_indices(n: int, v: int, seed: int) -> list[np.ndarray]:
    perm = make_rng(seed, stream=2).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, v)]


def _cell_seed(seed: int, cfg_seed: int, fold: int) -> int:
    # keyed by the fold, not the candidate, so every candidate trains fold k
    # from the same seed and identical candidates tie by construction
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(cfg_seed, fold))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def cross_validate(
    f: FieldMatrix,
    candidates: list[Architecture],
    cfg: TrainConfig,
    v: int = 5,
    seed: int = 0,
) -> CvReport:
    """Score every architecture, trained with `cfg`, on a seeded V-fold split.

    Candidates whose training diverges on any fold are marked failed and
    excluded from selection; ties on mean loss break toward fewer model
    parameters, then list order.
    """
    if v < 2:
        raise ValueError("need at least two folds")
    if f.n < v:
        raise ValueError(f"cannot split {f.n} samples into {v} folds")
    if not candidates:
        raise ValueError("need at least one candidate")
    for arch in candidates:
        if arch.d != f.grid.d:
            raise ValueError(
                f"candidate {arch} takes {arch.d}-dimensional points, "
                f"the grid is {f.grid.d}-dimensional"
            )
    # equal candidates share one lockstep slot
    slots = list(dict.fromkeys(candidates))
    # (loss, failed) per fold and slot; the training rows keep their sorted order
    scores = []
    for k, rows in enumerate(_fold_indices(f.n, v, seed)):
        f_tr = FieldMatrix(f.grid, np.delete(f.values, rows, axis=0))
        f_va = FieldMatrix(f.grid, f.values[rows]).centered()
        fold_cfg = replace(cfg, seed=_cell_seed(seed, cfg.seed, k))
        term_xx = data_self_term(f_va)
        scores.append(
            [
                (math.inf, True)
                if isinstance(outcome, TrainingDivergedError)
                else (_cv_loss(outcome[0], f_va, term_xx), False)
                for outcome in _fit_lockstep(f_tr, slots, fold_cfg)
            ]
        )
    cells = [
        CvCell(ci, k, *fold_scores[slots.index(arch)])
        for ci, arch in enumerate(candidates)
        for k, fold_scores in enumerate(scores)
    ]

    means = []
    for ci in range(len(candidates)):
        rows = [c for c in cells if c.candidate == ci]
        means.append(
            math.inf if any(c.failed for c in rows) else float(np.mean([c.loss for c in rows]))
        )
    if all(math.isinf(mu) for mu in means):
        raise CovnetError("every cross-validation candidate failed to train")
    selected = min(
        range(len(candidates)),
        key=lambda ci: (means[ci], count_parameters(candidates[ci]), ci),
    )
    return CvReport(
        candidates=tuple(candidates),
        cells=tuple(cells),
        mean_losses=tuple(means),
        selected=selected,
    )
