"""V-fold cross-validation over CovNet architectures.

The CV score of a fitted model against a held-out fold is the squared
Hilbert-Schmidt distance between the validation empirical covariance and the
frozen model: the fitting criterion, `training._gram_terms`, on the N2
validation fields at S = N2 Lambda.  `cv_loss` of a fit on its own centered
fields is therefore its trace's last row, bit for bit.

The candidates are truncation levels of architectures.  A CovNet
covariance has a closed-form eigendecomposition, so its rank-k truncation
(`spectral.truncate`) is the same model with the same constituents, and
each architecture is trained once per fold, at its own R, and scored at
every level k <= R.  Scoring evaluates the constituents on the validation
grid once per (fold, architecture) and truncates with that grid's Gram Gz,
so each level is the best rank-k approximation in the norm the score
measures; a level at R scores the trained model as it is.

Fold assignment is a seeded shuffle followed by a contiguous V-way split.
Every architecture trains with one TrainConfig, reseeded per fold, so on a
fold they all train in lockstep (`training._fit_lockstep`): one centered
training matrix and Gram per fold, and each step's two N x D data products
formed once for all architectures side by side.  Each still has its own
parameters, ADAM moments, trace, early stop and divergence check.  Every
cell of a fold is scored against one validation self-term, so a fold
computes one training and one validation Gram.  Equal architectures train
once per fold and share their cells, so they tie exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CovnetError, TrainingDivergedError
from .fields import FieldMatrix
from .model import Architecture, FittedCovariance, count_parameters
from .rng import make_rng
from .spectral import truncate
from .training import TrainConfig, _fit_lockstep, _gram_terms, _grams, data_self_term


def cv_loss(model: FittedCovariance, f_va: FieldMatrix) -> float:
    """Squared HS distance between a frozen model and a validation sample.

    Expects pre-centered validation fields (their empirical covariance is
    the reference being matched).
    """
    [loss] = _level_losses(model, f_va, data_self_term(f_va), [model.arch.r])
    return loss


def _level_losses(
    model: FittedCovariance, f_va: FieldMatrix, term_xx: float, levels: list[int]
) -> list[float]:
    """`cv_loss` of the model's truncation at every level, given the validation self-term.

    The constituents are evaluated on the validation grid once; level k
    scores `truncate(model, k, Gz)` with that grid's Gram Gz, so a level at
    R scores the model as it is.
    """
    gz, p = _grams(f_va.values, model.constituents(f_va.grid.coordinates()))
    return [
        _gram_terms(gz, p, f_va.n * truncate(model, k, gz).lam, term_xx)[0].total
        for k in levels
    ]


@dataclass(frozen=True)
class CvCell:
    candidate: int
    fold: int
    loss: float
    failed: bool = False


@dataclass(frozen=True)
class CvReport:
    """Per-cell CV losses, per-candidate means, and the selected candidate.

    A candidate is an (architecture, truncation level) pair.
    """

    candidates: tuple[tuple[Architecture, int], ...]
    cells: tuple[CvCell, ...] = field(repr=False)
    mean_losses: tuple[float, ...] = ()
    selected: int = 0

    def candidate_label(self, i: int) -> str:
        arch, level = self.candidates[i]
        label = f"{arch.variant} R={arch.r}"
        if arch.depth:
            label += f" L={arch.depth}"
        return f"{label} at level {level}"


def _fold_indices(n: int, v: int, seed: int) -> list[np.ndarray]:
    perm = make_rng(seed, stream=2).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, v)]


def _cell_seed(seed: int, cfg_seed: int, fold: int) -> int:
    # keyed by the fold, not the candidate, so every candidate trains fold k
    # from the same seed and identical candidates tie by construction
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(cfg_seed, fold))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _check_levels(levels: list[int], archs: list[Architecture] = ()) -> None:
    """Refuse an empty level list, a level below 1, and one above an architecture's R."""
    if not levels:
        raise ValueError("need at least one truncation level")
    if min(levels) < 1:
        raise ValueError(f"truncation levels must be >= 1, got {min(levels)}")
    for arch in archs:
        if max(levels) > arch.r:
            raise ValueError(f"truncation level {max(levels)} exceeds R = {arch.r} of {arch}")


def cross_validate(
    f: FieldMatrix,
    archs: list[Architecture],
    levels: list[int],
    cfg: TrainConfig,
    v: int = 5,
    seed: int = 0,
) -> CvReport:
    """Score every truncation level of every architecture on a seeded V-fold split.

    On each fold each architecture is trained once with `cfg`, and its
    model is scored at every level.  Candidates are (architecture, level)
    pairs, architecture-major.  An architecture whose training diverges on
    any fold fails all its levels, which are excluded from selection; ties
    on mean loss break toward the lower level, then fewer network
    parameters, then list order.
    """
    if v < 2:
        raise ValueError("need at least two folds")
    if f.n < v:
        raise ValueError(f"cannot split {f.n} samples into {v} folds")
    if not archs:
        raise ValueError("need at least one architecture")
    for arch in archs:
        if arch.d != f.grid.d:
            raise ValueError(
                f"candidate {arch} takes {arch.d}-dimensional points, "
                f"the grid is {f.grid.d}-dimensional"
            )
    _check_levels(levels, archs)
    # equal architectures share one lockstep slot
    slots = list(dict.fromkeys(archs))
    # per fold and slot, (loss, failed) per level; the training rows keep their sorted order
    scores = []
    for k, rows in enumerate(_fold_indices(f.n, v, seed)):
        f_tr = FieldMatrix(f.grid, np.delete(f.values, rows, axis=0))
        f_va = FieldMatrix(f.grid, f.values[rows]).centered()
        fold_cfg = replace(cfg, seed=_cell_seed(seed, cfg.seed, k))
        term_xx = data_self_term(f_va)
        scores.append(
            [
                [(math.inf, True)] * len(levels)
                if isinstance(outcome, TrainingDivergedError)
                else [(loss, False) for loss in _level_losses(outcome[0], f_va, term_xx, levels)]
                for outcome in _fit_lockstep(f_tr, slots, fold_cfg)
            ]
        )
    candidates = [(arch, level) for arch in archs for level in levels]
    cells = [
        CvCell(ci, k, *fold_scores[slots.index(arch)][ci % len(levels)])
        for ci, (arch, _) in enumerate(candidates)
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

    def rank(ci: int):
        arch, level = candidates[ci]
        return means[ci], level, count_parameters(arch, include_lambda=False), ci

    return CvReport(
        candidates=tuple(candidates),
        cells=tuple(cells),
        mean_losses=tuple(means),
        selected=min(range(len(candidates)), key=rank),
    )
