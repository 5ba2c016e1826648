"""V-fold cross-validation of architecture / training hyperparameters.

The CV score of a fitted model against a held-out fold is the squared
Hilbert-Schmidt distance between the validation empirical covariance and the
frozen model, again expanded in inner products: with Z the constituents on
the validation grid, Gz = Z^T Z / D and Q = X_va Z / D,

    score = tr((Gz Lambda)^2) + N2^-2 sum <X_n, X_m>^2 - (2 / N2) tr(Q Lambda Q^T).

Fold assignment is a seeded shuffle followed by a contiguous V-way split;
each (candidate, fold) cell trains with its own derived seed, so cells are
independent of each other and of the order they run in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CovnetError, TrainingDivergedError
from .fields import FieldMatrix, cross_gram
from .model import Architecture, FittedCovariance, count_parameters
from .rng import make_rng
from .training import TrainConfig, fit


def cv_loss(model: FittedCovariance, f_va: FieldMatrix) -> float:
    """Squared HS distance between a frozen model and a validation sample.

    Expects pre-centered validation fields (their empirical covariance is
    the reference being matched).
    """
    z = model.constituents(f_va.grid.coordinates())
    gz = z.T @ z / f_va.grid.n_points
    gl = gz @ model.lam
    term_tr = float((gl * gl.T).sum())
    g_vv = cross_gram(f_va)
    term_va = float((g_vv * g_vv).sum()) / f_va.n**2
    q = f_va.values @ z / f_va.grid.n_points
    term_cross = float(((q @ model.lam) * q).sum()) / f_va.n
    return term_tr + term_va - 2.0 * term_cross


@dataclass(frozen=True)
class CvCell:
    candidate: int
    fold: int
    loss: float
    failed: bool = False


@dataclass(frozen=True)
class CvReport:
    """Per-cell CV losses, per-candidate means, and the selected candidate."""

    candidates: tuple[tuple[Architecture, TrainConfig], ...]
    cells: tuple[CvCell, ...] = field(repr=False)
    mean_losses: tuple[float, ...] = ()
    selected: int = 0

    def candidate_label(self, i: int) -> str:
        arch = self.candidates[i][0]
        label = f"{arch.variant} R={arch.r}"
        if arch.widths:
            label += f" L={arch.depth}"
        return label


def _fold_indices(n: int, v: int, seed: int) -> list[np.ndarray]:
    perm = make_rng(seed, stream=2).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, v)]


def _cell_seed(seed: int, cfg_seed: int, fold: int) -> int:
    # keyed by the candidate's own seed rather than its list position, so
    # identical candidates produce identical scores (ties break by order)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(cfg_seed, fold))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def cross_validate(
    f: FieldMatrix,
    candidates: list[tuple[Architecture, TrainConfig]],
    v: int = 5,
    seed: int = 0,
) -> CvReport:
    """Score every candidate on a seeded V-fold split and pick the best.

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
    folds = _fold_indices(f.n, v, seed)
    all_rows = np.arange(f.n)

    def run_cell(ci: int, fold: int) -> CvCell:
        arch, cfg = candidates[ci]
        train_rows = np.setdiff1d(all_rows, folds[fold])
        f_tr = FieldMatrix(f.grid, f.values[train_rows])
        f_va = FieldMatrix(f.grid, f.values[folds[fold]]).centered()
        cell_cfg = replace(cfg, seed=_cell_seed(seed, cfg.seed, fold))
        try:
            model, _ = fit(f_tr, arch, cell_cfg)
        except TrainingDivergedError:
            return CvCell(ci, fold, math.inf, failed=True)
        return CvCell(ci, fold, cv_loss(model, f_va))

    cells = [run_cell(ci, fold) for ci in range(len(candidates)) for fold in range(v)]

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
        key=lambda ci: (means[ci], count_parameters(candidates[ci][0]), ci),
    )
    return CvReport(
        candidates=tuple(candidates),
        cells=tuple(cells),
        mean_losses=tuple(means),
        selected=selected,
    )
