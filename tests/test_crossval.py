from dataclasses import replace

import numpy as np
import pytest

from conftest import second_moment
from covnet import crossval, spectral, training
from covnet.crossval import _cell_seed, cross_validate, cv_loss
from covnet.fields import FieldMatrix, make_grid
from covnet.model import (
    Architecture,
    FittedCovariance,
    eval_constituents,
    init_params,
)
from covnet.rng import gaussian, make_rng
from covnet.spectral import truncate
from covnet.training import TrainConfig, fit


def test_cv_loss_zero_when_model_equals_validation_covariance():
    # build validation fields from the model's own constituents so the
    # uncentered coefficient moment reproduces the validation covariance
    grid = make_grid(2, [5, 5])
    arch = Architecture.shallow(3, 2)
    params, _ = init_params(arch, 4, seed=1)
    xi = gaussian(make_rng(2), (4, 3))
    z = eval_constituents(params, arch, grid.coordinates())
    f_va = FieldMatrix(grid, xi @ z.T)
    lam = xi.T @ xi / 4
    lam = (lam + lam.T) / 2
    model = FittedCovariance(arch, params, lam)
    assert abs(cv_loss(model, f_va)) <= 1e-10


def test_cv_loss_zero_model_reduces_to_validation_term():
    grid = make_grid(1, [7])
    arch = Architecture.shallow(2, 1)
    params, _ = init_params(arch, 3, seed=3)
    model = FittedCovariance(arch, params, np.zeros((2, 2)))
    x = gaussian(make_rng(4), (5, 7))
    f_va = FieldMatrix(grid, x)
    g = (x @ x.T) / 7
    expected = (g * g).sum() / 25
    assert cv_loss(model, f_va) == pytest.approx(expected, rel=1e-12)


def test_cv_loss_matches_dense_oracle():
    grid = make_grid(2, [6, 6])
    arch = Architecture.deepshared(3, 2, 2)
    params, _ = init_params(arch, 4, seed=5)
    xi = gaussian(make_rng(6), (4, 3))
    lam = second_moment(xi)
    model = FittedCovariance(arch, params, lam)
    x = gaussian(make_rng(7), (4, 36))
    x = x - x.mean(axis=0)
    f_va = FieldMatrix(grid, x)
    z = eval_constituents(params, arch, grid.coordinates())
    dense_model = z @ lam @ z.T
    dense_va = x.T @ x / 4
    oracle = np.linalg.norm(dense_va - dense_model, "fro") ** 2 / 36**2
    assert cv_loss(model, f_va) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("batch", [None, 7])
@pytest.mark.parametrize("variant", ["shallow", "deep", "deepshared"])
def test_cv_loss_of_a_fit_on_its_centered_fields_is_its_last_trace_row(variant, batch):
    # fit freezes the model its last trace row scored, so CV scores fits in
    # the criterion they were trained on
    grid = make_grid(2, [7, 6])
    f = FieldMatrix(grid, gaussian(make_rng(14), (20, 42)).cumsum(axis=1))
    arch = {
        "shallow": Architecture.shallow(3, 2),
        "deep": Architecture.deep(3, 2, 2),
        "deepshared": Architecture.deepshared(3, 2, 2),
    }[variant]
    model, trace = fit(f, arch, TrainConfig(epochs=40, seed=2, batch=batch))
    assert cv_loss(model, f.centered()) == trace[-1, 0]


def test_cv_loss_nonnegative():
    grid = make_grid(1, [9])
    arch = Architecture.shallow(2, 1)
    params, xi = init_params(arch, 6, seed=8)
    model = FittedCovariance(arch, params, second_moment(xi))
    x = gaussian(make_rng(9), (6, 9))
    val = cv_loss(model, FieldMatrix(grid, x - x.mean(axis=0)))
    assert val >= -1e-10 * max(abs(val), 1.0)


def test_cv_loss_grid_mismatch():
    arch = Architecture.shallow(2, 2)
    params, xi = init_params(arch, 3, seed=1)
    model = FittedCovariance(arch, params, second_moment(xi))
    f = FieldMatrix(make_grid(1, [5]), np.ones((2, 5)))
    with pytest.raises(ValueError):
        cv_loss(model, f)


def rank2_fields(n, grid, seed):
    pts = grid.coordinates()
    phi1 = np.ones(grid.n_points)
    phi2 = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    rng = make_rng(seed)
    scores = gaussian(rng, (n, 2)) * np.array([1.0, 0.6])
    return FieldMatrix(grid, scores @ np.stack([phi1, phi2]))


def test_cross_validate_single_candidate():
    grid = make_grid(2, [5, 5])
    f = rank2_fields(20, grid, seed=11)
    cfg = TrainConfig(epochs=120, seed=1)
    report = cross_validate(f, [Architecture.shallow(2, 2)], [2], cfg, v=4, seed=2)
    assert report.selected == 0
    assert len(report.cells) == 4
    assert all(np.isfinite(c.loss) for c in report.cells)


def test_cross_validate_identical_architectures_tie_and_list_order_decides():
    grid = make_grid(2, [4, 4])
    f = rank2_fields(12, grid, seed=13)
    cfg = TrainConfig(epochs=60, seed=1)
    small = Architecture.shallow(2, 2)
    report = cross_validate(f, [small, small], [2], cfg, v=3, seed=4)
    assert report.mean_losses[0] == report.mean_losses[1]
    assert report.selected == 0


def test_cross_validate_tie_breaks_by_level_then_parameter_count_then_order(monkeypatch):
    grid = make_grid(2, [4, 4])
    f = rank2_fields(12, grid, seed=13)
    # every level of every architecture scores the same
    monkeypatch.setattr(
        crossval, "_level_losses", lambda model, f_va, term_xx, levels: [1.0] * len(levels)
    )
    deeper, shallow = Architecture.deepshared(3, 2, 2), Architecture.shallow(3, 2)
    levels = [3, 1, 2]
    report = cross_validate(f, [deeper, shallow, shallow], levels, TrainConfig(epochs=5), v=3)
    assert len(set(report.mean_losses)) == 1
    # the lower level first, then the smaller network, then list order
    assert report.candidates[report.selected] == (shallow, 1)
    assert report.selected == 4


def test_cross_validate_counts_a_cell_per_architecture_level_and_fold():
    grid = make_grid(2, [4, 4])
    f = rank2_fields(15, grid, seed=17)
    archs = [Architecture.shallow(4, 2), Architecture.deepshared(4, 2, 2)]
    levels = [1, 2, 4]
    v = 3
    report = cross_validate(f, archs, levels, TrainConfig(epochs=10, seed=1), v=v, seed=5)
    assert report.candidates == tuple((a, k) for a in archs for k in levels)
    assert len(report.cells) == len(archs) * len(levels) * v
    assert [(c.candidate, c.fold) for c in report.cells] == [
        (ci, k) for ci in range(len(archs) * len(levels)) for k in range(v)
    ]
    assert len(report.mean_losses) == len(archs) * len(levels)


def test_cross_validate_selection_consistent_with_table():
    grid = make_grid(2, [5, 5])
    f = rank2_fields(30, grid, seed=17)
    cfg = TrainConfig(epochs=250, seed=1)
    report = cross_validate(f, [Architecture.shallow(8, 2)], [1, 2, 8], cfg, v=5, seed=5)
    finite = [m for m in report.mean_losses if np.isfinite(m)]
    assert report.mean_losses[report.selected] == min(finite)
    assert len(report.cells) == 15


def test_cross_validate_deterministic():
    grid = make_grid(2, [4, 4])
    f = rank2_fields(16, grid, seed=19)
    cfg = TrainConfig(epochs=50, seed=1)
    archs = [Architecture.shallow(3, 2), Architecture.deepshared(3, 2, 2)]
    a = cross_validate(f, archs, [1, 3], cfg, v=4, seed=6)
    b = cross_validate(f, archs, [1, 3], cfg, v=4, seed=6)
    assert a.mean_losses == b.mean_losses
    assert a.selected == b.selected


def test_cross_validate_equals_the_documented_loop():
    grid = make_grid(2, [4, 4])
    f = rank2_fields(14, grid, seed=31)
    cfg = TrainConfig(epochs=40, seed=3, batch=5)
    archs = [
        Architecture.shallow(3, 2),
        Architecture.deepshared(3, 2, 2),
        Architecture.deep(3, 2, 2),
    ]
    levels = [1, 3]
    v, seed = 4, 7
    report = cross_validate(f, archs, levels, cfg, v=v, seed=seed)
    # shuffle, split, sort each validation fold, seed by fold, fit each
    # architecture alone, score it as it is and truncated with the
    # validation grid's Gram
    perm = make_rng(seed, stream=2).permutation(f.n)
    expected = {}
    for ai, arch in enumerate(archs):
        for fold, part in enumerate(np.array_split(perm, v)):
            va = np.sort(part)
            tr = np.setdiff1d(np.arange(f.n), va)
            fold_cfg = replace(cfg, seed=_cell_seed(seed, cfg.seed, fold))
            model, _ = fit(FieldMatrix(grid, f.values[tr]), arch, fold_cfg)
            f_va = FieldMatrix(grid, f.values[va] - f.values[va].mean(axis=0))
            z = model.constituents(grid.coordinates())
            gz = z.T @ z / grid.n_points
            expected[ai, 1, fold] = cv_loss(truncate(model, 1, gz), f_va)
            expected[ai, 3, fold] = cv_loss(model, f_va)
    assert [(c.candidate, c.fold, c.failed) for c in report.cells] == [
        (ai * len(levels) + li, fold, False)
        for ai in range(len(archs))
        for li in range(len(levels))
        for fold in range(v)
    ]
    # each fold's architectures train in lockstep, whose side-by-side data
    # products BLAS may round differently from one architecture's own
    for c in report.cells:
        arch, level = report.candidates[c.candidate]
        assert c.loss == pytest.approx(expected[archs.index(arch), level, c.fold], rel=1e-12)
    means = [
        float(np.mean([expected[ai, level, fold] for fold in range(v)]))
        for ai in range(len(archs))
        for level in levels
    ]
    assert report.mean_losses == pytest.approx(means, rel=1e-12)


def test_cross_validate_widest_level_is_the_untruncated_model(monkeypatch):
    grid = make_grid(2, [4, 4])
    f = rank2_fields(12, grid, seed=33)
    calls = []
    real_eigendecompose = spectral.eigendecompose

    def counting(model, gram):
        calls.append(model.arch)
        return real_eigendecompose(model, gram)

    monkeypatch.setattr(spectral, "eigendecompose", counting)
    cfg = TrainConfig(epochs=20, seed=1)
    v = 3
    arch = Architecture.shallow(3, 2)
    report = cross_validate(f, [arch], [3, 2], cfg, v=v, seed=2)
    # one eigensolve per fold, for level 2 only
    assert len(calls) == v
    solo = cross_validate(f, [arch], [3], cfg, v=v, seed=2)
    assert [c.loss for c in report.cells[:v]] == [c.loss for c in solo.cells]


def test_cross_validate_builds_each_fold_once(monkeypatch):
    grid = make_grid(2, [4, 4])
    f = rank2_fields(12, grid, seed=37)
    real_post_init = FieldMatrix.__post_init__
    calls = []

    def counting_post_init(self):
        calls.append(None)
        real_post_init(self)

    monkeypatch.setattr(FieldMatrix, "__post_init__", counting_post_init)
    v = 4
    archs = [Architecture.shallow(3, 2), Architecture.deepshared(3, 2, 2)]
    cross_validate(f, archs, [1, 2, 3], TrainConfig(epochs=5, seed=1), v=v, seed=2)
    # per fold: training, validation, its centered copy, and the centered
    # training fields that all architectures share
    assert len(calls) <= 4 * v


def test_cross_validate_computes_two_grams_and_one_evaluation_per_fold(monkeypatch):
    grid = make_grid(2, [4, 4])
    f = rank2_fields(12, grid, seed=39)
    real_cross_gram = training.cross_gram
    grams, evaluations = [], []

    def counting_cross_gram(*args):
        grams.append(None)
        return real_cross_gram(*args)

    real_constituents = FittedCovariance.constituents

    def counting_constituents(self, points):
        evaluations.append(self.arch)
        return real_constituents(self, points)

    monkeypatch.setattr(training, "cross_gram", counting_cross_gram)
    monkeypatch.setattr(FittedCovariance, "constituents", counting_constituents)
    archs = [Architecture.shallow(3, 2), Architecture.deepshared(3, 2, 2)]
    v = 4
    cross_validate(f, archs, [1, 2, 3], TrainConfig(epochs=5, seed=1), v=v, seed=2)
    # per fold: the training Gram and the validation Gram every cell scores against
    assert len(grams) == 2 * v
    # per fold and architecture: one validation constituent evaluation for all levels
    assert sorted(evaluations, key=archs.index) == [a for a in archs for _ in range(v)]


def test_cross_validate_requires_enough_samples():
    grid = make_grid(1, [4])
    f = FieldMatrix(grid, np.ones((3, 4)))
    with pytest.raises(ValueError):
        cross_validate(f, [Architecture.shallow(1, 1)], [1], TrainConfig(), v=5, seed=1)


@pytest.mark.parametrize(
    "levels, message",
    [
        ([0, 2], "truncation levels must be >= 1, got 0"),
        ([], "need at least one truncation level"),
        ([2, 4], "truncation level 4 exceeds R = 3"),
    ],
    ids=["zero", "empty", "above_R"],
)
def test_cross_validate_refuses_bad_levels_before_training(monkeypatch, levels, message):
    grid = make_grid(2, [4, 4])
    f = rank2_fields(12, grid, seed=43)
    trained = []
    poison_constituents(monkeypatch, lambda arch: trained.append(arch) and False)
    archs = [Architecture.shallow(4, 2), Architecture.shallow(3, 2)]
    with pytest.raises(ValueError, match=message):
        cross_validate(f, archs, levels, TrainConfig(epochs=5, seed=1), v=3, seed=2)
    assert trained == []


def poison_constituents(monkeypatch, doomed, after=0):
    """Make every training walk of a `doomed` architecture NaN after `after` calls.

    Only walks that fill an activation cache are training walks; the loss
    evaluation of a freeze passes none and stays clean.
    """
    real = training._walk
    seen = []

    def walk(params, arch, points, cache=None):
        z = real(params, arch, points, cache)
        if cache is not None and doomed(arch):
            seen.append(None)
            if len(seen) > after:
                z = np.full_like(z, np.nan)
        return z

    monkeypatch.setattr(training, "_walk", walk)


def test_cross_validate_excludes_diverged_candidate(monkeypatch):
    grid = make_grid(2, [4, 4])
    f = rank2_fields(12, grid, seed=23)
    cfg = TrainConfig(epochs=40, seed=1)
    doomed, healthy = Architecture.deepshared(2, 2, 2), Architecture.shallow(2, 2)
    want = cross_validate(f, [healthy], [1, 2], cfg, v=3, seed=9)
    # diverges mid-run on the first fold, while it trains beside `healthy`
    poison_constituents(monkeypatch, lambda arch: arch == doomed, after=10)
    report = cross_validate(f, [doomed, healthy], [1, 2], cfg, v=3, seed=9)
    # the diverged architecture fails at every level
    assert report.mean_losses[:2] == (np.inf, np.inf)
    assert report.selected in (2, 3)
    assert all(c.failed for c in report.cells if c.candidate < 2)
    kept = [c for c in report.cells if c.candidate >= 2]
    assert [c.loss for c in kept] == pytest.approx([c.loss for c in want.cells], rel=1e-12)


def test_cross_validate_all_failed_raises(monkeypatch):
    from covnet.errors import CovnetError

    grid = make_grid(2, [4, 4])
    f = rank2_fields(12, grid, seed=29)
    poison_constituents(monkeypatch, lambda arch: True)
    with pytest.raises(CovnetError):
        cross_validate(f, [Architecture.shallow(1, 2)], [1], TrainConfig(epochs=5), v=3, seed=9)


def test_cross_validate_checks_every_dimension_before_training(monkeypatch):
    grid = make_grid(2, [4, 4])
    f = rank2_fields(12, grid, seed=41)
    trained = []
    poison_constituents(monkeypatch, lambda arch: trained.append(arch) and False)
    archs = [Architecture.shallow(2, 2), Architecture.shallow(2, 3)]
    with pytest.raises(ValueError, match="3-dimensional points, the grid is 2-dimensional"):
        cross_validate(f, archs, [2], TrainConfig(epochs=5, seed=1), v=3, seed=2)
    assert trained == []
