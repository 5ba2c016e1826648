import numpy as np
import pytest

from covnet.errors import TrainingDivergedError
from covnet.fields import FieldMatrix, make_grid
from covnet.model import (
    Architecture,
    eval_constituents,
    fitted_fields,
    init_params,
    pack_params,
    unpack_params,
)
from covnet.rng import gaussian, make_rng
from covnet.simulate import BrownianSheet, sample_gaussian_fields
from covnet.training import (
    AdamState,
    TrainConfig,
    adam_step,
    data_self_term,
    fit,
    gradients,
    loss,
    loss_with_mean,
)

ARCHS = {
    "shallow": lambda r, d: Architecture.shallow(r, d),
    "deep": lambda r, d: Architecture.deep(r, d, 2),
    "deepshared": lambda r, d: Architecture.deepshared(r, d, 2),
}


def dense_loss_oracle(f, params, arch, xi, include_mean=False):
    """Direct D x D Frobenius computation of the same criterion."""
    x = f.values
    n, n_points = x.shape
    z = eval_constituents(params, arch, f.grid.coordinates())
    y = xi @ z.T
    total = np.linalg.norm(x.T @ x / n - y.T @ y / n, "fro") ** 2 / n_points**2
    if include_mean:
        xb = x.mean(axis=0)
        yb = y.mean(axis=0)
        total += (
            np.linalg.norm(np.outer(xb, xb) - np.outer(yb, yb), "fro") ** 2
            / n_points**2
        )
    return total


def perfect_fit_case(seed=0):
    """Data constructed to equal the fitted fields exactly (loss zero)."""
    arch = Architecture.shallow(3, 1)
    grid = make_grid(1, [12])
    params, _ = init_params(arch, 3, seed=seed)
    xi = np.eye(3) + 0.1
    f = fitted_fields(params, arch, xi, grid)
    return f, params, arch, xi


def test_loss_zero_at_perfect_fit():
    f, params, arch, xi = perfect_fit_case()
    b = loss(f, params, arch, xi)
    assert abs(b.total) <= 1e-10 * (b.term_xx + b.term_gg)


def test_loss_zero_coefficients_reduce_to_data_term():
    grid = make_grid(1, [10])
    f = FieldMatrix(grid, gaussian(make_rng(1), (4, 10)))
    arch = Architecture.shallow(2, 1)
    params, _ = init_params(arch, 4, seed=1)
    b = loss(f, params, arch, np.zeros((4, 2)))
    assert b.term_gg == 0 and b.term_xg == 0
    assert b.total == b.term_xx == pytest.approx(data_self_term(f), rel=1e-15)


@pytest.mark.parametrize("variant", list(ARCHS))
def test_loss_matches_dense_oracle(variant):
    rng = make_rng(3)
    grid = make_grid(2, [4, 4])
    arch = ARCHS[variant](3, 2)
    for trial in range(3):
        n = 5
        x = gaussian(rng, (n, 16))
        xc = x - x.mean(axis=0)
        f = FieldMatrix(grid, xc)
        params, xi = init_params(arch, n, seed=trial)
        got = loss(f, params, arch, 2.0 * xi).total
        oracle = dense_loss_oracle(f, params, arch, 2.0 * xi)
        assert got == pytest.approx(oracle, rel=1e-8)


def test_loss_never_materializes_dense_objects():
    # indirect check: a grid big enough that a D x D array would be 1.8 GB
    grid = make_grid(2, [120, 125])
    f = FieldMatrix(grid, gaussian(make_rng(4), (3, grid.n_points)))
    arch = Architecture.shallow(2, 2)
    params, xi = init_params(arch, 3, seed=0)
    b = loss(f, params, arch, xi)
    assert np.isfinite(b.total)


def test_loss_with_mean_zero_at_perfect_fit():
    f, params, arch, xi = perfect_fit_case(seed=5)
    b = loss_with_mean(f, params, arch, xi)
    assert abs(b.total) <= 1e-10 * (b.term_xx + b.term_gg)


def test_loss_with_mean_constant_fields():
    # fields identically mu and networks identically mu: zero criterion
    grid = make_grid(1, [8])
    mu = 0.7
    f = FieldMatrix(grid, np.full((3, 8), mu))
    arch = Architecture.shallow(1, 1)
    params = unpack_params(np.zeros(2), arch)  # g == 0.5 everywhere
    xi = np.full((3, 1), 2 * mu)  # xi * 0.5 == mu
    b = loss_with_mean(f, params, arch, xi)
    assert abs(b.total) <= 1e-12 * max(b.term_xx, 1.0)


@pytest.mark.parametrize("variant", list(ARCHS))
def test_loss_with_mean_matches_dense_oracle(variant):
    rng = make_rng(6)
    grid = make_grid(2, [3, 4])
    arch = ARCHS[variant](2, 2)
    n = 4
    x = gaussian(rng, (n, 12)) + 0.5
    f = FieldMatrix(grid, x)
    params, xi = init_params(arch, n, seed=2)
    got = loss_with_mean(f, params, arch, xi).total
    oracle = dense_loss_oracle(f, params, arch, xi, include_mean=True)
    assert got == pytest.approx(oracle, rel=1e-8)


def test_gradient_zero_at_perfect_fit():
    f, params, arch, xi = perfect_fit_case(seed=7)
    _, dxi = gradients(f, params, arch, xi)
    assert np.abs(dxi).max() <= 1e-8


@pytest.mark.parametrize("variant", list(ARCHS))
@pytest.mark.parametrize("include_mean", [False, True])
def test_gradients_match_central_differences(variant, include_mean):
    rng = make_rng(11)
    grid = make_grid(2, [4, 4])
    arch = ARCHS[variant](2, 2)
    n = 4
    x = gaussian(rng, (n, 16))
    if not include_mean:
        x = x - x.mean(axis=0)
    f = FieldMatrix(grid, x)
    params, xi = init_params(arch, n, seed=8)
    dparams, dxi = gradients(f, params, arch, xi, include_mean=include_mean)
    analytic = np.concatenate([pack_params(dparams), dxi.ravel()])
    theta = np.concatenate([pack_params(params), xi.ravel()])
    n_net = theta.size - xi.size
    lfun = loss_with_mean if include_mean else loss

    def total_at(vec):
        p = unpack_params(vec[:n_net], arch)
        q = vec[n_net:].reshape(n, arch.r)
        return lfun(f, p, arch, q).total

    fd = np.empty_like(theta)
    for i in range(theta.size):
        h = 1e-5 * (1 + abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (total_at(up) - total_at(down)) / (2 * h)
    for a, g in zip(analytic, fd):
        if abs(g) < 1e-6:
            assert abs(a - g) < 1e-8
        else:
            assert abs(a - g) / abs(g) < 1e-5


def test_gradient_scaling_with_doubled_data():
    rng = make_rng(13)
    grid = make_grid(1, [9])
    arch = Architecture.shallow(2, 1)
    n = 4
    x = gaussian(rng, (n, 9))
    x = x - x.mean(axis=0)
    params, xi = init_params(arch, n, seed=3)
    f1 = FieldMatrix(grid, x)
    f2 = FieldMatrix(grid, 2.0 * x)
    b1 = loss(f1, params, arch, xi)
    b2 = loss(f2, params, arch, xi)
    # data Gram entries quadruple, so the squared data term scales by 16
    assert b2.term_xx == pytest.approx(16 * b1.term_xx, rel=1e-12)
    # cross Gram entries double, so the squared cross term scales by 4
    assert b2.term_xg == pytest.approx(4 * b1.term_xg, rel=1e-12)
    # the coefficient gradient is exactly zero at Xi = 0 for both scales
    zero = np.zeros_like(xi)
    _, d1 = gradients(f1, params, arch, zero)
    _, d2 = gradients(f2, params, arch, zero)
    np.testing.assert_array_equal(d1, 0.0)
    np.testing.assert_array_equal(d2, 4.0 * d1)
    # at fixed nonzero Xi the cross-term coefficient gradient quadruples
    cross1 = xi @ ((f1.values @ eval_constituents(params, arch, grid.coordinates()) / 9).T
                   @ (f1.values @ eval_constituents(params, arch, grid.coordinates()) / 9))
    cross2 = xi @ ((f2.values @ eval_constituents(params, arch, grid.coordinates()) / 9).T
                   @ (f2.values @ eval_constituents(params, arch, grid.coordinates()) / 9))
    np.testing.assert_allclose(cross2, 4.0 * cross1, rtol=1e-12)


def test_loss_quartic_scale_covariance_exact():
    # scaling data and coefficients by 2 scales the loss by exactly 2^4
    rng = make_rng(17)
    grid = make_grid(1, [8])
    arch = Architecture.shallow(2, 1)
    x = gaussian(rng, (4, 8))
    params, xi = init_params(arch, 4, seed=4)
    base = loss(FieldMatrix(grid, x), params, arch, xi)
    scaled = loss(FieldMatrix(grid, 2.0 * x), params, arch, 2.0 * xi)
    assert scaled.total == 16.0 * base.total
    assert scaled.term_xx == 16.0 * base.term_xx
    assert scaled.term_gg == 16.0 * base.term_gg
    assert scaled.term_xg == 16.0 * base.term_xg


def test_adam_first_step_magnitude():
    state = AdamState.zeros(1)
    theta = adam_step(np.zeros(1), np.ones(1), state, 0.05, 0.9, 0.999, 1e-8, t=1)
    assert theta[0] == pytest.approx(-0.05, rel=1e-6)


def test_adam_zero_gradient_keeps_parameters():
    state = AdamState.zeros(3)
    theta = np.array([1.0, -2.0, 0.5])
    out = adam_step(theta, np.zeros(3), state, 0.1, 0.9, 0.999, 1e-8, t=1)
    np.testing.assert_array_equal(out, theta)


def test_adam_antisymmetric_gradients():
    state = AdamState.zeros(2)
    g = np.array([0.37, -0.37])
    out = adam_step(np.zeros(2), g, state, 0.01, 0.9, 0.999, 1e-8, t=1)
    assert out[0] == -out[1]


def test_adam_rejects_bad_step_index():
    with pytest.raises(ValueError):
        adam_step(np.zeros(1), np.zeros(1), AdamState.zeros(1), 0.1, 0.9, 0.999, 1e-8, 0)


def test_fit_deterministic():
    grid = make_grid(1, [10])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 12, seed=5)
    cfg = TrainConfig(epochs=50, seed=2)
    arch = Architecture.shallow(2, 1)
    m1, t1 = fit(f, arch, cfg)
    m2, t2 = fit(f, arch, cfg)
    assert np.array_equal(t1, t2)
    assert np.array_equal(m1.lam, m2.lam)
    assert np.array_equal(pack_params(m1.params), pack_params(m2.params))


def test_fit_rank_one_data_sanity():
    grid = make_grid(1, [16])
    rng = make_rng(31)
    direction = np.sin(np.pi * grid.coordinates().ravel()) + 1.2
    scores = gaussian(rng, (20, 1))
    f = FieldMatrix(grid, scores @ direction[None, :])
    model, trace = fit(f, Architecture.shallow(2, 1), TrainConfig(epochs=2000, seed=1))
    assert trace[-1, 0] < 0.05 * trace[0, 0]


def test_fit_beats_zero_model():
    grid = make_grid(2, [6, 6])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 30, seed=9)
    model, trace = fit(f, Architecture.shallow(3, 2), TrainConfig(epochs=800, seed=0))
    # || Ghat - C_N ||^2 (= final loss) must beat the zero model's || C_N ||^2
    assert trace[-1, 0] <= trace[0, 1]  # term_xx equals || C_N ||_2^2


def test_fit_running_minimum_non_increasing():
    grid = make_grid(1, [8])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 10, seed=3)
    _, trace = fit(f, Architecture.deepshared(2, 1, 2), TrainConfig(epochs=120, seed=1))
    totals = trace[:, 0]
    running = np.minimum.accumulate(totals)
    assert np.all(np.diff(running) <= 0)


def test_fit_frozen_lambda_psd():
    grid = make_grid(1, [8])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 10, seed=4)
    for mode in ("pre_center", "joint_mean"):
        model, _ = fit(
            f,
            Architecture.shallow(3, 1),
            TrainConfig(epochs=60, seed=2, center_mode=mode),
        )
        assert np.linalg.eigvalsh(model.lam)[0] >= -1e-10 * np.trace(model.lam)
        if mode == "joint_mean":
            assert model.mean_coeffs is not None
        else:
            assert model.mean_coeffs is None


def test_fit_joint_mean_estimates_mean():
    grid = make_grid(1, [12])
    rng = make_rng(41)
    mean_curve = 1.5 + grid.coordinates().ravel()
    x = 0.05 * gaussian(rng, (40, 12)) + mean_curve
    f = FieldMatrix(grid, x)
    model, _ = fit(
        f,
        Architecture.shallow(3, 1),
        TrainConfig(epochs=3000, seed=3, center_mode="joint_mean"),
    )
    est = model.mean_at(grid.coordinates())
    rel = np.linalg.norm(est - mean_curve) / np.linalg.norm(mean_curve)
    assert rel < 0.05


def test_fit_minibatch_runs_and_is_deterministic():
    grid = make_grid(1, [10])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 16, seed=6)
    cfg = TrainConfig(epochs=40, seed=1, batch=5)
    arch = Architecture.shallow(2, 1)
    m1, t1 = fit(f, arch, cfg)
    m2, t2 = fit(f, arch, cfg)
    assert np.array_equal(t1, t2)
    assert np.array_equal(m1.lam, m2.lam)


def test_fit_minibatch_self_term_matches_per_batch_data_term():
    grid = make_grid(1, [10])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 17, seed=8)
    cfg = TrainConfig(epochs=6, seed=4, batch=5, rel_tol=0.0)
    _, trace = fit(f, Architecture.shallow(2, 1), cfg)
    x = f.values - f.values.mean(axis=0)
    # the batches of fit: one permutation per epoch from stream 1, 1-row
    # remainders skipped
    batch_rng = make_rng(cfg.seed, stream=1)
    for epoch in range(cfg.epochs):
        perm = batch_rng.permutation(f.n)
        terms = [
            data_self_term(FieldMatrix(grid, x[idx]))
            for idx in (perm[s : s + cfg.batch] for s in range(0, f.n, cfg.batch))
            if idx.size >= 2
        ]
        assert trace[epoch, 1] == pytest.approx(np.mean(terms), rel=1e-12)
    assert trace[-1, 1] == pytest.approx(data_self_term(FieldMatrix(grid, x)), rel=1e-12)


def test_train_config_rejects_batch_of_one():
    with pytest.raises(ValueError, match="at least 2"):
        TrainConfig(batch=1)
    assert TrainConfig(batch=2).batch == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_divergence_guard():
    # an absurd step size makes the coefficient magnitudes outrun the data
    # scale, and the quartic self-term blows past 1e6 x the initial loss
    grid = make_grid(1, [6])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 8, seed=7)
    with pytest.raises(TrainingDivergedError) as err:
        fit(f, Architecture.shallow(2, 1), TrainConfig(epochs=4000, lr=15.0, seed=0))
    assert err.value.epoch >= 0


def test_fit_needs_two_samples():
    grid = make_grid(1, [4])
    f = FieldMatrix(grid, np.ones((1, 4)))
    with pytest.raises(ValueError):
        fit(f, Architecture.shallow(1, 1), TrainConfig(epochs=5))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(center_mode="bogus")
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
