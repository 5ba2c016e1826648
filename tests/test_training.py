import numpy as np
import pytest

from covnet import training
from covnet.errors import TrainingDivergedError
from covnet.fields import FieldMatrix, make_grid
from covnet.model import (
    Architecture,
    _param_views,
    _walk,
    eval_constituents,
    init_params,
)
from covnet.rng import gaussian, make_rng
from covnet.simulate import BrownianSheet, sample_gaussian_fields
from covnet.training import (
    ADAM_EPS,
    BETA1,
    BETA2,
    TrainConfig,
    _core,
    _fit_lockstep,
    adam_step,
    data_self_term,
    fit,
    gradients,
    loss,
)

ARCHS = {
    "shallow": lambda r, d: Architecture.shallow(r, d),
    "deep": lambda r, d: Architecture.deep(r, d, 2),
    "deepshared": lambda r, d: Architecture.deepshared(r, d, 2),
}


def dense_loss_oracle(f, params, arch, xi):
    """Direct D x D Frobenius computation of the same criterion."""
    x = f.values
    n, n_points = x.shape
    z = eval_constituents(params, arch, f.grid.coordinates())
    y = xi @ z.T
    return np.linalg.norm(x.T @ x / n - y.T @ y / n, "fro") ** 2 / n_points**2


def with_random_biases(params, arch, seed):
    """A copy of params with every bias drawn from N(0, 1); init_params leaves them 0."""
    params = params.copy()
    rng = make_rng(seed)
    for _, b in _param_views(params, arch):
        b[...] = gaussian(rng, b.shape)
    return params


def perfect_fit_case(seed=0):
    """Data constructed to equal the fitted fields exactly (loss zero)."""
    arch = Architecture.shallow(3, 1)
    grid = make_grid(1, [12])
    params, _ = init_params(arch, 3, seed=seed)
    xi = np.eye(3) + 0.1
    f = FieldMatrix(grid, xi @ eval_constituents(params, arch, grid.coordinates()).T)
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
        for p in (params, with_random_biases(params, arch, seed=10 + trial)):
            got = loss(f, p, arch, 2.0 * xi).total
            oracle = dense_loss_oracle(f, p, arch, 2.0 * xi)
            assert got == pytest.approx(oracle, rel=1e-8)


def test_loss_never_materializes_dense_objects():
    # indirect check: a grid big enough that a D x D array would be 1.8 GB
    grid = make_grid(2, [120, 125])
    f = FieldMatrix(grid, gaussian(make_rng(4), (3, grid.n_points)))
    arch = Architecture.shallow(2, 2)
    params, xi = init_params(arch, 3, seed=0)
    b = loss(f, params, arch, xi)
    assert np.isfinite(b.total)


def test_gradient_zero_at_perfect_fit():
    f, params, arch, xi = perfect_fit_case(seed=7)
    _, dxi = gradients(f, params, arch, xi)
    assert np.abs(dxi).max() <= 1e-8


def assert_gradients_match_central_differences(f, params, arch, xi):
    n, n_net = f.n, params.size

    def total_at(vec):
        q = vec[n_net:].reshape(n, arch.r)
        return loss(f, vec[:n_net], arch, q).total

    dparams, dxi = gradients(f, params, arch, xi)
    analytic = np.concatenate([dparams, dxi.ravel()])
    theta = np.concatenate([params, xi.ravel()])
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


@pytest.mark.parametrize("biases", ["initial", "random"])
@pytest.mark.parametrize("variant", list(ARCHS))
def test_gradients_match_central_differences(variant, biases):
    rng = make_rng(11)
    grid = make_grid(2, [4, 4])
    arch = ARCHS[variant](2, 2)
    n = 4
    x = gaussian(rng, (n, 16))
    f = FieldMatrix(grid, x - x.mean(axis=0))
    params, xi = init_params(arch, n, seed=8)
    p = params if biases == "initial" else with_random_biases(params, arch, seed=12)
    assert_gradients_match_central_differences(f, p, arch, xi)


@pytest.mark.parametrize("variant", ["shallow", "deep"])
def test_gradients_match_central_differences_over_two_point_blocks(variant):
    # 65 x 64 = 4160 points walk as blocks of 4096 and 64; the second block
    # adds its layer gradients to the first's
    grid = make_grid(2, [65, 64])
    arch = ARCHS[variant](2, 2)
    n = 4
    x = gaussian(make_rng(14), (n, grid.n_points))
    f = FieldMatrix(grid, x - x.mean(axis=0))
    params, xi = init_params(arch, n, seed=9)
    assert_gradients_match_central_differences(f, with_random_biases(params, arch, 15), arch, xi)


def x_transpose_dz(x, points, params, arch, xi):
    """dl/dZ formed as Z (S Gz S) - X^T (P S), the orientation of the derivation."""
    n, n_points = x.shape
    z = eval_constituents(params, arch, points)
    gz = z.T @ z / n_points
    s = xi.T @ xi
    p = x @ z / n_points
    return (4.0 / (n**2 * n_points)) * (z @ (s @ gz @ s) - x.T @ (p @ s))


DZ_CASES = {
    # architecture, minibatch size
    "shallow": (Architecture.shallow(6, 2), None),
    "deep": (Architecture.deep(4, 2, 3), None),
    "deepshared": (Architecture.deepshared(5, 2, 2), None),
    "minibatch": (Architecture.shallow(6, 2), 7),
    "deep_minibatch": (Architecture.deep(4, 2, 3), 7),
}


@pytest.mark.parametrize("case", list(DZ_CASES))
def test_core_dz_matches_the_x_transpose_orientation(case, monkeypatch):
    arch, batch = DZ_CASES[case]
    grid = make_grid(2, [9, 8])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 30, seed=21)
    x = f.centered().values
    params, xi = init_params(arch, f.n, seed=22)
    if batch is not None:  # the rows fit passes for one minibatch
        idx = make_rng(23).permutation(f.n)[:batch]
        x, xi = x[idx], xi[idx]
    points = grid.coordinates()
    seen = []
    backward = training.backward_constituents

    def capture(params, arch, cache, dz):
        seen.append(dz.copy())
        return backward(params, arch, cache, dz)

    monkeypatch.setattr(training, "backward_constituents", capture)
    _, [dparams], _ = _core(x, points, [params], [arch], [xi], 0.0, want_grads=True)
    [got] = seen
    want = x_transpose_dz(x, points, params, arch, xi)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    cache = []
    _walk(params, arch, points, cache)
    want_params = backward(params, arch, cache, want)
    assert np.abs(dparams - want_params).max() <= 1e-13 * np.abs(want_params).max()


@pytest.mark.parametrize("variant", list(ARCHS))
def test_fit_trace_row_zero_is_the_initial_loss_bit_for_bit(variant):
    grid = make_grid(2, [6, 5])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 14, seed=24)
    arch = ARCHS[variant](3, 2)
    cfg = TrainConfig(epochs=3, seed=6)
    _, trace = fit(f, arch, cfg)
    params, xi = init_params(arch, f.n, cfg.seed)
    b = loss(f.centered(), params, arch, xi)
    assert trace[0].tolist() == [b.total, b.term_xx, b.term_gg, b.term_xg]


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


def adam_reference(theta, grad, m, v, lr, t):
    """The textbook ADAM update, returning new (theta, m, v)."""
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    mhat = m / (1.0 - BETA1**t)
    vhat = v / (1.0 - BETA2**t)
    return theta - lr * mhat / (np.sqrt(vhat) + ADAM_EPS), m, v


def test_adam_step_matches_reference_formula_bit_for_bit():
    rng = make_rng(41)
    theta = gaussian(rng, (257,))
    m, v = np.zeros(257), np.zeros(257)
    ref_theta, ref_m, ref_v = theta.copy(), m.copy(), v.copy()
    for t in (1, 2, 3, 7, 50, 1000):
        grad = gaussian(rng, (257,)) * 10.0 ** rng.integers(-8, 3, 257)
        grad[:3] = 0.0
        before = theta.copy()
        new = adam_step(theta, grad, m, v, 3e-3, t)
        np.testing.assert_array_equal(theta, before)
        assert not np.shares_memory(new, theta)
        theta = new
        ref_theta, ref_m, ref_v = adam_reference(ref_theta, grad, ref_m, ref_v, 3e-3, t)
        np.testing.assert_array_equal(theta, ref_theta)
        np.testing.assert_array_equal(m, ref_m)
        np.testing.assert_array_equal(v, ref_v)


def test_adam_first_step_magnitude():
    theta = adam_step(np.zeros(1), np.ones(1), np.zeros(1), np.zeros(1), 0.05, t=1)
    assert theta[0] == pytest.approx(-0.05, rel=1e-6)


def test_adam_zero_gradient_keeps_parameters():
    theta = np.array([1.0, -2.0, 0.5])
    out = adam_step(theta, np.zeros(3), np.zeros(3), np.zeros(3), 0.1, t=1)
    np.testing.assert_array_equal(out, theta)


def test_adam_antisymmetric_gradients():
    g = np.array([0.37, -0.37])
    out = adam_step(np.zeros(2), g, np.zeros(2), np.zeros(2), 0.01, t=1)
    assert out[0] == -out[1]


def test_adam_rejects_bad_step_index():
    with pytest.raises(ValueError):
        adam_step(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), 0.1, 0)


def test_fit_deterministic():
    grid = make_grid(1, [10])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 12, seed=5)
    cfg = TrainConfig(epochs=50, seed=2)
    arch = Architecture.shallow(2, 1)
    m1, t1 = fit(f, arch, cfg)
    m2, t2 = fit(f, arch, cfg)
    assert np.array_equal(t1, t2)
    assert np.array_equal(m1.lam, m2.lam)
    assert np.array_equal(m1.params, m2.params)


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


@pytest.mark.parametrize("variant", list(ARCHS))
def test_fit_frozen_lambda_psd(variant):
    grid = make_grid(1, [8])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 10, seed=4)
    model, _ = fit(f, ARCHS[variant](3, 1), TrainConfig(epochs=60, seed=2))
    assert np.linalg.eigvalsh(model.lam)[0] >= -1e-10 * np.trace(model.lam)


@pytest.mark.parametrize("batch", [None, 7])
@pytest.mark.parametrize("variant", list(ARCHS))
def test_fit_freezes_lambda_as_the_second_moment_of_its_final_coefficients(
    variant, batch, monkeypatch
):
    # Lambda = Xi^T Xi / N, uncentered: the S = Xi^T Xi that every trace row scores
    grid = make_grid(2, [7, 6])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 20, seed=13)
    final_xi = []
    freeze = training._freeze

    def capture(x, points, params, arch, xi, term_xx, trace_rows):
        final_xi.append(xi.copy())
        return freeze(x, points, params, arch, xi, term_xx, trace_rows)

    monkeypatch.setattr(training, "_freeze", capture)
    model, _ = fit(f, ARCHS[variant](3, 2), TrainConfig(epochs=40, seed=2, batch=batch))
    [xi] = final_xi
    assert np.abs(xi.mean(axis=0)).max() > 1e-3  # centering them would change Lambda
    s = xi.T @ xi / f.n
    np.testing.assert_array_equal(model.lam, 0.5 * s + 0.5 * s.T)


def test_fit_ignores_the_mean_field():
    # every fit centers by the sample mean, so a mean curve added to every
    # field changes the fit only by the rounding of the centered values
    grid = make_grid(1, [12])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 40, seed=41)
    mean_curve = 1.5 + grid.coordinates().ravel()
    shifted = FieldMatrix(grid, f.values + mean_curve)
    cfg = TrainConfig(epochs=200, seed=3)
    arch = Architecture.shallow(3, 1)
    assert_same_fit(fit(shifted, arch, cfg), fit(f, arch, cfg), rtol=1e-10)


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


def test_fit_minibatch_gradient_is_zero_outside_the_batch(monkeypatch):
    grid = make_grid(1, [10])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 11, seed=9)
    arch = Architecture.shallow(2, 1)
    cfg = TrainConfig(epochs=3, seed=5, batch=4, rel_tol=0.0)
    grads = []
    step = training.adam_step

    def capture(theta, grad, m, v, lr, t):
        if grad.shape == (f.n, arch.r):  # the coefficients' step, not the parameters'
            grads.append(grad.copy())
        return step(theta, grad, m, v, lr, t)

    monkeypatch.setattr(training, "adam_step", capture)
    fit(f, arch, cfg)
    # fit's batches: 4, 4 and 3 samples per epoch from stream 1
    batch_rng = make_rng(cfg.seed, stream=1)
    batches = [
        perm[s : s + cfg.batch]
        for perm in (batch_rng.permutation(f.n) for _ in range(cfg.epochs))
        for s in range(0, f.n, cfg.batch)
    ]
    assert len(grads) == len(batches) == 9
    for grad_xi, idx in zip(grads, batches):
        outside = np.setdiff1d(np.arange(f.n), idx)
        np.testing.assert_array_equal(grad_xi[outside], 0.0)
        assert np.all(np.abs(grad_xi[idx]).sum(axis=1) > 0)


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def assert_same_fit(got, want, rtol=1e-12):
    """Two (model, trace) outcomes agree to rtol: trace rows, parameters, Lambda."""
    (got_model, got_trace), (want_model, want_trace) = got, want
    assert got_model.arch == want_model.arch
    assert_close(got_trace, want_trace, rtol)
    assert_close(got_model.params, want_model.params, rtol)
    assert_close(got_model.lam, want_model.lam, rtol)


LOCKSTEP_ARCHS = [
    Architecture.shallow(5, 2),
    Architecture.deep(3, 2, 2),
    Architecture.deepshared(4, 2, 2),
    Architecture.shallow(2, 2),
]
LOCKSTEP_CONFIGS = {
    "full_batch": TrainConfig(epochs=60, seed=3, rel_tol=0.0),
    "minibatch": TrainConfig(epochs=30, seed=3, rel_tol=0.0, batch=7),
}


@pytest.mark.parametrize("case", list(LOCKSTEP_CONFIGS))
def test_lockstep_fit_matches_each_solo_fit(case):
    grid = make_grid(2, [9, 8])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 23, seed=31)
    cfg = LOCKSTEP_CONFIGS[case]
    outcomes = _fit_lockstep(f, LOCKSTEP_ARCHS, cfg)
    for arch, got in zip(LOCKSTEP_ARCHS, outcomes):
        assert_same_fit(got, fit(f, arch, cfg))


def test_lockstep_candidates_stop_when_their_solo_fits_stop():
    grid = make_grid(2, [7, 6])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 20, seed=33)
    cfg = TrainConfig(epochs=400, seed=4, rel_tol=0.03)
    solo = [fit(f, arch, cfg) for arch in LOCKSTEP_ARCHS]
    lengths = [len(trace) for _, trace in solo]
    # some stop early, at different epochs, while others run out of epochs
    assert len(set(lengths)) > 2 and max(lengths) == cfg.epochs + 1
    for got, want in zip(_fit_lockstep(f, LOCKSTEP_ARCHS, cfg), solo):
        assert len(got[1]) == len(want[1])
        assert_same_fit(got, want)


def poison_constituents(monkeypatch, doomed: Architecture, after: int) -> None:
    """Make `doomed`'s training constituents NaN from its after-th training walk on.

    Only walks that fill an activation cache are training walks; the loss
    evaluation of a freeze passes none and stays clean.
    """
    real = training._walk
    seen = []

    def walk(params, arch, points, cache=None):
        z = real(params, arch, points, cache)
        if cache is not None and arch == doomed:
            seen.append(None)
            if len(seen) > after:
                z = np.full_like(z, np.nan)
        return z

    monkeypatch.setattr(training, "_walk", walk)


@pytest.mark.parametrize("batch", [None, 6])
def test_lockstep_candidate_that_diverges_leaves_the_others_as_they_were(batch, monkeypatch):
    grid = make_grid(2, [8, 8])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 18, seed=35)
    cfg = TrainConfig(epochs=40, seed=5, rel_tol=0.0, batch=batch)
    others = [Architecture.shallow(4, 2), Architecture.deepshared(3, 2, 2)]
    doomed = Architecture.deep(2, 2, 2)
    want = _fit_lockstep(f, others, cfg)
    steps_per_epoch = 1 if batch is None else 3
    poison_constituents(monkeypatch, doomed, after=12 * steps_per_epoch)
    got = _fit_lockstep(f, [others[0], doomed, others[1]], cfg)
    assert isinstance(got[1], TrainingDivergedError)
    assert got[1].epoch == 12
    assert_same_fit(got[0], want[0])
    assert_same_fit(got[2], want[1])
    # the one-candidate case raises what the lockstep run records
    with pytest.raises(TrainingDivergedError):
        fit(f, doomed, cfg)


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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(lr=bad)
        with pytest.raises(ValueError):
            TrainConfig(rel_tol=bad)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
