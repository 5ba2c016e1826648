import math
import warnings

import numpy as np
import pytest

from covnet.errors import ModelFormatError
from covnet.fields import make_grid
from covnet.model import (
    _param_arrays,
    _sigmoid,
    Architecture,
    DeepSharedParams,
    FittedCovariance,
    ShallowParams,
    census,
    count_parameters,
    eval_constituents,
    fitted_fields,
    init_params,
    lambda_from_coefficients,
    load_model,
    pack_params,
    save_model,
    unpack_params,
)
from covnet.rng import gaussian, make_rng


def sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t))


def random_psd(r, seed, spread=1.0):
    a = gaussian(make_rng(seed), (r, r))
    lam = a @ a.T / r + spread * np.diag(np.linspace(1.0, 0.1, r))
    return (lam + lam.T) / 2


def random_model(arch, seed, spread=1.0):
    params, _ = init_params(arch, 4, seed)
    return FittedCovariance(arch, params, random_psd(arch.r, seed + 1, spread))


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture("shallow", 0, 2)
    with pytest.raises(ValueError):
        Architecture("deep", 2, 2)  # missing widths
    with pytest.warns(UserWarning):
        Architecture.deep(2, 2, depth=1)


def test_init_deterministic():
    arch = Architecture.deepshared(3, 2, 2)
    p1, xi1 = init_params(arch, 5, seed=9)
    p2, xi2 = init_params(arch, 5, seed=9)
    assert np.array_equal(pack_params(p1), pack_params(p2))
    assert np.array_equal(xi1, xi2)


def test_init_shallow_shapes():
    params, xi = init_params(Architecture.shallow(3, 2), 4, seed=0)
    assert params.w.shape == (3, 2)
    assert params.b.shape == (3,)
    assert np.all(params.b == 0)
    assert xi.shape == (4, 3)


def test_init_xi_variance():
    r = 5
    _, xi = init_params(Architecture.shallow(r, 2), 10000, seed=1)
    var = xi.var(axis=0)
    assert np.all(np.abs(var - 1 / r) <= 0.2 / r)


def test_shallow_zero_params_give_half():
    arch = Architecture.shallow(3, 2)
    params = ShallowParams(np.zeros((3, 2)), np.zeros(3))
    z = eval_constituents(params, arch, np.array([[0.2, 0.9], [0.5, 0.5]]))
    np.testing.assert_array_equal(z, 0.5)


def reference_sigmoid(t):
    """1 / (1 + exp(-t)) in IEEE arithmetic: exp(-t) overflowing gives 0."""
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0


def test_sigmoid_matches_scalar_reference():
    t = np.linspace(-745.0, 745.0, 20_001)
    got = _sigmoid(t.copy())
    want = [reference_sigmoid(x) for x in t]
    # relative to 1e-15 where the result is a normal float, absolutely tight
    # (smallest normal) in the subnormal tail below t = -708
    assert got.tolist() == pytest.approx(want, rel=1e-15, abs=np.finfo(float).tiny)


def test_sigmoid_saturates_exactly_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = _sigmoid(np.array([-1e6, 1e6, -np.inf, np.inf]))
    assert z.tolist() == [0.0, 1.0, 0.0, 1.0]


@pytest.mark.parametrize("variant", ["shallow", "deep", "deepshared"])
def test_forward_leaves_points_unmodified(variant):
    arch = {
        "shallow": Architecture.shallow(3, 2),
        "deep": Architecture.deep(2, 2, 2),
        "deepshared": Architecture.deepshared(3, 2, 2),
    }[variant]
    params, _ = init_params(arch, 2, seed=4)
    points = make_rng(5).random((50, 2))
    before = points.copy()
    eval_constituents(params, arch, points)
    np.testing.assert_array_equal(points, before)


def test_deepshared_zero_params_match_scalar_recursion():
    arch = Architecture.deepshared(2, 2, 3, width=4)
    params = DeepSharedParams(
        [np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((4, 4))],
        [np.zeros(4), np.zeros(4), np.zeros(4)],
        np.zeros((2, 4)),
        np.zeros(2),
    )
    z = eval_constituents(params, arch, np.array([[0.3, 0.8]]))
    # zero weights erase each previous layer, so every layer emits sigma(0)
    np.testing.assert_array_equal(z, sigmoid(0.0))


def test_deepshared_nonzero_matches_scalar_recursion():
    # width-1 trunk wired with scalar weights reproduces a scalar recursion
    arch = Architecture.deepshared(1, 1, 2, width=1)
    w1, b1, w2, b2, wo, bo = 0.7, -0.2, 1.3, 0.4, -0.9, 0.1
    params = DeepSharedParams(
        [np.array([[w1]]), np.array([[w2]])],
        [np.array([b1]), np.array([b2])],
        np.array([[wo]]),
        np.array([bo]),
    )
    u = 0.6
    expected = sigmoid(wo * sigmoid(w2 * sigmoid(w1 * u + b1) + b2) + bo)
    z = eval_constituents(params, arch, np.array([[u]]))
    assert z[0, 0] == pytest.approx(expected, rel=1e-15)


def test_deep_matches_composed_shallow_structure():
    # a deep net evaluated layer by layer with plain numpy as the oracle
    arch = Architecture.deep(2, 2, 2, width=3)
    params, _ = init_params(arch, 3, seed=5)
    pts = gaussian(make_rng(6), (4, 2))
    z = eval_constituents(params, arch, pts)
    for r, net in enumerate(params.nets):
        a = pts
        for w, b in zip(net.weights, net.biases):
            a = 1 / (1 + np.exp(-(a @ w.T + b)))
        zr = 1 / (1 + np.exp(-(a @ net.w_out + net.b_out)))
        np.testing.assert_allclose(z[:, r], zr, rtol=1e-15)


def test_constituents_within_sigmoid_bounds():
    for arch in (
        Architecture.shallow(4, 2),
        Architecture.deep(3, 2, 2),
        Architecture.deepshared(3, 2, 2),
    ):
        params, _ = init_params(arch, 3, seed=2)
        z = eval_constituents(params, arch, gaussian(make_rng(3), (20, 2)))
        assert np.all(z >= 1e-300)
        assert np.all(z <= 1 - 1e-16)


def test_eval_rejects_bad_shape():
    arch = Architecture.shallow(2, 3)
    params, _ = init_params(arch, 2, seed=0)
    with pytest.raises(ValueError):
        eval_constituents(params, arch, np.ones((4, 2)))


def test_fitted_fields_identity_selector():
    arch = Architecture.shallow(3, 1)
    params, _ = init_params(arch, 3, seed=1)
    grid = make_grid(1, [6])
    f = fitted_fields(params, arch, np.eye(3), grid)
    z = eval_constituents(params, arch, grid.coordinates())
    np.testing.assert_array_equal(f.values, z.T)


def test_fitted_fields_zero_coefficients():
    arch = Architecture.shallow(2, 1)
    params, _ = init_params(arch, 2, seed=1)
    f = fitted_fields(params, arch, np.zeros((4, 2)), make_grid(1, [5]))
    np.testing.assert_array_equal(f.values, 0.0)


def test_fitted_fields_matches_double_loop():
    arch = Architecture.shallow(2, 1)
    params, xi = init_params(arch, 3, seed=4)
    grid = make_grid(1, [4])
    got = fitted_fields(params, arch, xi, grid).values
    z = eval_constituents(params, arch, grid.coordinates())
    oracle = np.zeros((3, 4))
    for n in range(3):
        for i in range(4):
            for r in range(2):
                oracle[n, i] += xi[n, r] * z[i, r]
    np.testing.assert_allclose(got, oracle, rtol=1e-14)


def test_lambda_centered_variance():
    lam = lambda_from_coefficients(np.array([[1.0], [-1.0]]), center=True)
    np.testing.assert_allclose(lam, [[1.0]])


def test_lambda_zero():
    np.testing.assert_array_equal(lambda_from_coefficients(np.zeros((4, 3))), 0.0)


def test_lambda_is_psd():
    xi = gaussian(make_rng(8), (6, 3))
    for center in (True, False):
        lam = lambda_from_coefficients(xi, center)
        assert np.linalg.eigvalsh(lam)[0] >= -1e-12


def test_kernel_constant_model():
    arch = Architecture.shallow(1, 2)
    model = FittedCovariance(
        arch, ShallowParams(np.zeros((1, 2)), np.zeros(1)), np.array([[4.0]])
    )
    assert model.kernel_at([0.1, 0.2], [0.9, 0.3]) == 1.0


def test_kernel_diag_nonnegative():
    model = random_model(Architecture.deepshared(4, 2, 2), seed=3)
    pts = np.random.Generator(np.random.Philox(key=4)).random((30, 2))
    assert np.all(model.kernel_pairs(pts, pts) >= 0)


def test_kernel_matches_double_sum_oracle():
    model = random_model(Architecture.deep(3, 2, 2), seed=6)
    rng = make_rng(7)
    for _ in range(10):
        u = rng.random(2)
        v = rng.random(2)
        gu = model.constituents(u[None, :])[0]
        gv = model.constituents(v[None, :])[0]
        oracle = sum(
            model.lam[r, s] * gu[r] * gv[s] for r in range(3) for s in range(3)
        )
        assert model.kernel_at(u, v) == pytest.approx(oracle, rel=1e-13)


def test_kernel_swap_symmetry_bit_exact():
    model = random_model(Architecture.shallow(5, 3), seed=9)
    rng = make_rng(10)
    u = rng.random((40, 3))
    v = rng.random((40, 3))
    np.testing.assert_array_equal(model.kernel_pairs(u, v), model.kernel_pairs(v, u))


def test_kernel_nonnegative_definite_on_samples():
    model = random_model(Architecture.deepshared(3, 2, 2), seed=11)
    rng = make_rng(12)
    for m in (1, 7, 50):
        pts = rng.random((m, 2))
        z = model.constituents(pts)
        gram = z @ model.lam @ z.T
        for _ in range(5):
            alpha = gaussian(rng, m)
            quad = alpha @ gram @ alpha
            assert quad >= -1e-10 * (alpha @ alpha)


def test_parameter_census_matches_formulas():
    cases = [
        Architecture.shallow(4, 3),
        Architecture.deep(3, 2, 2),
        Architecture.deep(2, 3, 3, width=4),
        Architecture.deepshared(5, 2, 2),
        Architecture.deepshared(3, 3, 4, width=2),
    ]
    for arch in cases:
        params, _ = init_params(arch, 3, seed=0)
        lam_terms = arch.r * (arch.r + 1) // 2
        assert census(params) + lam_terms == count_parameters(arch)
        assert census(params) == count_parameters(arch, include_lambda=False)


def test_pack_unpack_roundtrip():
    for arch in (
        Architecture.shallow(3, 2),
        Architecture.deep(2, 2, 2),
        Architecture.deepshared(4, 3, 2),
    ):
        params, _ = init_params(arch, 2, seed=13)
        vec = pack_params(params)
        back = pack_params(unpack_params(vec, arch))
        assert np.array_equal(vec, back)


def test_unpack_returns_views_into_vector():
    for arch in (
        Architecture.shallow(3, 2),
        Architecture.deep(2, 2, 2),
        Architecture.deepshared(4, 3, 2),
    ):
        params, _ = init_params(arch, 2, seed=13)
        vec = pack_params(params)
        unpacked = unpack_params(vec, arch)
        for array in _param_arrays(unpacked):
            assert np.shares_memory(array, vec)
        assert np.array_equal(pack_params(unpacked), vec)
        with pytest.raises(ValueError):
            unpack_params(vec[:-1], arch)


def test_fitted_covariance_rejects_non_psd():
    arch = Architecture.shallow(2, 1)
    params, _ = init_params(arch, 2, seed=0)
    with pytest.raises(ValueError):
        FittedCovariance(arch, params, np.array([[1.0, 0.0], [0.0, -0.1]]))


@pytest.mark.parametrize("variant", ["shallow", "deep", "deepshared"])
def test_save_load_roundtrip_bit_exact(variant, tmp_path):
    arch = {
        "shallow": Architecture.shallow(3, 2),
        "deep": Architecture.deep(2, 2, 2),
        "deepshared": Architecture.deepshared(3, 2, 2),
    }[variant]
    params, xi = init_params(arch, 6, seed=21)
    model = FittedCovariance(
        arch,
        params,
        lambda_from_coefficients(xi),
        mean_coeffs=xi.mean(axis=0) if variant == "deepshared" else None,
    )
    path = tmp_path / "m.cvn"
    save_model(path, model)
    back = load_model(path)
    assert back.arch == arch
    assert np.array_equal(pack_params(back.params), pack_params(model.params))
    assert np.array_equal(back.lam, model.lam)
    if model.mean_coeffs is not None:
        assert np.array_equal(back.mean_coeffs, model.mean_coeffs)
    rng = make_rng(22)
    u = rng.random((100, 2))
    v = rng.random((100, 2))
    np.testing.assert_array_equal(back.kernel_pairs(u, v), model.kernel_pairs(u, v))


def test_load_rejects_tampered_lambda(tmp_path):
    arch = Architecture.shallow(2, 2)
    params, xi = init_params(arch, 5, seed=1)
    model = FittedCovariance(arch, params, lambda_from_coefficients(xi))
    path = tmp_path / "m.cvn"
    save_model(path, model)
    text = path.read_text().splitlines()
    # lambda block holds the lower triangle; poison the last diagonal entry
    idx = text.index("lambda 2")
    text[idx + 2] = text[idx + 2].rsplit(" ", 1)[0] + " -0.1"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "m.cvn"
    path.write_text("covnet-model v9\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_model_file_size_grid_independent(tmp_path):
    arch = Architecture.shallow(40, 3)
    params, xi = init_params(arch, 50, seed=2)
    model = FittedCovariance(arch, params, lambda_from_coefficients(xi))
    path = tmp_path / "m.cvn"
    save_model(path, model)
    # 40*3 + 40 + 820 floats at <= 25 bytes each stays far below 100 KB
    assert path.stat().st_size < 100_000
