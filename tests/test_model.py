import math
import warnings

import numpy as np
import pytest

from conftest import second_moment
from covnet.errors import ModelFormatError
from covnet.fields import FieldMatrix, make_grid
from covnet.model import (
    _layer_shapes,
    _negated_layers,
    _param_views,
    _sigmoid_of_negated,
    _walk,
    Architecture,
    FittedCovariance,
    backward_constituents,
    count_parameters,
    eval_constituents,
    init_params,
    load_model,
    save_model,
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
        Architecture("deep", 2, 2)  # missing depth
    with pytest.raises(ValueError):
        Architecture("shallow", 2, 2, 1)


@pytest.mark.parametrize(
    "args",
    [
        ("shallow", 2.5, 2),
        ("shallow", 2, 2.0),
        ("shallow", True, 2),
        ("deep", 3, 2, 2.0),
        ("deepshared", 3, 2, True),
        ("deep", 3, np.float64(2.0), 2),
    ],
)
def test_architecture_refuses_sizes_that_are_not_integers(args):
    with pytest.raises(ValueError, match="must be an integer"):
        Architecture(*args)


def test_architecture_takes_numpy_integers():
    arch = Architecture.deep(np.int64(3), np.int32(2), np.int64(2))
    assert count_parameters(arch) == count_parameters(Architecture.deep(3, 2, 2))


def test_init_deterministic():
    arch = Architecture.deepshared(3, 2, 2)
    p1, xi1 = init_params(arch, 5, seed=9)
    p2, xi2 = init_params(arch, 5, seed=9)
    assert np.array_equal(p1, p2)
    assert np.array_equal(xi1, xi2)


def test_init_shallow_shapes():
    arch = Architecture.shallow(3, 2)
    params, xi = init_params(arch, 4, seed=0)
    [(w, b)] = _param_views(params, arch)
    # one group: the output layer of the single shared stack
    assert w[0].shape == (3, 2)
    assert b[0].shape == (3,)
    assert xi.shape == (4, 3)
    # each unit's hyperplane w . u + b = 0 cuts the unit square
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    pre = corners @ w[0].T + b[0]
    assert np.all(pre.min(axis=0) < 0) and np.all(pre.max(axis=0) > 0)


@pytest.mark.parametrize(
    "arch",
    [Architecture.shallow(20, 2), Architecture.deepshared(10, 2, 2), Architecture.deep(20, 2, 3)],
    ids=["shallow", "deepshared", "deep"],
)
@pytest.mark.parametrize("seed", range(1, 6))
def test_init_spans_more_than_affine_functions(arch, seed):
    # constituents close to a + b . u would give the Gram Z^T Z / D about
    # 3 = d + 1 eigenvalues above 1e-6 of its largest
    points = make_grid(2, [25, 25]).coordinates()
    params, _ = init_params(arch, 3, seed)
    z = eval_constituents(params, arch, points)
    eigs = np.linalg.eigvalsh(z.T @ z / len(points))
    assert np.count_nonzero(eigs > 1e-6 * eigs[-1]) >= arch.r / 2


def initial_field_variance(params, arch, xi):
    """Variance of the fitted fields Xi Z^T at init, averaged over a 25x25 grid."""
    z = eval_constituents(params, arch, make_grid(2, [25, 25]).coordinates())
    return np.einsum("ir,rs,is->i", z, xi.T @ xi / len(xi), z).mean()


def test_init_xi_variance():
    # Xi is normal less each row's component along the constituents' means:
    # Xi^T Xi / N has R - 1 near-equal eigenvalues and one null direction,
    # of positive entries, along the constituents' domain mean; the fields'
    # variance is set over 64 probe points, so the grid's is close to it
    r = 5
    arch = Architecture.shallow(r, 2)
    params, xi = init_params(arch, 10000, seed=1)
    eigs, vecs = np.linalg.eigh(xi.T @ xi / len(xi))
    assert abs(eigs[0]) <= 1e-12 * eigs[-1]
    assert np.all(np.abs(eigs[1:] / eigs[1:].mean() - 1) <= 0.1)
    null = vecs[:, 0] * np.sign(vecs[0, 0])
    assert np.all(null > 0)
    mean = eval_constituents(params, arch, make_grid(2, [25, 25]).coordinates()).mean(axis=0)
    assert null @ mean / np.linalg.norm(mean) > 0.99
    assert abs(initial_field_variance(params, arch, xi) - 0.1) <= 0.03


def test_init_single_constituent_keeps_its_coefficients():
    # with R = 1 the means' direction is all of Xi, and Xi = 0 is a
    # stationary point of the loss that a fit would never leave
    arch = Architecture.shallow(1, 2)
    params, xi = init_params(arch, 10000, seed=1)
    assert abs(initial_field_variance(params, arch, xi) - 0.1) <= 0.03


def whole_grid_constituents(params, arch, pts):
    """The walk's layer arithmetic in one pass over all points, with no blocks."""
    layers = _negated_layers(params, arch)
    outs = []
    for g in range(arch.groups):
        a = np.ones((arch.d + 1, len(pts)))
        a[:-1] = pts.T
        for wb in layers:
            h = np.empty((wb.shape[1] + 1, a.shape[1]))
            h[-1] = 1.0
            _sigmoid_of_negated(np.matmul(wb[g], a, out=h[:-1]))
            a = h
        outs.append(a[:-1])
    return np.concatenate(outs).T


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("variant", ["shallow", "deep", "deepshared"])
def test_walk_with_and_without_cache_equal_one_pass_bit_for_bit(variant, d):
    # point blocks start at multiples of 4096; a 1-row remainder joins the
    # block before it
    arch = Architecture(variant, 20, d, 0 if variant == "shallow" else 3)
    params, _ = init_params(arch, 2, seed=d)
    pts = make_rng(30 + d).random((12289, d))
    for m, n_blocks in ((1, 1), (2, 1), (3, 1), (4095, 1), (4096, 1), (4097, 1),
                        (8193, 2), (12289, 3)):
        cache = []
        z = _walk(params, arch, pts[:m], cache)
        assert np.array_equal(_walk(params, arch, pts[:m]), z), m
        assert np.array_equal(eval_constituents(params, arch, pts[:m]), z), m
        assert np.array_equal(whole_grid_constituents(params, arch, pts[:m]), z), m
        # one cache entry per block; each stack's last activation is its rows
        # of Z^T in that block
        assert len(cache) == n_blocks, m
        outputs = [np.hstack([stacks[g][-1] for stacks in cache]) for g in range(arch.groups)]
        assert np.array_equal(np.vstack(outputs), z.T), m


def test_deep_eval_holds_its_output_plus_one_point_block(traced_peak):
    arch = Architecture.deep(20, 2, 3)
    params, _ = init_params(arch, 2, seed=4)
    m = 20_000
    pts = make_rng(5).random((m, 2))
    peak = traced_peak(lambda: eval_constituents(params, arch, pts))
    assert peak < 2 * m * arch.r * 8 + 2**20


def test_shallow_zero_params_give_half():
    arch = Architecture.shallow(3, 2)
    params = np.zeros(9)
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
    got = _sigmoid_of_negated(-t)
    want = [reference_sigmoid(x) for x in t]
    # relative to 1e-15 where the result is a normal float, absolutely tight
    # (smallest normal) in the subnormal tail below t = -708
    assert got.tolist() == pytest.approx(want, rel=1e-15, abs=np.finfo(float).tiny)


def test_sigmoid_saturates_exactly_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = _sigmoid_of_negated(-np.array([-1e6, 1e6, -np.inf, np.inf]))
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
    arch = Architecture.deepshared(4, 2, 3)
    params = np.zeros(count_parameters(arch, include_lambda=False))
    z = eval_constituents(params, arch, np.array([[0.3, 0.8]]))
    # zero weights erase each previous layer, so every layer emits sigma(0)
    np.testing.assert_array_equal(z, sigmoid(0.0))


def test_deepshared_nonzero_matches_scalar_recursion():
    # width-1 trunk wired with scalar weights reproduces a scalar recursion
    arch = Architecture.deepshared(1, 1, 2)
    w1, b1, w2, b2, wo, bo = 0.7, -0.2, 1.3, 0.4, -0.9, 0.1
    params = np.array([w1, b1, w2, b2, wo, bo])  # layer by layer, W before b
    u = 0.6
    expected = sigmoid(wo * sigmoid(w2 * sigmoid(w1 * u + b1) + b2) + bo)
    z = eval_constituents(params, arch, np.array([[u]]))
    assert z[0, 0] == pytest.approx(expected, rel=1e-15)


def test_deep_matches_composed_shallow_structure():
    # a deep net evaluated layer by layer with plain numpy as the oracle
    arch = Architecture.deep(3, 2, 2)
    params, _ = init_params(arch, 3, seed=5)
    pts = gaussian(make_rng(6), (4, 2))
    z = eval_constituents(params, arch, pts)
    *hidden, (w_out, b_out) = _param_views(params, arch)
    for r in range(arch.r):
        a = pts
        for w, b in hidden:
            a = 1 / (1 + np.exp(-(a @ w[r].T + b[r])))
        # group r's output layer holds net r's single output row
        zr = 1 / (1 + np.exp(-(a @ w_out[r, 0] + b_out[r, 0])))
        np.testing.assert_allclose(z[:, r], zr, rtol=1e-15)


def numpy_constituents(params, arch, pts):
    """The oracle: every stack walked layer by layer in plain numpy, points along rows."""
    layers = _param_views(params, arch)
    rows = arch.r // arch.groups
    z = np.empty((len(pts), arch.r))
    for g in range(arch.groups):
        a = pts
        for w, b in layers:
            a = 1 / (1 + np.exp(-(a @ w[g].T + b[g])))
        z[:, g * rows : (g + 1) * rows] = a
    return z


@pytest.mark.parametrize("variant", ["shallow", "deep", "deepshared"])
def test_constituents_match_numpy_oracle_at_nonzero_biases(variant):
    # every bias drawn from N(0, 1), none of them zero; d != R keeps the
    # input layer non-square, as R / G != R does deep's output layer
    arch = Architecture(variant, 4, 3, 0 if variant == "shallow" else 3)
    params = gaussian(make_rng(40), count_parameters(arch, include_lambda=False))
    assert all(np.all(b != 0) for _, b in _param_views(params, arch))
    pts = make_rng(41).random((300, 3))
    want = numpy_constituents(params, arch, pts)
    z = _walk(params, arch, pts, [])
    np.testing.assert_allclose(z, want, rtol=1e-13)
    np.testing.assert_allclose(eval_constituents(params, arch, pts), want, rtol=1e-13)


def numpy_backward(params, arch, pts, dz):
    """The oracle: reverse mode through every stack in plain numpy, with
    separate W and b and the points along rows."""
    layers = _param_views(params, arch)
    grad = np.empty_like(params)
    grads = _param_views(grad, arch)
    rows = arch.r // arch.groups
    for g in range(arch.groups):
        acts = [pts]
        for w, b in layers:
            acts.append(1 / (1 + np.exp(-(acts[-1] @ w[g].T + b[g]))))
        da = dz[:, g * rows : (g + 1) * rows]
        for l in range(len(layers) - 1, -1, -1):
            dpre = da * acts[l + 1] * (1 - acts[l + 1])
            dw, db = grads[l]
            dw[g] = dpre.T @ acts[l]
            db[g] = dpre.sum(axis=0)
            da = dpre @ layers[l][0][g]
    return grad


@pytest.mark.parametrize(
    "variant, r", [("shallow", 4), ("deep", 4), ("deepshared", 4), ("deepshared", 1)]
)
def test_backward_matches_numpy_oracle_at_nonzero_biases(variant, r):
    # the weight gradients skip the ones row of the homogeneous activations;
    # taking that row as a weight column fails this tolerance, while the
    # central-difference gradient check resolves only about 1e-5; d != R
    # keeps the input layer non-square, as R / G != R does deep's output layer
    arch = Architecture(variant, r, 3, 0 if variant == "shallow" else 3)
    params = gaussian(make_rng(42), count_parameters(arch, include_lambda=False))
    assert all(np.all(b != 0) for _, b in _param_views(params, arch))
    # 8193 points walk as two blocks, the second adding to the first's gradients
    for m in (300, 8193):
        pts = make_rng(43).random((m, 3))
        dz = gaussian(make_rng(44), (r, m)).T  # the transposed view training passes
        cache = []
        _walk(params, arch, pts, cache)
        got = backward_constituents(params, arch, cache, dz)
        np.testing.assert_allclose(got, numpy_backward(params, arch, pts, dz), rtol=1e-12)


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


def fitted_fields(params, arch, xi, grid):
    """The N fitted fields Xi Z^T evaluated on the grid."""
    return FieldMatrix(grid, xi @ eval_constituents(params, arch, grid.coordinates()).T)


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


def test_kernel_constant_model():
    arch = Architecture.shallow(1, 2)
    model = FittedCovariance(arch, np.zeros(3), np.array([[4.0]]))
    assert model.kernel_pairs([[0.1, 0.2]], [[0.9, 0.3]])[0] == 1.0


def test_lambda_near_float_max_stays_finite():
    # a valid model file may hold entries up to the float maximum
    lam = np.array([[1e308, 0.0], [0.0, 1.0]])
    model = FittedCovariance(Architecture.shallow(2, 1), np.zeros(4), lam)
    np.testing.assert_array_equal(model.lam, lam)


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
        assert model.kernel_pairs(u[None], v[None])[0] == pytest.approx(oracle, rel=1e-13)


def test_kernel_swap_symmetry_bit_exact():
    model = random_model(Architecture.shallow(5, 3), seed=9)
    rng = make_rng(10)
    u = rng.random((40, 3))
    v = rng.random((40, 3))
    np.testing.assert_array_equal(model.kernel_pairs(u, v), model.kernel_pairs(v, u))


@pytest.mark.parametrize("m", [4097, 8193, 12289])
def test_kernel_pairs_over_point_blocks_give_the_bits_of_one_pass(m):
    model = random_model(Architecture.deep(4, 2, 2), seed=12)
    rng = make_rng(13)
    u, v = rng.random((m, 2)), rng.random((m, 2))
    zu, zv = model.constituents(u), model.constituents(v)
    a = ((zu @ model.lam) * zv).sum(axis=1)
    b = ((zv @ model.lam) * zu).sum(axis=1)
    np.testing.assert_array_equal(model.kernel_pairs(u, v), (a + b) / 2.0)


def test_kernel_pairs_hold_less_than_one_m_by_r_array(traced_peak):
    model = random_model(Architecture.deep(20, 2, 3), seed=14)
    m = 50_000
    rng = make_rng(15)
    u, v = rng.random((m, 2)), rng.random((m, 2))
    # an unblocked pass holds Z of both sides and two products of their size, 4 m R floats
    assert traced_peak(lambda: model.kernel_pairs(u, v)) < m * model.arch.r * 8


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


def test_parameter_census_matches_the_parameter_vector():
    cases = [
        Architecture.shallow(4, 3),
        Architecture.deep(3, 2, 1),
        Architecture.deep(3, 2, 2),
        Architecture.deep(2, 3, 3),
        Architecture.deepshared(5, 2, 1),
        Architecture.deepshared(5, 2, 2),
        Architecture.deepshared(3, 3, 4),
    ]
    for arch in cases:
        params, _ = init_params(arch, 3, seed=0)
        lam_terms = arch.r * (arch.r + 1) // 2
        assert params.size + lam_terms == count_parameters(arch)
        assert params.size == count_parameters(arch, include_lambda=False)


@pytest.mark.parametrize("variant", ["shallow", "deep", "deepshared"])
def test_closed_form_count_equals_the_layer_shapes(variant):
    for r in (1, 2, 3, 7, 20):
        for d in (1, 2, 3):
            for depth in (0,) if variant == "shallow" else (1, 2, 3, 5):
                arch = Architecture(variant, r, d, depth)
                want = sum(math.prod(w) + math.prod(b) for w, b in _layer_shapes(arch))
                assert count_parameters(arch, include_lambda=False) == want, arch


def test_count_parameters_of_a_huge_depth_builds_no_layers():
    # (10^20 - 1) R (R + 1) hidden parameters per net: no tuple of layers could hold them
    arch = Architecture.deep(2, 2, 10**20)
    assert count_parameters(arch, include_lambda=False) == 2 * (2 * 3 + (10**20 - 1) * 6 + 3)


ARCH_CASES = (
    Architecture.shallow(3, 2),
    Architecture.deep(2, 2, 2),
    Architecture.deepshared(4, 3, 2),
)


def test_param_views_tile_the_vector():
    for arch in ARCH_CASES:
        vec, _ = init_params(arch, 2, seed=13)
        back = np.concatenate(
            [a.ravel() for layer in _param_views(vec, arch) for a in layer]
        )
        assert np.array_equal(vec, back)


def test_param_views_share_memory_and_check_length():
    for arch in ARCH_CASES:
        vec, _ = init_params(arch, 2, seed=13)
        views = [a for layer in _param_views(vec, arch) for a in layer]
        for array in views:
            assert np.shares_memory(array, vec)
        views[-1][...] = 7.0  # output biases are the last R entries
        assert np.array_equal(vec[-arch.r :], np.full(arch.r, 7.0))
        for bad in (vec[:-1], np.append(vec, 0.0)):
            with pytest.raises(ValueError):
                _param_views(bad, arch)


@pytest.mark.parametrize("variant", ["shallow", "deep", "deepshared"])
def test_fitted_covariance_rejects_wrong_vector_length(variant):
    arch = {
        "shallow": Architecture.shallow(3, 2),
        "deep": Architecture.deep(2, 2, 2),
        "deepshared": Architecture.deepshared(3, 2, 2),
    }[variant]
    params, xi = init_params(arch, 4, seed=3)
    lam = second_moment(xi)
    FittedCovariance(arch, params, lam)
    for bad in (params[:-1], np.append(params, 0.0)):
        with pytest.raises(ValueError):
            FittedCovariance(arch, bad, lam)


def test_fitted_covariance_rejects_non_psd():
    arch = Architecture.shallow(2, 1)
    params, _ = init_params(arch, 2, seed=0)
    with pytest.raises(ValueError):
        FittedCovariance(arch, params, np.array([[1.0, 0.0], [0.0, -0.1]]))


@pytest.mark.parametrize(
    "arch",
    [
        Architecture.shallow(3, 2),
        Architecture.deep(2, 2, 2),
        Architecture.deepshared(3, 2, 2),
        Architecture.deep(2, 2, 1),
    ],
    ids=["shallow", "deep", "deepshared", "deep_one_layer"],
)
def test_save_load_roundtrip_bit_exact(arch, tmp_path):
    params, xi = init_params(arch, 6, seed=21)
    model = FittedCovariance(arch, params, second_moment(xi))
    path = tmp_path / "m.cvn"
    save_model(path, model)
    back = load_model(path)
    assert back.arch == arch
    assert np.array_equal(back.params, model.params)
    assert np.array_equal(back.lam, model.lam)
    rng = make_rng(22)
    u = rng.random((100, 2))
    v = rng.random((100, 2))
    np.testing.assert_array_equal(back.kernel_pairs(u, v), model.kernel_pairs(u, v))


def test_load_rejects_tampered_lambda(tmp_path):
    arch = Architecture.shallow(2, 2)
    params, xi = init_params(arch, 5, seed=1)
    model = FittedCovariance(arch, params, second_moment(xi))
    path = tmp_path / "m.cvn"
    save_model(path, model)
    text = path.read_text().splitlines()
    # lambda block holds the lower triangle; poison the last diagonal entry
    idx = text.index("lambda 2")
    text[idx + 2] = text[idx + 2].rsplit(" ", 1)[0] + " -0.1"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_a_mean_block(tmp_path):
    # files written while joint mean fitting existed could end in a mean block
    arch = Architecture.shallow(2, 2)
    params, xi = init_params(arch, 5, seed=1)
    path = tmp_path / "m.cvn"
    save_model(path, FittedCovariance(arch, params, second_moment(xi)))
    text = path.read_text().splitlines()
    text[-1:-1] = ["mean 2", "0.5 -0.25"]
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ModelFormatError, match="joint mean fitting was removed"):
        load_model(path)


@pytest.mark.parametrize("header", ["mean 7", "meanwhile", "mean"])
def test_load_rejects_tampered_mean_header(tmp_path, header):
    # a line where a mean block once stood, well-formed or not, is refused
    arch = Architecture.shallow(2, 2)
    params, xi = init_params(arch, 5, seed=1)
    path = tmp_path / "m.cvn"
    save_model(path, FittedCovariance(arch, params, second_moment(xi)))
    text = path.read_text().splitlines()
    text[-1:-1] = [header, "0.5 -0.25"]
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
    model = FittedCovariance(arch, params, second_moment(xi))
    path = tmp_path / "m.cvn"
    save_model(path, model)
    # 40*3 + 40 + 820 floats at <= 25 bytes each stays far below 100 KB
    assert path.stat().st_size < 100_000
