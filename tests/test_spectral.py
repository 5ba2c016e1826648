import numpy as np
import pytest

from covnet.errors import DegenerateModelError
from covnet.fields import make_grid
from covnet.model import Architecture, FittedCovariance, init_params
from covnet.rng import gaussian, make_rng
from covnet.spectral import (
    constituent_gram,
    eigendecompose,
    eval_eigenfunction,
    truncate,
)


def constant_model(lam_value=4.0):
    arch = Architecture.shallow(1, 2)
    params = np.zeros(3)  # w (1, 2) then b (1,)
    return FittedCovariance(arch, params, np.array([[lam_value]]))


def random_model(r, d, seed, variant="shallow"):
    if variant == "shallow":
        arch = Architecture.shallow(r, d)
    else:
        arch = Architecture.deepshared(r, d, 2)
    params, _ = init_params(arch, 4, seed)
    # spread the spectrum so eigenpairs are well separated
    q, _ = np.linalg.qr(gaussian(make_rng(seed + 1), (r, r)))
    lam = q @ np.diag(np.geomspace(2.0, 0.05, r)) @ q.T
    return FittedCovariance(arch, params, (lam + lam.T) / 2)


def test_gram_constant_constituent_exact():
    model = constant_model()
    for m in (1, 10, 5000):
        gram = constituent_gram(model, m, seed=1)
        np.testing.assert_array_equal(gram, [[0.25]])


def test_gram_duplicated_constituents_rank_one():
    arch = Architecture.shallow(2, 1)
    params = np.array([0.7, 0.7, -0.3, -0.3])  # w (2, 1) then b (2,)
    model = FittedCovariance(arch, params, np.eye(2))
    gram = constituent_gram(model, 2000, seed=2)
    assert gram[0, 0] == pytest.approx(gram[0, 1], rel=1e-15)
    assert gram[0, 0] == pytest.approx(gram[1, 1], rel=1e-15)


def test_gram_entries_bounded_and_psd():
    model = random_model(4, 2, seed=3)
    gram = constituent_gram(model, 3000, seed=4)
    assert np.all(gram >= 0)
    assert np.all(gram <= 1)
    assert np.linalg.eigvalsh(gram)[0] >= -1e-10 * np.trace(gram)


def test_gram_matches_tensor_grid_quadrature():
    model = random_model(3, 2, seed=5)
    m = 100_000
    gram = constituent_gram(model, m, seed=6)
    # deterministic 200 x 200 midpoint quadrature as the oracle
    quad_grid = make_grid(2, [200, 200])
    z = model.constituents(quad_grid.coordinates())
    oracle = z.T @ z / quad_grid.n_points
    se_bound = 0.5 / np.sqrt(m)
    assert np.abs(gram - oracle).max() < 3 * se_bound


def test_gram_deterministic():
    model = random_model(3, 2, seed=7)
    a = constituent_gram(model, 500, seed=8)
    b = constituent_gram(model, 500, seed=8)
    assert np.array_equal(a, b)


def test_eigendecompose_constant_model():
    lam = 4.0
    model = constant_model(lam)
    gram = constituent_gram(model, 100, seed=1)
    system = eigendecompose(model, gram)
    assert system.rank == 1
    assert system.values[0] == pytest.approx(0.25 * lam, abs=1e-12)
    # psi = a * g with a = 2 makes psi identically 1
    assert abs(system.coeffs[0, 0]) == pytest.approx(2.0, rel=1e-12)
    pts = make_rng(2).random((7, 2))
    vals = eval_eigenfunction(model, system, 0, pts)
    np.testing.assert_allclose(np.abs(vals), 1.0, rtol=1e-12)


def test_eigendecompose_identity_gram_reduces_to_lambda():
    r = 4
    model = random_model(r, 2, seed=9)
    gram = np.eye(r)
    system = eigendecompose(model, gram)
    eta, vecs = np.linalg.eigh(model.lam)
    np.testing.assert_allclose(system.values, eta[::-1], rtol=1e-12)
    for i in range(r):
        got = system.coeffs[i]
        want = vecs[:, r - 1 - i]
        assert abs(abs(got @ want) - 1.0) < 1e-10


def test_eigendecompose_matches_dense_discretization():
    grid = make_grid(2, [12, 12])
    pts = grid.coordinates()
    for seed in (21, 22):
        model = random_model(6, 2, seed=seed, variant="deepshared")
        gram = constituent_gram(model, 200_000, seed=seed + 100)
        system = eigendecompose(model, gram)
        z = model.constituents(pts)
        dense = (z @ model.lam @ z.T) / grid.n_points
        dense_eta = np.linalg.eigvalsh(dense)[::-1]
        dense_vecs = np.linalg.eigh(dense)[1][:, ::-1]
        top = min(5, system.rank)
        for i in range(top):
            assert system.values[i] == pytest.approx(dense_eta[i], rel=0.02)
            psi = eval_eigenfunction(model, system, i, pts)
            cos = abs(psi @ dense_vecs[:, i]) / (
                np.linalg.norm(psi) * np.linalg.norm(dense_vecs[:, i])
            )
            assert cos > 0.99


def test_eigensystem_gram_orthonormal():
    model = random_model(5, 2, seed=23)
    gram = constituent_gram(model, 50_000, seed=24)
    system = eigendecompose(model, gram)
    a = system.coeffs
    np.testing.assert_allclose(a @ gram @ a.T, np.eye(system.rank), atol=1e-8)


def test_eigenfunctions_orthonormal_at_gram_points():
    model = random_model(4, 2, seed=25)
    m, seed = 20_000, 26
    system = eigendecompose(model, constituent_gram(model, m, seed))
    pts = make_rng(seed).random((m, model.arch.d))
    psis = np.stack(
        [eval_eigenfunction(model, system, i, pts) for i in range(system.rank)]
    )
    inner = psis @ psis.T / m
    np.testing.assert_allclose(inner, np.eye(system.rank), atol=1e-8)


def test_eigenvalue_sum_matches_quadratic_forms():
    model = random_model(5, 2, seed=27)
    gram = constituent_gram(model, 30_000, seed=28)
    system = eigendecompose(model, gram)
    a = system.coeffs
    g = gram
    quad = np.array([a[i] @ g @ model.lam @ g @ a[i] for i in range(system.rank)])
    assert np.sum(system.values) == pytest.approx(np.sum(quad), rel=1e-8)
    assert np.all(system.values >= 0)
    assert np.all(np.diff(system.values) <= 1e-15)


def test_reconstruction_from_eigenpairs():
    model = random_model(4, 2, seed=29)
    gram = constituent_gram(model, 100_000, seed=30)
    system = eigendecompose(model, gram)
    rng = make_rng(31)
    u = rng.random((50, 2))
    v = rng.random((50, 2))
    recon = np.zeros(50)
    for i in range(system.rank):
        recon += (
            system.values[i]
            * eval_eigenfunction(model, system, i, u)
            * eval_eigenfunction(model, system, i, v)
        )
    direct = model.kernel_pairs(u, v)
    # with a full-rank gram the identity is exact up to roundoff
    assert np.abs(recon - direct).max() < 1e-8 * max(1.0, np.abs(direct).max())


def test_eval_eigenfunction_index_range():
    model = constant_model()
    system = eigendecompose(model, constituent_gram(model, 10, seed=1))
    with pytest.raises(IndexError):
        eval_eigenfunction(model, system, 1, np.zeros((1, 2)))


def test_degenerate_model_rejected():
    arch = Architecture.shallow(2, 1)
    params = np.array([0.0, 0.0, -1e6, -1e6])  # w == 0, b == -1e6: g == 0 exactly
    model = FittedCovariance(arch, params, np.eye(2))
    gram = constituent_gram(model, 100, seed=1)
    with pytest.raises(DegenerateModelError):
        eigendecompose(model, gram)


def grid_gram(model, grid):
    z = model.constituents(grid.coordinates())
    return z, z.T @ z / grid.n_points


def test_truncate_matches_dense_grid_eigen_oracle():
    grid = make_grid(2, [12, 12])
    for seed in (21, 22):
        model = random_model(6, 2, seed=seed, variant="deepshared")
        z, gram = grid_gram(model, grid)
        dense = (z @ model.lam @ z.T) / grid.n_points
        w = np.linalg.eigvalsh(dense)[::-1]
        norm2 = float((dense * dense).sum())
        system = eigendecompose(model, gram)
        for k in range(1, 6):
            out = truncate(model, k, gram)
            # the squared HS error of the truncation is the tail of the
            # dense operator's spectrum (Eckart-Young)
            err = (z @ (model.lam - out.lam) @ z.T) / grid.n_points
            assert abs(float((err * err).sum()) - float((w[k:] ** 2).sum())) <= 1e-10 * norm2
            # the truncation keeps the k leading eigenpairs and drops the rest
            kept = eigendecompose(out, gram)
            np.testing.assert_allclose(
                kept.values[:k], system.values[:k], rtol=1e-10, atol=1e-12 * system.values[0]
            )
            assert np.all(kept.values[k:] <= 1e-10 * system.values[0])


def test_truncate_keeps_constituents():
    model = random_model(4, 2, seed=37)
    out = truncate(model, 2, constituent_gram(model, 5000, seed=38))
    assert out.arch == model.arch
    assert np.array_equal(out.params, model.params)
    assert np.linalg.matrix_rank(out.lam) == 2


def test_truncate_at_or_above_rank_returns_the_model():
    model = random_model(3, 2, seed=33)
    gram = constituent_gram(model, 5000, seed=34)
    for k in (3, 4):
        assert truncate(model, k, gram) is model
    # duplicated constituents: R = 2 but the Gram, and so the model, has rank 1
    arch = Architecture.shallow(2, 1)
    twins = FittedCovariance(arch, np.array([0.7, 0.7, -0.3, -0.3]), np.eye(2))
    gram = constituent_gram(twins, 2000, seed=2)
    assert eigendecompose(twins, gram).rank == 1
    assert truncate(twins, 1, gram) is twins


def test_truncate_requires_a_positive_level():
    model = random_model(3, 2, seed=35)
    with pytest.raises(ValueError, match="truncation level must be >= 1, got 0"):
        truncate(model, 0, constituent_gram(model, 100, seed=1))
