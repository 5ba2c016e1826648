import numpy as np
import pytest

from covnet.baselines import (
    DenseCovariance,
    TrueKernel,
    ZeroCovariance,
    best_separable_2d,
    empirical_covariance,
    relative_error_mc,
)
from covnet.errors import DegenerateTruthError, ResourceLimitError
from covnet.fields import FieldMatrix, cross_gram, make_grid
from covnet.rng import gaussian, make_rng
from covnet.simulate import (
    BrownianSheet,
    IntegratedBrownianSheet,
    Matern,
    RotatedBrownianSheet,
    kernel_matrix,
    rotation_2d_45,
)


def test_empirical_rank_one():
    grid = make_grid(1, [4])
    x = np.array([[1.0, 2.0, -1.0, 0.5]])
    emp = empirical_covariance(FieldMatrix(grid, x))
    np.testing.assert_allclose(emp.values, np.outer(x[0], x[0]))


def test_empirical_plus_minus_ones():
    grid = make_grid(1, [3])
    x = np.array([[1.0] * 3, [-1.0] * 3, [1.0] * 3, [-1.0] * 3])
    emp = empirical_covariance(FieldMatrix(grid, x))
    np.testing.assert_allclose(emp.values, np.ones((3, 3)))


def test_empirical_matches_triple_loop():
    grid = make_grid(1, [30])
    x = gaussian(make_rng(1), (7, 30))
    x = x - x.mean(axis=0)
    emp = empirical_covariance(FieldMatrix(grid, x))
    oracle = np.zeros((30, 30))
    for i in range(30):
        for j in range(30):
            for n in range(7):
                oracle[i, j] += x[n, i] * x[n, j] / 7
    np.testing.assert_allclose(emp.values, oracle, atol=1e-12)


def test_empirical_cap():
    grid = make_grid(2, [70, 70])
    f = FieldMatrix(grid, np.zeros((2, 4900)))
    with pytest.raises(ResourceLimitError):
        empirical_covariance(f)


def test_empirical_hs_norm_matches_gram_form():
    grid = make_grid(2, [5, 6])
    x = gaussian(make_rng(2), (8, 30))
    x = x - x.mean(axis=0)
    f = FieldMatrix(grid, x)
    emp = empirical_covariance(f)
    g = cross_gram(f)
    gram_form = np.sqrt((g * g).sum() / f.n**2)
    assert emp.hs_norm() == pytest.approx(gram_form, rel=1e-12)


def test_separable_recovers_exact_kronecker():
    grid = make_grid(2, [4, 5])
    rng = make_rng(3)
    a0 = gaussian(rng, (4, 4))
    a0 = a0 @ a0.T + np.eye(4)
    b0 = gaussian(rng, (5, 5))
    b0 = b0 @ b0.T + np.eye(5)
    c = DenseCovariance(grid, np.kron(a0, b0))
    sep = best_separable_2d(c)
    out = np.kron(sep.a, sep.b)
    assert np.linalg.norm(out - c.values) / np.linalg.norm(c.values) < 1e-10


def test_separable_identity():
    grid = make_grid(2, [3, 4])
    c = DenseCovariance(grid, np.eye(12))
    sep = best_separable_2d(c)
    np.testing.assert_allclose(np.kron(sep.a, sep.b), np.eye(12), atol=1e-12)


def test_separable_beats_random_probes():
    grid = make_grid(2, [6, 6])
    rng = make_rng(4)
    sym = gaussian(rng, (36, 36))
    sym = (sym + sym.T) / 2
    c = DenseCovariance(grid, sym)
    sep = best_separable_2d(c)
    best_err = np.linalg.norm(c.values - np.kron(sep.a, sep.b))
    for _ in range(1000):
        pa = gaussian(rng, (6, 6))
        pa = (pa + pa.T) / 2
        pb = gaussian(rng, (6, 6))
        pb = (pb + pb.T) / 2
        probe = np.kron(pa, pb)
        scale = (c.values * probe).sum() / max((probe * probe).sum(), 1e-300)
        err = np.linalg.norm(c.values - scale * probe)
        assert best_err <= err + 1e-12


def test_separable_no_worse_than_constant_candidate():
    grid = make_grid(2, [5, 5])
    vals = kernel_matrix(IntegratedBrownianSheet(2), grid)
    c = DenseCovariance(grid, vals)
    sep = best_separable_2d(c)
    err = np.linalg.norm(c.values - np.kron(sep.a, sep.b))
    trivial = np.full_like(c.values, c.values.mean())
    assert err <= np.linalg.norm(c.values - trivial) + 1e-12


def test_separable_equal_factor_norms():
    grid = make_grid(2, [4, 4])
    c = DenseCovariance(grid, kernel_matrix(BrownianSheet(2), grid))
    sep = best_separable_2d(c)
    assert np.linalg.norm(sep.a) == pytest.approx(np.linalg.norm(sep.b), rel=1e-12)


def test_separable_rejects_other_dims():
    grid = make_grid(3, [2, 2, 2])
    c = DenseCovariance(grid, np.eye(8))
    with pytest.raises(ValueError):
        best_separable_2d(c)


def test_relative_error_of_truth_is_zero():
    from covnet.simulate import RotatedIntegratedBrownianSheet

    for spec in (
        BrownianSheet(2),
        RotatedBrownianSheet(rotation_2d_45()),
        IntegratedBrownianSheet(2),
        RotatedIntegratedBrownianSheet(rotation_2d_45()),
        Matern(0.7, 2),
    ):
        err = relative_error_mc(TrueKernel(spec), spec, 2, m=2000, seed=5)
        assert err == 0.0


def test_relative_error_of_zero_is_one():
    err = relative_error_mc(ZeroCovariance(), BrownianSheet(2), 2, m=5000, seed=6)
    assert err == 1.0


def test_relative_error_deterministic():
    grid = make_grid(2, [6, 6])
    f = FieldMatrix(grid, gaussian(make_rng(7), (9, 36)))
    emp = empirical_covariance(f.centered())
    a = relative_error_mc(emp, BrownianSheet(2), 2, m=4000, seed=8)
    b = relative_error_mc(emp, BrownianSheet(2), 2, m=4000, seed=8)
    assert a == b


def test_brownian_hs_norm_monte_carlo():
    # mean c^2 over uniform pairs = (integral of min(u,v)^2)^2 = 1/36
    rng = make_rng(9)
    u = rng.random((100_000, 2))
    v = rng.random((100_000, 2))
    from covnet.simulate import kernel_pairs

    vals = kernel_pairs(BrownianSheet(2), u, v)
    mean_sq = (vals**2).mean()
    assert 1 / 36 * 0.97 <= mean_sq <= 1 / 36 * 1.03


def test_degenerate_truth_rejected():
    grid = make_grid(2, [3, 3])
    emp = empirical_covariance(FieldMatrix(grid, np.zeros((2, 9))))
    with pytest.raises(DegenerateTruthError):
        relative_error_mc(emp, emp, 2, m=100, seed=1)


def test_nearest_voxel_lookup_matches_grid_nodes():
    grid = make_grid(2, [4, 4])
    vals = kernel_matrix(BrownianSheet(2), grid)
    dense = DenseCovariance(grid, vals)
    pts = grid.coordinates()
    idx = [0, 5, 11, 15]
    got = dense.kernel_pairs(pts[idx], pts[idx])
    np.testing.assert_array_equal(got, vals[idx, idx])
