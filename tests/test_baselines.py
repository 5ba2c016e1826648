import numpy as np
import pytest

from covnet.baselines import (
    EmpiricalCovariance,
    ZeroCovariance,
    best_separable_2d,
    relative_error_mc,
)
from covnet.errors import DegenerateTruthError
from covnet.fields import FieldMatrix, make_grid
from covnet.model import Architecture, FittedCovariance, init_params
from covnet.rng import gaussian, make_rng
from covnet.simulate import (
    BrownianSheet,
    IntegratedBrownianSheet,
    Matern,
    RotatedBrownianSheet,
    RotatedIntegratedBrownianSheet,
    rotation_2d_45,
    sample_gaussian_fields,
)


def node_matrix(est, grid):
    """An estimate's values at every pair of grid nodes, as a D x D array."""
    pts = grid.coordinates()
    n = grid.n_points
    return est.kernel_pairs(np.repeat(pts, n, axis=0), np.tile(pts, (n, 1))).reshape(n, n)


def dense_covariance(f):
    """N^-1 X^T X, the empirical covariance at the grid nodes."""
    return f.values.T @ f.values / f.n


def dense_separable_oracle(f):
    """A (x) B from the full SVD of the rearranged dense covariance."""
    k1, k2 = f.grid.sizes
    c = dense_covariance(f)
    rearranged = (
        c.reshape(k1, k2, k1, k2).transpose(0, 2, 1, 3).reshape(k1 * k1, k2 * k2)
    )
    u, s, vt = np.linalg.svd(rearranged, full_matrices=False)
    return s[0] * np.kron(u[:, 0].reshape(k1, k1), vt[0].reshape(k2, k2))


def kronecker_fields(grid, p, q):
    """Fields sqrt(N) P E_ij Q^T over all unit matrices E_ij.

    Their uncentered empirical covariance is exactly P P^T (x) Q Q^T.
    """
    n = grid.n_points
    return FieldMatrix(grid, np.sqrt(n) * np.kron(p, q).T)


def test_empirical_rank_one():
    grid = make_grid(1, [4])
    x = np.array([[1.0, 2.0, -1.0, 0.5]])
    emp = EmpiricalCovariance(FieldMatrix(grid, x))
    np.testing.assert_allclose(node_matrix(emp, grid), np.outer(x[0], x[0]))


def test_empirical_needs_a_field():
    with pytest.raises(ValueError, match="at least one field"):
        EmpiricalCovariance(FieldMatrix(make_grid(2, [3, 3]), np.zeros((0, 9))))


def test_empirical_plus_minus_ones():
    grid = make_grid(1, [3])
    x = np.array([[1.0] * 3, [-1.0] * 3, [1.0] * 3, [-1.0] * 3])
    emp = EmpiricalCovariance(FieldMatrix(grid, x))
    np.testing.assert_allclose(node_matrix(emp, grid), np.ones((3, 3)))


def test_empirical_matches_triple_loop():
    grid = make_grid(1, [30])
    x = gaussian(make_rng(1), (7, 30))
    x = x - x.mean(axis=0)
    emp = EmpiricalCovariance(FieldMatrix(grid, x))
    oracle = np.zeros((30, 30))
    for i in range(30):
        for j in range(30):
            for n in range(7):
                oracle[i, j] += x[n, i] * x[n, j] / 7
    np.testing.assert_allclose(node_matrix(emp, grid), oracle, atol=1e-12)


def test_empirical_matches_dense_lookup():
    grid = make_grid(2, [9, 7])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 40, seed=12).centered()
    rng = make_rng(13)
    u = rng.random((3000, 2))
    v = rng.random((3000, 2))
    got = EmpiricalCovariance(f).kernel_pairs(u, v)
    want = dense_covariance(f)[grid.flat_index(u), grid.flat_index(v)]
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_separable_recovers_exact_kronecker():
    grid = make_grid(2, [4, 5])
    rng = make_rng(3)
    a0 = gaussian(rng, (4, 4))
    a0 = a0 @ a0.T + np.eye(4)
    b0 = gaussian(rng, (5, 5))
    b0 = b0 @ b0.T + np.eye(5)
    f = kronecker_fields(grid, np.linalg.cholesky(a0), np.linalg.cholesky(b0))
    sep = best_separable_2d(EmpiricalCovariance(f))
    out = np.kron(sep.a, sep.b)
    c = np.kron(a0, b0)
    assert np.linalg.norm(out - c) / np.linalg.norm(c) < 1e-10


def test_separable_identity():
    grid = make_grid(2, [3, 4])
    f = kronecker_fields(grid, np.eye(3), np.eye(4))
    sep = best_separable_2d(EmpiricalCovariance(f))
    np.testing.assert_allclose(np.kron(sep.a, sep.b), np.eye(12), atol=1e-12)


def test_separable_beats_random_probes():
    grid = make_grid(2, [6, 6])
    rng = make_rng(4)
    f = FieldMatrix(grid, gaussian(rng, (20, 36)))
    c = dense_covariance(f)
    sep = best_separable_2d(EmpiricalCovariance(f))
    best_err = np.linalg.norm(c - np.kron(sep.a, sep.b))
    for _ in range(1000):
        pa = gaussian(rng, (6, 6))
        pa = (pa + pa.T) / 2
        pb = gaussian(rng, (6, 6))
        pb = (pb + pb.T) / 2
        probe = np.kron(pa, pb)
        scale = (c * probe).sum() / max((probe * probe).sum(), 1e-300)
        err = np.linalg.norm(c - scale * probe)
        assert best_err <= err + 1e-12


def test_separable_no_worse_than_constant_candidate():
    grid = make_grid(2, [5, 5])
    f = sample_gaussian_fields(IntegratedBrownianSheet(2), grid, 60, seed=14).centered()
    c = dense_covariance(f)
    sep = best_separable_2d(EmpiricalCovariance(f))
    err = np.linalg.norm(c - np.kron(sep.a, sep.b))
    trivial = np.full_like(c, c.mean())
    assert err <= np.linalg.norm(c - trivial) + 1e-12


def test_separable_equal_factor_norms():
    grid = make_grid(2, [4, 4])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 30, seed=15).centered()
    sep = best_separable_2d(EmpiricalCovariance(f))
    assert np.linalg.norm(sep.a) == pytest.approx(np.linalg.norm(sep.b), rel=1e-12)


def test_separable_rejects_other_dims():
    grid = make_grid(3, [2, 2, 2])
    emp = EmpiricalCovariance(FieldMatrix(grid, np.eye(8)))
    with pytest.raises(ValueError):
        best_separable_2d(emp)


@pytest.mark.parametrize(
    "sizes",
    [(5, 7), (7, 5), (1, 6), (6, 1), (1, 1), (2, 2), (2, 3), (3, 2), (2, 9)],
    ids=["5x7", "7x5", "1x6", "6x1", "1x1", "2x2", "2x3", "3x2", "2x9"],
)
def test_separable_matches_dense_svd_oracle(sizes):
    grid = make_grid(2, sizes)
    f = sample_gaussian_fields(BrownianSheet(2), grid, 30, seed=16).centered()
    sep = best_separable_2d(EmpiricalCovariance(f))
    want = dense_separable_oracle(f)
    got = np.kron(sep.a, sep.b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.trace(sep.a) >= 0


@pytest.fixture
def svds_products(monkeypatch):
    """Wraps scipy's svds: counts the operator products it asks for.

    Returns a dict whose "products" entry is the number of matvec and
    rmatvec calls since the last reset; with `default_krylov` set, the `ncv`
    argument is dropped, so that svds runs with its default Krylov space.
    """
    import scipy.sparse.linalg as sparse_linalg

    real_svds = sparse_linalg.svds
    state = {"products": 0, "default_krylov": False}

    def counted(op, **kwargs):
        def matvec(x):
            state["products"] += 1
            return op.matvec(x)

        def rmatvec(x):
            state["products"] += 1
            return op.rmatvec(x)

        if state["default_krylov"]:
            kwargs.pop("ncv", None)
        wrapped = sparse_linalg.LinearOperator(op.shape, matvec, rmatvec, dtype=op.dtype)
        return real_svds(wrapped, **kwargs)

    monkeypatch.setattr(sparse_linalg, "svds", counted)
    return state


SEPARABLE_CASES = {
    "rotated40x40": (RotatedBrownianSheet(rotation_2d_45()), (40, 40), 300),
    "brownian30x20": (BrownianSheet(2), (30, 20), 200),
    "matern16x16": (Matern(0.7, 2), (16, 16), 100),
}


@pytest.mark.parametrize("case", list(SEPARABLE_CASES))
def test_separable_small_krylov_space_matches_default(case, svds_products):
    spec, sizes, n = SEPARABLE_CASES[case]
    f = sample_gaussian_fields(spec, make_grid(2, sizes), n, seed=25).centered()
    emp = EmpiricalCovariance(f)
    sep = best_separable_2d(emp)
    svds_products["default_krylov"] = True
    ref = best_separable_2d(emp)
    for got, want in ((sep.a, ref.a), (sep.b, ref.b)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_separable_needs_few_operator_products(svds_products):
    spec, sizes, n = SEPARABLE_CASES["rotated40x40"]
    f = sample_gaussian_fields(spec, make_grid(2, sizes), n, seed=26).centered()
    emp = EmpiricalCovariance(f)
    best_separable_2d(emp)
    products = svds_products["products"]
    svds_products.update(products=0, default_krylov=True)
    best_separable_2d(emp)
    # ARPACK's default 20-vector Krylov space takes 43 products here
    assert products <= 25 < svds_products["products"]


def covariance(name):
    """One of the nine covariances that answer kernel_pairs, on d = 2."""
    if name == "fitted":
        arch = Architecture.shallow(3, 2)
        return FittedCovariance(arch, init_params(arch, 1, seed=5)[0], np.eye(3))
    if name in ("empirical", "separable"):
        f = sample_gaussian_fields(BrownianSheet(2), make_grid(2, [4, 5]), 10, seed=29)
        emp = EmpiricalCovariance(f.centered())
        return emp if name == "empirical" else best_separable_2d(emp)
    return {
        "brownian": BrownianSheet(2),
        "integrated_brownian": IntegratedBrownianSheet(2),
        "rotated_brownian": RotatedBrownianSheet(rotation_2d_45()),
        "rotated_integrated_brownian": RotatedIntegratedBrownianSheet(rotation_2d_45()),
        "matern": Matern(1.5, 2),
        "zero": ZeroCovariance(),
    }[name]


COVARIANCES = [
    "brownian", "integrated_brownian", "rotated_brownian", "rotated_integrated_brownian",
    "matern", "fitted", "empirical", "separable", "zero",
]


@pytest.mark.parametrize(
    "name, bad",
    # the zero estimator has no dimension, so no column count is wrong for it
    [(name, bad) for name in COVARIANCES for bad in ("nan", "inf", "-inf", "columns", "rows")
     if (name, bad) != ("zero", "columns")],
)
def test_every_covariance_takes_finite_point_pairs_of_one_shape(name, bad):
    cov = covariance(name)
    good = np.full((5, 2), 0.5)
    assert cov.kernel_pairs(good, good).shape == (5,)
    if bad in ("nan", "inf", "-inf"):
        broken = good.copy()
        broken[3, 1] = float(bad)
        pairs = [(broken, good), (good, broken)]
        message = "evaluation points must be finite"
    elif bad == "columns":
        pairs = [(np.full((5, 3), 0.5),) * 2, (np.full((5, 1), 0.5),) * 2]
        message = r"points must be \(M, 2\)"
    else:
        pairs = [(good, good[:1]), (good[:1], good)]
        message = "paired points must have one shape"
    for u, v in pairs:
        with pytest.raises(ValueError, match=message):
            cov.kernel_pairs(u, v)


def test_separable_repeats_bit_identically():
    grid = make_grid(2, [8, 6])
    f = sample_gaussian_fields(BrownianSheet(2), grid, 25, seed=17).centered()
    first = best_separable_2d(EmpiricalCovariance(f))
    second = best_separable_2d(EmpiricalCovariance(f))
    np.testing.assert_array_equal(first.a, second.a)
    np.testing.assert_array_equal(first.b, second.b)


def test_separable_of_zero_fields_is_zero():
    grid = make_grid(2, [3, 4])
    f = FieldMatrix(grid, np.ones((1, 12))).centered()
    sep = best_separable_2d(EmpiricalCovariance(f))
    np.testing.assert_array_equal(np.kron(sep.a, sep.b), 0.0)


def test_relative_error_of_truth_is_zero():
    from covnet.simulate import RotatedIntegratedBrownianSheet

    for spec in (
        BrownianSheet(2),
        RotatedBrownianSheet(rotation_2d_45()),
        IntegratedBrownianSheet(2),
        RotatedIntegratedBrownianSheet(rotation_2d_45()),
        Matern(0.7, 2),
    ):
        err = relative_error_mc(spec, spec, 2, m=2000, seed=5)
        assert err == 0.0


def test_relative_error_of_zero_is_one():
    err = relative_error_mc(ZeroCovariance(), BrownianSheet(2), 2, m=5000, seed=6)
    assert err == 1.0


def test_relative_error_deterministic():
    grid = make_grid(2, [6, 6])
    f = FieldMatrix(grid, gaussian(make_rng(7), (9, 36)))
    emp = EmpiricalCovariance(f.centered())
    a = relative_error_mc(emp, BrownianSheet(2), 2, m=4000, seed=8)
    b = relative_error_mc(emp, BrownianSheet(2), 2, m=4000, seed=8)
    assert a == b


def test_brownian_hs_norm_monte_carlo():
    # mean c^2 over uniform pairs = (integral of min(u,v)^2)^2 = 1/36
    rng = make_rng(9)
    u = rng.random((100_000, 2))
    v = rng.random((100_000, 2))
    vals = BrownianSheet(2).kernel_pairs(u, v)
    mean_sq = (vals**2).mean()
    assert 1 / 36 * 0.97 <= mean_sq <= 1 / 36 * 1.03


def test_degenerate_truth_rejected():
    grid = make_grid(2, [3, 3])
    emp = EmpiricalCovariance(FieldMatrix(grid, np.zeros((2, 9))))
    with pytest.raises(DegenerateTruthError):
        relative_error_mc(emp, emp, 2, m=100, seed=1)


def test_nearest_voxel_lookup_matches_grid_nodes():
    grid = make_grid(2, [4, 4])
    x = sample_gaussian_fields(BrownianSheet(2), grid, 12, seed=18).centered().values
    emp = EmpiricalCovariance(FieldMatrix(grid, x))
    # points anywhere inside a voxel read that voxel's node value
    pts = grid.coordinates() + 0.1 / 4
    idx = [0, 5, 11, 15]
    jdx = [3, 5, 0, 14]
    got = emp.kernel_pairs(pts[idx], pts[jdx])
    want = [np.mean(x[:, i] * x[:, j]) for i, j in zip(idx, jdx)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_baselines_read_the_edge_voxel_at_huge_coordinates():
    grid = make_grid(2, [4, 5])
    emp = EmpiricalCovariance(sample_gaussian_fields(BrownianSheet(2), grid, 12, seed=19).centered())
    far = np.array([[1e300, 0.5], [0.3, -1e300]])
    edge = np.array([[1.0, 0.5], [0.3, 0.0]])
    v = np.full((2, 2), 0.6)
    for est in (emp, best_separable_2d(emp)):
        np.testing.assert_array_equal(est.kernel_pairs(far, v), est.kernel_pairs(edge, v))


@pytest.mark.parametrize("m", [1, 127, 128, 129, 300])
def test_empirical_pair_blocks_give_the_bits_of_one_pair_calls(m):
    # 128 pairs is one block (_PAIR_CHUNK): one pair short of, at and past it
    grid = make_grid(2, [7, 6])
    emp = EmpiricalCovariance(FieldMatrix(grid, gaussian(make_rng(26), (30, 42))).centered())
    rng = make_rng(27)
    u, v = rng.random((m, 2)), rng.random((m, 2))
    got = emp.kernel_pairs(u, v)
    want = [emp.kernel_pairs(u[i : i + 1], v[i : i + 1])[0] for i in range(m)]
    assert got.tolist() == want


class PairLoopOracle:
    """Point-pair values computed one pair at a time from per-voxel values."""

    def __init__(self, grid, value):
        self.grid = grid
        self.value = value

    def kernel_pairs(self, u, v):
        iu = self.grid.flat_index(u)
        iv = self.grid.flat_index(v)
        return np.array([self.value(i, j) for i, j in zip(iu, iv)])


def rank_three_fields_70x70():
    """Fields X_n = p_n q_n^T on a 70 x 70 grid, D = 4900."""
    grid = make_grid(2, [70, 70])
    rng = make_rng(19)
    p = gaussian(rng, (3, 70))
    q = gaussian(rng, (3, 70))
    return FieldMatrix(grid, np.stack([np.outer(p[n], q[n]).ravel() for n in range(3)])), p, q


def test_baselines_beyond_4096_points_match_pair_oracles():
    f, p, q = rank_three_fields_70x70()
    x = f.values
    emp = EmpiricalCovariance(f)
    emp_oracle = PairLoopOracle(f.grid, lambda i, j: np.mean(x[:, i] * x[:, j]))
    assert relative_error_mc(emp, emp_oracle, 2, m=3000, seed=20) <= 1e-13

    # the rearranged covariance is N^-1 U V^T with U, V the vec(p_n p_n^T),
    # vec(q_n q_n^T) columns; its leading pair comes from a 3 x 3 SVD
    qu, ru = np.linalg.qr(np.stack([np.outer(pn, pn).ravel() for pn in p], axis=1))
    qv, rv = np.linalg.qr(np.stack([np.outer(qn, qn).ravel() for qn in q], axis=1))
    mu, s, mvt = np.linalg.svd(ru @ rv.T / 3)
    a = np.sqrt(s[0]) * (qu @ mu[:, 0]).reshape(70, 70)
    b = np.sqrt(s[0]) * (qv @ mvt[0]).reshape(70, 70)
    sep = best_separable_2d(emp)
    sep_oracle = PairLoopOracle(
        f.grid, lambda i, j: a[i // 70, j // 70] * b[i % 70, j % 70]
    )
    assert relative_error_mc(sep, sep_oracle, 2, m=3000, seed=21) <= 1e-12
    for est in (emp, sep):
        assert 0.0 < relative_error_mc(est, BrownianSheet(2), 2, m=3000, seed=22) < np.inf


def test_baselines_memory_stays_far_below_one_dense_covariance(traced_peak):
    grid = make_grid(2, [70, 70])
    f = FieldMatrix(grid, gaussian(make_rng(23), (3, grid.n_points)))

    def build_and_score():
        emp = EmpiricalCovariance(f.centered())
        sep = best_separable_2d(emp)
        for est in (emp, sep):
            relative_error_mc(est, BrownianSheet(2), 2, m=20_000, seed=24)

    peak = traced_peak(build_and_score)
    assert peak < grid.n_points**2 * 8 / 10