import dataclasses
import math
import re
from functools import reduce

import numpy as np
import pytest

from covnet import errors, simulate
from covnet.errors import ResourceLimitError
from covnet.fields import make_grid
from covnet.rng import gaussian, make_rng
from covnet.simulate import (
    KERNEL_MATRIX_CAP,
    BrownianSheet,
    IntegratedBrownianSheet,
    Matern,
    NoiseSpec,
    RotatedBrownianSheet,
    RotatedIntegratedBrownianSheet,
    _PRODUCT_BLOCK,
    _block_factors,
    kernel_matrix,
    rotation_2d_45,
    rotation_3d_composed,
    sample_gaussian_fields,
)

# frozen mpmath (40-digit) values of the matern covariance, (nu, r, c_nu(r))
MATERN_ORACLE = [
    (0.01, 0.001, 0.16438990282285125256),
    (0.01, 0.04, 0.10041041598373579651),
    (0.01, 0.2, 0.070999734361957842155),
    (0.01, 1.0, 0.040892634172759770134),
    (0.01, 3.0, 0.021061514730334248195),
    (0.01, 10.0, 0.004793628615215437641),
    (0.1, 0.001, 0.7908860211614382461),
    (0.1, 0.04, 0.56274129451879864722),
    (0.1, 0.2, 0.39774825137855169353),
    (0.1, 1.0, 0.18549910644667603797),
    (0.1, 3.0, 0.053322605904396448846),
    (0.1, 10.0, 0.0015053472546420386689),
    (0.5, 0.001, 0.99900049983337499167),
    (0.5, 0.04, 0.96078943915232320944),
    (0.5, 0.2, 0.81873075307798185867),
    (0.5, 1.0, 0.3678794411714423216),
    (0.5, 3.0, 0.049787068367863942979),
    (0.5, 10.0, 0.000045399929762484851536),
    (1.0, 0.001, 0.99999282288481386095),
    (1.0, 0.04, 0.99441611313275890672),
    (1.0, 0.2, 0.92379258011193674151),
    (1.0, 1.0, 0.44434252363223604134),
    (1.0, 3.0, 0.040171112315525173834),
    (1.0, 10.0, 3.4881724000762605386e-6),
    (1.5, 0.001, 0.999998501730926327),
    (1.5, 0.04, 0.99770802370131533561),
    (1.5, 0.2, 0.95221136147723486413),
    (1.5, 1.0, 0.4833577245965076506),
    (1.5, 3.0, 0.03431324319746016059),
    (1.5, 10.0, 5.5047352012555124286e-7),
    (2.5, 0.001, 0.99999916666770709194),
    (2.5, 0.04, 0.99866920960994543261),
    (2.5, 0.2, 0.96798611996407139506),
    (2.5, 1.0, 0.52399410883182031059),
    (2.5, 3.0, 0.027723421914625810967),
    (2.5, 10.0, 3.6956962220528724424e-8),
    (5.0, 0.001, 0.99999937500026041656),
    (5.0, 0.04, 0.99900066622266430024),
    (5.0, 0.2, 0.97540988365017445184),
    (5.0, 1.0, 0.56222163577722540786),
    (5.0, 3.0, 0.02093252940929158459),
    (5.0, 10.0, 4.9792133241524195993e-10),
]


def test_brownian_sheet_min_product():
    val = BrownianSheet(2).kernel_pairs([[0.3, 0.4]], [[0.7, 0.2]])[0]
    assert val == pytest.approx(0.06, abs=1e-15)


def test_integrated_brownian_endpoint():
    val = IntegratedBrownianSheet(1).kernel_pairs([[1.0]], [[1.0]])[0]
    assert val == pytest.approx(1 / 3, rel=1e-14)


def test_matern_half_is_exponential():
    u = np.array([0.0, 0.0])
    v = np.array([0.6, 0.8])  # distance exactly 1
    val = Matern(0.5, 2).kernel_pairs([u], [v])[0]
    assert val == pytest.approx(np.exp(-1.0), rel=1e-10)


def test_matern_at_zero_distance():
    for nu in (0.01, 0.3, 1.7):
        assert Matern(nu, 2).kernel_pairs([[0.4, 0.4]], [[0.4, 0.4]])[0] == 1.0


def test_matern_rejects_nonpositive_nu():
    with pytest.raises(ValueError):
        Matern(0.0, 2)
    with pytest.raises(ValueError):
        Matern(-1.0, 2)


def test_matern_against_mpmath_table():
    for nu, r, expected in MATERN_ORACLE:
        u = np.array([0.0, 0.0])
        v = np.array([r, 0.0])
        got = Matern(nu, 2).kernel_pairs([u], [v])[0]
        assert got == pytest.approx(expected, rel=1e-10), (nu, r)


def test_matern_strictly_decreasing_on_radius_ladder():
    radii = np.linspace(0.01, 2.0, 40)
    for nu in (0.05, 0.5, 2.0):
        vals = [Matern(nu, 1).kernel_pairs([[0.0]], [[r]])[0] for r in radii]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rotation_2d_values():
    o = rotation_2d_45()
    np.testing.assert_allclose(o @ np.array([1.0, 0.0]), [1 / np.sqrt(2)] * 2, atol=1e-15)
    np.testing.assert_allclose(o.T @ o, np.eye(2), atol=1e-15)
    assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-15)


def test_rotation_3d_composed():
    o = rotation_3d_composed()
    np.testing.assert_allclose(o.T @ o, np.eye(3), atol=1e-14)
    assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-14)
    # independent 3x3 multiply oracle for O_z O_y O_x
    s = 1 / np.sqrt(2)
    ox = [[1, 0, 0], [0, s, -s], [0, s, s]]
    oy = [[s, 0, s], [0, 1, 0], [-s, 0, s]]
    oz = [[s, -s, 0], [s, s, 0], [0, 0, 1]]

    def mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    np.testing.assert_allclose(o, np.array(mul(mul(oz, oy), ox)), atol=1e-15)


def test_rotated_specs_validate_orthogonality():
    with pytest.raises(ValueError):
        RotatedBrownianSheet(np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize("family", [RotatedBrownianSheet, RotatedIntegratedBrownianSheet])
def test_rotated_specs_reject_a_nan_entry(family):
    o = rotation_2d_45()
    o[1, 0] = np.nan
    with pytest.raises(ValueError, match="not orthogonal"):
        family(o)


def test_kernel_symmetry():
    rng = np.random.Generator(np.random.Philox(key=1))
    u = rng.random((50, 2))
    v = rng.random((50, 2))
    for spec in (
        BrownianSheet(2),
        IntegratedBrownianSheet(2),
        Matern(1.3, 2),
    ):
        np.testing.assert_array_equal(
            spec.kernel_pairs(u, v), spec.kernel_pairs(v, u)
        )
    for spec in (
        RotatedBrownianSheet(rotation_2d_45()),
        RotatedIntegratedBrownianSheet(rotation_2d_45()),
    ):
        a = spec.kernel_pairs(u, v)
        b = spec.kernel_pairs(v, u)
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_kernel_matrix_brownian_1d():
    grid = make_grid(1, [2])
    np.testing.assert_allclose(
        kernel_matrix(BrownianSheet(1), grid), [[0.25, 0.25], [0.25, 0.75]]
    )


def test_kernel_matrix_matches_pointwise_loop():
    grid = make_grid(2, [3, 3])
    spec = Matern(1.0, 2)
    got = kernel_matrix(spec, grid)
    pts = grid.coordinates()
    oracle = np.array(
        [[spec.kernel_pairs([pts[i]], [pts[j]])[0] for j in range(9)] for i in range(9)]
    )
    np.testing.assert_allclose(got, oracle, rtol=1e-14)


SYMMETRY_SPECS = [
    (BrownianSheet(1), [40]),
    (BrownianSheet(2), [9, 7]),
    (BrownianSheet(3), [5, 4, 3]),
    (IntegratedBrownianSheet(1), [40]),
    (IntegratedBrownianSheet(2), [9, 7]),
    (IntegratedBrownianSheet(3), [5, 4, 3]),
    (RotatedBrownianSheet(rotation_2d_45()), [9, 7]),
    (RotatedBrownianSheet(rotation_3d_composed()), [5, 4, 3]),
    (RotatedIntegratedBrownianSheet(rotation_2d_45()), [9, 7]),
    (RotatedIntegratedBrownianSheet(rotation_3d_composed()), [5, 4, 3]),
    (Matern(0.01, 1), [40]),
    (Matern(0.7, 2), [9, 7]),
    (Matern(2.5, 3), [5, 4, 3]),
]


@pytest.mark.parametrize(
    "spec, sizes",
    SYMMETRY_SPECS,
    ids=[f"{type(s).__name__}-{'x'.join(map(str, k))}" for s, k in SYMMETRY_SPECS],
)
def test_kernel_matrix_is_exactly_symmetric(spec, sizes, monkeypatch):
    grid = make_grid(len(sizes), sizes)
    c = kernel_matrix(spec, grid)
    assert np.array_equal(c, c.T)
    # row blocks of every size, one row included, fill the same matrix
    monkeypatch.setattr(simulate, "_MATRIX_BLOCK", 1)
    assert np.array_equal(kernel_matrix(spec, grid), c)


def test_kernel_matrix_cap():
    # the cap is checked before any D x D array is formed
    with pytest.raises(ResourceLimitError):
        kernel_matrix(BrownianSheet(1), make_grid(1, [KERNEL_MATRIX_CAP + 1]))


@pytest.mark.parametrize(
    "spec",
    [
        BrownianSheet(2),
        RotatedBrownianSheet(rotation_2d_45()),
        IntegratedBrownianSheet(2),
        RotatedIntegratedBrownianSheet(rotation_2d_45()),
        Matern(0.01, 2),
        Matern(2.0, 2),
    ],
    ids=lambda s: type(s).__name__ + getattr(s, "nu", 0.0).__repr__(),
)
def test_kernel_matrices_are_psd(spec):
    for sizes in ([5, 5], [14, 14]):
        c = kernel_matrix(spec, make_grid(2, sizes))
        np.testing.assert_allclose(c, c.T, atol=1e-15)
        assert np.all(np.diag(c) >= 0)
        smallest = np.linalg.eigvalsh(c)[0]
        assert smallest >= -1e-8 * np.trace(c)


def test_sampling_deterministic():
    grid = make_grid(2, [5, 5])
    a = sample_gaussian_fields(BrownianSheet(2), grid, 10, seed=42)
    b = sample_gaussian_fields(BrownianSheet(2), grid, 10, seed=42)
    assert np.array_equal(a.values, b.values)


def test_sampling_empirical_covariance():
    grid = make_grid(1, [2])
    f = sample_gaussian_fields(BrownianSheet(1), grid, 20000, seed=7)
    emp = f.values.T @ f.values / f.n
    target = np.array([[0.25, 0.25], [0.25, 0.75]])
    np.testing.assert_allclose(emp, target, rtol=0.05)


def test_sampling_mean_near_zero():
    grid = make_grid(1, [3])
    n = 20000
    f = sample_gaussian_fields(BrownianSheet(1), grid, n, seed=3)
    mid = np.array([[1 / 6], [3 / 6], [5 / 6]])
    variances = BrownianSheet(1).kernel_pairs(mid, mid)
    bound = 4 * np.sqrt(variances / n)
    assert np.all(np.abs(f.values.mean(axis=0)) <= bound)


def test_noise_changes_fields_but_not_draw():
    grid = make_grid(1, [4])
    clean = sample_gaussian_fields(BrownianSheet(1), grid, 5, seed=11)
    noisy = sample_gaussian_fields(BrownianSheet(1), grid, 5, seed=11, noise=NoiseSpec(0.5))
    zero_noise = sample_gaussian_fields(BrownianSheet(1), grid, 5, seed=11, noise=NoiseSpec(0.0))
    assert np.array_equal(clean.values, zero_noise.values)
    assert not np.array_equal(clean.values, noisy.values)
    resid = noisy.values - clean.values
    assert np.std(resid) == pytest.approx(0.5, rel=0.3)


def test_noise_is_stream_3_of_the_draw_seed():
    # the draw's seed is the noise's only seed
    assert [f.name for f in dataclasses.fields(NoiseSpec)] == ["sigma"]
    grid = make_grid(2, [4, 3])
    noise = {}
    for seed in (1, 2):
        clean = sample_gaussian_fields(BrownianSheet(2), grid, 6, seed).values
        noisy = sample_gaussian_fields(BrownianSheet(2), grid, 6, seed, NoiseSpec(0.5)).values
        assert np.array_equal(noisy, clean + 0.5 * gaussian(make_rng(seed, 3), clean.shape))
        noise[seed] = noisy - clean
    # draws at different seeds get different noise
    assert not np.allclose(noise[1], noise[2])


def test_noisy_draw_checks_memory_for_the_noise(monkeypatch):
    # n * D values fit in memory, the draw and its noise (twice that) do not
    grid = make_grid(2, [4, 4])
    monkeypatch.setattr(errors, "_MEMORY_BYTES", 8 * 4 * grid.n_points)
    assert sample_gaussian_fields(BrownianSheet(2), grid, 4, seed=1).n == 4

    def unbuilt(*args):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(simulate, "kernel_matrix", unbuilt)
    message = "4 fields of 16 points and their noise do not fit in memory"
    with pytest.raises(ResourceLimitError, match=message):
        sample_gaussian_fields(BrownianSheet(2), grid, 4, seed=1, noise=NoiseSpec(0.1))


def test_noise_spec_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-0.1)


def test_noise_spec_rejects_nan_sigma():
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        NoiseSpec(sigma=float("nan"))


@pytest.mark.parametrize("sigma", [math.inf, 1e308])
def test_noise_spec_rejects_a_sigma_whose_noise_can_overflow(sigma):
    # refused on construction, before any factor or draw; the suite turns a
    # RuntimeWarning, such as an overflow in the noise, into an error
    with pytest.raises(ValueError, match="noise can overflow"):
        NoiseSpec(sigma)


def test_noise_spec_accepts_a_huge_sigma_whose_noise_stays_finite():
    # 9 sigma is finite, and so is every noisy value
    noisy = sample_gaussian_fields(BrownianSheet(1), make_grid(1, [4]), 5, 11, NoiseSpec(1e300))
    assert np.isfinite(noisy.values).all()


def jittered_cholesky_oracle(c):
    """np.linalg.cholesky of c + jitter I at the first jitter that succeeds, and that jitter."""
    base = 1e-12 * np.trace(c) / c.shape[0]
    for attempt in range(7):
        jitter = base * 10.0**attempt
        try:
            return np.linalg.cholesky(c + jitter * np.eye(c.shape[0])), jitter
        except np.linalg.LinAlgError:
            continue
    raise AssertionError("no jitter factors the matrix")


def dense_factor_draw(spec, grid, n, seed):
    """Reference draw: the jittered Cholesky factor of the full kernel matrix."""
    chol, _ = jittered_cholesky_oracle(kernel_matrix(spec, grid))
    return gaussian(make_rng(seed), (n, grid.n_points)) @ chol.T


def assert_factors_with_oracle_jitter(chol, c):
    """chol is lower triangular and reconstructs c + jitter I, with the oracle's jitter."""
    _, jitter = jittered_cholesky_oracle(c)
    assert not np.triu(chol, 1).any()
    # the jitter chol carries: the mean of diag(L L^T) - diag(c); attempts differ 10-fold
    carried = np.mean(np.einsum("ij,ij->i", chol, chol) - c.diagonal())
    assert carried == pytest.approx(jitter, rel=0.1)
    target = c + jitter * np.eye(c.shape[0])
    rel = np.linalg.norm(chol @ chol.T - target) / np.linalg.norm(target)
    assert rel <= 2e-15


@pytest.mark.parametrize("product", [BrownianSheet, IntegratedBrownianSheet])
@pytest.mark.parametrize("sizes", [[6, 5], [3, 4, 2]])
def test_product_kernel_factors_kronecker_to_kernel_matrix(product, sizes):
    grid = make_grid(len(sizes), sizes)
    spec = product(grid.d)
    factors = _block_factors(spec, grid)
    assert [f.shape for f in factors] == [(k, k) for k in sizes]
    chol = reduce(np.kron, factors)
    c = kernel_matrix(spec, grid)
    # each axis's jitter, 1e-12 of its mean diagonal, moves the product by at
    # most 1e-12 relative Frobenius (||C_k||_F >= trace(C_k) / sqrt(K_k))
    rel = np.linalg.norm(chol @ chol.T - c) / np.linalg.norm(c)
    assert rel <= 1e-12 * grid.d


def test_product_kernel_draw_matches_dense_factor():
    grid = make_grid(2, [6, 5])
    got = sample_gaussian_fields(BrownianSheet(2), grid, 40, seed=8).values
    want = dense_factor_draw(BrownianSheet(2), grid, 40, seed=8)
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


@pytest.mark.parametrize(
    "spec, sizes",
    [
        (BrownianSheet(1), [9]),
        (IntegratedBrownianSheet(1), [9]),
        (RotatedBrownianSheet(rotation_2d_45()), [6, 5]),
        (RotatedIntegratedBrownianSheet(rotation_2d_45()), [6, 5]),
        (RotatedBrownianSheet(rotation_3d_composed()), [3, 4, 2]),
        (Matern(0.7, 2), [6, 5]),
        (Matern(1.5, 3), [3, 4, 2]),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, list) else "x".join(map(str, v)),
)
def test_dense_factor_draws_are_bit_identical_to_oracle(spec, sizes):
    grid = make_grid(len(sizes), sizes)
    got = sample_gaussian_fields(spec, grid, 12, seed=4).values
    assert np.array_equal(got, dense_factor_draw(spec, grid, 12, seed=4))


@pytest.mark.parametrize(
    "spec, sizes",
    [
        (RotatedBrownianSheet(rotation_2d_45()), [33, 33]),
        (RotatedIntegratedBrownianSheet(rotation_2d_45()), [33, 33]),
        (Matern(0.7, 2), [33, 33]),
        (IntegratedBrownianSheet(1), [1100]),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, list) else "x".join(map(str, v)),
)
def test_multi_block_factor_reconstructs_the_jittered_kernel_matrix(spec, sizes):
    # D = 1089 and K = 1100 span two 1024-row blocks of the in-place Cholesky
    grid = make_grid(len(sizes), sizes)
    [chol] = _block_factors(spec, grid)
    assert chol.shape[0] > simulate._CHOLESKY_BLOCK
    assert_factors_with_oracle_jitter(chol, kernel_matrix(spec, grid))


@pytest.mark.parametrize(
    "spec", [RotatedBrownianSheet(rotation_2d_45()), Matern(0.7, 2)], ids=lambda v: type(v).__name__
)
@pytest.mark.parametrize("k", [25, 32])
def test_one_block_dense_draws_are_bit_identical_to_oracle(spec, k):
    # 32 x 32 is exactly one 1024-row block
    grid = make_grid(2, [k, k])
    got = sample_gaussian_fields(spec, grid, 6, seed=12).values
    assert np.array_equal(got, dense_factor_draw(spec, grid, 6, seed=12))


def escalating_matrix():
    """A D = 1100 matrix that the third jitter, base * 100, is the first to factor.

    B B^T has rank 1050 < D, so B B^T - delta I is indefinite until the
    jitter exceeds delta, 50 times the first jitter.  Its leading 1024 x 1024
    block, (B B^T)_11 - delta I, has smallest eigenvalue about
    (sqrt(1050) - sqrt(1024))^2 = 0.16, so each failed attempt has overwritten
    that block and its panel before it fails.
    """
    d = 1100
    b = gaussian(make_rng(21), (d, 1050))
    c = b @ b.T
    c = (c + c.T) / 2  # exactly symmetric
    c[np.diag_indices(d)] -= 5e-11 * np.trace(c) / d
    return c


def test_jitter_retry_factors_a_fresh_matrix_after_a_failed_attempt_overwrote_the_last():
    c = escalating_matrix()
    d = c.shape[0]
    base = 1e-12 * np.trace(c) / d
    block = simulate._CHOLESKY_BLOCK
    np.linalg.cholesky(c[:block, :block] + base * np.eye(block))
    _, jitter = jittered_cholesky_oracle(c)
    assert jitter == base * 100.0
    builds = []

    def build():
        builds.append(1)
        return c.copy()

    assert_factors_with_oracle_jitter(simulate._jittered_cholesky(build), c)
    assert len(builds) == 3  # one fresh matrix per attempt


def test_jitter_retry_holds_one_matrix_at_a_time(traced_peak):
    # the failed attempt's matrix is dropped before the next is built.  The
    # sampler imports LAPACK on first use; it is imported here first
    import scipy.linalg.lapack  # noqa: F401

    c = escalating_matrix()
    peak = traced_peak(lambda: simulate._jittered_cholesky(c.copy))
    assert peak < 1.5 * c.nbytes


def test_sampling_empirical_covariance_integrated_sheet():
    grid = make_grid(2, [3, 2])
    spec = IntegratedBrownianSheet(2)
    f = sample_gaussian_fields(spec, grid, 20000, seed=7)
    emp = f.values.T @ f.values / f.n
    np.testing.assert_allclose(emp, kernel_matrix(spec, grid), rtol=0.05)


def test_zero_covariance_grid_samples_zeros():
    # the only midpoint (1/2, 1/2) rotates onto the axis u_1 = 0: variance 0
    grid = make_grid(2, [1, 1])
    f = sample_gaussian_fields(RotatedBrownianSheet(rotation_2d_45()), grid, 4, seed=3)
    assert np.array_equal(f.values, np.zeros((4, 1)))


def test_product_kernel_sampling_memory_stays_far_below_one_kernel_matrix(traced_peak):
    grid = make_grid(2, [64, 64])
    peak = traced_peak(lambda: sample_gaussian_fields(BrownianSheet(2), grid, 4, seed=5))
    assert peak < grid.n_points**2 * 8 / 10


def out_of_place_draw(spec, grid, n, seed, noise=None):
    """Reference Kronecker draw: a new array for every factor and for the noise."""
    factors = _block_factors(spec, grid)
    sizes = [f.shape[0] for f in factors]
    y = gaussian(make_rng(seed), (n, grid.n_points))
    for k, f in enumerate(factors):
        after = math.prod(sizes[k + 1 :])
        if after == 1:
            y = y.reshape(-1, sizes[k]) @ f.T
        else:
            y = np.matmul(f, y.reshape(-1, sizes[k], after))
    values = y.reshape(n, grid.n_points)
    if noise is not None:
        values = values + noise.sigma * gaussian(make_rng(seed, stream=3), values.shape)
    return values


# (sizes, N): 64x64 at N = 1600 is a 102400-row last-axis product, and 3x5 at
# N = 2731 has 8193 last-axis rows, so a 1-row remainder
KRONECKER_DRAWS = [
    ([6, 5], 40),
    ([64, 64], 1600),
    ([128, 128], 40),
    ([3, 4, 2], 30),
    ([16, 16, 16], 20),
    ([32, 32, 32], 5),
    ([3, 5], 2731),
]


@pytest.mark.parametrize("noise", [None, NoiseSpec(0.3)], ids=["clean", "noisy"])
@pytest.mark.parametrize("product", [BrownianSheet, IntegratedBrownianSheet])
@pytest.mark.parametrize(
    "sizes, n", KRONECKER_DRAWS, ids=[f"{'x'.join(map(str, k))}-N{n}" for k, n in KRONECKER_DRAWS]
)
def test_in_place_kronecker_draw_is_bit_identical_to_out_of_place(product, sizes, n, noise):
    grid = make_grid(len(sizes), sizes)
    got = sample_gaussian_fields(product(grid.d), grid, n, seed=7, noise=noise).values
    assert np.array_equal(got, out_of_place_draw(product(grid.d), grid, n, 7, noise))


def test_kronecker_draw_holds_one_output_array(traced_peak):
    grid = make_grid(2, [64, 64])
    output = 400 * grid.n_points * 8
    peak = traced_peak(lambda: sample_gaussian_fields(BrownianSheet(2), grid, 400, seed=5))
    assert peak <= output + 4 * 2**20
    noise = NoiseSpec(0.1)
    peak = traced_peak(lambda: sample_gaussian_fields(BrownianSheet(2), grid, 400, 5, noise))
    assert peak <= 2 * output + 4 * 2**20


def test_kronecker_draw_rss_grows_by_about_one_output(rss_growth):
    # 64x64, N = 1600: an out-of-place product per axis holds two outputs
    growth = rss_growth(
        "g = covnet.make_grid(2, [64, 64])\n"
        "f = covnet.sample_gaussian_fields(covnet.BrownianSheet(2), g, 1600, seed=5)"
    )
    assert growth <= 1.3 * 1600 * 64 * 64 * 8


def test_dense_draw_rss_grows_by_one_kernel_matrix_and_the_draw(rss_growth):
    # the kernel matrix, which LAPACK factors in place, and the N x D draw and
    # one row block's product; the slack covers what the first BLAS and
    # LAPACK calls touch, 11.6 MiB on x86-64 Linux with numpy 2.4 and scipy
    # 1.17.  The sampler imports scipy.linalg.lapack on first use, which is
    # imported before the baseline here (beside covnet, which loads no
    # scipy, it adds about 27 MiB).  A blocked factor with 1024 x 1024 block
    # copies grew by 28 MiB more than that, factoring into a new array held
    # three kernel matrices, and a product of all the rows a second draw,
    # which at N = 1200 (21 MiB) the slack cannot hide
    growth = rss_growth(
        "g = covnet.make_grid(2, [48, 48])\n"
        "spec = covnet.RotatedBrownianSheet(covnet.rotation_2d_45())\n"
        "f = covnet.sample_gaussian_fields(spec, g, 1200, seed=5)",
        imports="import scipy.linalg.lapack",
    )
    d = 48 * 48
    assert growth <= (d * d + 1200 * d + _PRODUCT_BLOCK) * 8 + 15 * 2**20


def test_kernel_matrix_cap_bounds_the_dense_sampler_to_4_gib():
    # three D x D float64 arrays, what kernel_matrix and a caller's own
    # np.linalg.cholesky hold: 24 D^2 <= 4 GiB
    assert 24 * KERNEL_MATRIX_CAP**2 <= 4 * 2**30 < 24 * (KERNEL_MATRIX_CAP + 1) ** 2


def test_dense_cap_fails_before_allocating(traced_peak):
    grid = make_grid(2, [116, 116])  # D = 13456, just above the cap
    spec = RotatedBrownianSheet(rotation_2d_45())

    def draw():
        with pytest.raises(ResourceLimitError, match="exceeds kernel matrix cap 13377"):
            sample_gaussian_fields(spec, grid, 4, seed=1)

    assert traced_peak(draw) < 2**20


def test_dense_sampling_holds_one_kernel_matrix_and_the_draw(traced_peak):
    # the kernel matrix, filled in row blocks, with the jitter on its diagonal
    # and the factor written over it; beside it the N x D draw and one row
    # block's product.  The peak was 2.0 MiB above the matrix and the draw;
    # a product of all the rows held a second draw, and a factor in a new
    # array held two kernel matrices.  The sampler imports LAPACK on first
    # use; its 2.1 MiB of module objects are imported here first
    import scipy.linalg.lapack  # noqa: F401

    grid = make_grid(2, [48, 48])
    spec = RotatedBrownianSheet(rotation_2d_45())
    peak = traced_peak(lambda: sample_gaussian_fields(spec, grid, 300, seed=5))
    d = grid.n_points
    assert peak <= (d * d + 300 * d + _PRODUCT_BLOCK) * 8 + 2**20


def test_gaussian_holds_its_output_plus_a_few_blocks(traced_peak):
    shape = (400, 4096)
    peak = traced_peak(lambda: gaussian(make_rng(6), shape))
    assert peak <= shape[0] * shape[1] * 8 + 8 * 2**20


EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2, 7, 2 * 65536, 2 * 65536 + 1, 2 * 65536 + 3, 300_001])
def test_gaussian_blocks_continue_one_box_muller_stream(n):
    # the unblocked transform: pair i takes uniforms (2i, 2i + 1), and its
    # angle's cosine and sine come from the tangent of half the angle
    u = make_rng(11).random(((n + 1) // 2, 2))
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
    t = np.tan(np.pi * u[:, 1])
    q = 2.0 * (r / (1.0 + t * t))
    got = gaussian(make_rng(11), (n,))
    assert np.array_equal(got, np.stack([q - r, t * q], axis=1).ravel()[:n])
    # the cos/sin Box-Muller, within a few roundings of each pair's radius
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    theta = 2.0 * np.pi * u[:, 1]
    want = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).ravel()[:n]
    assert np.all(np.abs(got - want) <= 4 * EPS * np.repeat(r, 2)[:n])


class ChosenUniforms:
    """A generator stub whose random(out=...) fills in the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, out):
        out[...] = self.u.reshape(out.shape)
        return out


@pytest.mark.parametrize(
    "u2, direction", [(0.0, (1, 0)), (0.25, (0, 1)), (0.5, (-1, 0)), (0.75, (0, -1))]
)
def test_gaussian_pairs_at_quarter_turns_are_axis_aligned(u2, direction):
    u0 = np.array([0.0, 2.0**-53, 0.3, 0.5, 0.9, 1 - 2.0**-53])
    pairs = gaussian(ChosenUniforms(np.stack([u0, np.full_like(u0, u2)], axis=1)), (2 * u0.size,))
    r = np.sqrt(-2.0 * np.log1p(-u0))[:, None]
    assert np.all(np.abs(pairs.reshape(-1, 2) - r * np.array(direction)) <= 4 * EPS * r)


def test_gaussian_normals_stay_below_the_largest_radius():
    # u_2i = 1 - 2^-53 gives the largest radius sqrt(-2 ln 2^-53); no angle,
    # the quarter turns and their neighbours included, takes a normal past
    # it by more than one rounding, which backs NoiseSpec's 9 sigma bound
    k = np.arange(-64, 65)
    near = [c + k * 2.0**-53 for c in (0.25, 0.5, 0.75)]
    u2 = np.concatenate([np.arange(4096) / 4096, *near, 1 - 2.0**-53 * np.arange(1, 65)])
    u = np.stack([np.full_like(u2, 1 - 2.0**-53), u2], axis=1)
    z = gaussian(ChosenUniforms(u), (2 * u2.size,))
    bound = math.sqrt(-2.0 * math.log(2.0**-53)) * (1 + 2.0**-52)
    assert bound < 8.58
    assert np.abs(z).max() <= bound


@pytest.mark.parametrize("value", [-1, 2**64])
@pytest.mark.parametrize("name", ["seed", "stream"])
def test_make_rng_rejects_keys_outside_64_bits(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must lie in [0, 2^64), got {value}")):
        make_rng(**{"seed": 0, name: value})
    make_rng(**{"seed": 0, name: 2**64 - 1})


@pytest.mark.parametrize("spec", [BrownianSheet(2), Matern(1.0, 2)], ids=lambda s: type(s).__name__)
def test_sampling_rejects_grid_of_other_dimension(spec):
    with pytest.raises(ValueError, match="grid is 3-dimensional"):
        sample_gaussian_fields(spec, make_grid(3, [2, 2, 2]), 2, seed=1)
