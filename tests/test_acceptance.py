"""Acceptance gate: one test per criterion, each printing a PASS line.

Every criterion runs at its stated tolerance on fixed seeds; runtime limits
are asserted inside the tests.  Fitted models produced along the way are
collected so the PSD-by-design criterion can sweep all of them.
"""

import time

import numpy as np
import pytest

from conftest import second_moment
import covnet
from covnet.model import eval_constituents, init_params
from covnet.rng import gaussian, make_rng

MODELS: list[tuple[str, covnet.FittedCovariance]] = []

ARCH_MAKERS = {
    "shallow": lambda r, d: covnet.Architecture.shallow(r, d),
    "deep": lambda r, d: covnet.Architecture.deep(r, d, 2),
    "deepshared": lambda r, d: covnet.Architecture.deepshared(r, d, 2),
}


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS — {detail}")


def dense_oracle(f, params, arch, xi):
    x = f.values
    n, n_points = x.shape
    z = eval_constituents(params, arch, f.grid.coordinates())
    y = xi @ z.T
    return np.linalg.norm(x.T @ x / n - y.T @ y / n, "fro") ** 2 / n_points**2


def test_criterion_01_loss_identity():
    start = time.time()
    rng = make_rng(101)
    checked = 0
    while checked < 50:
        variant = ("shallow", "deep", "deepshared")[checked % 3]
        n = int(rng.integers(2, 7))
        k1 = int(rng.integers(2, 11))
        k2 = int(rng.integers(2, 11))  # D = k1 k2 <= 100
        r = int(rng.integers(1, 5))
        grid = covnet.make_grid(2, [k1, k2])
        arch = ARCH_MAKERS[variant](r, 2)
        params, xi = init_params(arch, n, seed=checked)
        x = gaussian(rng, (n, grid.n_points))
        f = covnet.FieldMatrix(grid, x - x.mean(axis=0))
        got = covnet.loss(f, params, arch, 2.0 * xi).total
        want = dense_oracle(f, params, arch, 2.0 * xi)
        assert got == pytest.approx(want, rel=1e-8), (variant, checked)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"50 instances match the dense Frobenius oracle to 1e-8 ({elapsed:.1f}s)")


def test_criterion_02_gradient_correctness():
    start = time.time()
    rng = make_rng(202)
    worst = 0.0
    for variant, maker in ARCH_MAKERS.items():
        for trial in range(20):
            n, r = 4, 2
            grid = covnet.make_grid(2, [4, 4])
            arch = maker(r, 2)
            params, xi = init_params(arch, n, seed=1000 + trial)
            x = gaussian(rng, (n, 16))
            f = covnet.FieldMatrix(grid, x - x.mean(axis=0))
            dparams, dxi = covnet.gradients(f, params, arch, xi)
            analytic = np.concatenate([dparams, dxi.ravel()])
            theta = np.concatenate([params, xi.ravel()])
            n_net = params.size

            def total_at(vec):
                q = vec[n_net:].reshape(n, r)
                return covnet.loss(f, vec[:n_net], arch, q).total

            for i in range(theta.size):
                h = 1e-5 * (1 + abs(theta[i]))
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd = (total_at(up) - total_at(down)) / (2 * h)
                if abs(fd) < 1e-6:
                    assert abs(analytic[i] - fd) < 1e-8, (variant, trial, i)
                else:
                    rel = abs(analytic[i] - fd) / abs(fd)
                    worst = max(worst, rel)
                    assert rel < 1e-5, (variant, trial, i)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(2, f"60 configurations, max relative gradient error {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_03_eigendecomposition_oracle():
    start = time.time()
    grid = covnet.make_grid(2, [12, 12])
    pts = grid.coordinates()
    for idx in range(10):
        variant = "shallow" if idx % 2 == 0 else "deepshared"
        r = 6 + idx % 3
        arch = ARCH_MAKERS[variant](r, 2)
        params, _ = init_params(arch, 4, seed=300 + idx)
        q, _ = np.linalg.qr(gaussian(make_rng(400 + idx), (r, r)))
        lam = q @ np.diag(np.geomspace(2.0, 0.05, r)) @ q.T
        model = covnet.FittedCovariance(arch, params, (lam + lam.T) / 2)
        gram = covnet.constituent_gram(model, 200_000, seed=500 + idx)
        system = covnet.eigendecompose(model, gram)
        z = model.constituents(pts)
        dense = (z @ model.lam @ z.T) / grid.n_points
        eta_dense, vec_dense = np.linalg.eigh(dense)
        eta_dense, vec_dense = eta_dense[::-1], vec_dense[:, ::-1]
        # the two routes share neither quadrature: their comparison noise is
        # the Gram discrepancy scaled by Lambda (first-order perturbation)
        gram_grid = z.T @ z / grid.n_points
        bound = 3.0 * np.linalg.norm(model.lam, 2) * np.linalg.norm(
            gram - gram_grid, 2
        )
        for i in range(min(5, system.rank)):
            tol = max(0.02 * abs(eta_dense[i]), bound)
            assert abs(system.values[i] - eta_dense[i]) <= tol, (idx, i)
            gap_ok = eta_dense[i] > bound
            if i > 0:
                gap_ok &= eta_dense[i - 1] - eta_dense[i] > bound
            if i + 1 < len(eta_dense):
                gap_ok &= eta_dense[i] - eta_dense[i + 1] > bound
            if not gap_ok:
                continue  # eigenvector comparison is ill-posed below the bound
            psi = covnet.eval_eigenfunction(model, system, i, pts)
            cos = abs(psi @ vec_dense[:, i]) / (
                np.linalg.norm(psi) * np.linalg.norm(vec_dense[:, i])
            )
            assert cos > 0.99, (idx, i, cos)
    # constant-kernel closed form: eta_1 = 0.25 * lambda exactly
    arch = covnet.Architecture.shallow(1, 2)
    lam_val = 3.7
    const = covnet.FittedCovariance(arch, np.zeros(3), np.array([[lam_val]]))
    system = covnet.eigendecompose(const, covnet.constituent_gram(const, 1000, seed=1))
    assert abs(system.values[0] - 0.25 * lam_val) <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(3, f"10 models vs dense 144-point eigensolve, constant case exact ({elapsed:.1f}s)")


def test_criterion_04_hs_norm_monte_carlo():
    start = time.time()
    rng = make_rng(404)
    u = rng.random((100_000, 2))
    v = rng.random((100_000, 2))
    vals = covnet.BrownianSheet(2).kernel_pairs(u, v)
    mean_sq = float((vals * vals).mean())
    lo, hi = (1 / 36) * 0.97, (1 / 36) * 1.03
    assert lo <= mean_sq <= hi
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(4, f"mean c^2 = {mean_sq:.6f} within 3% of 1/36 ({elapsed:.1f}s)")


def test_criterion_05_rotated_brownian_direction():
    start = time.time()
    grid = covnet.make_grid(2, [25, 25])
    spec = covnet.RotatedBrownianSheet(covnet.rotation_2d_45())
    f = covnet.sample_gaussian_fields(spec, grid, 500, seed=20250810)
    model, trace = covnet.fit(
        f, covnet.Architecture.shallow(20, 2), covnet.TrainConfig(seed=1)
    )
    MODELS.append(("criterion5-shallow", model))
    m, eval_seed = 50_000, 99
    err_net = covnet.relative_error_mc(model, spec, 2, m, eval_seed)
    emp = covnet.EmpiricalCovariance(f.centered())
    err_emp = covnet.relative_error_mc(emp, spec, 2, m, eval_seed)
    sep = covnet.best_separable_2d(emp)
    err_sep = covnet.relative_error_mc(sep, spec, 2, m, eval_seed)
    assert err_sep > 0.40
    assert err_net < 0.20
    assert err_net <= err_emp + 0.03
    elapsed = time.time() - start
    assert elapsed < 900.0
    report(
        5,
        f"errors: shallow {err_net:.3f}, empirical {err_emp:.3f}, "
        f"separable {err_sep:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_06_matern_roughness_direction():
    start = time.time()
    grid = covnet.make_grid(2, [25, 25])
    spec = covnet.Matern(0.01, 2)
    f = covnet.sample_gaussian_fields(spec, grid, 500, seed=777)
    model, _ = covnet.fit(
        f, covnet.Architecture.deepshared(10, 2, 2), covnet.TrainConfig(seed=1)
    )
    MODELS.append(("criterion6-deepshared", model))
    m, eval_seed = 50_000, 99
    err_net = covnet.relative_error_mc(model, spec, 2, m, eval_seed)
    emp = covnet.EmpiricalCovariance(f.centered())
    err_emp = covnet.relative_error_mc(emp, spec, 2, m, eval_seed)
    assert err_emp > 0.35
    assert err_net < 0.25
    elapsed = time.time() - start
    assert elapsed < 1800.0
    report(6, f"errors: deepshared {err_net:.3f}, empirical {err_emp:.3f} ({elapsed:.0f}s)")


def test_criterion_08_complexity_scaling():
    n, r = 80, 8
    arch = covnet.Architecture.shallow(r, 2)
    rng = make_rng(808)

    def step_case(k):
        grid = covnet.make_grid(2, [k, k])
        x = gaussian(rng, (n, grid.n_points))
        return covnet.FieldMatrix(grid, x - x.mean(axis=0)), *init_params(arch, n, seed=1)

    # one timed step of each grid per round, as for the eigen times below, so
    # a stall of the machine or of two-thread BLAS falls on both sides alike;
    # an untimed step first warms the caches that the other grid's step left
    cases = [step_case(10), step_case(40)]
    best = [np.inf, np.inf]
    for _ in range(20):
        for i, (f, params, xi) in enumerate(cases):
            covnet.gradients(f, params, arch, xi)
            t0 = time.perf_counter()
            covnet.gradients(f, params, arch, xi)
            best[i] = min(best[i], time.perf_counter() - t0)
    t10, t40 = best
    ratio = t40 / t10
    assert ratio < 1.6 * 16  # linear in D with slack 1.6

    def eigen_model(k):
        grid = covnet.make_grid(2, [k, k])
        f2 = covnet.sample_gaussian_fields(covnet.BrownianSheet(2), grid, 30, seed=2)
        model, _ = covnet.fit(
            f2, covnet.Architecture.shallow(12, 2), covnet.TrainConfig(epochs=30, seed=3)
        )
        return model

    # one timed rep of each model per round, so load from other processes
    # falls on both sides of the comparison alike
    models = [eigen_model(10), eigen_model(40)]
    best = [np.inf, np.inf]
    for _ in range(30):
        for i, model in enumerate(models):
            t0 = time.perf_counter()
            gram = covnet.constituent_gram(model, 20_000, seed=4)
            covnet.eigendecompose(model, gram)
            best[i] = min(best[i], time.perf_counter() - t0)
    e10, e40 = best
    spread = max(e10, e40) / min(e10, e40) - 1.0
    assert spread < 0.20
    report(
        8,
        f"fit-step t(40)/t(10) = {ratio:.1f} (< 25.6); "
        f"eigen time spread {100 * spread:.1f}% (< 20%)",
    )


class PlantedRank2:
    """Exact rank-2 reference kernel for the CV sanity check."""

    def __init__(self, tau1=1.0, tau2=0.36):
        self.tau = (tau1, tau2)

    @staticmethod
    def _phi(pts):
        return np.stack(
            [np.ones(len(pts)), np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])]
        )

    def kernel_pairs(self, u, v):
        pu, pv = self._phi(np.atleast_2d(u)), self._phi(np.atleast_2d(v))
        return self.tau[0] * pu[0] * pv[0] + self.tau[1] * pu[1] * pv[1]


def test_criterion_09_cross_validation_sanity():
    grid = covnet.make_grid(2, [8, 8])
    truth = PlantedRank2()
    pts = grid.coordinates()
    phi = truth._phi(pts)
    scores = gaussian(make_rng(909), (60, 2)) * np.sqrt(np.array(truth.tau))
    f = covnet.FieldMatrix(grid, scores @ phi)
    cfg = covnet.TrainConfig(epochs=600, seed=1)
    arch = covnet.Architecture.shallow(8, 2)
    levels = [1, 2, 8]
    report_cv = covnet.cross_validate(f, [arch], levels, cfg, v=5, seed=11)
    finite = [m for m in report_cv.mean_losses if np.isfinite(m)]
    assert report_cv.mean_losses[report_cv.selected] == min(finite)

    # one fit on all fields, truncated as CV truncates: with its grid Gram
    model, _ = covnet.fit(f, arch, cfg)
    MODELS.append(("criterion9-R8", model))
    z = model.constituents(pts)
    gram = z.T @ z / grid.n_points
    errors = [
        covnet.relative_error_mc(covnet.truncate(model, k, gram), truth, 2, 50_000, seed=12)
        for k in levels
    ]
    # the fit's second component is there: truncating it away costs accuracy
    assert errors[0] > errors[1]
    gap = errors[report_cv.selected] - min(errors)
    assert gap <= 0.05  # pass threshold 5 percentage points
    report(
        9,
        f"selected level {levels[report_cv.selected]} of one R=8 fit; "
        f"errors {['%.3f' % e for e in errors]}, gap {100 * gap:.2f}pp (<= 5pp)",
    )


def test_criterion_07_psd_by_design():
    if not MODELS:  # criteria 5/6/9 may have been deselected
        grid = covnet.make_grid(1, [10])
        f = covnet.sample_gaussian_fields(covnet.BrownianSheet(1), grid, 12, seed=1)
        for variant, maker in ARCH_MAKERS.items():
            model, _ = covnet.fit(f, maker(2, 1), covnet.TrainConfig(epochs=80, seed=2))
            MODELS.append((variant, model))
    for name, model in MODELS:
        smallest = np.linalg.eigvalsh(model.lam)[0]
        assert smallest >= -1e-10 * np.trace(model.lam), name
    report(7, f"{len(MODELS)} fitted models checked: Lambda PSD to -1e-10 trace")


def test_criterion_10_serialization(tmp_path):
    rng = make_rng(1010)
    for idx in range(100):
        variant = ("shallow", "deep", "deepshared")[idx % 3]
        r = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        arch = ARCH_MAKERS[variant](r, d)
        params, xi = init_params(arch, int(rng.integers(2, 8)), seed=idx)
        model = covnet.FittedCovariance(arch, params, second_moment(xi))
        path = tmp_path / f"m{idx}.cvn"
        covnet.save_model(path, model)
        back = covnet.load_model(path)
        assert np.array_equal(back.params, model.params), idx
        assert np.array_equal(back.lam, model.lam), idx

    arch = covnet.Architecture.shallow(40, 3)
    params, xi = init_params(arch, 30, seed=7)
    model = covnet.FittedCovariance(arch, params, second_moment(xi))
    sizes = set()
    for tag in ("a", "b"):
        path = tmp_path / f"big_{tag}.cvn"
        covnet.save_model(path, model)
        sizes.add(path.stat().st_size)
    size = sizes.pop()
    assert not sizes
    assert size < 100_000
    report(10, f"100 round trips bit-exact; shallow R=40 d=3 file is {size} bytes")
