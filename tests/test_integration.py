"""Cross-module pipelines that the per-module tests do not exercise: 3-D
domains, noisy measurements, and dimension guard rails through the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covnet
from covnet.cli import main


def test_3d_pipeline_rotated_brownian():
    grid = covnet.make_grid(3, [5, 5, 5])
    spec = covnet.RotatedBrownianSheet(covnet.rotation_3d_composed())
    c = covnet.kernel_matrix(spec, grid)
    assert np.linalg.eigvalsh(c)[0] >= -1e-8 * np.trace(c)

    f = covnet.sample_gaussian_fields(spec, grid, 80, seed=61)
    model, trace = covnet.fit(
        f, covnet.Architecture.deepshared(6, 3, 2), covnet.TrainConfig(epochs=400, seed=1)
    )
    assert trace[-1, 0] < trace[0, 0]

    system = covnet.eigendecompose(model, covnet.constituent_gram(model, 30_000, seed=2))
    assert system.rank >= 1
    assert np.all(system.values >= 0)

    err = covnet.relative_error_mc(model, spec, 3, m=20_000, seed=3)
    assert 0.0 <= err <= 1.5


def test_3d_integrated_rotated_sampling_psd():
    grid = covnet.make_grid(3, [4, 4, 4])
    spec = covnet.RotatedIntegratedBrownianSheet(covnet.rotation_3d_composed())
    c = covnet.kernel_matrix(spec, grid)
    assert np.linalg.eigvalsh(c)[0] >= -1e-8 * np.trace(c)
    f = covnet.sample_gaussian_fields(spec, grid, 10, seed=5)
    assert f.values.shape == (10, 64)


def test_noisy_measurements_fit_smoke():
    grid = covnet.make_grid(2, [8, 8])
    spec = covnet.BrownianSheet(2)
    noise = covnet.NoiseSpec(sigma=0.25)
    f = covnet.sample_gaussian_fields(spec, grid, 120, seed=8, noise=noise)
    model, trace = covnet.fit(
        f, covnet.Architecture.shallow(6, 2), covnet.TrainConfig(epochs=600, seed=2)
    )
    assert trace[-1, 0] < trace[0, 0]
    # the noisy empirical covariance carries a sigma^2 diagonal ridge that
    # the smooth network does not rush to reproduce off-diagonal
    err = covnet.relative_error_mc(model, spec, 2, m=20_000, seed=4)
    assert err < 1.0


def test_cli_simulate_3d_rotated(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("kernel = rotated_integrated_brownian\nd = 3\nK = 4\nN = 6\nseed = 2\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    f = covnet.read_fields(out / "fields.cvnf")
    assert f.grid.sizes == (4, 4, 4)


def test_cli_separable_rejects_3d(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("kernel = brownian\nd = 3\nK = 4\nN = 6\nseed = 2\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    ev = tmp_path / "ev.cfg"
    ev.write_text(
        f"estimator = separable\nfields = {out / 'fields.cvnf'}\n"
        "kernel = brownian\nd = 3\nM = 100\n"
    )
    assert main(["eval", "--config", str(ev), "--out", str(out)]) == 2


def test_cli_rotated_kernel_needs_supported_dimension(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("kernel = rotated_brownian\nd = 4\nK = 2\nN = 3\nseed = 1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_importing_covnet_loads_no_scipy_linalg():
    # scipy.linalg (the multi-block Cholesky) and scipy.sparse.linalg (the
    # separable baseline) are imported where they are used: either one adds
    # tens of milliseconds and several MiB to every process that imports covnet
    src = str(Path(covnet.__file__).resolve().parent.parent)
    code = (
        "import sys, covnet\n"
        "print([m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
