import numpy as np
import pytest

from covnet.cli import main, parse_config_text
from covnet.errors import ConfigError, ModelFormatError
from covnet.fields import read_fields
from covnet.model import (
    Architecture,
    FittedCovariance,
    init_params,
    lambda_from_coefficients,
    load_model,
    save_model,
)


def run(tmp_path, command, cfg_text, extra=None, out=None):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(cfg_text)
    out_dir = out or tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out_dir)]
    return main(argv + (extra or [])), out_dir


def test_parse_config_text():
    raw = parse_config_text("a = 1\n# comment\nb= two words \n\n")
    assert raw == {"a": "1", "b": "two words"}
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2")


def test_simulate_writes_expected_header(tmp_path):
    code, out = run(
        tmp_path, "simulate", "kernel = brownian\nd = 2\nK = 10\nN = 50\nseed = 1\n"
    )
    assert code == 0
    f = read_fields(out / "fields.cvnf")
    assert f.n == 50
    assert f.grid.n_points == 100
    assert (out / "fields.meta.txt").exists()
    assert (out / "resolved_simulate.cfg").exists()


def test_simulate_byte_identical(tmp_path):
    cfg = "kernel = matern\nnu = 0.5\nd = 2\nK = 6\nN = 8\nseed = 3\n"
    _, out1 = run(tmp_path, "simulate", cfg, out=tmp_path / "o1")
    _, out2 = run(tmp_path, "simulate", cfg, out=tmp_path / "o2")
    assert (out1 / "fields.cvnf").read_bytes() == (out2 / "fields.cvnf").read_bytes()


def test_simulate_rejects_zero_resolution(tmp_path):
    code, _ = run(tmp_path, "simulate", "kernel = brownian\nd = 2\nK = 0\nN = 5\n")
    assert code == 2


def test_simulate_rejects_unknown_key(tmp_path):
    code, _ = run(
        tmp_path, "simulate", "kernel = brownian\nd = 2\nK = 4\nN = 5\nbogus = 1\n"
    )
    assert code == 2


def fit_smoke(tmp_path):
    code, out = run(
        tmp_path,
        "simulate",
        "kernel = brownian\nd = 2\nK = 8\nN = 40\nseed = 1\n",
        out=tmp_path / "data",
    )
    assert code == 0
    fit_cfg = (
        f"fields = {out / 'fields.cvnf'}\n"
        "arch = shallow\nR = 5\nepochs = 300\nseed = 2\n"
    )
    code, fit_out = run(tmp_path, "fit", fit_cfg, out=tmp_path / "fit")
    assert code == 0
    return out, fit_out


def test_fit_smoke_and_trace(tmp_path):
    _, fit_out = fit_smoke(tmp_path)
    model = load_model(fit_out / "model.cvn")
    assert model.arch.r == 5
    trace = (fit_out / "model_trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,total,term_xx,term_gg,term_xg"
    first = float(trace[1].split(",")[1])
    last = float(trace[-1].split(",")[1])
    assert last < first


def test_fit_missing_input(tmp_path):
    code, _ = run(tmp_path, "fit", "fields = /nonexistent.cvnf\narch = shallow\nR = 2\n")
    assert code == 3


def test_fit_deep_requires_depth(tmp_path):
    code, out = run(
        tmp_path,
        "simulate",
        "kernel = brownian\nd = 2\nK = 4\nN = 6\nseed = 1\n",
        out=tmp_path / "d",
    )
    code, _ = run(
        tmp_path, "fit", f"fields = {out / 'fields.cvnf'}\narch = deep\nR = 2\n"
    )
    assert code == 2


def test_fit_rejects_batch_of_one(tmp_path, capsys):
    code, out = run(
        tmp_path,
        "simulate",
        "kernel = brownian\nd = 2\nK = 4\nN = 6\nseed = 1\n",
        out=tmp_path / "d",
    )
    assert code == 0
    code, _ = run(
        tmp_path,
        "fit",
        f"fields = {out / 'fields.cvnf'}\narch = shallow\nR = 2\nbatch = 1\n",
    )
    assert code == 2
    assert "batch must be >= 2" in capsys.readouterr().err


def saved_model_text(tmp_path):
    arch = Architecture.deep(2, 2, 2)
    params, xi = init_params(arch, 5, seed=3)
    path = tmp_path / "m.cvn"
    save_model(path, FittedCovariance(arch, params, lambda_from_coefficients(xi)))
    return path, path.read_text().splitlines()


@pytest.mark.parametrize(
    "prefix, bad",
    [
        ("widths ", "widths 2 two"),
        ("layer net0.W1 ", "layer net0.W1 2 x"),
        ("lambda ", "lambda R"),
    ],
)
def test_load_model_non_integer_header_is_format_error(tmp_path, prefix, bad):
    path, lines = saved_model_text(tmp_path)
    (i,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    lines[i] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(path)
    code, _ = run(tmp_path, "eigen", f"model = {path}\nM = 100\n")
    assert code == 3


def test_eval_zero_estimator_is_one(tmp_path):
    code, out = run(
        tmp_path,
        "eval",
        "estimator = zero\nkernel = brownian\nd = 2\nM = 2000\nseed = 4\n",
    )
    assert code == 0
    rows = (out / "errors.csv").read_text().splitlines()
    assert rows[0] == "estimator,relative_error,M,seed"
    name, err, m, seed = rows[1].split(",")
    assert name == "zero"
    assert float(err) == 1.0
    assert (m, seed) == ("2000", "4")


def test_eval_model_in_band(tmp_path):
    data_out, fit_out = fit_smoke(tmp_path)
    cfg = (
        f"estimator = covnet\nmodel = {fit_out / 'model.cvn'}\n"
        "kernel = brownian\nd = 2\nM = 20000\nseed = 5\n"
    )
    code, out = run(tmp_path, "eval", cfg, out=tmp_path / "ev")
    assert code == 0
    err = float((out / "errors.csv").read_text().splitlines()[1].split(",")[1])
    assert 0.0 <= err <= 1.5


def test_eval_dimension_mismatch(tmp_path):
    _, fit_out = fit_smoke(tmp_path)
    cfg = (
        f"estimator = covnet\nmodel = {fit_out / 'model.cvn'}\n"
        "kernel = brownian\nd = 3\nM = 100\n"
    )
    code, _ = run(tmp_path, "eval", cfg, out=tmp_path / "ev2")
    assert code == 2


def test_eigen_constant_model(tmp_path):
    from covnet.model import Architecture, FittedCovariance, ShallowParams, save_model

    arch = Architecture.shallow(1, 2)
    model = FittedCovariance(
        arch, ShallowParams(np.zeros((1, 2)), np.zeros(1)), np.array([[4.0]])
    )
    path = tmp_path / "const.cvn"
    save_model(path, model)
    code, out = run(tmp_path, "eigen", f"model = {path}\nM = 100\nseed = 1\n")
    assert code == 0
    rows = (out / "eigen_values.csv").read_text().splitlines()
    assert rows[0] == "index,eigenvalue"
    assert float(rows[1].split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_eigen_heatmap_rows(tmp_path):
    _, fit_out = fit_smoke(tmp_path)
    cfg = f"model = {fit_out / 'model.cvn'}\nM = 5000\nseed = 2\nK = 5\nn_funcs = 2\n"
    code, out = run(tmp_path, "eigen", cfg, out=tmp_path / "eig")
    assert code == 0
    rows = (out / "eigen_fn0.csv").read_text().splitlines()
    assert rows[0] == "flat_index,u1,u2,value"
    assert len(rows) == 26


def test_cv_single_candidate_selected(tmp_path):
    code, out = run(
        tmp_path,
        "simulate",
        "kernel = brownian\nd = 2\nK = 5\nN = 20\nseed = 6\n",
        out=tmp_path / "cvdata",
    )
    cfg = (
        f"fields = {out / 'fields.cvnf'}\n"
        "V = 4\nseed = 7\narchs = shallow\nR_list = 2\nepochs = 60\n"
    )
    code, cv_out = run(tmp_path, "cv", cfg, out=tmp_path / "cv")
    assert code == 0
    summary = (cv_out / "cv_summary.csv").read_text().splitlines()
    assert summary[0] == "candidate,arch,R,L,mean_loss,selected"
    assert summary[1].endswith(",1")
    report = (cv_out / "cv_report.csv").read_text().splitlines()
    assert len(report) == 5  # header + 4 folds


def test_export_matches_kernel_loop(tmp_path):
    _, fit_out = fit_smoke(tmp_path)
    model = load_model(fit_out / "model.cvn")
    cfg = f"model = {fit_out / 'model.cvn'}\nK = 25\nv0 = 0.3,0.7\n"
    code, out = run(tmp_path, "export", cfg, out=tmp_path / "exp")
    assert code == 0
    rows = (out / "kernel_slice.csv").read_text().splitlines()
    assert len(rows) == 626
    v0 = np.array([0.3, 0.7])
    for line in rows[1:20]:
        parts = line.split(",")
        u = np.array([float(parts[1]), float(parts[2])])
        assert float(parts[3]) == pytest.approx(model.kernel_at(u, v0), rel=1e-15)


def test_export_reproducible_bytes(tmp_path):
    _, fit_out = fit_smoke(tmp_path)
    cfg = f"model = {fit_out / 'model.cvn'}\nK = 7\nv0 = 0.5,0.5\n"
    _, o1 = run(tmp_path, "export", cfg, out=tmp_path / "e1")
    _, o2 = run(tmp_path, "export", cfg, out=tmp_path / "e2")
    assert (o1 / "kernel_slice.csv").read_bytes() == (o2 / "kernel_slice.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = "kernel = brownian\nd = 1\nK = 4\nN = 3\nseed = 1\n"
    _, o1 = run(tmp_path, "simulate", cfg, out=tmp_path / "s1")
    _, o2 = run(tmp_path, "simulate", cfg, extra=["--seed", "9"], out=tmp_path / "s2")
    a = read_fields(o1 / "fields.cvnf")
    b = read_fields(o2 / "fields.cvnf")
    assert not np.array_equal(a.values, b.values)
    resolved = (o2 / "resolved_simulate.cfg").read_text()
    assert "seed = 9" in resolved


def test_set_flag_overrides_config(tmp_path):
    cfg = "kernel = brownian\nd = 1\nK = 4\nN = 3\nseed = 1\n"
    code, out = run(
        tmp_path, "simulate", cfg, extra=["--set", "N=5"], out=tmp_path / "s3"
    )
    assert code == 0
    assert read_fields(out / "fields.cvnf").n == 5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_divergence_exits_4(tmp_path):
    code, out = run(
        tmp_path,
        "simulate",
        "kernel = brownian\nd = 1\nK = 6\nN = 8\nseed = 7\n",
        out=tmp_path / "dd",
    )
    assert code == 0
    cfg = f"fields = {out / 'fields.cvnf'}\narch = shallow\nR = 2\nlr = 15.0\nseed = 0\n"
    code, _ = run(tmp_path, "fit", cfg, out=tmp_path / "dfit")
    assert code == 4


def test_cv_worker_pool_env(tmp_path, monkeypatch):
    code, out = run(
        tmp_path,
        "simulate",
        "kernel = brownian\nd = 2\nK = 4\nN = 12\nseed = 3\n",
        out=tmp_path / "wdata",
    )
    cfg = (
        f"fields = {out / 'fields.cvnf'}\n"
        "V = 3\nseed = 2\narchs = shallow\nR_list = 1,2\nepochs = 40\n"
    )
    code, o1 = run(tmp_path, "cv", cfg, out=tmp_path / "w1")
    assert code == 0
    monkeypatch.setenv("COVNET_THREADS", "3")
    code, o2 = run(tmp_path, "cv", cfg, out=tmp_path / "w2")
    assert code == 0
    assert (o1 / "cv_report.csv").read_bytes() == (o2 / "cv_report.csv").read_bytes()
