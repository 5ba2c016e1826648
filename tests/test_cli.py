import dataclasses

import numpy as np
import pytest

from conftest import second_moment
from covnet import cli, errors
from covnet.baselines import (
    EmpiricalCovariance,
    ZeroCovariance,
    best_separable_2d,
    relative_error_mc,
)
from covnet.cli import main, parse_config_text
from covnet.crossval import cross_validate
from covnet.errors import ConfigError, ModelFormatError
from covnet.fields import FieldMatrix, make_grid, read_fields, write_fields
from covnet.model import (
    Architecture,
    FittedCovariance,
    init_params,
    load_model,
    save_model,
)
from covnet.rng import gaussian, make_rng
from covnet.simulate import BrownianSheet
from covnet.training import TrainConfig


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
    # the resolved config is the run's one record: no sidecar is written
    assert sorted(p.name for p in out.iterdir()) == ["fields.cvnf", "resolved_simulate.cfg"]
    assert (out / "resolved_simulate.cfg").read_text().splitlines() == [
        "K = 10", "N = 50", "d = 2", "kernel = brownian", "seed = 1", "sigma = 0.0"
    ]


def test_simulate_byte_identical(tmp_path):
    cfg = "kernel = matern\nnu = 0.5\nd = 2\nK = 6\nN = 8\nseed = 3\n"
    _, out1 = run(tmp_path, "simulate", cfg, out=tmp_path / "o1")
    _, out2 = run(tmp_path, "simulate", cfg, out=tmp_path / "o2")
    assert (out1 / "fields.cvnf").read_bytes() == (out2 / "fields.cvnf").read_bytes()


def test_simulate_product_kernel_beyond_kernel_matrix_cap(tmp_path, capsys):
    cfg = "kernel = brownian\nd = 3\nK = 32\nN = 4\nseed = 2\n"  # D = 32768
    code1, out1 = run(tmp_path, "simulate", cfg, out=tmp_path / "o1")
    code2, out2 = run(tmp_path, "simulate", cfg, out=tmp_path / "o2")
    assert code1 == code2 == 0
    assert (out1 / "fields.cvnf").read_bytes() == (out2 / "fields.cvnf").read_bytes()
    capsys.readouterr()
    code, _ = run(
        tmp_path, "simulate", cfg.replace("brownian", "rotated_brownian"), out=tmp_path / "o3"
    )
    assert code == 2
    assert "exceeds kernel matrix cap" in capsys.readouterr().err


def test_simulate_beyond_dense_cap_exits_2(tmp_path, capsys):
    cfg = "kernel = rotated_brownian\nd = 2\nK = 116\nN = 4\nseed = 2\n"  # D = 13456
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "exceeds kernel matrix cap 13377" in err[0]
    assert not (out / "fields.cvnf").exists()


def test_product_kernel_cap_names_the_axis_factor(tmp_path, capsys):
    # the grid has 10^10 points; the matrix refused is one 10^5-point axis factor
    code, out = run(tmp_path, "simulate", "kernel = brownian\nd = 2\nK = 100000\nN = 1\n")
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: kernel matrix of 100000 points exceeds kernel matrix cap 13377:"
        " one axis factor of a grid of 10000000000 points\n"
    )
    assert not out.exists()


def test_simulate_zero_variance_grid_exits_0(tmp_path):
    code, out = run(
        tmp_path, "simulate", "kernel = rotated_brownian\nd = 2\nK = 1\nN = 3\nseed = 1\n"
    )
    assert code == 0
    assert not read_fields(out / "fields.cvnf").values.any()


def test_simulate_rejects_zero_resolution(tmp_path):
    code, _ = run(tmp_path, "simulate", "kernel = brownian\nd = 2\nK = 0\nN = 5\n")
    assert code == 2


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    code, out = run(
        tmp_path, "simulate", "kernel = brownian\nd = 2\nK = 4\nN = 5\nbogus = 1\n"
    )
    assert code == 2
    assert capsys.readouterr().err == "config error: simulate does not use config key(s): bogus\n"
    assert not out.exists()


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
    save_model(path, FittedCovariance(arch, params, second_moment(xi)))
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


@pytest.mark.parametrize(
    "blob",
    [
        b"covnet-model v1\narch shallow\nR 1\nd \xff\xfe\n",
        b"covnet-model v1\narch shallow\nR 1000000000000000\nd 2\n"
        b"layer w 1 2\n0 0\nend\n",
    ],
    ids=["not_utf8", "huge_R"],
)
def test_load_model_bad_bytes_exit_3(tmp_path, blob):
    path = tmp_path / "bad.cvn"
    path.write_bytes(blob)
    with pytest.raises(ModelFormatError):
        load_model(path)
    code, _ = run(tmp_path, "eigen", f"model = {path}\nM = 100\n")
    assert code == 3


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("eigen", "model = {model}\nM = 100\n"),
        ("eval", "estimator = covnet\nmodel = {model}\nkernel = brownian\nd = 2\nM = 100\n"),
        ("export", "model = {model}\nK = 3\nv0 = 0.5,0.5\n"),
    ],
)
def test_model_with_a_mean_block_exits_3(tmp_path, capsys, command, cfg):
    # a file written while joint mean fitting existed
    path, lines = saved_model_text(tmp_path)
    lines[-1:-1] = ["mean 2", "0.5 -0.25"]
    path.write_text("\n".join(lines) + "\n")
    code, out = run(tmp_path, command, cfg.format(model=path))
    assert code == 3
    assert "joint mean fitting was removed" in capsys.readouterr().err
    assert not out.exists()


def constant_model(tmp_path):
    """A shallow R=1 model whose kernel is 1 everywhere."""
    path = tmp_path / "const.cvn"
    save_model(
        path,
        FittedCovariance(Architecture.shallow(1, 2), np.zeros(3), np.array([[4.0]])),
    )
    return path


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


def test_eval_baselines_beyond_4096_points_reproducible(tmp_path):
    grid = make_grid(2, [70, 70])
    fields = tmp_path / "fields.cvnf"
    write_fields(fields, FieldMatrix(grid, gaussian(make_rng(25), (3, grid.n_points))))
    cfg = (
        f"estimator = empirical,separable\nfields = {fields}\n"
        "kernel = brownian\nd = 2\nM = 2000\nseed = 6\n"
    )
    code, first = run(tmp_path, "eval", cfg, out=tmp_path / "ev1")
    assert code == 0
    code, second = run(tmp_path, "eval", cfg, out=tmp_path / "ev2")
    assert code == 0
    csv = (first / "errors.csv").read_bytes()
    assert csv == (second / "errors.csv").read_bytes()
    assert len(csv.decode().splitlines()) == 3


def test_eval_solves_for_the_separable_fit_only_after_the_config_is_accepted(
    tmp_path, capsys, monkeypatch
):
    grid = make_grid(2, [5, 6])
    fields = tmp_path / "fields.cvnf"
    write_fields(fields, FieldMatrix(grid, gaussian(make_rng(26), (8, grid.n_points))))
    calls = []
    real = cli.best_separable_2d

    def counting(emp):
        calls.append(None)
        return real(emp)

    monkeypatch.setattr(cli, "best_separable_2d", counting)
    cfg = (
        f"estimator = separable,zero,empirical\nfields = {fields}\n"
        "kernel = brownian\nd = 2\nM = 1000\nseed = 3\n"
    )
    code, out = run(tmp_path, "eval", cfg + "bogus = 1\n", out=tmp_path / "bad")
    assert code == 2
    assert capsys.readouterr().err == "config error: eval does not use config key(s): bogus\n"
    assert calls == [] and not out.exists()
    code, out = run(tmp_path, "eval", cfg, out=tmp_path / "good")
    assert code == 0 and len(calls) == 1
    # the rows keep the listed order
    rows = (out / "errors.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == [
        "separable (nearest Kronecker product)", "zero", "empirical"
    ]


def test_eval_errors_equal_one_relative_error_mc_call_per_estimator(tmp_path, monkeypatch):
    data_out, fit_out = fit_smoke(tmp_path)
    cfg = (
        f"estimator = zero,empirical,separable,covnet\nfields = {data_out / 'fields.cvnf'}\n"
        f"model = {fit_out / 'model.cvn'}\nkernel = brownian\nd = 2\nM = 3000\nseed = 7\n"
    )
    truth_calls = []
    real = BrownianSheet.kernel_pairs

    def counting(self, u, v):
        truth_calls.append(len(u))
        return real(self, u, v)

    monkeypatch.setattr(BrownianSheet, "kernel_pairs", counting)
    code, out = run(tmp_path, "eval", cfg, out=tmp_path / "ev")
    assert code == 0
    # one draw of the pairs and one evaluation of the truth serve all four estimators
    assert truth_calls == [3000]
    got = [float(row.split(",")[1]) for row in (out / "errors.csv").read_text().splitlines()[1:]]
    emp = EmpiricalCovariance(read_fields(data_out / "fields.cvnf").centered())
    estimators = [ZeroCovariance(), emp, best_separable_2d(emp), load_model(fit_out / "model.cvn")]
    want = [relative_error_mc(est, BrownianSheet(2), 2, 3000, 7) for est in estimators]
    assert got == want


def test_eigen_constant_model(tmp_path):
    path = constant_model(tmp_path)
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


def test_cv_scores_the_levels_of_one_fit_per_architecture(tmp_path):
    fields = gaussian_fields(tmp_path, 12)
    cfg = (
        f"fields = {fields}\nV = 3\nseed = 4\narchs = shallow,deepshared\n"
        "R_list = 1,2\nL_list = 2\nepochs = 8\n"
    )
    code, out = run(tmp_path, "cv", cfg)
    assert code == 0
    summary = [row.split(",") for row in (out / "cv_summary.csv").read_text().splitlines()]
    assert summary[0] == ["candidate", "arch", "R", "L", "mean_loss", "selected"]
    # R holds the level; each architecture is built at the widest level
    assert [row[:4] for row in summary[1:]] == [
        ["0", "shallow", "1", "0"],
        ["1", "shallow", "2", "0"],
        ["2", "deepshared", "1", "2"],
        ["3", "deepshared", "2", "2"],
    ]
    assert sum(row[5] == "1" for row in summary[1:]) == 1
    archs = [Architecture.shallow(2, 2), Architecture.deepshared(2, 2, 2)]
    report = cross_validate(
        read_fields(fields), archs, [1, 2], TrainConfig(epochs=8, seed=4), v=3, seed=4
    )
    lines = (out / "cv_report.csv").read_text().splitlines()
    assert lines[1:] == [
        f"{c.candidate},{report.candidates[c.candidate][0].variant},"
        f"{report.candidates[c.candidate][1]},{report.candidates[c.candidate][0].depth},"
        f"{c.fold},{c.loss:.17g}"
        for c in report.cells
    ]


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
        want = model.kernel_pairs(u[None], v0[None])[0]
        assert float(parts[3]) == pytest.approx(want, rel=1e-15)


def test_export_reproducible_bytes(tmp_path):
    _, fit_out = fit_smoke(tmp_path)
    cfg = f"model = {fit_out / 'model.cvn'}\nK = 7\nv0 = 0.5,0.5\n"
    _, o1 = run(tmp_path, "export", cfg, out=tmp_path / "e1")
    _, o2 = run(tmp_path, "export", cfg, out=tmp_path / "e2")
    assert (o1 / "kernel_slice.csv").read_bytes() == (o2 / "kernel_slice.csv").read_bytes()


def test_point_csv_bytes_match_per_value_format(tmp_path):
    # 3-D points with -0.0, 1e-300, subnormals, 1e300 and repeating binary fractions
    pts = np.array([[0.0, -0.0, 1e-300], [5e-324, 0.1, 1 / 3], [2.5e-310, -1e300, 0.75]])
    vals = np.array([-0.0, 1e-300, 2.2250738585072014e-308 / 3])
    path = tmp_path / "points.csv"
    cli._write_point_csv(str(path), pts, vals)
    rows = [
        ",".join([str(j), *map(cli._fmt, p), cli._fmt(v)]) for j, (p, v) in enumerate(zip(pts, vals))
    ]
    want = "".join(line + "\n" for line in ["flat_index,u1,u2,u3,value", *rows])
    assert path.read_bytes() == want.encode()
    assert b",-0," in path.read_bytes() and b"4.9406564584124654e-324" in path.read_bytes()


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
    cfg = f"fields = {out / 'fields.cvnf'}\narch = shallow\nR = 2\nlr = 100.0\nseed = 0\n"
    code, _ = run(tmp_path, "fit", cfg, out=tmp_path / "dfit")
    assert code == 4


def small_fields(tmp_path):
    code, out = run(
        tmp_path,
        "simulate",
        "kernel = brownian\nd = 2\nK = 4\nN = 6\nseed = 1\n",
        out=tmp_path / "data",
    )
    assert code == 0
    return out / "fields.cvnf"


@pytest.mark.parametrize(
    "command, cfg_text",
    [
        ("simulate", "kernel = brownian\nd = 2\nsizes = 3,x\nN = 4\n"),
        ("simulate", "kernel = brownian\nd = 2\nsizes = 3\nN = 4\n"),
        ("export", "model = {model}\nK = 3\nv0 = a,b\n"),
        ("cv", "fields = {fields}\narchs = shallow,bogus\nR_list = 2\n"),
        ("export", "model = {model}\nd = 3\nK = 3\nv0 = 0.5,0.5,0.5\n"),
    ],
    ids=["sizes_not_int", "sizes_wrong_length", "v0_not_float", "archs_unknown", "export_d"],
)
def test_bad_config_exits_2(tmp_path, command, cfg_text):
    text = cfg_text.format(model=constant_model(tmp_path), fields=small_fields(tmp_path))
    code, out = run(tmp_path, command, text)
    assert code == 2
    # nothing is written, not even the output directory
    assert not out.exists()


def test_eigen_grid_dimension_mismatch_writes_nothing(tmp_path):
    cfg = f"model = {constant_model(tmp_path)}\nM = 100\nd = 3\nK = 4\n"
    code, out = run(tmp_path, "eigen", cfg)
    assert code == 2
    assert not (out / "eigen_values.csv").exists()


def test_eval_unknown_estimator_prints_nothing(tmp_path, capsys):
    code, out = run(
        tmp_path, "eval", "estimator = zero,bogus\nkernel = brownian\nd = 2\nM = 100\n"
    )
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not (out / "errors.csv").exists()


def gaussian_fields(tmp_path, n):
    """n white-noise fields on a 4x4 grid, written to a field file."""
    path = tmp_path / f"white{n}.cvnf"
    grid = make_grid(2, [4, 4])
    write_fields(path, FieldMatrix(grid, gaussian(make_rng(40 + n), (n, grid.n_points))))
    return path


SIMULATE = "kernel = brownian\nd = 2\nK = 4\nN = 4\n"
FIT = "fields = {fields}\narch = shallow\nR = 2\nepochs = 5\n"
# a valid config of each subcommand
VALID = {
    "simulate": SIMULATE,
    "fit": FIT,
    "eval": "estimator = zero\nkernel = brownian\nd = 2\nM = 100\n",
    "eigen": "model = {model}\nM = 100\n",
    "cv": "fields = {fields}\narchs = shallow\nR_list = 2\nepochs = 2\n",
    "export": "model = {model}\nK = 3\nv0 = 0.5,0.5\n",
}


@pytest.mark.parametrize(
    "command, cfg_text, message",
    [
        # non-finite floats and a negative noise level
        ("simulate", SIMULATE + "sigma = -1\n", "sigma must be >= 0"),
        ("simulate", SIMULATE + "sigma = nan\n", "sigma must be a finite number"),
        ("simulate", SIMULATE + "sigma = inf\n", "sigma must be a finite number"),
        # a finite noise level whose noise can overflow
        ("simulate", SIMULATE + "sigma = 1e308\n", "noise can overflow"),
        ("simulate", "kernel = matern\nnu = inf\nd = 2\nK = 4\nN = 4\n", "nu must be"),
        ("fit", FIT + "lr = nan\n", "lr must be"),
        ("fit", FIT + "lr = inf\n", "lr must be"),
        ("fit", FIT + "rel_tol = nan\n", "rel_tol must be"),
        ("export", "model = {model}\nK = 3\nv0 = nan,0.5\n", "v0 must be"),
        # values refused while the config is read, by a library object or the CLI
        ("fit", FIT + "lr = 0\n", "learning rate"),
        ("fit", FIT.replace("{fields}", "{one}"), "at least two fields"),
        (
            "eval",
            "estimator = separable\nfields = {fields}\nkernel = brownian\nd = 3\n",
            "needs d = 2",
        ),
        *(
            ("eval", f"estimator = {e}\nfields = {{zero}}\nkernel = brownian\nd = 2\n",
             "holds no field")
            for e in ("empirical", "separable")
        ),
        ("cv", "fields = {fields}\nV = 7\n", "into V = 7 folds"),
        ("cv", "fields = {three}\nV = 2\n", "fewer than 2"),
        ("cv", "fields = {fields}\narchs = ,\n", "archs must name at least one value"),
        ("cv", "fields = {fields}\narchs = shallow\nR_list = 0\n", "must be >= 1"),
        ("cv", "fields = {fields}\narchs = shallow\nR_list = 2,0\n",
         "truncation levels must be >= 1, got 0"),
        # sizes beyond memory, refused by name before any memory is touched
        ("simulate", SIMULATE.replace("N = 4", f"N = {10**17}"), "do not fit in memory"),
        ("simulate", SIMULATE.replace("K = 4", "K = 64").replace("N = 4", f"N = {10**9}"),
         f"{10**9} fields of 4096 points do not fit in memory"),
        # refused before the dense 10^4 x 10^4 kernel matrix is built and factored
        ("simulate", f"kernel = matern\nnu = 1.5\nd = 2\nK = 100\nN = {10**17}\n",
         f"{10**17} fields of 10000 points do not fit in memory"),
        ("eval", f"estimator = zero\nkernel = brownian\nd = 2\nM = {10**17}\n",
         f"M = {10**17} Monte-Carlo point pairs in 2 dimensions do not fit in memory"),
        ("eigen", f"model = {{model}}\nM = {10**17}\n",
         f"M = {10**17} sample points of R = 1 constituents do not fit in memory"),
        ("eigen", f"model = {{model}}\nM = 100\nK = {10**20}\n",
         f"the 2 coordinates of {10**40} grid points do not fit in memory"),
        ("export", f"model = {{model}}\nK = {10**20}\nv0 = 0.5,0.5\n",
         f"the 2 coordinates of {10**40} grid points do not fit in memory"),
        ("fit", FIT.replace("R = 2", f"R = {10**14}"),
         f"R = {10**14} constituents with 0 hidden layers do not fit in memory"),
        # counts beyond an index, refused before a list or tuple of that length is built
        ("simulate", SIMULATE.replace("d = 2", f"d = {10**20}"), f"d must be <= 32, got {10**20}"),
        ("fit", FIT.replace("arch = shallow", f"arch = deep\nL = {10**20}"),
         f"L = {10**20} hidden layers of width R = 2 do not fit in memory"),
        ("cv", f"fields = {{fields}}\narchs = deep\nR_list = 2\nL_list = {10**20}\n",
         f"L = {10**20} hidden layers of width R = 2 do not fit in memory"),
        ("fit", FIT.replace("arch = shallow", f"arch = deep\nL = {10**20}").replace("R = 2", "R = 0"),
         f"L = {10**20} hidden layers of width R = 0 do not fit in memory"),
        # keys that would be ignored
        ("simulate", SIMULATE + "nu = -3\n", "simulate does not use config key(s): nu"),
        (
            "eval",
            "estimator = zero\nkernel = rotated_brownian\nnu = 0.5\nd = 2\nM = 100\n",
            "eval does not use config key(s): nu",
        ),
        (
            "eigen",
            "model = {model}\nM = 100\nn_funcs = 2\n",
            "eigen does not use config key(s): n_funcs",
        ),
        (
            "eigen",
            "model = {model}\nM = 100\nn_funcs = 0\n",
            "eigen does not use config key(s): n_funcs",
        ),
        (
            "simulate",
            SIMULATE + "noise_seed = 5\n",
            "simulate does not use config key(s): noise_seed",
        ),
        # the noise comes from the draw's own seed
        (
            "simulate",
            SIMULATE + "sigma = 0.5\nnoise_seed = 5\n",
            "simulate does not use config key(s): noise_seed",
        ),
        ("fit", FIT + "L = 3\n", "fit does not use config key(s): L"),
        # no centering key: every fit centers the fields by their sample mean
        ("fit", FIT + "center_mode = pre_center\n", "fit does not use config key(s): center_mode"),
        (
            "cv",
            "fields = {fields}\narchs = shallow\nR_list = 2\ncenter_mode = pre_center\n",
            "cv does not use config key(s): center_mode",
        ),
        (
            "cv",
            "fields = {fields}\narchs = shallow\nR_list = 2\nL_list = 9\n",
            "cv does not use config key(s): L_list",
        ),
        (
            "eval",
            "estimator = zero\nmodel = {model}\nkernel = brownian\nd = 2\nM = 100\n",
            "eval does not use config key(s): model",
        ),
        (
            "eval",
            "estimator = zero,covnet\nmodel = {model}\nfields = {fields}\nkernel = brownian\n"
            "d = 2\nM = 100\n",
            "eval does not use config key(s): fields",
        ),
        ("eigen", "model = {model}\nM = 100\nd = 7\n", "eigen does not use config key(s): d"),
        (
            "export",
            "model = {model}\nK = 3\nv0 = 0.5,0.5\nseed = 4\n",
            "export does not use config key(s): seed",
        ),
        # a list key that is given but names no value
        *(
            ("eval", f"estimator = {e}\nkernel = brownian\nd = 2\nM = 100\n",
             "estimator must name at least one value")
            for e in ("", ",")
        ),
        *(
            ("cv", f"fields = {{fields}}\n{key} = {e}\n", f"{key} must name at least one value")
            for key, e in (("R_list", ""), ("R_list", ","), ("L_list", ""))
        ),
        # every output has a fixed name, so a name key is never read
        *(
            (command, text + "name = x\n", f"{command} does not use config key(s): name")
            for command, text in VALID.items()
        ),
        *(
            (f"{command} --set name=x", text, f"{command} does not use config key(s): name")
            for command, text in VALID.items()
        ),
        # --set keeps a config file's rules: a key is not empty and is set once
        ("simulate --set =5", SIMULATE, "--set: empty key"),
        ("simulate --set N=3 --set N=4", SIMULATE, "--set: duplicate key 'N'"),
    ],
    ids=[
        "sigma_negative", "sigma_nan", "sigma_inf", "sigma_huge", "nu_inf", "lr_nan", "lr_inf",
        "rel_tol_nan", "v0_nan", "lr_zero", "fit_one_field", "separable_d3",
        "empirical_no_field", "separable_no_field",
        "cv_v_above_n", "cv_small_fold", "cv_no_archs", "cv_r_zero", "cv_level_zero",
        "simulate_huge_N", "simulate_N_beyond_memory", "simulate_matern_huge_N",
        "eval_huge_M", "eigen_huge_M", "eigen_huge_K", "export_huge_K", "fit_huge_R",
        "simulate_huge_d", "fit_huge_L", "cv_huge_L_list", "fit_huge_L_zero_R",
        "simulate_nu_not_matern", "eval_nu_not_matern",
        "eigen_n_funcs_without_grid", "eigen_n_funcs_zero_without_grid",
        "simulate_noise_seed_without_sigma", "simulate_noise_seed_with_sigma",
        "fit_L_with_shallow", "fit_center_mode",
        "cv_center_mode", "cv_L_list_with_shallow",
        "eval_model_without_covnet", "eval_fields_without_baselines", "eigen_d_without_grid",
        "export_seed", "eval_estimator_empty", "eval_estimator_comma", "cv_R_list_empty",
        "cv_R_list_comma", "cv_L_list_empty",
        *(f"{command}_name" for command in VALID),
        *(f"{command}_set_name" for command in VALID),
        "set_empty_key", "set_duplicate_key",
    ],
)
def test_config_value_error_exits_2(tmp_path, capsys, command, cfg_text, message):
    command, *flags = command.split()  # flags given after the config file
    text = cfg_text.format(
        model=constant_model(tmp_path),
        fields=gaussian_fields(tmp_path, 6),
        one=gaussian_fields(tmp_path, 1),
        zero=gaussian_fields(tmp_path, 0),
        three=gaussian_fields(tmp_path, 3),
    )
    code, out = run(tmp_path, command, text, flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    # nothing is written, not even the output directory
    assert not out.exists()


def test_value_error_before_the_config_is_accepted_is_a_config_error(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise ValueError("refused by the library")

    monkeypatch.setattr(cli, "make_grid", refuse)
    code, out = run(tmp_path, "simulate", SIMULATE)
    assert code == 2
    assert capsys.readouterr().err == "config error: refused by the library\n"
    assert not out.exists()


def test_value_error_inside_a_subcommand_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(cli, "constituent_gram", broken)
    with pytest.raises(ValueError, match="internal defect"):
        run(tmp_path, "eigen", f"model = {constant_model(tmp_path)}\nM = 100\n")
    assert "config error" not in capsys.readouterr().err


def test_every_train_config_field_is_a_fit_key(tmp_path):
    settings = {
        "epochs": "3", "lr": "0.02", "rel_tol": "0", "seed": "5", "batch": "4",
    }
    assert set(settings) == {f.name for f in dataclasses.fields(TrainConfig)}
    text = FIT.format(fields=gaussian_fields(tmp_path, 6)).replace("epochs = 5\n", "")
    text += "".join(f"{key} = {value}\n" for key, value in settings.items())
    code, out = run(tmp_path, "fit", text)
    assert code == 0
    resolved = (out / "resolved_fit.cfg").read_text().splitlines()
    for key, value in settings.items():
        assert f"{key} = {value}" in resolved


@pytest.mark.parametrize(
    "command, cfg_text, extra, message",
    [
        ("simulate", SIMULATE + "seed = -1\n", [], "seed must lie in [0, 2^64), got -1"),
        ("eval", "estimator = zero\nkernel = brownian\nd = 2\nM = 10\n", ["--seed", "-3"],
         "seed must lie in [0, 2^64), got -3"),
    ],
    ids=["simulate_seed", "eval_flag_seed"],
)
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, command, cfg_text, extra, message):
    code, out = run(tmp_path, command, cfg_text, extra)
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", [1, 2, 2**64 - 1])
def test_simulate_noise_is_stream_3_of_the_seed(tmp_path, seed):
    clean_code, clean_out = run(tmp_path, "simulate", SIMULATE + f"seed = {seed}\n")
    cfg = SIMULATE + f"seed = {seed}\nsigma = 0.1\n"
    noisy_code, noisy_out = run(tmp_path, "simulate", cfg, out=tmp_path / "noisy")
    assert clean_code == noisy_code == 0
    clean = read_fields(clean_out / "fields.cvnf").values
    noisy = read_fields(noisy_out / "fields.cvnf").values
    assert np.array_equal(noisy, clean + 0.1 * gaussian(make_rng(seed, 3), clean.shape))
    # not the normals behind the fields of the next seed
    if seed < 2**64 - 1:
        assert not np.allclose((noisy - clean) / 0.1, gaussian(make_rng(seed + 1), clean.shape))
    # the seed and sigma in the resolved config reproduce the draw
    resolved = (noisy_out / "resolved_simulate.cfg").read_text().splitlines()
    assert f"seed = {seed}" in resolved and "sigma = 0.1" in resolved


def test_simulate_noisy_draw_beyond_memory_exits_2(tmp_path, capsys, monkeypatch):
    # the 4 x 16 draw fits in memory, the draw and its noise do not
    monkeypatch.setattr(errors, "_MEMORY_BYTES", 8 * 4 * 16)
    code, out = run(tmp_path, "simulate", SIMULATE, out=tmp_path / "clean")
    assert code == 0 and (out / "fields.cvnf").exists()
    code, out = run(tmp_path, "simulate", SIMULATE + "sigma = 0.5\n")
    assert code == 2
    message = "4 fields of 16 points and their noise do not fit in memory"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# a tiny chain: a noisy draw, a deep fit, all four estimators, the eigenfunctions
# at eigen's post-solve n_funcs default, cv and export
CHAIN = {
    "simulate": "kernel = brownian\nd = 2\nK = 4\nN = 12\nseed = 1\nsigma = 0.1\n",
    "fit": "fields = {fields}\narch = deep\nR = 2\nL = 2\nepochs = 5\nseed = 2\n",
    "eval": (
        "estimator = zero,empirical,separable,covnet\nfields = {fields}\nmodel = {model}\n"
        "kernel = brownian\nd = 2\nM = 500\nseed = 3\n"
    ),
    "eigen": "model = {model}\nM = 500\nseed = 4\nK = 4\n",
    "cv": (
        "fields = {fields}\narchs = shallow,deep\nR_list = 1,2\nL_list = 2\nV = 3\n"
        "epochs = 5\nseed = 5\n"
    ),
    "export": "model = {model}\nK = 4\nv0 = 0.5,0.5\n",
}


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory):
    """The chain's field and model files."""
    base = tmp_path_factory.mktemp("chain")
    inputs = {"fields": base / "fields.cvnf", "model": base / "model.cvn"}
    for command in ("simulate", "fit"):
        cfg = base / f"{command}.cfg"
        cfg.write_text(CHAIN[command].format(**inputs))
        assert main([command, "--config", str(cfg), "--out", str(base)]) == 0
    return inputs


@pytest.mark.parametrize("command", CHAIN)
def test_resolved_config_reproduces_the_run(tmp_path, chain_inputs, command):
    code, first = run(tmp_path, command, CHAIN[command].format(**chain_inputs))
    assert code == 0
    again = tmp_path / "again"
    resolved = first / f"resolved_{command}.cfg"
    assert main([command, "--config", str(resolved), "--out", str(again)]) == 0
    written = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in again.iterdir()) == written
    for name in written:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
