"""Config-driven command line: simulate, fit, eval, eigen, cv, export.

Every subcommand reads a `key = value` text config (flags override), writes
its artifacts plus a resolved-config copy into the output directory, and is
byte-reproducible for a fixed config and seed.  Exit codes: 0 success,
2 config error, 3 I/O or file-format error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .baselines import (
    ZeroCovariance,
    best_separable_2d,
    empirical_covariance,
    relative_error_mc,
)
from .crossval import cross_validate
from .errors import (
    ConfigError,
    CovnetError,
    FieldFormatError,
    ModelFormatError,
    NumericError,
    ResourceLimitError,
)
from .fields import make_grid, read_fields, write_fields
from .model import Architecture, load_model, save_model
from .simulate import (
    BrownianSheet,
    IntegratedBrownianSheet,
    Matern,
    NoiseSpec,
    RotatedBrownianSheet,
    RotatedIntegratedBrownianSheet,
    rotation_2d_45,
    rotation_3d_composed,
    sample_gaussian_fields,
)
from .spectral import constituent_gram, eigendecompose, eval_eigenfunction
from .training import TrainConfig, fit

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

KERNEL_NAMES = (
    "brownian",
    "rotated_brownian",
    "integrated_brownian",
    "rotated_integrated_brownian",
    "matern",
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


class Config:
    """Typed view over the merged config with unknown-key rejection."""

    def __init__(self, raw: dict[str, str], allowed: set[str], command: str):
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(
                f"unknown config key(s) for {command}: {', '.join(sorted(unknown))}"
            )
        self.raw = dict(raw)
        self.used: dict[str, str] = {}

    def _get(self, key: str, default=None, required=False):
        if key in self.raw:
            self.used[key] = self.raw[key]
            return self.raw[key]
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        if default is not None:
            self.used[key] = str(default)
        return default

    def str_(self, key, default=None, required=False, choices=None):
        val = self._get(key, default, required)
        if val is not None and choices and val not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {val!r}")
        return val

    def int_(self, key, default=None, required=False, minimum=None):
        val = self._get(key, default, required)
        if val is None:
            return None
        try:
            out = int(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be an integer, got {val!r}") from None
        if minimum is not None and out < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {out}")
        return out

    def float_(self, key, default=None, required=False):
        val = self._get(key, default, required)
        if val is None:
            return None
        try:
            return float(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {val!r}") from None

    def csv_ints(self, key, default=None, required=False):
        val = self._get(key, default, required)
        if val is None:
            return None
        try:
            return [int(p) for p in str(val).split(",") if p.strip() != ""]
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated integers") from None

    def csv_floats(self, key, default=None, required=False):
        val = self._get(key, default, required)
        if val is None:
            return None
        try:
            return [float(p) for p in str(val).split(",") if p.strip() != ""]
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated numbers") from None


def _merge_config(args) -> dict[str, str]:
    raw: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    return raw


def _write_resolved(cfg: Config, out_dir: str, command: str) -> None:
    path = os.path.join(out_dir, f"resolved_{command}.cfg")
    lines = [f"{k} = {v}" for k, v in sorted(cfg.used.items())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _grid_from(cfg: Config, default_d: int | None = None):
    d = cfg.int_("d", default=default_d, required=default_d is None, minimum=1)
    sizes = cfg.csv_ints("sizes")
    if sizes is None:
        k = cfg.int_("K", required=True, minimum=1)
        sizes = [k] * d
    if len(sizes) != d or any(s < 1 for s in sizes):
        raise ConfigError(f"sizes must list {d} positive integers")
    return make_grid(d, sizes)


def _kernel_from(cfg: Config, d: int):
    name = cfg.str_("kernel", required=True, choices=KERNEL_NAMES)
    if name in ("rotated_brownian", "rotated_integrated_brownian"):
        if d == 2:
            rot = rotation_2d_45()
        elif d == 3:
            rot = rotation_3d_composed()
        else:
            raise ConfigError(f"rotated kernels are defined for d in (2, 3), got {d}")
        return (
            RotatedBrownianSheet(rot)
            if name == "rotated_brownian"
            else RotatedIntegratedBrownianSheet(rot)
        )
    if name == "brownian":
        return BrownianSheet(d)
    if name == "integrated_brownian":
        return IntegratedBrownianSheet(d)
    nu = cfg.float_("nu", required=True)
    if nu is None or nu <= 0:
        raise ConfigError("matern needs nu > 0")
    return Matern(nu, d)


def run_simulate(raw: dict[str, str], out_dir: str) -> None:
    cfg = Config(
        raw,
        {"kernel", "nu", "d", "K", "sizes", "N", "seed", "sigma", "noise_seed", "name"},
        "simulate",
    )
    grid = _grid_from(cfg)
    spec = _kernel_from(cfg, grid.d)
    n = cfg.int_("N", required=True, minimum=1)
    seed = cfg.int_("seed", default=0)
    sigma = cfg.float_("sigma", default=0.0)
    noise = None
    if sigma and sigma > 0:
        noise = NoiseSpec(sigma, cfg.int_("noise_seed", default=seed + 1))
    name = cfg.str_("name", default="fields")
    fields_ = sample_gaussian_fields(spec, grid, n, seed, noise)
    path = os.path.join(out_dir, f"{name}.cvnf")
    write_fields(path, fields_)
    meta = [
        f"kernel = {cfg.used['kernel']}",
        f"d = {grid.d}",
        f"sizes = {','.join(str(s) for s in grid.sizes)}",
        f"N = {n}",
        f"seed = {seed}",
        f"sigma = {_fmt(sigma or 0.0)}",
    ]
    if "nu" in cfg.used:
        meta.insert(1, f"nu = {cfg.used['nu']}")
    with open(os.path.join(out_dir, f"{name}.meta.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(meta) + "\n")
    _write_resolved(cfg, out_dir, "simulate")
    print(f"wrote {path} (N={n}, D={grid.n_points})")


def _arch_from(cfg: Config, d: int) -> Architecture:
    variant = cfg.str_("arch", required=True, choices=("shallow", "deep", "deepshared"))
    r = cfg.int_("R", required=True, minimum=1)
    if variant == "shallow":
        return Architecture.shallow(r, d)
    depth = cfg.int_("L", minimum=1)
    if depth is None:
        raise ConfigError(f"arch={variant} requires L")
    return Architecture(variant, r, d, (r,) * depth)


def _train_config(cfg: Config) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.int_("epochs", default=TrainConfig.epochs, minimum=1),
        lr=cfg.float_("lr", default=TrainConfig.lr),
        rel_tol=cfg.float_("rel_tol", default=TrainConfig.rel_tol),
        seed=cfg.int_("seed", default=0),
        center_mode=cfg.str_(
            "center_mode",
            default=TrainConfig.center_mode,
            choices=("pre_center", "joint_mean"),
        ),
        batch=cfg.int_("batch", minimum=2),
    )


def run_fit(raw: dict[str, str], out_dir: str) -> None:
    cfg = Config(
        raw,
        {
            "fields", "arch", "R", "L", "lr", "epochs", "seed",
            "center_mode", "batch", "rel_tol", "name",
        },
        "fit",
    )
    fields_path = cfg.str_("fields", required=True)
    f = read_fields(fields_path)
    arch = _arch_from(cfg, f.grid.d)
    train_cfg = _train_config(cfg)
    name = cfg.str_("name", default="model")
    model, trace = fit(f, arch, train_cfg)
    model_path = os.path.join(out_dir, f"{name}.cvn")
    save_model(model_path, model)
    rows = [
        [str(e), _fmt(t[0]), _fmt(t[1]), _fmt(t[2]), _fmt(t[3])]
        for e, t in enumerate(trace)
    ]
    _write_csv(
        os.path.join(out_dir, f"{name}_trace.csv"),
        ["epoch", "total", "term_xx", "term_gg", "term_xg"],
        rows,
    )
    _write_resolved(cfg, out_dir, "fit")
    print(
        f"wrote {model_path} (loss {_fmt(trace[0, 0])} -> {_fmt(trace[-1, 0])}"
        f" over {len(trace) - 1} epochs)"
    )


def run_eval(raw: dict[str, str], out_dir: str) -> None:
    cfg = Config(
        raw,
        {"estimator", "model", "fields", "kernel", "nu", "d", "M", "seed", "name"},
        "eval",
    )
    d = cfg.int_("d", required=True, minimum=1)
    truth = _kernel_from(cfg, d)
    m = cfg.int_("M", default=100_000, minimum=1)
    seed = cfg.int_("seed", default=0)
    name = cfg.str_("name", default="errors")
    estimators = [
        e.strip() for e in cfg.str_("estimator", required=True).split(",") if e.strip()
    ]
    rows = []
    for est_name in estimators:
        if est_name == "zero":
            est, label = ZeroCovariance(), "zero"
        elif est_name == "covnet":
            model = load_model(cfg.str_("model", required=True))
            if model.arch.d != d:
                raise ConfigError(
                    f"model dimension {model.arch.d} does not match truth dimension {d}"
                )
            est, label = model, "covnet"
        elif est_name in ("empirical", "separable"):
            f = read_fields(cfg.str_("fields", required=True))
            if f.grid.d != d:
                raise ConfigError(
                    f"field dimension {f.grid.d} does not match truth dimension {d}"
                )
            emp = empirical_covariance(f.centered())
            if est_name == "empirical":
                est, label = emp, "empirical"
            else:
                est, label = best_separable_2d(emp), "separable (nearest Kronecker product)"
        else:
            raise ConfigError(f"unknown estimator {est_name!r}")
        err = relative_error_mc(est, truth, d, m, seed)
        rows.append([label, _fmt(err), str(m), str(seed)])
        print(f"{label}: relative error {_fmt(err)}")
    _write_csv(
        os.path.join(out_dir, f"{name}.csv"),
        ["estimator", "relative_error", "M", "seed"],
        rows,
    )
    _write_resolved(cfg, out_dir, "eval")


def run_eigen(raw: dict[str, str], out_dir: str) -> None:
    cfg = Config(
        raw, {"model", "M", "seed", "d", "K", "sizes", "n_funcs", "name"}, "eigen"
    )
    model = load_model(cfg.str_("model", required=True))
    m = cfg.int_("M", default=100_000, minimum=1)
    seed = cfg.int_("seed", default=0)
    name = cfg.str_("name", default="eigen")
    gram = constituent_gram(model, m, seed)
    system = eigendecompose(model, gram)
    _write_csv(
        os.path.join(out_dir, f"{name}_values.csv"),
        ["index", "eigenvalue"],
        [[str(i), _fmt(v)] for i, v in enumerate(system.values)],
    )
    if "K" in cfg.raw or "sizes" in cfg.raw:
        grid = _grid_from(cfg, default_d=model.arch.d)
        if grid.d != model.arch.d:
            raise ConfigError(
                f"grid dimension {grid.d} does not match model dimension {model.arch.d}"
            )
        n_funcs = cfg.int_("n_funcs", default=system.rank, minimum=1)
        pts = grid.coordinates()
        coord_names = [f"u{k + 1}" for k in range(grid.d)]
        for i in range(min(n_funcs, system.rank)):
            vals = eval_eigenfunction(model, system, i, pts)
            rows = [
                [str(j)] + [_fmt(c) for c in pts[j]] + [_fmt(vals[j])]
                for j in range(grid.n_points)
            ]
            _write_csv(
                os.path.join(out_dir, f"{name}_fn{i}.csv"),
                ["flat_index", *coord_names, "value"],
                rows,
            )
    _write_resolved(cfg, out_dir, "eigen")
    print(f"rank {system.rank}, leading eigenvalue {_fmt(system.values[0])}")


DEFAULT_SHALLOW_R = [5, 10, 20, 40, 80]
DEFAULT_DEEP_R = [5, 10, 20, 40]
DEFAULT_DEPTHS = [2, 3, 4]


def run_cv(raw: dict[str, str], out_dir: str) -> None:
    cfg = Config(
        raw,
        {
            "fields", "V", "seed", "archs", "R_list", "L_list", "lr", "epochs",
            "center_mode", "batch", "rel_tol", "name",
        },
        "cv",
    )
    f = read_fields(cfg.str_("fields", required=True))
    v = cfg.int_("V", default=5, minimum=2)
    seed = cfg.int_("seed", default=0)
    name = cfg.str_("name", default="cv")
    archs = [
        a.strip()
        for a in cfg.str_("archs", default="shallow,deep,deepshared").split(",")
        if a.strip()
    ]
    r_list = cfg.csv_ints("R_list")
    l_list = cfg.csv_ints("L_list") or DEFAULT_DEPTHS
    base = _train_config(cfg)
    candidates = []
    for variant in archs:
        if variant == "shallow":
            for r in r_list or DEFAULT_SHALLOW_R:
                candidates.append((Architecture.shallow(r, f.grid.d), base))
        elif variant in ("deep", "deepshared"):
            for depth in l_list:
                for r in r_list or DEFAULT_DEEP_R:
                    candidates.append(
                        (Architecture(variant, r, f.grid.d, (r,) * depth), base)
                    )
        else:
            raise ConfigError(f"unknown architecture {variant!r} in archs")
    workers = int(os.environ.get("COVNET_THREADS", "1"))
    report = cross_validate(f, candidates, v, seed, workers=max(1, workers))
    rows = []
    for cell in report.cells:
        arch = report.candidates[cell.candidate][0]
        rows.append(
            [
                str(cell.candidate),
                arch.variant,
                str(arch.r),
                str(arch.depth),
                str(cell.fold),
                "failed" if cell.failed else _fmt(cell.loss),
            ]
        )
    _write_csv(
        os.path.join(out_dir, f"{name}_report.csv"),
        ["candidate", "arch", "R", "L", "fold", "loss"],
        rows,
    )
    summary = []
    for ci, (arch, _) in enumerate(report.candidates):
        mean = report.mean_losses[ci]
        summary.append(
            [
                str(ci),
                arch.variant,
                str(arch.r),
                str(arch.depth),
                "failed" if mean == float("inf") else _fmt(mean),
                "1" if ci == report.selected else "0",
            ]
        )
    _write_csv(
        os.path.join(out_dir, f"{name}_summary.csv"),
        ["candidate", "arch", "R", "L", "mean_loss", "selected"],
        summary,
    )
    _write_resolved(cfg, out_dir, "cv")
    print(f"selected candidate {report.selected}: {report.candidate_label(report.selected)}")


def run_export(raw: dict[str, str], out_dir: str) -> None:
    cfg = Config(raw, {"model", "d", "K", "sizes", "v0", "name", "seed"}, "export")
    model = load_model(cfg.str_("model", required=True))
    grid = _grid_from(cfg, default_d=model.arch.d)
    if grid.d != model.arch.d:
        raise ConfigError(
            f"grid dimension {grid.d} does not match model dimension {model.arch.d}"
        )
    v0 = np.array(cfg.csv_floats("v0", required=True), dtype=float)
    if v0.shape != (model.arch.d,):
        raise ConfigError(f"v0 must list {model.arch.d} coordinates")
    name = cfg.str_("name", default="kernel_slice")
    pts = grid.coordinates()
    vals = model.kernel_pairs(pts, np.broadcast_to(v0, pts.shape))
    coord_names = [f"u{k + 1}" for k in range(grid.d)]
    rows = [
        [str(j)] + [_fmt(c) for c in pts[j]] + [_fmt(vals[j])]
        for j in range(grid.n_points)
    ]
    path = os.path.join(out_dir, f"{name}.csv")
    _write_csv(path, ["flat_index", *coord_names, "value"], rows)
    _write_resolved(cfg, out_dir, "export")
    print(f"wrote {path} ({grid.n_points} rows)")


COMMANDS = {
    "simulate": run_simulate,
    "fit": run_fit,
    "eval": run_eval,
    "eigen": run_eigen,
    "cv": run_cv,
    "export": run_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covnet",
        description="Neural covariance estimation for random fields on grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a single config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _merge_config(args)
        os.makedirs(args.out, exist_ok=True)
        COMMANDS[args.command](raw, args.out)
    except (ConfigError, ResourceLimitError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FieldFormatError, ModelFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CovnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
