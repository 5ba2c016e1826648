"""Config-driven command line: simulate, fit, eval, eigen, cv, export.

Every subcommand reads a `key = value` text config (flags override) and
checks all of it before it writes anything.  Outputs have fixed names in the
output directory, which is made with the first file, so separate runs need
separate `--out` directories.  A run's one record is the
`resolved_<command>.cfg` that `main` writes beside them after a successful
run: every key the run read, defaults included, so `--config` on it repeats
the run.  A key is declared where a subcommand reads it: a
given key that the subcommand never reads would take no effect, so it is a
config error.  The value rules are the library's own: the library objects a
subcommand builds from its config refuse bad values, and a ValueError raised
before the config is accepted (`Config.reject_unread`) is a config error.  A
size that cannot be allocated is one too.
A command's `seed` (or `--seed`) keys stream 0 of that seed for the
command's own draw: simulate's fields, fit's initial probe points, weights
and coefficients, eval's Monte-Carlo pairs and eigen's Gram points (simulate's
noise comes from stream 3, fit's minibatch order from stream 1, cv's folds
from stream 2).  One seed given to simulate, fit, eval and eigen reuses that
stream, so give each command its own seed, for instance one derived per
purpose through `numpy.random.SeedSequence`, as
`bench/workloads.py::derive_seed` does.
Outputs are byte-reproducible for a fixed config, seed and BLAS thread count:
BLAS products over many rows round differently with a different number of
threads.  Exit codes: 0 success, 2 config error, 3 I/O or file-format error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .baselines import (
    EmpiricalCovariance,
    ZeroCovariance,
    _relative_errors,
    best_separable_2d,
)
from .crossval import _check_levels, cross_validate
from .errors import (
    ConfigError,
    CovnetError,
    FieldFormatError,
    ModelFormatError,
    NumericError,
    ResourceLimitError,
    _check_memory,
)
from .fields import _MAX_AXES, make_grid, read_fields, write_fields
from .model import DEEP, DEEPSHARED, SHALLOW, VARIANTS, Architecture, load_model, save_model
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


def _finite_float(text) -> float:
    """float(text), refusing nan and infinities."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"{text!r} is not finite")
    return val


def _settings(items) -> dict[str, str]:
    """The `key = value` settings of (source, text) items, each key set once."""
    out: dict[str, str] = {}
    for where, text in items:
        if "=" not in text:
            raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
        key, value = text.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{where}: empty key")
        if key in out:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_config_text(text: str) -> dict[str, str]:
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return _settings((f"line {n}", line) for n, line in enumerate(lines, start=1) if line)


class Config:
    """Typed view over the merged config; a key is declared by reading it.

    The config phase lasts until `reject_unread` accepts the config: until
    then, a ValueError from a library object built from it is a config error.
    """

    def __init__(self, raw: dict[str, str], command: str):
        self.raw = dict(raw)
        self.command = command
        self.used: dict[str, str] = {}
        self.accepted = False

    def reject_unread(self) -> None:
        """Raise for every given key that was never read, else accept the config."""
        unread = sorted(set(self.raw) - set(self.used))
        if unread:
            raise ConfigError(f"{self.command} does not use config key(s): {', '.join(unread)}")
        self.accepted = True

    def _get(self, key: str, default=None, required=False):
        if key in self.raw:
            self.used[key] = self.raw[key]
            return self.raw[key]
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        if default is not None:
            self.used[key] = str(default)
        return default

    def _parse(self, key, parse, what, default, required):
        val = self._get(key, default, required)
        if val is None:
            return None
        try:
            return parse(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be {what}, got {val!r}") from None

    def str_(self, key, default=None, required=False, choices=None):
        val = self._parse(key, str, "a string", default, required)
        if val is not None and choices and val not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {val!r}")
        return val

    def int_(self, key, default=None, required=False, minimum=None):
        val = self._parse(key, int, "an integer", default, required)
        if val is not None and minimum is not None and val < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {val}")
        return val

    def seed_(self, key):
        """An integer seed in [0, 2^64), the key range of make_rng; 0 by default."""
        val = self.int_(key, default=0)
        if not 0 <= val < 2**64:
            raise ConfigError(f"{key} must lie in [0, 2^64), got {val}")
        return val

    def float_(self, key, default=None, required=False):
        return self._parse(key, _finite_float, "a finite number", default, required)

    def list_(self, key, item=str, default=None, required=False):
        """Comma-separated values of type `item`; blank entries are skipped.

        Float items must be finite, and a given list must name at least one.
        """
        what = "finite float" if item is float else item.__name__
        parse = _finite_float if item is float else item
        val = self._parse(
            key,
            lambda val: [parse(p.strip()) for p in val.split(",") if p.strip()],
            f"a comma-separated list of {what}",
            default,
            required,
        )
        if val == []:
            raise ConfigError(f"{key} must name at least one value, got {self.used[key]!r}")
        return val


def _merge_config(args) -> dict[str, str]:
    raw: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    # a --set key may override a config-file key, but not another --set key
    raw.update(_settings(("--set", item) for item in args.set or []))
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    return raw


def _out_path(out_dir: str, filename: str) -> str:
    """Path of an output file; the directory is made with the first one."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, filename)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_resolved(cfg: Config, out_dir: str) -> None:
    lines = [f"{k} = {v}" for k, v in sorted(cfg.used.items())]
    _write_lines(_out_path(out_dir, f"resolved_{cfg.command}.cfg"), lines)


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    _write_lines(path, [",".join(row) for row in [header, *rows]])


def _write_point_csv(path: str, pts: np.ndarray, vals: np.ndarray) -> None:
    """One `flat_index,u1..ud,value` row per grid point, numbers as by _fmt."""
    d = pts.shape[1]
    row = "%d" + ",%.17g" * (d + 1)  # one template per row: "%.17g" % x == _fmt(x)
    rows = np.column_stack([pts, vals]).tolist()
    header = ",".join(["flat_index", *(f"u{k + 1}" for k in range(d)), "value"])
    _write_lines(path, [header, *(row % (j, *r) for j, r in enumerate(rows))])


def _grid_from(cfg: Config, default_d: int | None = None):
    d = cfg.int_("d", default=default_d, required=default_d is None, minimum=1)
    sizes = cfg.list_("sizes", item=int)
    if sizes is None:
        # checked before the list of d sizes is built
        if d > _MAX_AXES:
            raise ConfigError(f"d must be <= {_MAX_AXES}, got {d}")
        sizes = [cfg.int_("K", required=True)] * d
    return make_grid(d, sizes)


def _model_grid(cfg: Config, model):
    """The configured grid, which must have the model's dimension."""
    grid = _grid_from(cfg, default_d=model.arch.d)
    if grid.d != model.arch.d:
        raise ConfigError(
            f"grid dimension {grid.d} does not match model dimension {model.arch.d}"
        )
    return grid


def _kernel_from(cfg: Config, d: int):
    name = cfg.str_("kernel", required=True, choices=KERNEL_NAMES)
    if name == "brownian":
        return BrownianSheet(d)
    if name == "integrated_brownian":
        return IntegratedBrownianSheet(d)
    if name == "matern":
        return Matern(cfg.float_("nu", required=True), d)
    if d not in (2, 3):
        raise ConfigError(f"rotated kernels are defined for d in (2, 3), got {d}")
    rot = rotation_2d_45() if d == 2 else rotation_3d_composed()
    if name == "rotated_brownian":
        return RotatedBrownianSheet(rot)
    return RotatedIntegratedBrownianSheet(rot)


def run_simulate(cfg: Config, out_dir: str) -> None:
    grid = _grid_from(cfg)
    spec = _kernel_from(cfg, grid.d)
    n = cfg.int_("N", required=True, minimum=1)
    seed = cfg.seed_("seed")
    noise = NoiseSpec(cfg.float_("sigma", default=0.0))
    cfg.reject_unread()
    fields_ = sample_gaussian_fields(spec, grid, n, seed, noise)
    path = _out_path(out_dir, "fields.cvnf")
    write_fields(path, fields_)
    print(f"wrote {path} (N={n}, D={grid.n_points})")


def _architecture(variant: str, r: int, d: int, depth: int) -> Architecture:
    """Architecture with `depth` hidden layers of width r.

    Its parameters number at least depth * r * (r + 1), which is checked
    against memory before the widths tuple is built; an r below 1, which
    Architecture refuses, counts as 1 here.
    """
    width = max(r, 1)
    _check_memory(depth * width * (width + 1), f"L = {depth} hidden layers of width R = {r}")
    return Architecture(variant, r, d, (r,) * depth)


def _arch_from(cfg: Config, d: int) -> Architecture:
    variant = cfg.str_("arch", required=True)
    r = cfg.int_("R", required=True)
    depth = cfg.int_("L", required=True) if variant in (DEEP, DEEPSHARED) else 0
    return _architecture(variant, r, d, depth)


def _train_config(cfg: Config) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.int_("epochs", default=TrainConfig.epochs),
        lr=cfg.float_("lr", default=TrainConfig.lr),
        rel_tol=cfg.float_("rel_tol", default=TrainConfig.rel_tol),
        seed=cfg.seed_("seed"),
        batch=cfg.int_("batch"),
    )


def run_fit(cfg: Config, out_dir: str) -> None:
    f = read_fields(cfg.str_("fields", required=True))
    if f.n < 2:
        raise ConfigError(f"fit needs at least two fields, got {f.n}")
    arch = _arch_from(cfg, f.grid.d)
    train_cfg = _train_config(cfg)
    cfg.reject_unread()
    model, trace = fit(f, arch, train_cfg)
    model_path = _out_path(out_dir, "model.cvn")
    save_model(model_path, model)
    _write_csv(
        _out_path(out_dir, "model_trace.csv"),
        ["epoch", "total", "term_xx", "term_gg", "term_xg"],
        [[str(e), *map(_fmt, t)] for e, t in enumerate(trace)],
    )
    print(
        f"wrote {model_path} (loss {_fmt(trace[0, 0])} -> {_fmt(trace[-1, 0])}"
        f" over {len(trace) - 1} epochs)"
    )


def run_eval(cfg: Config, out_dir: str) -> None:
    d = cfg.int_("d", required=True, minimum=1)
    truth = _kernel_from(cfg, d)
    m = cfg.int_("M", default=100_000, minimum=1)
    seed = cfg.seed_("seed")
    est_names = cfg.list_("estimator", required=True)
    if "separable" in est_names and d != 2:
        raise ConfigError(f"the separable estimator needs d = 2, got d = {d}")
    # every estimator is built, in list order, before any error is computed;
    # the empirical covariance is built once and the separable one reuses it
    estimators = []
    emp = None
    for est_name in est_names:
        if est_name == "zero":
            estimators.append(("zero", ZeroCovariance()))
        elif est_name == "covnet":
            model = load_model(cfg.str_("model", required=True))
            if model.arch.d != d:
                raise ConfigError(
                    f"model dimension {model.arch.d} does not match truth dimension {d}"
                )
            estimators.append(("covnet", model))
        elif est_name in ("empirical", "separable"):
            if emp is None:
                f = read_fields(cfg.str_("fields", required=True))
                if f.n < 1:
                    raise ConfigError("the fields file holds no field")
                if f.grid.d != d:
                    raise ConfigError(
                        f"field dimension {f.grid.d} does not match truth dimension {d}"
                    )
                emp = EmpiricalCovariance(f.centered())
            estimators.append((est_name, emp))
        else:
            raise ConfigError(f"unknown estimator {est_name!r}")
    cfg.reject_unread()
    # the separable fit is an eigensolve, so it runs for an accepted config only
    estimators = [
        ("separable (nearest Kronecker product)", best_separable_2d(emp))
        if label == "separable"
        else (label, est)
        for label, est in estimators
    ]
    # one draw of the pairs and one evaluation of the truth score every estimator
    errors = _relative_errors([est for _, est in estimators], truth, d, m, seed)
    rows = []
    for (label, _), err in zip(estimators, errors):
        rows.append([label, _fmt(err), str(m), str(seed)])
        print(f"{label}: relative error {_fmt(err)}")
    _write_csv(
        _out_path(out_dir, "errors.csv"),
        ["estimator", "relative_error", "M", "seed"],
        rows,
    )


def run_eigen(cfg: Config, out_dir: str) -> None:
    model = load_model(cfg.str_("model", required=True))
    m = cfg.int_("M", default=100_000, minimum=1)
    seed = cfg.seed_("seed")
    grid = None
    n_funcs = 0
    if "K" in cfg.raw or "sizes" in cfg.raw:
        grid = _model_grid(cfg, model)
        n_funcs = cfg.int_("n_funcs", minimum=1)
    cfg.reject_unread()
    # built before the eigensolve, so that a grid beyond memory is refused first
    pts = None if grid is None else grid.coordinates()
    system = eigendecompose(model, constituent_gram(model, m, seed))
    if grid is not None:
        # resolved after the eigensolve: the default is the rank found there
        n_funcs = n_funcs or cfg.int_("n_funcs", default=system.rank)
    _write_csv(
        _out_path(out_dir, "eigen_values.csv"),
        ["index", "eigenvalue"],
        [[str(i), _fmt(v)] for i, v in enumerate(system.values)],
    )
    for i in range(min(n_funcs, system.rank)):
        _write_point_csv(
            _out_path(out_dir, f"eigen_fn{i}.csv"),
            pts,
            eval_eigenfunction(model, system, i, pts),
        )
    print(f"rank {system.rank}, leading eigenvalue {_fmt(system.values[0])}")


DEFAULT_LEVELS = [5, 10, 20, 40]
DEFAULT_DEPTHS = [2, 3, 4]


def run_cv(cfg: Config, out_dir: str) -> None:
    f = read_fields(cfg.str_("fields", required=True))
    v = cfg.int_("V", default=5, minimum=2)
    seed = cfg.seed_("seed")
    variants = cfg.list_("archs", default=",".join(VARIANTS))
    # truncation levels: every architecture is built at the widest
    levels = cfg.list_("R_list", item=int) or DEFAULT_LEVELS
    _check_levels(levels)
    # depths apply to the deep variants only
    deep = any(variant != SHALLOW for variant in variants)
    l_list = (cfg.list_("L_list", item=int) if deep else None) or DEFAULT_DEPTHS
    base = _train_config(cfg)
    if v > f.n:
        raise ConfigError(f"cannot split {f.n} fields into V = {v} folds")
    if f.n - math.ceil(f.n / v) < 2:
        raise ConfigError(f"V = {v} leaves a training fold of fewer than 2 of {f.n} fields")
    archs = [
        _architecture(variant, max(levels), f.grid.d, depth)
        for variant in variants
        for depth in ([0] if variant == SHALLOW else l_list)
    ]
    cfg.reject_unread()
    report = cross_validate(f, archs, levels, base, v, seed)

    def columns(ci: int) -> list[str]:
        arch, level = report.candidates[ci]
        return [str(ci), arch.variant, str(level), str(arch.depth)]

    header = ["candidate", "arch", "R", "L"]
    _write_csv(
        _out_path(out_dir, "cv_report.csv"),
        [*header, "fold", "loss"],
        [
            [*columns(c.candidate), str(c.fold), "failed" if c.failed else _fmt(c.loss)]
            for c in report.cells
        ],
    )
    _write_csv(
        _out_path(out_dir, "cv_summary.csv"),
        [*header, "mean_loss", "selected"],
        [
            [
                *columns(ci),
                "failed" if mean == float("inf") else _fmt(mean),
                "1" if ci == report.selected else "0",
            ]
            for ci, mean in enumerate(report.mean_losses)
        ],
    )
    print(f"selected candidate {report.selected}: {report.candidate_label(report.selected)}")


def run_export(cfg: Config, out_dir: str) -> None:
    model = load_model(cfg.str_("model", required=True))
    grid = _model_grid(cfg, model)
    v0 = np.array(cfg.list_("v0", item=float, required=True), dtype=float)
    if v0.shape != (model.arch.d,):
        raise ConfigError(f"v0 must list {model.arch.d} coordinates")
    cfg.reject_unread()
    pts = grid.coordinates()
    vals = model.kernel_pairs(pts, np.broadcast_to(v0, pts.shape))
    path = _out_path(out_dir, "kernel_slice.csv")
    _write_point_csv(path, pts, vals)
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
        cfg = Config(_merge_config(args), args.command)
        try:
            COMMANDS[args.command](cfg, args.out)
        except ValueError as exc:
            if cfg.accepted:
                raise  # a value the accepted config let through: a program defect
            raise ConfigError(str(exc)) from exc
        _write_resolved(cfg, args.out)
    except (ConfigError, ResourceLimitError, MemoryError) as exc:
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
