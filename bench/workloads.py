"""The three benchmark workloads and their output checks.

Every workload cycles over DATASETS input sets derived from the workload
seed, so quality metrics are medians over several independent data sets
rather than one draw.  An operation on the same data set always produces
bit-identical outputs; that is checked on every repeat.

* fit_deep -- one `covnet.fit` call of a deep architecture on a 25x25 grid,
  full batch.  The paper's deep-constituent regime at the reference size:
  constituent forward/backward, pack/unpack and ADAM do the work; the data
  self-term is computed once per fit.
* fit_dense_minibatch -- one `covnet.fit` call of a shallow architecture on a
  64x64 grid with batch 100.  The dense-grid regime, where N x D products and
  the per-batch data self-term dominate; set-up simulates at D = 4096 with the
  dense Cholesky factor.
* lab_pipeline -- one in-process `covnet` CLI chain simulate -> fit -> eval ->
  eigen -> cv -> export on a 40x40 grid.  The only workload where simulation,
  baselines, spectral analysis, cross-validation, file I/O and the CLI do most
  of the work.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np

import covnet
from covnet import cli, training

DATASETS = 4

# seed purposes, mixed into the workload seed
SIMULATE, FIT, MONTE_CARLO, EVAL, EIGEN, CV = range(6)


def derive_seed(seed: int, purpose: int, index: int = 0) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, index))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


class Tally:
    """Counts attempted operations and output checks, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


@dataclass
class OpResult:
    """One timed operation: its wall time and the wall time of each part (the
    fit, or each CLI subcommand)."""

    seconds: float
    parts: dict[str, float]


def adam_steps(n: int, epochs: int, batch: int | None) -> int:
    """ADAM steps of one fit; minibatch remainders of one row are skipped."""
    if batch is None or batch >= n:
        return epochs
    return epochs * sum(1 for s in range(0, n, batch) if min(batch, n - s) >= 2)


def _finite_rows(trace: np.ndarray, rows: int) -> bool:
    return trace.shape[0] == rows and bool(np.all(np.isfinite(trace)))


def _is_psd(lam: np.ndarray) -> bool:
    eig = np.linalg.eigvalsh(lam)
    return bool(eig.min() >= -1e-10 * max(abs(eig).max(), 1e-300))


FIT_SIZES = {
    "fit_deep": {
        "full": dict(sizes=(25, 25), n=500, depth=3, r=20, epochs=10, batch=None, m=50_000),
        "tiny": dict(sizes=(5, 5), n=12, depth=2, r=3, epochs=3, batch=None, m=500),
    },
    "fit_dense_minibatch": {
        "full": dict(sizes=(64, 64), n=400, depth=0, r=20, epochs=10, batch=100, m=50_000),
        "tiny": dict(sizes=(6, 6), n=16, depth=0, r=3, epochs=3, batch=5, m=500),
    },
}


class FitWorkload:
    """Repeated `covnet.fit` calls on DATASETS simulated field matrices."""

    def __init__(self, name: str, seed: int, scale: str):
        p = FIT_SIZES[name][scale]
        self.name = name
        self.seed = seed
        self.sizes = p["sizes"]
        self.n = p["n"]
        self.m = p["m"]
        self.oracle = name == "fit_deep"
        if name == "fit_deep":
            self.spec = covnet.RotatedBrownianSheet(covnet.rotation_2d_45())
            self.arch = covnet.Architecture.deep(p["r"], 2, p["depth"])
        else:
            self.spec = covnet.BrownianSheet(2)
            self.arch = covnet.Architecture.shallow(p["r"], 2)
        self.configs = [
            covnet.TrainConfig(
                epochs=p["epochs"], rel_tol=0.0, seed=derive_seed(seed, FIT, j), batch=p["batch"]
            )
            for j in range(DATASETS)
        ]
        self.steps = adam_steps(self.n, p["epochs"], p["batch"])  # per fit
        self.tally = Tally()
        self.datasets: list[covnet.FieldMatrix] = []
        self.reference: dict[int, tuple[bytes, bytes]] = {}
        self.models: dict[int, covnet.FittedCovariance] = {}
        self.traces: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        """Simulate the data sets in one draw and warm up the fit path."""
        grid = covnet.make_grid(2, self.sizes)
        draw = covnet.sample_gaussian_fields(
            self.spec, grid, self.n * DATASETS, derive_seed(self.seed, SIMULATE)
        )
        self.datasets = [
            covnet.FieldMatrix(grid, draw.values[j * self.n : (j + 1) * self.n])
            for j in range(DATASETS)
        ]
        training.fit(self.datasets[0], self.arch, replace(self.configs[0], epochs=2))

    def op(self, i: int) -> OpResult | None:
        j = i % DATASETS
        cfg = self.configs[j]
        start = time.perf_counter()
        try:
            out = training.fit(self.datasets[j], self.arch, cfg)
        except covnet.TrainingDivergedError as exc:
            self.tally.record(False, f"fit on data set {j} diverged: {exc}")
            return None
        seconds = time.perf_counter() - start
        self.tally.record(True, "fit")
        model, trace = out[0], out[1]
        self.tally.record(
            _finite_rows(trace, cfg.epochs + 1),
            f"data set {j}: trace is not {cfg.epochs + 1} finite rows",
        )
        self.tally.record(_is_psd(model.lam), f"data set {j}: Lambda is not PSD")
        key = (trace.tobytes(), model.lam.tobytes())
        if j in self.reference:
            self.tally.record(key == self.reference[j], f"data set {j}: fit is not repeatable")
        else:
            self.reference[j] = key
            self.models[j] = model
            self.traces[j] = trace
        return OpResult(seconds, {"fit": seconds})

    def finish(self) -> dict[int, tuple[float, float]]:
        """Oracle checks and (final loss share, rel_error) per data set, untimed."""
        quality = {}
        mc_seed = derive_seed(self.seed, MONTE_CARLO)
        for j, model in sorted(self.models.items()):
            trace = self.traces[j]
            if self.oracle:
                want = _dense_oracle(self.datasets[j], self.arch, self.configs[j].seed)
                got = float(trace[0, 0])
                self.tally.record(
                    abs(got - want) <= 1e-8 * abs(want),
                    f"data set {j}: trace row 0 {got!r} differs from dense oracle {want!r}",
                )
            rel = covnet.relative_error_mc(model, self.spec, 2, self.m, mc_seed)
            quality[j] = (float(trace[-1, 0] / trace[-1, 1]), float(rel))
        return quality


def _dense_oracle(f: covnet.FieldMatrix, arch, seed: int) -> float:
    """Loss at the initial parameters from the D x D empirical covariances."""
    x = f.values - f.values.mean(axis=0)
    n, d = x.shape
    params, xi = covnet.init_params(arch, n, seed)
    z = covnet.eval_constituents(params, arch, f.grid.coordinates())
    y = xi @ z.T
    return float(np.linalg.norm(x.T @ x / n - y.T @ y / n, "fro") ** 2 / d**2)


LAB_SIZES = {
    "full": dict(K=40, N=300, R=10, L=2, epochs=50, eval_m=50_000, eigen_m=100_000,
                 n_funcs=3, cv_r="5,10", cv_epochs=20, V=3),
    "tiny": dict(K=6, N=24, R=3, L=2, epochs=3, eval_m=2_000, eigen_m=2_000,
                 n_funcs=2, cv_r="2,3", cv_epochs=3, V=2),
}


def _lab_configs(p: dict, out: str) -> dict[str, str]:
    fields = os.path.join(out, "fields.cvnf")
    model = os.path.join(out, "model.cvn")
    return {
        "simulate": f"kernel = rotated_brownian\nd = 2\nK = {p['K']}\nN = {p['N']}\n",
        "fit": (
            f"fields = {fields}\narch = deepshared\nR = {p['R']}\nL = {p['L']}\n"
            f"epochs = {p['epochs']}\nrel_tol = 0\n"
        ),
        "eval": (
            f"estimator = zero,empirical,separable,covnet\nmodel = {model}\n"
            f"fields = {fields}\nkernel = rotated_brownian\nd = 2\nM = {p['eval_m']}\n"
        ),
        "eigen": (
            f"model = {model}\nM = {p['eigen_m']}\nd = 2\nK = {p['K']}\n"
            f"n_funcs = {p['n_funcs']}\n"
        ),
        "cv": (
            f"fields = {fields}\narchs = shallow,deepshared\nR_list = {p['cv_r']}\n"
            f"L_list = {p['L']}\nV = {p['V']}\nepochs = {p['cv_epochs']}\nrel_tol = 0\n"
        ),
        "export": f"model = {model}\nd = 2\nK = {p['K']}\nv0 = 0.5,0.5\n",
    }


# seed purpose of each subcommand (export takes no seed)
LAB_SEEDS = {"simulate": SIMULATE, "fit": FIT, "eval": EVAL, "eigen": EIGEN, "cv": CV}


def _read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


class LabWorkload:
    """The CLI chain simulate -> fit -> eval -> eigen -> cv -> export, in-process."""

    name = "lab_pipeline"

    def __init__(self, seed: int, scale: str, work_dir: str):
        self.seed = seed
        self.p = LAB_SIZES[scale]
        self.warm_p = LAB_SIZES["tiny"]
        self.out = os.path.join(work_dir, "lab")
        self.warm_out = os.path.join(work_dir, "lab_warm")
        self.steps = self.p["epochs"]  # of the fit subcommand, full batch
        self.tally = Tally()
        self.reference: dict[int, tuple] = {}
        self.quality: dict[int, tuple[float, float]] = {}

    def _chain(self, i: int, out: str) -> list[list[str]]:
        j = i % DATASETS
        argvs = []
        for command in ("simulate", "fit", "eval", "eigen", "cv", "export"):
            argv = [command, "--config", os.path.join(out, f"{command}.cfg"), "--out", out]
            if command in LAB_SEEDS:
                argv += ["--seed", str(derive_seed(self.seed, LAB_SEEDS[command], j))]
            argvs.append(argv)
        return argvs

    def _write_configs(self, p: dict, out: str) -> None:
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        for command, text in _lab_configs(p, out).items():
            with open(os.path.join(out, f"{command}.cfg"), "w", encoding="utf-8") as fh:
                fh.write(text)

    def setup(self) -> None:
        """Write the configs, warm every subcommand up on a tiny chain, then
        simulate once at full size (the only subcommand with a cold first
        full-size call)."""
        self._write_configs(self.p, self.out)
        self._write_configs(self.warm_p, self.warm_out)
        full_simulate = self._chain(0, self.out)[0]
        full_simulate[full_simulate.index("--out") + 1] = self.warm_out
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in [*self._chain(0, self.warm_out), full_simulate]:
                cli.main(argv)

    def op(self, i: int) -> OpResult | None:
        j = i % DATASETS
        for name in os.listdir(self.out):
            if not name.endswith(".cfg"):
                os.remove(os.path.join(self.out, name))
        argvs = self._chain(i, self.out)
        codes = []
        parts = {}
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            for argv in argvs:
                t0 = time.perf_counter()
                codes.append(cli.main(argv))
                parts[argv[0]] = time.perf_counter() - t0
        seconds = time.perf_counter() - start
        ok = True
        for argv, code in zip(argvs, codes):
            ok &= self.tally.record(code == 0, f"covnet {argv[0]} exited with {code}")
        if not ok:
            return None
        try:
            outputs = self._check_outputs(j)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            self.tally.record(False, f"data set {j}: unreadable output: {exc!r}")
            return None
        if outputs is None:
            return None
        if j in self.reference:
            self.tally.record(
                outputs == self.reference[j], f"data set {j}: pipeline is not repeatable"
            )
        else:
            self.reference[j] = outputs
            total, term_xx, rel_error = map(float, outputs[:3])
            self.quality[j] = (total / term_xx, rel_error)
        return OpResult(seconds, parts)

    def _check_outputs(self, j: int) -> tuple | None:
        """Check one pass's files; returns the values compared across repeats."""
        out, p, rec = self.out, self.p, self.tally.record
        trace = _read_csv(os.path.join(out, "model_trace.csv"))
        totals = np.array([float(row[1]) for row in trace])
        good = rec(
            len(trace) == p["epochs"] + 1 and bool(np.all(np.isfinite(totals))),
            f"data set {j}: fit trace is not {p['epochs'] + 1} finite rows",
        )
        errors = {row[0].split(" ")[0]: row[1] for row in _read_csv(os.path.join(out, "errors.csv"))}
        good &= rec(float(errors["zero"]) == 1.0, f"data set {j}: zero estimator error is not 1")
        good &= rec(
            float(errors["empirical"]) < float(errors["separable"]),
            f"data set {j}: empirical error is not below separable error",
        )
        good &= rec(math.isfinite(float(errors["covnet"])), f"data set {j}: covnet error not finite")
        eig = np.array([float(row[1]) for row in _read_csv(os.path.join(out, "eigen_values.csv"))])
        good &= rec(
            eig.size > 0 and bool(np.all(eig >= 0)) and bool(np.all(np.diff(eig) <= 0)),
            f"data set {j}: eigenvalues are not non-negative and descending",
        )
        n_fn = min(p["n_funcs"], eig.size)
        good &= rec(
            all(os.path.exists(os.path.join(out, f"eigen_fn{i}.csv")) for i in range(n_fn)),
            f"data set {j}: eigenfunction files missing",
        )
        summary = _read_csv(os.path.join(out, "cv_summary.csv"))
        good &= rec(
            sum(row[5] == "1" for row in summary) == 1,
            f"data set {j}: not exactly one CV candidate selected",
        )
        for row in _read_csv(os.path.join(out, "cv_report.csv")):
            rec(row[5] != "failed", f"data set {j}: CV cell {row[0]}/{row[4]} failed")
        export = _read_csv(os.path.join(out, "kernel_slice.csv"))
        good &= rec(
            len(export) == p["K"] ** 2 and all(math.isfinite(float(row[3])) for row in export),
            f"data set {j}: kernel slice is not {p['K'] ** 2} finite values",
        )
        if not good:
            return None
        return (trace[-1][1], trace[-1][2], errors["covnet"], tuple(eig), tuple(map(tuple, summary)))

    def finish(self) -> dict[int, tuple[float, float]]:
        """(final loss share, rel_error) per data set, read from the pass outputs."""
        return dict(self.quality)


def make(name: str, seed: int, scale: str, work_dir: str):
    if name in FIT_SIZES:
        return FitWorkload(name, seed, scale)
    if name == LabWorkload.name:
        return LabWorkload(seed, scale, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (*FIT_SIZES, LabWorkload.name)
