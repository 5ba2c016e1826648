"""covnet benchmark: one command for every workload, metric and output check.

Usage, from the repository root:

    python3 bench/run.py --workload fit_deep --seed 1 --seconds 25 --trace 0

The package is imported from `src/` next to this directory and timed from
outside, through calls into its public functions.  BLAS runs one thread and
cross-validation one worker.  All inputs derive from `--seed`; files go to
`.bench_work/` in the repository.  A run measures for `--seconds`, and on
until it has MIN_SAMPLES operations and has used every data set.

With `--trace 0` the run reports the end-to-end metrics:

* setup_s          -- median over at least SETUP_REPEATS set-ups (input
                      simulation, config writing, warm-up), repeated until
                      SETUP_SECONDS are spent; first-call costs land here.
* pass_s           -- 10th percentile of the wall time of one operation (a
                      `covnet.fit` call on the fit workloads, one full CLI chain
                      on lab_pipeline), scaled to the reference machine speed
                      by the yardstick (see below).
* pass_tail_s      -- the highest percentile of those wall times with at least
                      10 samples above it, unscaled.  A lab_pipeline run holds
                      about a dozen chains, so there it sits near the 23rd
                      percentile: a real tail needs far more chains than a run
                      holds.
* steps_per_s      -- ADAM steps of one fit over the 10th percentile of fit
                      wall time (on lab_pipeline, of the `covnet fit` call),
                      scaled like pass_s.
* final_loss_share -- last loss-trace row's total over its data term term_xx:
                      the share of the empirical covariance's squared HS norm
                      the fit leaves unexplained; median over the data sets.
* rel_error        -- Monte-Carlo relative HS error of the fitted model against
                      the true kernel, median over the data sets, untimed.
* peak_rss_mb      -- peak resident set size of the process, MiB.

Why these statistics: on a shared 2-core machine the operation times are
bimodal, quiet and contended phases lasting from seconds to minutes.  Across
25 s runs on ten seeds the median fit time spread by 23% (quartile distance
over median) as it jumped between the modes; the 10th percentile spread by
4-6% in quiet periods but by 14-28% in a noisy one, when whole runs fell in
the contended mode.  The yardstick -- a fixed numpy GEMM loop timed after
every set-up and operation -- slows down with the machine: pass_s and
steps_per_s are multiplied by CAL_REF_S over the yardstick's 10th percentile
in the same run, which held fit_dense_minibatch's spread at 4% while its raw
10th percentile moved by 30% in one run.  The tail sits in the contended mode,
whose speed is steady, so it is left as measured.  The raw figures and the
scale are printed.  The raw final loss scales with each data set's squared HS
norm, which spread by 5-9% between seeds; its share of the data term by 1-4%.

Failed operations (diverged fits, non-zero CLI exit codes, failed CV cells,
failed output checks) are counted in `attempted` and `failed`; any failure
makes the command exit 1.

With `--trace 1` the run alternates untraced and traced operations on the
same data set and reports, per traced operation, `<module>.<function>.calls`
and `.self_s` for each layer in tracer.LAYERS, the set-up self time of the
simulator, `training.core_gflop_per_s`, the CV cell counts and
`trace.overhead_frac`.  The spans are written to `.bench_work/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of .pyc files

from tracer import LAYERS, SETUP_LAYERS, Tracer, layer_name, per_layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 3  # at least; short set-ups repeat until SETUP_SECONDS are spent
SETUP_SECONDS = 1.5
MIN_SAMPLES = 13  # 10 samples above the tail, and the tail above the p10
MEASURE_LIMIT_S = 120.0  # stop early rather than overrun the run's time limit
# Speed yardstick: CAL_GEMMS products of a fixed CAL_N x CAL_N matrix with itself,
# timed after every set-up and operation.  CAL_REF_S is its 10th percentile on
# the reference machine (2-core x86-64, OpenBLAS 0.3.31, one thread, idle).
CAL_N = 300
CAL_GEMMS = 20
CAL_REF_S = 0.017
# One BLAS thread: on a shared 2-core machine, two OpenBLAS threads made fits
# 2.5x and CLI chains 10x slower whenever another process took a core, while
# one thread stayed within a few percent, and gave no gain when idle.
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_tail_s": "s",
    "steps_per_s": "1/s",
    "final_loss_share": "1",
    "rel_error": "1",
    "peak_rss_mb": "MiB",
}


def limit_threads() -> int:
    """Set BLAS and CV thread counts; must precede the numpy import.

    Returns the number of processors this process may use.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["COVNET_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


def import_covnet():
    """Import covnet from this checkout's src/, or exit with an error if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import covnet
    except ImportError as exc:
        sys.exit(f"bench: cannot import covnet from {src}: {exc}")
    if Path(covnet.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: imported covnet from {covnet.__file__}, not from {src}")
    return covnet


def git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "covnet_threads": os.environ["COVNET_THREADS"],
    }


class Yardstick:
    """A fixed numpy GEMM loop whose time tracks how fast the machine is now."""

    def __init__(self):
        import numpy as np

        self.a = np.random.default_rng(0).standard_normal((CAL_N, CAL_N))
        self.samples: list[float] = []

    def measure(self) -> None:
        start = time.perf_counter()
        for _ in range(CAL_GEMMS):
            self.a @ self.a
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns this run's times into reference-machine times."""
        return CAL_REF_S / p10(self.samples)


def p10(samples: list[float]) -> float:
    """10th percentile by nearest rank."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.1 * len(ordered)) - 1]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples above it.

    With fewer than 11 samples no percentile qualifies; the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(samples)
    below = len(ordered) - 10
    if below < 1:
        return ordered[-1], 100.0
    return ordered[below - 1], 100.0 * below / len(ordered)


class Run:
    """One benchmark run: set-up, measurement, checks and the result line."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
        import workloads

        WORK_DIR.mkdir(exist_ok=True)
        self.name = name
        self.seconds = seconds
        self.trace = trace
        self.wl = workloads.make(name, seed, scale, str(WORK_DIR))
        self.datasets = workloads.DATASETS
        self.setup_times: list[float] = []
        self.samples: list[float] = []
        self.traced_samples: list[float] = []
        self.parts: dict[str, list[float]] = {}
        self.quality: dict[int, tuple[float, float]] = {}
        self.tracer = None
        self.yardstick = Yardstick()

    def setup(self) -> None:
        while len(self.setup_times) < SETUP_REPEATS or sum(self.setup_times) < SETUP_SECONDS:
            start = time.perf_counter()
            self.wl.setup()
            self.setup_times.append(time.perf_counter() - start)
            self.yardstick.measure()
        if self.trace:
            with self.tracer.installed("setup"):
                self.wl.setup()

    def _op(self, i: int, traced: bool) -> None:
        if traced:
            with self.tracer.installed("pass"):
                result = self.wl.op(i)
        else:
            result = self.wl.op(i)
        if result is None:
            return
        (self.traced_samples if traced else self.samples).append(result.seconds)
        if not traced:
            for part, seconds in result.parts.items():
                self.parts.setdefault(part, []).append(seconds)
            self.yardstick.measure()

    def measure(self) -> None:
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            enough = len(self.samples) >= (3 if self.trace else MIN_SAMPLES)
            # a failing run is not extended: it cannot produce a valid result
            enough = (enough and i >= self.datasets) or self.wl.tally.failed > 0
            if (elapsed >= self.seconds and enough) or elapsed >= MEASURE_LIMIT_S:
                break
            if self.trace:
                # the same data set untraced and traced, alternating which goes first
                for traced in (False, True) if i % 2 == 0 else (True, False):
                    self._op(i, traced)
            else:
                self._op(i, False)
            i += 1

    def execute(self) -> dict:
        if self.trace:
            self.tracer = Tracer()
        self.setup()
        self.measure()
        self.quality = self.wl.finish()
        if self.tracer is not None:
            self.tracer.write(WORK_DIR / f"spans_{self.name}.jsonl")
        return self.metrics()

    def metrics(self) -> dict:
        if not self.samples or not self.quality:
            return {}
        if self.trace:
            return self.layer_metrics()
        tail_s, _ = tail(self.samples)
        scale = self.yardstick.scale()
        values = {
            "setup_s": statistics.median(self.setup_times),
            "pass_s": p10(self.samples) * scale,
            "pass_tail_s": tail_s,
            "steps_per_s": self.wl.steps / (p10(self.parts["fit"]) * scale),
            "final_loss_share": statistics.median(q[0] for q in self.quality.values()),
            "rel_error": statistics.median(q[1] for q in self.quality.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def layer_metrics(self) -> dict:
        n = len(self.traced_samples)
        self_s, calls = self.tracer.self_times("pass")
        setup_self, _ = self.tracer.self_times("setup")
        counters = self.tracer.counters
        values: dict[str, float] = {}
        for module, attr, _ in LAYERS:
            name = layer_name(module, attr)
            values[f"{name}.calls"] = calls.get(name, 0) / n
            values[f"{name}.self_s"] = self_s.get(name, 0.0) / n
        for name in SETUP_LAYERS:
            values[f"setup.{name}.self_s"] = setup_self.get(name, 0.0)
        core_s = self_s.get("training._core", 0.0)
        values["training.core_gflop_per_s"] = (
            counters["pass", "core_flops"] / core_s / 1e9 if core_s > 0 else 0.0
        )
        values["crossval.cells"] = counters["pass", "cv_cells"] / n
        values["crossval.failed_cells"] = counters["pass", "cv_failed_cells"] / n
        values["trace.overhead_frac"] = (
            statistics.median(self.traced_samples) / statistics.median(self.samples) - 1.0
        )
        units = {name: unit for name, unit, _, _ in per_layer_metrics()}
        return {k: {"value": values[k], "unit": units[k]} for k in units}

    def report(self, metrics: dict) -> None:
        """Human-readable lines that precede the result line."""
        tally = self.wl.tally
        print(f"# workload {self.name}: {len(self.samples)} untraced and "
              f"{len(self.traced_samples)} traced operations, "
              f"{len(self.quality)} data sets")
        if self.samples:
            tail_s, pct = tail(self.samples)
            print(f"# operation wall time over n={len(self.samples)}: "
                  f"p10 {p10(self.samples):.6g} s, median {statistics.median(self.samples):.6g} s, "
                  f"p{pct:.1f} {tail_s:.6g} s; yardstick p10 {p10(self.yardstick.samples):.6g} s "
                  f"over n={len(self.yardstick.samples)}, scale {self.yardstick.scale():.6g}")
        print("# samples " + json.dumps(
            {"pass": self.samples, **self.parts, "yardstick": self.yardstick.samples}
        ))
        print(f"# attempted {tally.attempted}, failed {tally.failed}, "
              f"failed_frac {tally.failed / max(tally.attempted, 1):.6g}")
        for message in tally.messages[:20]:
            print(f"# FAILED: {message}")
        if self.trace and metrics:
            for name, unit, _, moves in per_layer_metrics():
                value = metrics[name]["value"]
                if value and not name.endswith(".calls"):
                    print(f"# {name} {value:.6g} {unit}  (should move: {moves})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = limit_threads()
    import_covnet()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print("# env " + json.dumps(environment(nproc), sort_keys=True))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = run.execute()
    run.report(metrics)
    tally = run.wl.tally
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
