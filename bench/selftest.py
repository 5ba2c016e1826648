"""Quick self-test of the benchmark at tiny sizes (about a minute).

Runs every workload untraced and traced on two seeds and checks that:

* every output check passes and nothing fails;
* the metric names match BENCHMARK.json (end-to-end untraced, per-layer traced)
  and every value is finite, with the end-to-end ones positive;
* tracing leaves the loss traces (so final_loss) and rel_error bit-identical
  to the untraced run;
* the tracer restores every function it wrapped, and the per-layer self times
  are non-negative and add up to no more than a traced operation.

Usage, from the repository root:  python3 bench/selftest.py
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys

import run

SEEDS = (1, 2)
SECONDS = 0.2


def main() -> int:
    run.limit_threads()
    covnet = run.import_covnet()
    import workloads
    from tracer import LAYERS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    check(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )

    def resolve(module: str, attr: str):
        return functools.reduce(
            lambda obj, part: getattr(obj, part, None), attr.split("."), getattr(covnet, module)
        )

    originals = {(module, attr): resolve(module, attr) for module, attr, _ in LAYERS}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            label = f"{name} seed {seed}"
            plain = run.Run(name, seed, SECONDS, trace=False, scale="tiny")
            metrics = plain.execute()
            traced = run.Run(name, seed, SECONDS, trace=True, scale="tiny")
            layers = traced.execute()
            for r, mode in ((plain, "untraced"), (traced, "traced")):
                check(
                    r.wl.tally.failed == 0,
                    f"{label} {mode}: failed checks {r.wl.tally.messages}",
                )
                check(len(r.quality) == workloads.DATASETS, f"{label} {mode}: data sets missing")
            if not metrics or not layers:
                check(False, f"{label}: no metrics")
                continue
            check(list(metrics) == end_to_end, f"{label}: end-to-end names {list(metrics)}")
            check(
                all(math.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values()),
                f"{label}: end-to-end values not positive and finite",
            )
            check(list(layers) == per_layer, f"{label}: per-layer names differ")
            check(
                all(math.isfinite(m["value"]) for m in layers.values()),
                f"{label}: per-layer values not finite",
            )
            check(
                plain.quality == traced.quality and plain.wl.reference == traced.wl.reference,
                f"{label}: tracing changed the outputs: {plain.quality} vs {traced.quality}",
            )
            self_s = [v["value"] for k, v in layers.items()
                      if k.endswith(".self_s") and not k.startswith("setup.")]
            check(min(self_s) >= 0, f"{label}: negative self time")
            check(
                sum(self_s) <= statistics.mean(traced.traced_samples),
                f"{label}: self times add up to more than a traced operation",
            )
            restored = (
                all(resolve(*key) is orig for key, orig in originals.items())
                and covnet.fit is covnet.training.fit
                and covnet.cli.COMMANDS["fit"] is covnet.cli.run_fit
            )
            check(restored, f"{label}: tracer left wrappers installed")
            print(f"{label}: ok" if not failures else f"{label}: {len(failures)} failures so far")
    for failure in failures:
        print(f"FAILED: {failure}")
    print("selftest passed" if not failures else f"selftest failed ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
