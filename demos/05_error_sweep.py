"""Offline sweep: estimator errors across kernels and resolutions.

One seeded run per cell by default (averaging over many runs takes hours;
bump --runs for that).  Every cell simulates N fields at resolution K x K,
fits the three
network variants, and reports Monte-Carlo relative errors next to the
empirical and best separable baselines.  Results land in a CSV for plotting.

Run (quick):    python demos/05_error_sweep.py
Full-ish:       python demos/05_error_sweep.py --n 500 --resolutions 10,25 --runs 3
"""

import argparse
import csv
import sys
import time

import covnet


def build_specs():
    rot = covnet.rotation_2d_45()
    return {
        "brownian": covnet.BrownianSheet(2),
        "rotated_brownian": covnet.RotatedBrownianSheet(rot),
        "matern_0.01": covnet.Matern(0.01, 2),
    }


def candidates_for(d):
    return {
        "shallow R=20": covnet.Architecture.shallow(20, d),
        "deep L=2 R=10": covnet.Architecture.deep(10, d, 2),
        "deepshared L=2 R=10": covnet.Architecture.deepshared(10, d, 2),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--resolutions", default="10,25")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=2500)
    ap.add_argument("--mc", type=int, default=50_000)
    ap.add_argument("--out", default="error_sweep.csv")
    args = ap.parse_args(argv)

    resolutions = [int(k) for k in args.resolutions.split(",")]
    rows = []
    for kernel_name, spec in build_specs().items():
        for k in resolutions:
            grid = covnet.make_grid(2, [k, k])
            for run in range(args.runs):
                seed = 1000 * run + 17
                fields = covnet.sample_gaussian_fields(spec, grid, args.n, seed=seed)
                emp = covnet.EmpiricalCovariance(fields.centered())
                sep = covnet.best_separable_2d(emp)
                scored = {
                    "empirical": emp,
                    "separable (nearest Kronecker product)": sep,
                }
                for label, arch in candidates_for(2).items():
                    t0 = time.time()
                    model, _ = covnet.fit(
                        fields, arch, covnet.TrainConfig(epochs=args.epochs, seed=run + 1)
                    )
                    scored[label] = model
                    print(
                        f"[{kernel_name} K={k} run={run}] fitted {label} "
                        f"in {time.time() - t0:.0f}s",
                        file=sys.stderr,
                    )
                for label, est in scored.items():
                    err = covnet.relative_error_mc(est, spec, 2, args.mc, seed=99)
                    rows.append([kernel_name, k, args.n, run, label, f"{err:.6f}"])
                    print(f"{kernel_name:18s} K={k:3d} run={run} {label:38s} {err:.4f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel", "K", "N", "run", "estimator", "relative_error"])
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
