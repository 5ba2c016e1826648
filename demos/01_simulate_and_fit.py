"""Simulate a non-separable random field and fit a shallow covariance network.

Walks the basic pipeline: draw Gaussian fields on a grid from the rotated
Brownian sheet covariance, fit the network at the level of the data, and
look at the loss trace and a few kernel values.

Run: python demos/01_simulate_and_fit.py
"""

import numpy as np

import covnet


def main():
    grid = covnet.make_grid(2, [15, 15])
    spec = covnet.RotatedBrownianSheet(covnet.rotation_2d_45())
    print(f"simulating 200 fields on a {grid.sizes} grid ...")
    fields = covnet.sample_gaussian_fields(spec, grid, n=200, seed=7)

    arch = covnet.Architecture.shallow(10, 2)
    cfg = covnet.TrainConfig(epochs=1500, seed=1)
    print(f"fitting a shallow network with R={arch.r} constituents ...")
    model, trace = covnet.fit(fields, arch, cfg)
    print(f"  loss: {trace[0, 0]:.5f} -> {trace[-1, 0]:.6f} in {len(trace) - 1} epochs")
    print(f"  Lambda spectrum: {np.round(np.linalg.eigvalsh(model.lam)[::-1][:5], 4)}")

    print("kernel values against the truth at a few point pairs:")
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(5):
        u, v = rng.random(2), rng.random(2)
        fitted = model.kernel_pairs(u[None], v[None])[0]
        truth = spec.kernel_pairs(u[None], v[None])[0]
        print(f"  c({np.round(u, 2)}, {np.round(v, 2)}): fitted {fitted:+.4f}  true {truth:+.4f}")

    err = covnet.relative_error_mc(model, spec, 2, m=20000, seed=5)
    print(f"Monte-Carlo relative error of the fit: {err:.3f}")


if __name__ == "__main__":
    main()
