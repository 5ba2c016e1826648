"""Eigendecompose a fitted covariance without ever forming the operator.

The eigenproblem lives entirely in the R-dimensional span of the network
constituents: an R x R Monte-Carlo Gram matrix and a generalized symmetric
eigensolve give eigenvalues and eigenfunctions evaluable anywhere on the
cube, at a cost independent of any data grid, and the best rank-k
truncation of the model without refitting.

Run: python demos/02_eigenstructure.py
"""

import numpy as np

import covnet


def main():
    grid = covnet.make_grid(2, [12, 12])
    spec = covnet.IntegratedBrownianSheet(2)
    fields = covnet.sample_gaussian_fields(spec, grid, n=150, seed=21)
    model, _ = covnet.fit(
        fields, covnet.Architecture.deepshared(8, 2, 2), covnet.TrainConfig(epochs=1200, seed=2)
    )

    gram = covnet.constituent_gram(model, m=100_000, seed=3)
    system = covnet.eigendecompose(model, gram)
    print(f"effective rank {system.rank}; leading eigenvalues:")
    for i, eta in enumerate(system.values[:5]):
        print(f"  eta_{i + 1} = {eta:.5f}")

    pts = grid.coordinates()
    psi1 = covnet.eval_eigenfunction(model, system, 0, pts)
    print("leading eigenfunction on the grid (one row per x-slice):")
    for row in psi1.reshape(grid.sizes)[::3]:
        print("  " + " ".join(f"{v:+.2f}" for v in row[::3]))

    # the eigenpairs reconstruct the kernel: compare at random pairs
    rng = np.random.Generator(np.random.Philox(key=4))
    u, v = rng.random((200, 2)), rng.random((200, 2))
    recon = np.zeros(200)
    for i in range(system.rank):
        recon += (
            system.values[i]
            * covnet.eval_eigenfunction(model, system, i, u)
            * covnet.eval_eigenfunction(model, system, i, v)
        )
    gap = np.abs(recon - model.kernel_pairs(u, v)).max()
    print(f"max |reconstruction - kernel| over 200 pairs: {gap:.2e}")

    # the eigenpairs also give every lower-rank model in closed form: the
    # rank-k truncation keeps the constituents and the k leading eigenpairs,
    # and its squared HS error is the sum of the dropped eta_i^2
    total = float(np.sum(system.values**2))
    for k in (1, 2, 3):
        short = covnet.truncate(model, k, gram)
        diff = np.abs(short.kernel_pairs(u, v) - model.kernel_pairs(u, v)).max()
        tail = float(np.sum(system.values[k:] ** 2))
        print(
            f"rank-{k} truncation: relative HS error {np.sqrt(tail / total):.2e}, "
            f"max |kernel change| over 200 pairs {diff:.2e}"
        )


if __name__ == "__main__":
    main()
