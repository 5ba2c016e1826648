"""Compare the network estimator with the empirical and separable baselines.

The rotated Brownian sheet is deliberately non-separable: the best separable
approximation (nearest Kronecker product) cannot represent it, while the
empirical covariance can but is noisy.  Relative Hilbert-Schmidt errors are
estimated by uniform Monte-Carlo point pairs.

Run: python demos/03_baselines_and_error.py
"""

import covnet


def main():
    grid = covnet.make_grid(2, [12, 12])
    spec = covnet.RotatedBrownianSheet(covnet.rotation_2d_45())
    fields = covnet.sample_gaussian_fields(spec, grid, n=400, seed=31)

    model, _ = covnet.fit(
        fields, covnet.Architecture.shallow(16, 2), covnet.TrainConfig(seed=3)
    )
    emp = covnet.EmpiricalCovariance(fields.centered())
    sep = covnet.best_separable_2d(emp)

    m, seed = 50_000, 13
    rows = [
        ("shallow covnet", covnet.relative_error_mc(model, spec, 2, m, seed)),
        ("empirical", covnet.relative_error_mc(emp, spec, 2, m, seed)),
        ("separable (nearest Kronecker product)", covnet.relative_error_mc(sep, spec, 2, m, seed)),
        ("zero", covnet.relative_error_mc(covnet.ZeroCovariance(), spec, 2, m, seed)),
    ]
    print(f"relative errors vs the true kernel (M={m}):")
    for name, err in rows:
        print(f"  {name:40s} {err:.3f}")
    print("the separable baseline collapses on rotated (non-separable) truths,")
    print("while the network estimator matches or beats the empirical covariance.")


if __name__ == "__main__":
    main()
