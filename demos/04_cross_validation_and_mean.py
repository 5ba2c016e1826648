"""Pick hyperparameters by V-fold cross-validation; estimate a mean jointly.

Part 1 plants a low-rank truth and lets 5-fold CV choose a rank: one
shallow R=8 network is trained per fold and scored at every truncation
level.  Part 2 fits without pre-centering: the mean-augmented criterion
returns a mean estimate expressed in the fitted constituents for free.

Run: python demos/04_cross_validation_and_mean.py
"""

import numpy as np

import covnet
from covnet.rng import gaussian, make_rng


def main():
    grid = covnet.make_grid(2, [8, 8])
    pts = grid.coordinates()

    # --- part 1: planted rank-2 truth, CV over truncation levels ----------
    phi = np.stack([np.ones(len(pts)), np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])])
    scores = gaussian(make_rng(41), (80, 2)) * np.array([1.0, 0.75])
    fields = covnet.FieldMatrix(grid, scores @ phi)
    cfg = covnet.TrainConfig(epochs=500, seed=1)
    arch = covnet.Architecture.shallow(8, 2)
    report = covnet.cross_validate(fields, [arch], [1, 2, 4, 8], cfg, v=5, seed=5)
    print("mean CV loss per truncation level of a shallow R=8 network:")
    for i, (_, level) in enumerate(report.candidates):
        marker = "  <- selected" if i == report.selected else ""
        print(f"  level {level}: {report.mean_losses[i]:.8f}{marker}")

    # --- part 2: joint mean and covariance fitting -----------------------
    mean_surface = 1.0 + 0.8 * pts[:, 0] * pts[:, 1]
    noisy = 0.15 * gaussian(make_rng(43), (120, len(pts))) + mean_surface
    raw = covnet.FieldMatrix(grid, noisy)
    model, _ = covnet.fit(
        raw,
        covnet.Architecture.shallow(4, 2),
        covnet.TrainConfig(epochs=3000, seed=2, center_mode="joint_mean"),
    )
    est = model.mean_at(pts)
    rel = np.linalg.norm(est - mean_surface) / np.linalg.norm(mean_surface)
    print(f"\njoint fit recovered the mean surface with relative error {rel:.3f}")
    print("sample of (true, estimated) mean values:")
    for j in (0, 20, 40, 63):
        print(f"  u={np.round(pts[j], 2)}: {mean_surface[j]:.3f}  {est[j]:.3f}")


if __name__ == "__main__":
    main()
