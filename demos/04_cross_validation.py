"""Pick a rank by V-fold cross-validation.

A low-rank truth is planted and 5-fold CV chooses a rank: one shallow R=8
network is trained per fold and scored at every truncation level.

Run: python demos/04_cross_validation.py
"""

import numpy as np

import covnet
from covnet.rng import gaussian, make_rng


def main():
    grid = covnet.make_grid(2, [8, 8])
    pts = grid.coordinates()

    # planted rank-2 truth, CV over truncation levels
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


if __name__ == "__main__":
    main()
