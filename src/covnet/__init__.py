"""Neural covariance estimation for random fields on multidimensional grids.

Covariance kernels are modeled as sum_{r,s} lambda_{r,s} g_r(u) g_s(v) with
PSD coefficients and neural-network constituents (shallow, deep, or
weight-shared deep).  Models are fitted to N x D field matrices through a
Gram-matrix loss that never forms a D x D object, eigendecomposed through an
R x R generalized eigenproblem, and compared by Monte-Carlo relative error
against empirical and best separable baselines, which are also computed from
the fields without a D x D object.
"""

from .baselines import (
    EmpiricalCovariance,
    SeparableCovariance,
    ZeroCovariance,
    best_separable_2d,
    relative_error_mc,
)
from .crossval import CvReport, cross_validate, cv_loss
from .errors import (
    ConfigError,
    CovnetError,
    DegenerateModelError,
    DegenerateTruthError,
    FieldFormatError,
    ModelFormatError,
    NumericError,
    ResourceLimitError,
    TrainingDivergedError,
)
from .fields import (
    FieldMatrix,
    Grid,
    cross_gram,
    make_grid,
    read_fields,
    write_fields,
)
from .model import (
    Architecture,
    FittedCovariance,
    count_parameters,
    eval_constituents,
    init_params,
    load_model,
    save_model,
)
from .simulate import (
    BrownianSheet,
    IntegratedBrownianSheet,
    Matern,
    NoiseSpec,
    RotatedBrownianSheet,
    RotatedIntegratedBrownianSheet,
    kernel_matrix,
    rotation_2d_45,
    rotation_3d_composed,
    sample_gaussian_fields,
)
from .spectral import (
    EigenSystem,
    constituent_gram,
    eigendecompose,
    eval_eigenfunction,
    truncate,
)
from .training import (
    LossBreakdown,
    TrainConfig,
    adam_step,
    fit,
    gradients,
    loss,
)

__version__ = "0.1.0"

__all__ = [
    "Architecture",
    "BrownianSheet",
    "ConfigError",
    "CovnetError",
    "CvReport",
    "DegenerateModelError",
    "DegenerateTruthError",
    "EigenSystem",
    "EmpiricalCovariance",
    "FieldFormatError",
    "FieldMatrix",
    "FittedCovariance",
    "Grid",
    "IntegratedBrownianSheet",
    "LossBreakdown",
    "Matern",
    "ModelFormatError",
    "NoiseSpec",
    "NumericError",
    "ResourceLimitError",
    "RotatedBrownianSheet",
    "RotatedIntegratedBrownianSheet",
    "SeparableCovariance",
    "TrainConfig",
    "TrainingDivergedError",
    "ZeroCovariance",
    "adam_step",
    "best_separable_2d",
    "constituent_gram",
    "count_parameters",
    "cross_gram",
    "cross_validate",
    "cv_loss",
    "eigendecompose",
    "eval_constituents",
    "eval_eigenfunction",
    "fit",
    "gradients",
    "init_params",
    "kernel_matrix",
    "load_model",
    "loss",
    "make_grid",
    "read_fields",
    "relative_error_mc",
    "rotation_2d_45",
    "rotation_3d_composed",
    "sample_gaussian_fields",
    "save_model",
    "truncate",
    "write_fields",
]
