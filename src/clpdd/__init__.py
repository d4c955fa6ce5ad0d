"""Dataset distillation through a closed-form linear probe.

A small synthetic set is optimized so that the ridge-regression probe it
induces (solved in sample-space kernel form and differentiated analytically)
classifies real data well under a temperature-scaled class-anchor
cross-entropy. Ships with selection baselines, a trained-probe evaluator,
gradient-check tooling, and a CLI.
"""

from .data import (
    BadMagicError,
    Dataset,
    DtypeError,
    FeatureFileError,
    LabelRangeError,
    MissingClassError,
    NonFiniteFeatureError,
    ShapeError,
    TruncatedFileError,
    VersionError,
    gen_blobs,
    load_features,
    save_features,
)
from .distill import (
    AdamState,
    DistillConfig,
    DistillDivergenceError,
    augment_noise,
    balanced_batches,
    distill_step,
    run_distill,
)
from .encoder import Encoder, encode, encode_vjp, make_encoder
from .evaluation import (
    ProbeResult,
    compare_methods,
    pca_project_2d,
    select_centroid,
    select_neighbor,
    select_random,
    train_linear_probe,
)
from .gradcheck import battery_report, run_battery
from .objective import class_anchor_loss_and_grad, mse_outer_loss_and_grad
from .report import MethodAccuracy, RunReport, StepMetrics
from .solver import (
    ProbeSolution,
    gd_steady_state,
    ridge_kernel,
    ridge_primal,
    solve_backward,
    stable_step_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BadMagicError",
    "Dataset",
    "DistillConfig",
    "DistillDivergenceError",
    "DtypeError",
    "Encoder",
    "FeatureFileError",
    "LabelRangeError",
    "MissingClassError",
    "NonFiniteFeatureError",
    "ShapeError",
    "TruncatedFileError",
    "VersionError",
    "MethodAccuracy",
    "ProbeResult",
    "ProbeSolution",
    "RunReport",
    "StepMetrics",
    "augment_noise",
    "balanced_batches",
    "battery_report",
    "class_anchor_loss_and_grad",
    "compare_methods",
    "distill_step",
    "encode",
    "encode_vjp",
    "gd_steady_state",
    "gen_blobs",
    "load_features",
    "make_encoder",
    "mse_outer_loss_and_grad",
    "pca_project_2d",
    "ridge_kernel",
    "ridge_primal",
    "run_battery",
    "run_distill",
    "save_features",
    "select_centroid",
    "select_neighbor",
    "select_random",
    "solve_backward",
    "stable_step_bound",
    "train_linear_probe",
]
