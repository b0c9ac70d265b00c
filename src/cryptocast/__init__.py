"""cryptocast: time-series forecasting toolkit.

Five forecasters over sliding feature windows (hybrid attention encoder +
GRU, BiLSTM, BiGRU, Gaussian RBF network, memorizing kernel regressor), a
data pipeline for price/volume/sentiment series, and nonparametric
statistics for comparing the models' test errors.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config_file, validate_config
from .data import (
    NormStats,
    SeriesFrame,
    SynthParams,
    WindowSet,
    apply_minmax,
    chronological_split,
    classify_fgi,
    compose_fgi,
    fit_minmax,
    invert_minmax,
    load_series,
    make_windows,
    synthesize_series,
)
from .errors import (
    AlignmentError,
    ConfigError,
    CryptocastError,
    DataError,
    DegenerateScaleError,
    DimensionError,
    DivergenceError,
    DomainError,
    NumericalError,
    OrderingError,
    ParseError,
    SchemaError,
    SizeError,
)
from .gradcheck import grad_check
from .hybrid import HybridModel, hybrid_forward_batch, hybrid_train, init_hybrid
from .kernels import GrnnModel, RbfnModel, grnn_fit, grnn_predict_batch, rbfn_fit, rbfn_predict_batch
from .optim import adam_step
from .pipeline import run_experiment
from .recurrent import (
    BiRnnModel,
    CellParams,
    birnn_forward_batch,
    birnn_train,
    init_birnn,
)
from .rng import Rng
from .stats import (
    ComparisonReport,
    FriedmanResult,
    IntervalBand,
    MetricReport,
    WilcoxonResult,
    bonferroni_adjust,
    compare_models,
    compute_metrics,
    friedman_test,
    prediction_interval,
    rank_blocks,
    wilcoxon_signed_rank,
)

__all__ = [
    "AlignmentError",
    "BiRnnModel",
    "CellParams",
    "ComparisonReport",
    "ConfigError",
    "CryptocastError",
    "DataError",
    "DegenerateScaleError",
    "DimensionError",
    "DivergenceError",
    "DomainError",
    "ExperimentConfig",
    "FriedmanResult",
    "GrnnModel",
    "HybridModel",
    "IntervalBand",
    "MetricReport",
    "NormStats",
    "NumericalError",
    "OrderingError",
    "ParseError",
    "RbfnModel",
    "Rng",
    "SchemaError",
    "SeriesFrame",
    "SizeError",
    "SynthParams",
    "WilcoxonResult",
    "WindowSet",
    "adam_step",
    "apply_minmax",
    "birnn_forward_batch",
    "birnn_train",
    "bonferroni_adjust",
    "chronological_split",
    "classify_fgi",
    "compare_models",
    "compose_fgi",
    "compute_metrics",
    "fit_minmax",
    "friedman_test",
    "grad_check",
    "grnn_fit",
    "grnn_predict_batch",
    "hybrid_forward_batch",
    "hybrid_train",
    "init_birnn",
    "init_hybrid",
    "invert_minmax",
    "load_config_file",
    "load_series",
    "make_windows",
    "prediction_interval",
    "rank_blocks",
    "rbfn_fit",
    "rbfn_predict_batch",
    "run_experiment",
    "synthesize_series",
    "validate_config",
    "wilcoxon_signed_rank",
    "__version__",
]
