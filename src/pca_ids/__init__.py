"""PCA-based anomaly detection for NSL-KDD connection records.

Train on normal traffic only; classify records by thresholding their
major and minor principal-component scores.
"""

from .kdd import (
    BASIC6,
    TRAFFIC10,
    PROFILES,
    AttackCategory,
    ConnectionRecord,
    Dataset,
    EmptyDatasetError,
    FeatureProfile,
    FeatureVector,
    MalformedRow,
    categorize_attack,
    encode_normals,
    extract_features,
    parse_record,
)
from .mvstats import (
    EigenPairs,
    StandardizationParams,
    correlation_matrix,
    eigen_sym,
    fit_standardizer,
)
from .trainer import (
    PRESETS,
    PcaModel,
    TrainerConfig,
    calibrate_thresholds,
    fit,
    select_major,
    select_minor,
)
from .detector import (
    Trigger,
    Verdict,
    classify,
    classify_file,
    classify_stream,
    score_records,
)
from .evaluation import (
    ConfusionMatrix,
    MetricsReport,
    SweepResult,
    evaluate,
    metrics,
    sweep,
)
from .modelio import load_model, save_model

__version__ = "0.1.0"
