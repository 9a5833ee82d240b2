"""Fuzzy rule interpolation for unseen-label prediction on RSSI-style tables.

The pieces compose in pipeline order: curvature-based feature ranking,
cluster-driven rule extraction, and similarity-weighted inference that can
land on labels no training instance ever carried.
"""

from .clustering import elbow_fit, elbow_k, kmeans, knee_point
from .curvature import FeatureRanking, feature_curvature, menger_curvature, rank_features
from .data import Dataset, Normalization, fit_normalization, load_csv, parse_label
from .errors import (
    ConfigError,
    DataError,
    FuzzylocError,
    InsufficientDataError,
    InvalidInputError,
    RuleBaseFormatError,
    RuleBaseVersionError,
    SchemaError,
    ZeroFiringError,
)
from .fuzzy import (
    SimilarityParams,
    TriangularFuzzySet,
    aggregate,
    distance_factor,
    firing_degree,
    representative,
    similarity,
    singleton,
)
from .inference import (
    BatchEvaluation,
    Prediction,
    Predictions,
    discretize,
    predict,
    predict_batch,
    predict_fuzzy,
    predict_rows,
)
from .pipeline import ExperimentConfig, run_experiment, split_scenario, train_rulebase
from .rulebase import (
    Rule,
    RuleBase,
    deserialize_rulebase,
    extract_rules,
    load_rulebase,
    save_rulebase,
    serialize_rulebase,
)
from .synth import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "BatchEvaluation",
    "ConfigError",
    "DataError",
    "Dataset",
    "ExperimentConfig",
    "FeatureRanking",
    "FuzzylocError",
    "InsufficientDataError",
    "InvalidInputError",
    "Normalization",
    "Prediction",
    "Predictions",
    "Rule",
    "RuleBase",
    "RuleBaseFormatError",
    "RuleBaseVersionError",
    "SchemaError",
    "SimilarityParams",
    "TriangularFuzzySet",
    "ZeroFiringError",
    "aggregate",
    "deserialize_rulebase",
    "discretize",
    "distance_factor",
    "elbow_fit",
    "elbow_k",
    "extract_rules",
    "feature_curvature",
    "firing_degree",
    "fit_normalization",
    "generate_synthetic",
    "kmeans",
    "knee_point",
    "load_csv",
    "load_rulebase",
    "menger_curvature",
    "parse_label",
    "predict",
    "predict_batch",
    "predict_fuzzy",
    "predict_rows",
    "rank_features",
    "representative",
    "run_experiment",
    "save_rulebase",
    "serialize_rulebase",
    "similarity",
    "singleton",
    "split_scenario",
    "train_rulebase",
]
