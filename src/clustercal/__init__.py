"""Clustered calibration toolkit: per-cluster calibration ensembles over
learned sample representations, cluster-binned calibration metrics, and an
experiment harness for calibration comparison, model selection and rejection."""

from .data import (
    CsvSpec, Dataset, SplitIndices, SyntheticSpec, load_csv, load_external_scores, split,
    gen_synthetic_full,
)
from .scores import ScoreSet
from .gbt import GBTParams, TreeEnsemble, fit_gbt, predict, leaf_indices
from .treeshap import shap_values
from .representation import assign, fit_kmeans
from .ensemble import train_clustered
from .calibrators import Calibrator, fit
from .metrics import (
    ece, mce, ada_ece, cece, auc, scalar_metrics, reliability_data, rejection_curve,
)

__all__ = [
    "CsvSpec", "Dataset", "SplitIndices", "SyntheticSpec", "load_csv", "split",
    "gen_synthetic_full",
    "ScoreSet", "load_external_scores",
    "GBTParams", "TreeEnsemble", "fit_gbt", "predict", "leaf_indices",
    "shap_values", "assign", "fit_kmeans", "train_clustered",
    "Calibrator", "fit",
    "ece", "mce", "ada_ece", "cece", "auc", "scalar_metrics",
    "reliability_data", "rejection_curve",
]

__version__ = "0.1.0"
