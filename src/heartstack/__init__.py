"""heartstack: tabular binary classification with a stacked ensemble of
from-scratch learners, built around the combined heart-disease table."""

from .analysis import correlation_matrix, correlation_with_target, summarize
from .cleaning import clean
from .config import PipelineConfig, load_config, paper_default_config
from .dataset import Dataset, parse_csv, validate_schema
from .learners import LearnerSpec, fit
from .metrics import ConfusionMatrix, confusion_matrix, metric_report, pr_curve, roc_curve
from .model_selection import cross_validate, grid_search, k_fold_plan
from .model_store import load_model, save_model
from .splitting import stratified_split
from .stacking import StackingConfig, fit_stack, select_base_learners
from .standardize import fit_standardizer

__version__ = "0.1.0"

__all__ = [
    "Dataset", "parse_csv", "validate_schema", "clean", "stratified_split",
    "correlation_with_target", "correlation_matrix", "summarize", "fit_standardizer",
    "LearnerSpec", "fit",
    "k_fold_plan", "cross_validate", "grid_search",
    "StackingConfig", "fit_stack", "select_base_learners",
    "ConfusionMatrix", "confusion_matrix", "metric_report", "roc_curve", "pr_curve",
    "save_model", "load_model",
    "PipelineConfig", "load_config", "paper_default_config",
    "__version__",
]
