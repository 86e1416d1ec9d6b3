"""The eleven baseline classification algorithms behind one fit() call."""

from __future__ import annotations

from ..standardize import fit_standardizer
from .base import (
    ALGORITHMS,
    DEFAULT_HYPERPARAMETERS,
    STANDARDIZED,
    LearnerSpec,
    TrainedModel,
    check_training_data,
    sigmoid,
)
from .bayes import NaiveBayesModel, fit_naive_bayes
from .boosting import fit_adaboost, fit_gbm, fit_xgb
from .forest import TreeEnsembleModel, fit_cart, fit_extra_trees, fit_random_forest
from .linear import LinearModel, fit_linear, logistic_loss_and_grad
from .mlp import MlpModel, fit_mlp
from .neighbors import KnnModel, fit_knn
from .tree import GrowParams, TreeBlock, best_split, grow_tree, tree_apply

# Each algorithm's fit function and the model class its documents load into.
LEARNERS = {
    "cart": (fit_cart, TreeEnsembleModel),
    "random_forest": (fit_random_forest, TreeEnsembleModel),
    "extra_trees": (fit_extra_trees, TreeEnsembleModel),
    "gbm": (fit_gbm, TreeEnsembleModel),
    "xgb_style": (fit_xgb, TreeEnsembleModel),
    "adaboost": (fit_adaboost, TreeEnsembleModel),
    "knn": (fit_knn, KnnModel),
    "naive_bayes": (fit_naive_bayes, NaiveBayesModel),
    "sgd_logistic": (fit_linear, LinearModel),
    "linear_svc": (fit_linear, LinearModel),
    "mlp": (fit_mlp, MlpModel),
}

# Algorithms whose n-estimator prefixes are themselves valid smaller models
# (per-stage randomness keyed by stage index), enabling staged evaluation.
STAGEABLE = frozenset({"random_forest", "extra_trees", "gbm", "xgb_style"})


def fit(spec: LearnerSpec, X, y) -> TrainedModel:
    """Fit the algorithm named by the spec; standardizes features first for
    the learners that need it. Deterministic for equal (spec, data)."""
    X, y = check_training_data(X, y)
    standardizer = None
    if spec.needs_standardization:
        standardizer = fit_standardizer(X)
        X = standardizer.apply(X)
    model = LEARNERS[spec.algorithm][0](spec, X, y)
    model.standardizer = standardizer
    return model


__all__ = [
    "ALGORITHMS", "DEFAULT_HYPERPARAMETERS", "STANDARDIZED", "STAGEABLE",
    "LearnerSpec", "TrainedModel", "fit",
    "best_split", "grow_tree", "tree_apply", "GrowParams", "TreeBlock",
    "LEARNERS", "sigmoid", "logistic_loss_and_grad",
    "TreeEnsembleModel",
    "KnnModel", "NaiveBayesModel", "LinearModel", "MlpModel",
]
