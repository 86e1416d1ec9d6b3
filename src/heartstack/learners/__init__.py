"""The eleven baseline classification algorithms behind one fit() call."""

from __future__ import annotations

import numpy as np

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
from .boosting import AdaboostModel, fit_adaboost, fit_gbm, fit_xgb
from .forest import TreeEnsembleModel, fit_cart, fit_extra_trees, fit_random_forest
from .linear import LinearModel, fit_linear_svc, fit_sgd_logistic, logistic_loss_and_grad
from .mlp import MlpModel, fit_mlp
from .neighbors import KnnModel, fit_knn
from .tree import GrowParams, TreeBlock, best_split, grow_tree, tree_apply

_FITTERS = {
    "cart": fit_cart,
    "random_forest": fit_random_forest,
    "extra_trees": fit_extra_trees,
    "gbm": fit_gbm,
    "xgb_style": fit_xgb,
    "adaboost": fit_adaboost,
    "knn": fit_knn,
    "naive_bayes": fit_naive_bayes,
    "sgd_logistic": fit_sgd_logistic,
    "linear_svc": fit_linear_svc,
    "mlp": fit_mlp,
}

MODEL_CLASSES = {
    "cart": TreeEnsembleModel,
    "random_forest": TreeEnsembleModel,
    "extra_trees": TreeEnsembleModel,
    "gbm": TreeEnsembleModel,
    "xgb_style": TreeEnsembleModel,
    "adaboost": AdaboostModel,
    "knn": KnnModel,
    "naive_bayes": NaiveBayesModel,
    "sgd_logistic": LinearModel,
    "linear_svc": LinearModel,
    "mlp": MlpModel,
}

# Algorithms whose n-estimator prefixes are themselves valid smaller models
# (per-stage randomness keyed by stage index), enabling staged evaluation.
STAGEABLE = frozenset({"random_forest", "extra_trees", "gbm", "xgb_style"})


def fit(spec: LearnerSpec, X, y) -> TrainedModel:
    """Fit the algorithm named by the spec; standardizes features first for
    the learners that need it. Deterministic for equal (spec, data)."""
    X, y = check_training_data(X, y)
    spec.resolved()  # hyperparameter validation up front
    standardizer = None
    if spec.needs_standardization:
        standardizer = fit_standardizer(X)
        X = standardizer.apply(X)
    model = _FITTERS[spec.algorithm](spec, X, y)
    model.standardizer = standardizer
    return model


def predict(model: TrainedModel, X) -> np.ndarray:
    return model.predict(X)


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    return model.predict_proba(X)


__all__ = [
    "ALGORITHMS", "DEFAULT_HYPERPARAMETERS", "STANDARDIZED", "STAGEABLE",
    "LearnerSpec", "TrainedModel", "fit", "predict", "predict_proba",
    "best_split", "grow_tree", "tree_apply", "GrowParams", "TreeBlock",
    "MODEL_CLASSES", "sigmoid", "logistic_loss_and_grad",
    "TreeEnsembleModel", "AdaboostModel",
    "KnnModel", "NaiveBayesModel", "LinearModel", "MlpModel",
]
