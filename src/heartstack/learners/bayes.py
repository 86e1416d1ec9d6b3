"""Gaussian naive Bayes with class priors from label frequencies."""

from __future__ import annotations

import numpy as np

from .base import PARAMETER_BOUND, LearnerSpec, TrainedModel, finite_array


class NaiveBayesModel(TrainedModel):
    def __init__(self, spec, n_features_in, log_priors, means, variances):
        super().__init__(spec, n_features_in)
        self.log_priors = np.asarray(log_priors, dtype=np.float64)  # (2,)
        self.means = np.asarray(means, dtype=np.float64)  # (2, d)
        self.variances = np.asarray(variances, dtype=np.float64)  # (2, d)

    def _proba(self, X):
        # Joint log-likelihood per class, evaluated in log space.
        scores = np.empty((X.shape[0], 2))
        for c in (0, 1):
            diff = X - self.means[c]
            scores[:, c] = self.log_priors[c] - 0.5 * (
                np.log(2.0 * np.pi * self.variances[c]).sum()
                + (diff * diff / self.variances[c]).sum(axis=1)
            )
        shift = scores.max(axis=1, keepdims=True)
        exp = np.exp(scores - shift)
        return exp[:, 1] / exp.sum(axis=1)

    def params_payload(self):
        return {
            "log_priors": self.log_priors.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_payload(cls, spec, n_features_in, payload):
        """Inverse of params_payload. Raises ValueError unless log_priors
        holds 2 finite numbers and means and variances are finite
        2 x n_features_in matrices, every variance >= 1/PARAMETER_BOUND."""
        log_priors = finite_array("naive_bayes log_priors", payload["log_priors"], (2,))
        shape = (2, n_features_in)
        means = finite_array("naive_bayes means", payload["means"], shape)
        variances = finite_array("naive_bayes variances", payload["variances"], shape)
        if not (variances >= 1 / PARAMETER_BOUND).all():
            raise ValueError(f"naive_bayes variances must be >= {1 / PARAMETER_BOUND:g}")
        return cls(spec, n_features_in, log_priors, means, variances)


def fit_naive_bayes(spec: LearnerSpec, X, y) -> NaiveBayesModel:
    p = spec.resolved()
    floor = p["var_floor"]
    means = np.empty((2, X.shape[1]))
    variances = np.empty((2, X.shape[1]))
    log_priors = np.empty(2)
    for c in (0, 1):
        rows = X[y == c]
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0), floor)
        log_priors[c] = np.log(rows.shape[0] / X.shape[0])
    return NaiveBayesModel(spec, X.shape[1], log_priors, means, variances)
