"""Linear models trained by per-example stochastic (sub)gradient descent.

sgd_logistic minimizes logistic loss, linear_svc hinge loss; both carry an
L2 penalty on the weights (not the intercept) and the step schedule
eta0 / (1 + decay * t) over shuffled epochs. Probabilities come from a
logistic link on the margin, so thresholding at 0.5 equals sign(margin).
"""

from __future__ import annotations

import numpy as np

from ..rng import stream
from .base import LearnerSpec, TrainedModel, finite_array, sigmoid


class LinearModel(TrainedModel):
    def __init__(self, spec, n_features_in, weights: np.ndarray, bias: float):
        super().__init__(spec, n_features_in)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)

    def _proba(self, X):
        return sigmoid(X @ self.weights + self.bias)

    def params_payload(self):
        return {"weights": self.weights.tolist(), "bias": self.bias}

    @classmethod
    def from_payload(cls, spec, n_features_in, payload):
        """Inverse of params_payload. Raises ValueError unless weights holds
        n_features_in finite numbers and bias is finite."""
        weights = finite_array("linear weights", payload["weights"], (n_features_in,))
        bias = float(finite_array("linear bias", payload["bias"], ()))
        return cls(spec, n_features_in, weights, bias)


def _sgd(X, y, loss: str, epochs: int, eta0: float, decay: float, l2: float, seed: int):
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    y_signed = 2.0 * y - 1.0
    t = 0
    for epoch in range(epochs):
        order = stream(seed, "epoch", epoch).permutation(n)
        for i in order:
            eta = eta0 / (1.0 + decay * t)
            t += 1
            x = X[i]
            margin = float(x @ w) + b
            if loss == "logistic":
                p = 1.0 / (1.0 + np.exp(-margin)) if margin >= 0 else (
                    np.exp(margin) / (1.0 + np.exp(margin)))
                gfac = p - y[i]
            else:  # hinge subgradient
                gfac = -y_signed[i] if y_signed[i] * margin < 1.0 else 0.0
            if l2:
                w *= 1.0 - eta * l2
            if gfac:
                w -= (eta * gfac) * x
                b -= eta * gfac
    return w, b


def fit_sgd_logistic(spec: LearnerSpec, X, y) -> LinearModel:
    p = spec.resolved()
    w, b = _sgd(X, y, "logistic", p["epochs"], p["learning_rate"], p["decay"], p["l2"],
                spec.seed)
    return LinearModel(spec, X.shape[1], w, b)


def fit_linear_svc(spec: LearnerSpec, X, y) -> LinearModel:
    p = spec.resolved()
    w, b = _sgd(X, y, "hinge", p["epochs"], p["learning_rate"], p["decay"], p["l2"],
                spec.seed)
    return LinearModel(spec, X.shape[1], w, b)


def logistic_loss_and_grad(w, b, X, y, l2: float = 0.0):
    """Mean logistic loss with L2 on the weights, plus analytic gradients.

    Kept as a standalone function so finite-difference checks can probe the
    same objective the trainer descends.
    """
    w = np.asarray(w, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    margin = X @ w + b
    # log(1 + exp(-s*margin)) evaluated stably
    signed = np.where(y == 1.0, margin, -margin)
    loss = float(np.mean(np.logaddexp(0.0, -signed))) + 0.5 * l2 * float(w @ w)
    p = sigmoid(margin)
    grad_common = (p - y) / n
    grad_w = X.T @ grad_common + l2 * w
    grad_b = float(grad_common.sum())
    return loss, grad_w, grad_b
