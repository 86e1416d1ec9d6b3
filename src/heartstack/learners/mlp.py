"""One-hidden-layer perceptron: tanh hidden units, sigmoid output,
logistic loss, full-batch gradient descent with momentum."""

from __future__ import annotations

import numpy as np

from ..rng import stream
from .base import LearnerSpec, TrainedModel, finite_array, sigmoid


class MlpModel(TrainedModel):
    def __init__(self, spec, n_features_in, W1, b1, W2, b2):
        super().__init__(spec, n_features_in)
        self.W1 = np.asarray(W1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.W2 = np.asarray(W2, dtype=np.float64)
        self.b2 = float(b2)

    def _proba(self, X):
        hidden = np.tanh(X @ self.W1 + self.b1)
        return sigmoid(hidden @ self.W2 + self.b2)

    def params_payload(self):
        return {
            "W1": self.W1.tolist(), "b1": self.b1.tolist(),
            "W2": self.W2.tolist(), "b2": self.b2,
        }

    @classmethod
    def from_payload(cls, spec, n_features_in, payload):
        """Inverse of params_payload. Raises ValueError unless W1 is a finite
        n_features_in x h matrix, b1 and W2 hold h finite numbers and b2 is
        finite."""
        W1 = finite_array("mlp W1", payload["W1"], None)
        if W1.ndim != 2 or W1.shape[0] != n_features_in:
            raise ValueError(f"mlp W1 must have {n_features_in} rows")
        hidden = (W1.shape[1],)
        b1 = finite_array("mlp b1", payload["b1"], hidden)
        W2 = finite_array("mlp W2", payload["W2"], hidden)
        b2 = float(finite_array("mlp b2", payload["b2"], ()))
        return cls(spec, n_features_in, W1, b1, W2, b2)


def init_params(n_features: int, hidden: int, seed: int):
    rng = stream(seed, "mlp-init")
    W1 = rng.normal(0.0, 1.0 / np.sqrt(n_features), size=(n_features, hidden))
    b1 = np.zeros(hidden)
    W2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=hidden)
    b2 = 0.0
    return W1, b1, W2, b2


def loss_and_grad(params, X, y):
    """Mean logistic loss of the network and analytic parameter gradients."""
    W1, b1, W2, b2 = params
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]

    z1 = X @ W1 + b1
    hidden = np.tanh(z1)
    z2 = hidden @ W2 + b2
    signed = np.where(y == 1.0, z2, -z2)
    loss = float(np.mean(np.logaddexp(0.0, -signed)))

    delta2 = (sigmoid(z2) - y) / n
    grad_W2 = hidden.T @ delta2
    grad_b2 = float(delta2.sum())
    delta1 = np.outer(delta2, W2) * (1.0 - hidden * hidden)
    grad_W1 = X.T @ delta1
    grad_b1 = delta1.sum(axis=0)
    return loss, (grad_W1, grad_b1, grad_W2, grad_b2)


def fit_mlp(spec: LearnerSpec, X, y) -> MlpModel:
    p = spec.resolved()
    params = list(init_params(X.shape[1], p["hidden_units"], spec.seed))
    velocity = [np.zeros_like(np.asarray(v, dtype=np.float64)) for v in params]
    lr, momentum = p["learning_rate"], p["momentum"]
    for _ in range(p["epochs"]):
        _, grads = loss_and_grad(params, X, y)
        for i, g in enumerate(grads):
            velocity[i] = momentum * velocity[i] - lr * g
            params[i] = params[i] + velocity[i]
    W1, b1, W2, b2 = params
    return MlpModel(spec, X.shape[1], W1, b1, W2, float(b2))
