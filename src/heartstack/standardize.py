"""Feature standardization fitted on training data only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Standardizer":
        """Inverse of to_dict. Raises ValueError unless mean and std hold
        n_features entries each, mean is finite and within the learned
        parameters' bound, std is finite and at least its inverse, and
        |mean| / std is within the bound too."""
        from .learners.base import PARAMETER_BOUND, finite_array  # base imports this module

        mean = finite_array("standardizer mean", d["mean"], None)
        std = np.array(d["std"], dtype=np.float64)
        if not mean.shape == std.shape == (n_features,):
            raise ValueError(f"standardizer mean and std must hold {n_features} entries each")
        if not (np.isfinite(std) & (std >= 1 / PARAMETER_BOUND)).all():
            raise ValueError(f"standardizer std must be finite and >= {1 / PARAMETER_BOUND:g}")
        if (np.abs(mean) / std > PARAMETER_BOUND).any():
            raise ValueError(f"standardizer |mean| / std must be <= {PARAMETER_BOUND:g}")
        return cls(mean, std)


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Per-column mean/std; a constant column gets mean 0 and std 1, so it
    passes through unchanged."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    constant = std == 0.0
    return Standardizer(np.where(constant, 0.0, mean), np.where(constant, 1.0, std))
