"""Feature standardization fitted on training data only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # bool mask of zero-variance columns, passed through

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std

    def invert(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) * self.std + self.mean

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "constant": [bool(c) for c in self.constant],
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Standardizer":
        """Inverse of to_dict. Raises ValueError unless mean, std and constant
        hold n_features entries each, mean is finite and within the learned
        parameters' bound and std is finite and positive."""
        from .learners.base import finite_array  # learners.base imports this module

        mean = finite_array("standardizer mean", d["mean"], None)
        std = np.array(d["std"], dtype=np.float64)
        constant = np.array(d["constant"], dtype=bool)
        if not mean.shape == std.shape == constant.shape == (n_features,):
            raise ValueError(f"standardizer mean, std and constant must hold "
                             f"{n_features} entries each")
        if not (np.isfinite(std) & (std > 0)).all():
            raise ValueError("standardizer std must be finite and positive")
        return cls(mean, std, constant)


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Per-column mean/std; constant columns get std 1 and are flagged."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    mean = np.where(constant, 0.0, mean)  # constant columns pass through unchanged
    return Standardizer(mean, std, constant)
