"""Learner specification and the fitted-model base class."""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import FitError
from ..standardize import Standardizer

# Distance-based, linear and neural learners train on standardized features;
# tree and Bayes learners take raw values.
STANDARDIZED = frozenset({"knn", "sgd_logistic", "linear_svc", "mlp"})

DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    "cart": {"criterion": "gini", "max_depth": None, "min_samples_split": 2,
             "max_features": None},
    "random_forest": {"n_estimators": 500, "criterion": "entropy", "max_depth": None,
                      "min_samples_split": 2, "max_features": "sqrt"},
    "extra_trees": {"n_estimators": 500, "criterion": "entropy", "max_depth": None,
                    "min_samples_split": 2, "max_features": "sqrt"},
    "gbm": {"n_estimators": 100, "learning_rate": 0.1, "max_depth": 3,
            "min_samples_split": 2},
    "xgb_style": {"n_estimators": 500, "learning_rate": 0.1, "max_depth": 3,
                  "reg_lambda": 1.0, "gamma": 0.0, "min_samples_split": 2},
    "adaboost": {"n_estimators": 50},
    "knn": {"k": 9},
    "naive_bayes": {"var_floor": 1e-9},
    "sgd_logistic": {"epochs": 200, "learning_rate": 0.5, "decay": 0.002, "l2": 1e-4},
    "linear_svc": {"epochs": 200, "learning_rate": 0.5, "decay": 0.002, "l2": 1e-4},
    "mlp": {"hidden_units": 16, "epochs": 500, "learning_rate": 0.01, "momentum": 0.9},
}

ALGORITHMS = tuple(DEFAULT_HYPERPARAMETERS)


@dataclass(frozen=True)
class LearnerSpec:
    algorithm: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise FitError(f"unknown algorithm {self.algorithm!r}")
        unknown = set(self.hyperparameters) - set(DEFAULT_HYPERPARAMETERS[self.algorithm])
        if unknown:
            raise FitError(
                f"{self.algorithm}: unknown hyperparameter(s) {', '.join(sorted(unknown))}"
            )
        if self.seed < 0:
            raise FitError("seed must be non-negative")

    @property
    def needs_standardization(self) -> bool:
        return self.algorithm in STANDARDIZED

    def resolved(self) -> dict:
        params = {**DEFAULT_HYPERPARAMETERS[self.algorithm], **self.hyperparameters}
        _validate_params(self.algorithm, params)
        return params

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm,
                "hyperparameters": dict(self.hyperparameters),
                "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "LearnerSpec":
        return cls(d["algorithm"], dict(d.get("hyperparameters", {})), int(d.get("seed", 0)))


def _require(cond: bool, algo: str, message: str):
    if not cond:
        raise FitError(f"{algo}: {message}")


def _validate_params(algo: str, p: dict):
    if "n_estimators" in p:
        _require(isinstance(p["n_estimators"], int) and p["n_estimators"] >= 1,
                 algo, "n_estimators must be a positive integer")
    if "max_depth" in p:
        _require(p["max_depth"] is None or (isinstance(p["max_depth"], int) and p["max_depth"] >= 1),
                 algo, "max_depth must be None or a positive integer")
    if "min_samples_split" in p:
        _require(isinstance(p["min_samples_split"], int) and p["min_samples_split"] >= 2,
                 algo, "min_samples_split must be an integer >= 2")
    if "criterion" in p:
        _require(p["criterion"] in ("gini", "entropy"), algo, "criterion must be gini or entropy")
    if "max_features" in p:
        mf = p["max_features"]
        _require(mf is None or mf == "sqrt" or (isinstance(mf, int) and mf >= 1),
                 algo, "max_features must be None, 'sqrt' or a positive integer")
    if "learning_rate" in p:
        _require(p["learning_rate"] > 0, algo, "learning_rate must be positive")
    if "reg_lambda" in p:
        _require(p["reg_lambda"] >= 0, algo, "reg_lambda must be non-negative")
    if "gamma" in p:
        _require(p["gamma"] >= 0, algo, "gamma must be non-negative")
    if "k" in p:
        _require(isinstance(p["k"], int) and p["k"] >= 1, algo, "k must be a positive integer")
    if "var_floor" in p:
        _require(p["var_floor"] > 0, algo, "var_floor must be positive")
    if "epochs" in p:
        _require(isinstance(p["epochs"], int) and p["epochs"] >= 1,
                 algo, "epochs must be a positive integer")
    if "decay" in p:
        _require(p["decay"] >= 0, algo, "decay must be non-negative")
    if "l2" in p:
        _require(p["l2"] >= 0, algo, "l2 must be non-negative")
    if "hidden_units" in p:
        _require(isinstance(p["hidden_units"], int) and p["hidden_units"] >= 1,
                 algo, "hidden_units must be a positive integer")
    if "momentum" in p:
        _require(0 <= p["momentum"] < 1, algo, "momentum must lie in [0, 1)")


def resolve_max_features(mf, n_features: int) -> int | None:
    if mf is None:
        return None
    if mf == "sqrt":
        return min(n_features, math.ceil(math.sqrt(n_features)))
    return min(int(mf), n_features)


class TrainedModel:
    """Immutable fitted predictor: class-1 probabilities plus labels.

    Labels follow the uniform thresholding rule predict(x) = 1 iff
    predict_proba(x) >= 0.5, for every algorithm.
    """

    def __init__(self, spec: LearnerSpec, n_features_in: int):
        self.spec = spec
        self.n_features_in = n_features_in
        self.standardizer: Standardizer | None = None  # set by fit and load_model

    def _prepare(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in:
            raise FitError(
                f"expected rows with {self.n_features_in} features, got shape {tuple(X.shape)}"
            )
        if self.standardizer is not None:
            X = self.standardizer.apply(X)
        return X

    def predict_proba(self, X) -> np.ndarray:
        return np.clip(self._proba(self._prepare(X)), 0.0, 1.0)

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params_payload(self) -> dict:
        raise NotImplementedError


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# Every learned parameter a model document holds must lie within
# +-PARAMETER_BOUND. Fitted parameters stay below 1e4 (the largest is a
# naive_bayes variance of raw cholesterol, about 4e3). At 1e100, a product of
# two parameters summed over thousands of terms stays near 1e204, far below
# float64's 1.8e308, so scoring ordinary rows with a loaded model cannot
# overflow into wrong labels. A standardizer divides by its std, so a std must
# be at least 1/PARAMETER_BOUND, which then scales a value no more than one
# parameter does; fitted stds stay above 0.29 (a stack meta's column on the
# stand-in; the smallest feature std over data seeds, splits and folds is 0.40).
# The two bounds do not compose: a mean of 1e100 over a std of 1e-100 shifts
# every standardized value by 1e200, and squared k-NN distances overflow. So
# |mean| / std, the standardized shift, must stay within PARAMETER_BOUND too;
# fitted features give a few units.
PARAMETER_BOUND = 1e100


def finite_array(name: str, values, shape: tuple | None) -> np.ndarray:
    """``values`` as a float array of the given shape (any shape for None)
    with every entry finite and within +-PARAMETER_BOUND; ValueError
    otherwise. For model documents."""
    a = np.asarray(values, dtype=np.float64)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, not {a.shape}")
    if not (np.abs(a) <= PARAMETER_BOUND).all():
        raise ValueError(f"{name} must be finite and within +-{PARAMETER_BOUND:g}")
    return a


def pack(array, dtype: str) -> str:
    """``array``, flattened row-major, as the base64 of its ``dtype`` bytes:
    "<i4" for indices and labels, "<f8" for reals. ValueError for an integer
    that "<i4" cannot hold. Model documents store their large arrays so."""
    a = np.asarray(array)
    packed = a.astype(dtype)
    if packed.dtype.kind == "i" and not np.array_equal(packed, a):
        raise ValueError(f"an array entry does not fit {dtype}")
    return base64.b64encode(packed.tobytes()).decode("ascii")


def unpack(text, dtype: str) -> np.ndarray:
    """Inverse of pack: a writable flat array of np.intp for "<i4" or of
    float64 for "<f8". ValueError for a non-string, invalid base64, or a
    byte count that is not a whole number of entries."""
    if not isinstance(text, str):
        raise ValueError(f"a packed array must be a base64 string, not {type(text).__name__}")
    data = base64.b64decode(text, validate=True)  # binascii.Error is a ValueError
    if len(data) % np.dtype(dtype).itemsize:
        raise ValueError(f"a packed array's {len(data)} bytes are not whole {dtype} entries")
    return np.frombuffer(data, dtype).astype(np.intp if dtype == "<i4" else np.float64)


def check_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise FitError("training data must be (n, d) features with n labels")
    if X.shape[0] < 1:
        raise FitError("training data is empty")
    if not np.isin(y, (0, 1)).all():
        raise FitError("labels must be 0 or 1")
    if (y == y[0]).all():
        raise FitError("training data contains a single class")
    return X, y.astype(np.int64)
