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


def int_at_least(value, low: int) -> bool:
    """True for an int (not a bool, nor a float such as 2.0) of at least low:
    the one test of every integer setting."""
    return type(value) is int and value >= low


def is_number(value) -> bool:
    """True for an int or a float, but not a bool."""
    return type(value) is int or isinstance(value, float)


def _integer(low: int, *choices):
    number = "a positive integer" if low == 1 else f"an integer >= {low}"
    return (lambda v: v in choices or int_at_least(v, low),
            " or ".join(filter(None, [", ".join(map(repr, choices)), number])))


def _real(test, condition: str):
    return (lambda v: is_number(v) and abs(v) <= PARAMETER_BOUND and test(v),
            f"a finite number within +-{PARAMETER_BOUND:g} and {condition}")


# Each hyperparameter's valid values, as (test, wording): the one definition,
# applied when a LearnerSpec is built. Checks against the training data, such
# as k at most the row count, stay in the fits.
RULES = {
    "n_estimators": _integer(1),
    "max_depth": _integer(1, None),
    "min_samples_split": _integer(2),
    "max_features": _integer(1, None, "sqrt"),
    "k": _integer(1),
    "epochs": _integer(1),
    "hidden_units": _integer(1),
    "criterion": (lambda v: v in ("gini", "entropy"), "gini or entropy"),
    "learning_rate": _real(lambda v: v > 0, "> 0"),
    "var_floor": _real(lambda v: v > 0, "> 0"),
    "reg_lambda": _real(lambda v: v >= 0, ">= 0"),
    "gamma": _real(lambda v: v >= 0, ">= 0"),
    "decay": _real(lambda v: v >= 0, ">= 0"),
    "l2": _real(lambda v: v >= 0, ">= 0"),
    "momentum": _real(lambda v: 0 <= v < 1, "in [0, 1)"),
}


@dataclass(frozen=True)
class LearnerSpec:
    """An algorithm, its hyperparameters (defaults fill the rest) and its
    seed; FitError, when built, for any name or value RULES rejects."""
    algorithm: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise FitError(f"unknown algorithm {self.algorithm!r}")
        if not isinstance(self.hyperparameters, dict):
            raise FitError(f"{self.algorithm}: hyperparameters must map names to values")
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))
        unknown = set(self.hyperparameters) - set(DEFAULT_HYPERPARAMETERS[self.algorithm])
        if unknown:
            raise FitError(
                f"{self.algorithm}: unknown hyperparameter(s) {', '.join(sorted(unknown))}"
            )
        for name, value in self.resolved().items():
            test, wording = RULES[name]
            if not test(value):
                raise FitError(f"{self.algorithm}: {name} must be {wording}")
        if not int_at_least(self.seed, 0):
            raise FitError("seed must be a non-negative integer")

    @property
    def needs_standardization(self) -> bool:
        return self.algorithm in STANDARDIZED

    def resolved(self) -> dict:
        return {**DEFAULT_HYPERPARAMETERS[self.algorithm], **self.hyperparameters}

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm,
                "hyperparameters": dict(self.hyperparameters),
                "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "LearnerSpec":
        return cls(d["algorithm"], d.get("hyperparameters", {}), d.get("seed", 0))


def resolve_max_features(mf, n_features: int) -> int | None:
    if mf is None:
        return None
    if mf == "sqrt":
        return min(n_features, math.ceil(math.sqrt(n_features)))
    return min(mf, n_features)


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
    "<i4" for indices and labels, "<u1", "<u2" or "<u4" for small
    non-negative indices and bytes, "<f8" for reals. ValueError for an
    integer that ``dtype`` cannot hold. Model documents store their large
    arrays so."""
    a = np.asarray(array)
    packed = a.astype(dtype)
    if packed.dtype.kind in "iu" and not np.array_equal(packed, a):
        raise ValueError(f"an array entry does not fit {dtype}")
    return base64.b64encode(packed.tobytes()).decode("ascii")


def unpack(text, dtype: str) -> np.ndarray:
    """Inverse of pack: a writable flat array of np.intp for an integer
    ``dtype`` or of float64 for "<f8". ValueError for a non-string, invalid
    base64, or a byte count that is not a whole number of entries."""
    if not isinstance(text, str):
        raise ValueError(f"a packed array must be a base64 string, not {type(text).__name__}")
    data = base64.b64decode(text, validate=True)  # binascii.Error is a ValueError
    if len(data) % np.dtype(dtype).itemsize:
        raise ValueError(f"a packed array's {len(data)} bytes are not whole {dtype} entries")
    return np.frombuffer(data, dtype).astype(np.float64 if dtype == "<f8" else np.intp)


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
