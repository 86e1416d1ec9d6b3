"""Golden predictions: every algorithm's probabilities, bit for bit.

Each algorithm is fitted with a small spec on fixed data, and the sha256 of
its ``predict_proba`` bytes (and, for the stageable ensembles, of every
``staged_proba`` checkpoint) must equal the recorded digest. A change to
how models are stored or scored that keeps these digests keeps every
prediction identical.
"""

import hashlib

import numpy as np
import pytest

from conftest import random_classification
from heartstack.learners import ALGORITHMS, STAGEABLE, LearnerSpec, fit

SPECS = {
    "cart": {"max_depth": 4, "criterion": "entropy"},
    "random_forest": {"n_estimators": 12},
    "extra_trees": {"n_estimators": 12},
    "gbm": {"n_estimators": 10},
    "xgb_style": {"n_estimators": 10, "max_depth": 4},
    "adaboost": {"n_estimators": 8},
    "knn": {"k": 5},
    "naive_bayes": {},
    "sgd_logistic": {"epochs": 15},
    "linear_svc": {"epochs": 15},
    "mlp": {"epochs": 30},
}
CHECKPOINTS = [1, 4, 10]

PROBA_SHA256 = {
    "cart": "12b08bc0cb6629c15d80b06492ab1a651829f8c074633f055800e0b582a6d2ae",
    "random_forest": "d6b5f6521d62a45711c242c3f8140129544d87c619f99712afc9b1b5b32f50ab",
    "extra_trees": "a4749d8fed69471988a06d0d2febcd2de7a50b9cbc08e82f63f564d1c43c4f1b",
    "gbm": "29a951e67052389b0b97474b903da478391efbf45e297798a3237bf27acb6b85",
    "xgb_style": "8f3e4f6fb39aa36adb60b7205d1a45a00b9b23c6b0d7c56c86038a601939c98d",
    "adaboost": "eed6724ad8eab92f67e11bfa193aa4706d97c5f6cf4a8757d0e29255e3c6dd57",
    "knn": "49b13062425582f10c0a97b168ac63b541764f77462c7e0f3bd5f3ee1d9622d6",
    "naive_bayes": "4905ba0f54effe8137d76ca864269d70e07975d41bee41eae3cdd181f67b6dfa",
    "sgd_logistic": "f20697160e1cfa37638ca3faab026fabef6c3eea81dce14cb94c460770e53ca6",
    "linear_svc": "a86cc70ad4530c90e1805b3a902740137f1eea26975a0314ee16b1e52eafd9fe",
    "mlp": "b51d315067c0bd640620a1fe52e86b66b66e4f1f0c0c15dbc54106a3aaa75c96",
}
STAGED_SHA256 = {
    "random_forest": "57b0c7742c7885acd498e5143f866b71cd11e2c4839989543182e5eaafa29f73",
    "extra_trees": "92723f6ebbaf26541c993f9dd90c68d6516e6dc887c3463f15b098349f96c7e9",
    "gbm": "737fb9914604a3aef1b007228b3ff0bf2ad1ad4135b704a84a248c5e5e059a66",
    "xgb_style": "027636b8de06dc5c5dd57ed2fc40b2e835004e1ceb5ec467f485fd6af624cfc6",
}


@pytest.fixture(scope="module")
def golden_data():
    rng = np.random.default_rng(4242)
    X, y = random_classification(rng, 150, 6)
    X[:, :3] = np.round(X[:, :3], 1)  # tied values exercise the midpoint rule
    queries = np.round(rng.normal(size=(200, 6)), 2)
    return X, y, queries


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_predict_proba_digest(algorithm, golden_data):
    X, y, queries = golden_data
    model = fit(LearnerSpec(algorithm, SPECS[algorithm], seed=5), X, y)
    assert _digest([model.predict_proba(queries)]) == PROBA_SHA256[algorithm]


@pytest.mark.parametrize("algorithm", sorted(STAGEABLE))
def test_staged_proba_digest(algorithm, golden_data):
    X, y, queries = golden_data
    model = fit(LearnerSpec(algorithm, SPECS[algorithm], seed=5), X, y)
    assert _digest(model.staged_proba(queries, CHECKPOINTS)) == STAGED_SHA256[algorithm]
