import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from heartstack.cleaning import clean
from heartstack.dataset import parse_csv
from heartstack.splitting import stratified_split
from heartstack.synthetic import write_dataset_csv

# A failing property test prints the @reproduce_failure line that replays
# its draw; each test keeps its own max_examples and derandomize settings.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")

# The real combined heart-disease CSV is a user-supplied input; tests run
# against it when HEARTSTACK_CSV points at it and otherwise fall back to
# the calibrated synthetic stand-in.
REAL_CSV_ENV = "HEARTSTACK_CSV"


@pytest.fixture(scope="session")
def dataset_csv(tmp_path_factory) -> Path:
    env = os.environ.get(REAL_CSV_ENV)
    if env:
        return Path(env)
    path = tmp_path_factory.mktemp("data") / "heart.csv"
    write_dataset_csv(path)
    return path


@pytest.fixture(scope="session")
def dataset(dataset_csv):
    return parse_csv(dataset_csv)


@pytest.fixture(scope="session")
def cleaned_dataset(dataset):
    cleaned, _ = clean(dataset, "iqr", 1.5)
    return cleaned


@pytest.fixture(scope="session")
def default_split(cleaned_dataset):
    from heartstack.config import DEFAULT_SEED

    return stratified_split(cleaned_dataset, 0.8, DEFAULT_SEED)


def random_classification(rng: np.random.Generator, n: int, d: int):
    """Consistent random instance: continuous features, separable labels."""
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = (X @ w + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y
