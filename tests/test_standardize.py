import numpy as np
import pytest

from heartstack.standardize import fit_standardizer


def test_two_point_symmetry():
    std = fit_standardizer(np.array([[1.0], [3.0]]))
    out = std.apply(np.array([[1.0], [3.0]]))
    assert out[:, 0] == pytest.approx([-1.0, 1.0])


def test_constant_column_passes_through():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    std = fit_standardizer(X)
    assert (std.mean[0], std.std[0]) == (0.0, 1.0) and std.std[1] != 1.0
    out = std.apply(X)
    assert (out[:, 0] == 5.0).all()


def test_transformed_moments():
    rng = np.random.default_rng(8)
    X = rng.normal(5.0, 2.0, size=(100, 4))
    out = fit_standardizer(X).apply(X)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)


def test_test_data_uses_train_statistics():
    train = np.array([[0.0], [2.0]])
    std = fit_standardizer(train)
    out = std.apply(np.array([[4.0]]))
    assert out[0, 0] == pytest.approx(3.0)
