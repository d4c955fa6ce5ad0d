import numpy as np
import pytest

from clpdd.linalg import (
    DimensionError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    cholesky_factor,
    row_argmax,
)


def test_cholesky_scaled_identity():
    z = cholesky_factor(2.0 * np.eye(4)).solve(np.eye(4))
    assert np.allclose(z, 0.5 * np.eye(4), rtol=0, atol=1e-14)


def test_cholesky_residual():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))
    a = m.T @ m + 0.1 * np.eye(6)
    b = rng.standard_normal((6, 2))
    z = cholesky_factor(a).solve(b)
    assert np.linalg.norm(a @ z - b) <= 1e-10 * np.linalg.norm(b)


def test_cholesky_residual_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = rng.standard_normal((n, n))
        a = m.T @ m + float(rng.uniform(0.01, 1.0)) * np.eye(n)
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        z = cholesky_factor(a).solve(b)
        assert np.linalg.norm(a @ z - b) <= 1e-10 * np.linalg.norm(b)


def test_cholesky_singular_reports_pivot():
    v = np.ones((4, 1))
    a = v @ v.T  # rank one, lambda = 0
    with pytest.raises(NotPositiveDefiniteError) as ei:
        cholesky_factor(a).solve(np.eye(4))
    assert ei.value.pivot == 2


def test_cholesky_rejects_asymmetric():
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(NotSymmetricError):
        cholesky_factor(a).solve(np.eye(2))


def test_cholesky_dim_mismatch():
    with pytest.raises(DimensionError):
        cholesky_factor(np.eye(3)).solve(np.eye(4))


def test_cholesky_factor_reuse():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5))
    a = m.T @ m + np.eye(5)
    f = cholesky_factor(a)
    for _ in range(3):
        b = rng.standard_normal((5, 2))
        assert np.linalg.norm(a @ f.solve(b) - b) <= 1e-10 * np.linalg.norm(b)


def test_row_argmax_tie_breaks_low():
    scores = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
    assert row_argmax(scores).tolist() == [0, 1]
