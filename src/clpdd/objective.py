"""Outer objectives evaluated on real features.

The default objective scores each real feature row against the columns of the
closed-form probe (one anchor direction per class) through a temperature-scaled
softmax cross-entropy. An ordinary MSE objective against one-hot targets is
kept as the ablation counterpart. Both take the real rows' integer class ids
and come with exact gradients with respect to the probe.
"""

import numpy as np

from .data import _check_label_range
from .linalg import DimensionError


def _check_batch_w(x: np.ndarray, labels: np.ndarray, w_star: np.ndarray):
    if x.shape[0] != labels.shape[0]:
        raise DimensionError(f"x has {x.shape[0]} rows but labels has {labels.shape[0]}")
    if w_star.shape[0] != x.shape[1]:
        raise DimensionError(f"w_star must have {x.shape[1]} rows, got {w_star.shape}")
    _check_label_range(labels, w_star.shape[1])


def _shifted_logits(z: np.ndarray) -> np.ndarray:
    # max subtraction is mandatory: logits at tau=0.07 overflow exp otherwise
    return z - np.maximum.reduce(z, axis=1, keepdims=True)


def _softmax_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(softmax, row sums of exp) of shifted logits `z`; exp(z) is divided in place."""
    e = np.exp(z)
    row_sums = np.add.reduce(e, axis=1, keepdims=True)
    e /= row_sums
    return e, row_sums


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    # np.argmax takes the lowest index among tied scores
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def class_anchor_loss_and_grad(
    x: np.ndarray, labels: np.ndarray, w_star: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """Mean temperature-scaled cross-entropy of real rows against probe columns,
    and its exact gradient X^T (softmax(Z) - T) / (M * tau), from one set of logits.

    `labels` holds the M rows' class ids; T is their one-hot matrix, never built."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    _check_batch_w(x, labels, w_star)
    return _class_anchor_loss_and_grad(x, labels, w_star, tau)


def _class_anchor_loss_and_grad(
    x: np.ndarray, labels: np.ndarray, w_star: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """`class_anchor_loss_and_grad` on arguments already checked."""
    m = x.shape[0]
    rows = np.arange(m)
    z = _shifted_logits((x @ w_star) / tau)
    p, row_sums = _softmax_rows(z)
    loss = float(np.add.reduce(np.log(row_sums[:, 0]) - z[rows, labels]) / m)
    p[rows, labels] -= 1.0
    return loss, x.T @ p / (m * tau)


def mse_outer_loss_and_grad(
    x: np.ndarray, labels: np.ndarray, w_star: np.ndarray
) -> tuple[float, np.ndarray]:
    """Ablation objective 0.5/M * ||X W* - T||_F^2 against the one-hot targets T
    of `labels`, and its gradient X^T (X W* - T) / M, from one residual."""
    _check_batch_w(x, labels, w_star)
    return _mse_outer_loss_and_grad(x, labels, w_star)


def _mse_outer_loss_and_grad(
    x: np.ndarray, labels: np.ndarray, w_star: np.ndarray
) -> tuple[float, np.ndarray]:
    """`mse_outer_loss_and_grad` on arguments already checked."""
    m = x.shape[0]
    r = x @ w_star
    r[np.arange(m), labels] -= 1.0
    return float(0.5 * np.sum(r * r) / m), x.T @ r / m
