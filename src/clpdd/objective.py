"""Outer objectives evaluated on real features.

The default objective scores each real feature row against the columns of the
closed-form probe (one anchor direction per class) through a temperature-scaled
softmax cross-entropy. An ordinary MSE objective against one-hot targets is
kept as the ablation counterpart. Both come with exact gradients with respect
to the probe.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError


@dataclass(frozen=True)
class OuterBatch:
    """Real rows entering the outer loss: features, labels, one-hot targets."""

    x_real: np.ndarray  # M x d
    labels: np.ndarray  # M integer class ids
    t_onehot: np.ndarray  # M x C

    @property
    def m(self) -> int:
        return self.x_real.shape[0]

    @property
    def class_count(self) -> int:
        return self.t_onehot.shape[1]

    def with_features(self, feats: np.ndarray) -> "OuterBatch":
        return OuterBatch(x_real=feats, labels=self.labels, t_onehot=self.t_onehot)


def onehot(labels: np.ndarray, class_count: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ValueError(
            f"labels must lie in [0, {class_count}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    t = np.zeros((labels.shape[0], class_count))
    t[np.arange(labels.shape[0]), labels] = 1.0
    return t


def make_outer_batch(x_real: np.ndarray, labels: np.ndarray, class_count: int) -> OuterBatch:
    labels = np.asarray(labels, dtype=np.int64)
    if x_real.shape[0] != labels.shape[0]:
        raise DimensionError(
            f"x_real has {x_real.shape[0]} rows but labels has {labels.shape[0]}"
        )
    return OuterBatch(x_real=x_real, labels=labels, t_onehot=onehot(labels, class_count))


def _check_batch_w(batch: OuterBatch, w_star: np.ndarray):
    if w_star.shape != (batch.x_real.shape[1], batch.class_count):
        raise DimensionError(
            f"w_star must be {batch.x_real.shape[1]} x {batch.class_count}, "
            f"got {w_star.shape}"
        )


def _shifted_logits(z: np.ndarray) -> np.ndarray:
    # max subtraction is mandatory: logits at tau=0.07 overflow exp otherwise
    return z - z.max(axis=1, keepdims=True)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(_shifted_logits(z))
    return e / e.sum(axis=1, keepdims=True)


def class_anchor_loss_and_grad(
    batch: OuterBatch, w_star: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """Mean temperature-scaled cross-entropy of real rows against probe columns,
    and its exact gradient X^T (softmax(Z) - T) / (M * tau), from one set of logits."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    _check_batch_w(batch, w_star)
    z = _shifted_logits((batch.x_real @ w_star) / tau)
    e = np.exp(z)
    row_sums = e.sum(axis=1, keepdims=True)
    correct = z[np.arange(batch.m), batch.labels]
    loss = float((np.log(row_sums[:, 0]) - correct).mean())
    e /= row_sums  # now softmax(Z)
    e -= batch.t_onehot
    return loss, batch.x_real.T @ e / (batch.m * tau)


def mse_outer_loss_and_grad(batch: OuterBatch, w_star: np.ndarray) -> tuple[float, np.ndarray]:
    """Ablation objective 0.5/M * ||X W* - T||_F^2 against one-hot targets, and its
    gradient X^T (X W* - T) / M, from one residual."""
    _check_batch_w(batch, w_star)
    r = batch.x_real @ w_star
    r -= batch.t_onehot
    return float(0.5 * np.sum(r * r) / batch.m), batch.x_real.T @ r / batch.m
