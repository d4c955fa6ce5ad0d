"""Post-distillation probing, real-sample selection baselines, and PCA export.

Synthetic and selected sets are scored the same way: train a linear probe on
their frozen features and report argmax accuracy (ties always resolve to the
lowest class index, so results are stable across platforms).
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .distill import AdamState, adam_update
from .linalg import DimensionError, row_argmax
from .objective import _softmax_rows, onehot
from .solver import ridge_kernel


@dataclass(frozen=True)
class ProbeResult:
    w: np.ndarray  # d x C
    train_acc: float
    eval_acc: float
    epochs_run: int


def _accuracy(features: np.ndarray, labels: np.ndarray, w: np.ndarray) -> float:
    return float(np.mean(row_argmax(features @ w) == labels))


def train_linear_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    eval_features: np.ndarray,
    eval_labels: np.ndarray,
    epochs: int = 500,
    lr: float = 0.01,
    batch_size: int = 256,
    seed: int = 0,
) -> ProbeResult:
    """Train a softmax linear classifier with Adam from random-normal init.

    Runs full-batch when the training set fits inside one batch (always the
    case for one-sample-per-class synthetic sets).
    """
    if train_features.shape[1] != eval_features.shape[1]:
        raise DimensionError(
            f"feature dims differ: train {train_features.shape[1]}, "
            f"eval {eval_features.shape[1]}"
        )
    train_labels = np.asarray(train_labels, dtype=np.int64)
    eval_labels = np.asarray(eval_labels, dtype=np.int64)
    n, d = train_features.shape
    c = int(max(train_labels.max(), eval_labels.max())) + 1
    t_onehot = onehot(train_labels, c)

    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, c)) / np.sqrt(d)
    adam = AdamState.like(w)
    b1, b2, eps = 0.9, 0.999, 1e-8
    # full batch: the one batch is the whole set in its own order, gathered once
    full = [(train_features[np.arange(n)], t_onehot)] if n <= batch_size else None
    for _ in range(epochs):
        if full is None:
            order = rng.permutation(n)
            batches = (
                (train_features[idx], t_onehot[idx])
                for idx in (order[s : s + batch_size] for s in range(0, n, batch_size))
            )
        else:
            batches = full
        for x, t in batches:
            pi = _softmax_rows(x @ w)
            pi -= t
            w -= adam_update(adam, x.T @ pi / x.shape[0], lr, b1, b2, eps)
    return ProbeResult(
        w=w,
        train_acc=_accuracy(train_features, train_labels, w),
        eval_acc=_accuracy(eval_features, eval_labels, w),
        epochs_run=epochs,
    )


def closed_form_probe(
    train_features: np.ndarray,
    y_onehot: np.ndarray,
    lam: float,
    eval_features: np.ndarray,
    eval_labels: np.ndarray,
) -> ProbeResult:
    """Ridge probe used as a fast evaluator (no iterative training)."""
    sol = ridge_kernel(train_features, y_onehot, lam)
    train_labels = np.argmax(y_onehot, axis=1)
    return ProbeResult(
        w=sol.w_star,
        train_acc=_accuracy(train_features, train_labels, sol.w_star),
        eval_acc=_accuracy(eval_features, np.asarray(eval_labels, dtype=np.int64), sol.w_star),
        epochs_run=0,
    )


def _selection(real: Dataset, picked: np.ndarray) -> Dataset:
    return Dataset(real.inputs[picked], real.labels[picked], real.class_count)


def select_random(real: Dataset, ipc: int, seed: int = 0) -> Dataset:
    """ipc rows per class chosen uniformly without replacement."""
    rng = np.random.default_rng(seed)
    picked = []
    for c in range(real.class_count):
        idx = real.class_indices(c)
        if idx.size < ipc:
            raise ValueError(f"class {c} has {idx.size} samples, needs >= {ipc}")
        picked.append(np.sort(rng.choice(idx, size=ipc, replace=False)))
    return _selection(real, np.concatenate(picked))


def select_centroid(real: Dataset, features: np.ndarray, ipc: int) -> Dataset:
    """The ipc samples per class nearest the class feature mean, ties by index."""
    if features.shape[0] != real.n:
        raise DimensionError(f"got {features.shape[0]} feature rows for {real.n} samples")
    picked = []
    for c in range(real.class_count):
        idx = real.class_indices(c)
        if idx.size < ipc:
            raise ValueError(f"class {c} has {idx.size} samples, needs >= {ipc}")
        mean = features[idx].mean(axis=0)
        d2 = np.sum((features[idx] - mean) ** 2, axis=1)
        # stable sort: equidistant candidates resolve to the lower index
        picked.append(idx[np.argsort(d2, kind="stable")[:ipc]])
    return _selection(real, np.concatenate(picked))


def select_neighbor(
    real: Dataset,
    real_features: np.ndarray,
    synthetic_features: np.ndarray,
    synthetic_labels: np.ndarray | None = None,
) -> Dataset:
    """Per synthetic row, the nearest same-class real sample, ties by index.

    Labels default to the class-major layout used by init_synthetic (row i
    belongs to class i // ipc). Each picked row keeps its label from `real`.
    """
    if real_features.shape[0] != real.n:
        raise DimensionError(
            f"got {real_features.shape[0]} feature rows for {real.n} samples"
        )
    n_syn = synthetic_features.shape[0]
    if synthetic_labels is None:
        if n_syn % real.class_count != 0:
            raise ValueError(
                f"{n_syn} synthetic rows do not split evenly over "
                f"{real.class_count} classes; pass synthetic_labels"
            )
        synthetic_labels = np.repeat(np.arange(real.class_count), n_syn // real.class_count)
    picked = []
    for i in range(n_syn):
        idx = real.class_indices(int(synthetic_labels[i]))
        if idx.size == 0:
            raise ValueError(f"class {synthetic_labels[i]} has no samples")
        d2 = np.sum((real_features[idx] - synthetic_features[i]) ** 2, axis=1)
        picked.append(idx[int(np.argmin(d2))])  # argmin returns first minimum
    return _selection(real, np.asarray(picked))


def pca_project_2d(features: np.ndarray):
    """Mean-centered projection onto the top-2 principal directions.

    Returns (n x 2 projection, explained-variance fractions). Components are
    the top eigenvectors of the covariance (np.linalg.eigh); the first
    nonzero loading of each component is made positive so the projection is
    sign-deterministic. A component with at most 1e-12 of the total variance
    is a zero column, and degenerate inputs (all rows identical) give a zero
    projection.
    """
    if features.shape[0] < 2:
        raise ValueError("pca_project_2d needs at least 2 rows")
    centered = features - features.mean(axis=0)
    total_var = float(np.sum(centered * centered)) / (features.shape[0] - 1)
    d = features.shape[1]
    if total_var == 0.0:
        return np.zeros((features.shape[0], 2)), (0.0, 0.0)
    cov = centered.T @ centered / (features.shape[0] - 1)
    eigs, vecs = np.linalg.eigh(cov)  # ascending
    components, explained = [], []
    for k in range(2):
        if d <= k or eigs[-1 - k] <= 1e-12 * total_var:
            v = np.zeros(d)
            eig = 0.0
        else:
            v = vecs[:, -1 - k]
            eig = float(eigs[-1 - k])
            nz = np.flatnonzero(np.abs(v) > 1e-12)
            if nz.size and v[nz[0]] < 0:
                v = -v
        components.append(v)
        explained.append(eig / total_var)
    basis = np.stack(components, axis=1)
    return centered @ basis, (explained[0], explained[1])
