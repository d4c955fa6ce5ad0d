"""Post-distillation probing, real-sample selection baselines, and PCA export.

Distilled, selected and real sets are all scored the same way: a linear
probe is trained on a feature Dataset (rows already passed through the frozen
encoder) and reports argmax accuracy (ties always resolve to the lowest class
index, so results are stable across platforms). The selection baselines pick
rows of the Dataset they are given, so on features they return features.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_every_class
from .distill import AdamState, DistillConfig, DistillDivergenceError, adam_update
from .linalg import DimensionError
from .objective import _accuracy, _shifted_logits, _softmax_rows


@dataclass(frozen=True)
class ProbeResult:
    w: np.ndarray  # d x C
    eval_acc: float


def train_linear_probe(
    train: Dataset,
    eval_set: Dataset,
    epochs: int = DistillConfig.probe_epochs,
    lr: float = DistillConfig.probe_lr,
    batch_size: int = DistillConfig.probe_batch_size,
    seed: int = 0,
) -> ProbeResult:
    """Train a softmax linear classifier with Adam from random-normal init.

    Both splits are feature Datasets. Runs full-batch when the training set
    fits inside one batch (always the case for one-sample-per-class
    synthetic sets). The class count is `train.class_count`; a class that no
    training row labels, or an eval class past that count, raises
    MissingClassError. Weights, Adam moments or eval scores that end
    non-finite (an lr or features so large that they overflow) raise
    DistillDivergenceError.
    """
    if train.dim != eval_set.dim:
        raise DimensionError(f"feature dims differ: train {train.dim}, eval {eval_set.dim}")
    # an eval class the training rows lack could never be predicted
    check_every_class(
        train.labels, max(train.class_count, eval_set.class_count), "probe training labels"
    )
    x_train, c = train.inputs, train.class_count
    n, d = x_train.shape
    t_onehot = train.onehot_labels()

    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, c)) / np.sqrt(d)
    adam = AdamState.like(w)
    b1, b2, eps = 0.9, 0.999, 1e-8
    # full batch: the one batch is the whole set in its own order, gathered once
    full = [(x_train[np.arange(n)], t_onehot)] if n <= batch_size else None
    # the check after the last epoch reports an overflow; numpy's float
    # warnings on the way there add nothing
    with np.errstate(all="ignore"):
        for _ in range(epochs):
            if full is None:
                order = rng.permutation(n)
                batches = (
                    (x_train[idx], t_onehot[idx])
                    for idx in (order[s : s + batch_size] for s in range(0, n, batch_size))
                )
            else:
                batches = full
            for x, t in batches:
                pi, _ = _softmax_rows(_shifted_logits(x @ w))
                pi -= t
                w -= adam_update(adam, x.T @ pi / x.shape[0], lr, b1, b2, eps)
        scores = eval_set.inputs @ w
    # an overflowed second moment freezes w at finite values, so both are checked
    if not (np.isfinite(w).all() and np.isfinite(adam.v).all() and np.isfinite(scores).all()):
        raise DistillDivergenceError(
            "the linear probe's weights, Adam moments or eval scores became non-finite "
            f"(probe_lr={lr})"
        )
    return ProbeResult(w=w, eval_acc=_accuracy(scores, eval_set.labels))


def _selection(real: Dataset, picked: np.ndarray) -> Dataset:
    return Dataset(real.inputs[picked], real.labels[picked], real.class_count)


def _squared_distances(rows: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distance of each row to `center`; one that overflows is inf."""
    with np.errstate(all="ignore"):
        d2 = np.sum((rows - center) ** 2, axis=1)
    d2[np.isnan(d2)] = np.inf  # inf - inf where an overflowed mean meets a row
    return d2


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


def select_centroid(real: Dataset, ipc: int) -> Dataset:
    """The ipc rows per class nearest the class mean, ties by index."""
    picked = []
    for c in range(real.class_count):
        idx = real.class_indices(c)
        if idx.size < ipc:
            raise ValueError(f"class {c} has {idx.size} samples, needs >= {ipc}")
        x = real.inputs[idx]
        with np.errstate(all="ignore"):  # a mean that overflows holds inf
            d2 = _squared_distances(x, x.mean(axis=0))
        # stable sort: equidistant candidates resolve to the lower index
        picked.append(idx[np.argsort(d2, kind="stable")[:ipc]])
    return _selection(real, np.concatenate(picked))


def select_neighbor(real: Dataset, synthetic: Dataset) -> Dataset:
    """Per synthetic row, the nearest real row of its class, ties by index.

    Each picked row keeps its label from `real`.
    """
    picked = []
    for row, label in zip(synthetic.inputs, synthetic.labels):
        idx = real.class_indices(int(label))
        if idx.size == 0:
            raise ValueError(f"class {label} has no samples")
        d2 = _squared_distances(real.inputs[idx], row)
        picked.append(idx[int(np.argmin(d2))])  # argmin returns first minimum
    return _selection(real, np.asarray(picked))


def pca_project_2d(features: np.ndarray):
    """Mean-centered projection onto the top-2 principal directions.

    Returns (n x 2 projection, explained-variance fractions). Components are
    the top eigenvectors of the covariance (np.linalg.eigh); the first
    nonzero loading of each component is made positive so the projection is
    sign-deterministic. A component with at most 1e-12 of the total variance
    is a zero column, and degenerate inputs (all rows identical) give a zero
    projection. Features whose variance overflows raise ValueError.
    """
    if features.shape[0] < 2:
        raise ValueError("pca_project_2d needs at least 2 rows")
    with np.errstate(all="ignore"):
        centered = features - features.mean(axis=0)
        total_var = float(np.sum(centered * centered)) / (features.shape[0] - 1)
    # a finite total bounds every covariance entry and projected value
    if not np.isfinite(total_var):
        raise ValueError("the features' variance overflows float64")
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
