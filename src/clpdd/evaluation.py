"""Post-distillation probing, real-sample selection baselines, the compare
protocol, and PCA export.

Distilled, selected and real sets are all scored the same way: a linear
probe is trained on a feature Dataset (rows already passed through the frozen
encoder) and reports argmax accuracy (ties always resolve to the lowest class
index, so results are stable across platforms). The selection baselines pick
rows of the Dataset they are given, so on features they return features; a
class with fewer rows than a selector picks raises MissingClassError.
`compare_methods` runs that protocol for every method over every seed.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, FeatureFileError, check_every_class, check_fits
from .distill import AdamState, DistillConfig, DistillDivergenceError, _adam_rows, run_distill
from .distill import stream_seed
from .encoder import Encoder, encode
from .linalg import check_at_least, check_positive, run_row_halves, split_row
from .objective import _accuracy, _shifted_logits, _softmax_rows


METHOD_NAMES = ("clpdd", "random", "centroid", "neighbor", "mse-ablation")


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
    MissingClassError, and splits of different dims DimensionError.
    `batch_size` below 1, `epochs` below 0 or an `lr` not finite and >= 0
    raise ValueError. Weights, Adam moments or eval scores that end non-finite
    (an lr or features so large that they overflow) raise DistillDivergenceError.
    A step runs in two row blocks, on two CPUs where `run_row_halves` splits
    them; either way `w` holds the same bytes.
    """
    check_at_least("batch_size", batch_size, 1)
    check_at_least("epochs", epochs, 0)
    check_positive("lr", lr, or_zero=True)
    # an eval class the training rows lack could never be predicted
    check_fits(train, eval_set, "probe training set", "probe eval split")
    x_train, c = train.inputs, train.class_count
    n, d = x_train.shape
    t_onehot = train.onehot_labels()

    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, c)) / np.sqrt(d)
    adam = AdamState.like(w)
    m_max = min(n, batch_size)
    pi_buf = np.empty((m_max, c))  # softmax minus targets of a batch's rows
    # full batch: the one batch is the whole set in its own order, gathered once
    full = [(x_train[np.arange(n)], t_onehot, pi_buf)] if n <= batch_size else None
    grad = np.empty((d, c))  # the gradient, then Adam's update over it
    w_like = (grad, adam.m, adam.v, adam.scratch, w)  # the d x c arrays, cut by rows of w

    def batch_rows(x, t, pi):  # softmax minus targets of some of a batch's rows
        z = np.matmul(x, w, pi)
        _softmax_rows(_shifted_logits(z, z), z)
        z -= t

    def weight_rows(pi, x_t, g, m, v, scratch, w_rows):
        # the gradient of some rows of w over the batch of `pi`, then their Adam step
        np.matmul(x_t, pi, g)
        g /= pi.shape[0]
        _adam_rows(adam.step, lr, g, m, v, scratch, w_rows, w_rows)

    # batch_rows runs over a batch's rows and weight_rows over the rows of w.
    # Where neither splits at the largest batch, every step calls them on
    # whole arrays, which skips the hand-over's argument lists and slices:
    # at 5 x 16 these cost 5-8% of a 500-epoch probe.
    halves = split_row(m_max, d * c) or split_row(d, m_max * c)
    # the check after the last epoch reports an overflow; numpy's float
    # warnings on the way there add nothing
    with np.errstate(all="ignore"):
        for _ in range(epochs):
            if full is None:
                order = rng.permutation(n)
                batches = (
                    (x_train[idx], t_onehot[idx], pi_buf[: idx.size])
                    for idx in (order[s : s + batch_size] for s in range(0, n, batch_size))
                )
            else:
                batches = full
            for x, t, pi in batches:
                adam.step += 1
                if halves:
                    run_row_halves(batch_rows, d * c, x, t, pi)
                    run_row_halves(functools.partial(weight_rows, pi), pi.size, x.T, *w_like)
                else:
                    batch_rows(x, t, pi)
                    weight_rows(pi, x.T, *w_like)
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
    check_at_least("ipc", ipc, 1)
    check_every_class(real, real.class_count, "real set", ipc)
    rng = np.random.default_rng(seed)
    picked = [np.sort(rng.choice(idx, size=ipc, replace=False)) for idx in real.class_layout.rows]
    return _selection(real, np.concatenate(picked))


def select_centroid(real: Dataset, ipc: int) -> Dataset:
    """The ipc rows per class nearest the class mean, ties by index."""
    check_at_least("ipc", ipc, 1)
    check_every_class(real, real.class_count, "real set", ipc)
    picked = []
    for idx in real.class_layout.rows:
        x = real.inputs[idx]
        with np.errstate(all="ignore"):  # a mean that overflows holds inf
            d2 = _squared_distances(x, x.mean(axis=0))
        # stable sort: equidistant candidates resolve to the lower index
        picked.append(idx[np.argsort(d2, kind="stable")[:ipc]])
    return _selection(real, np.concatenate(picked))


def select_neighbor(real: Dataset, synthetic: Dataset) -> Dataset:
    """Per synthetic row, the nearest real row of its class, ties by index.

    Each picked row keeps its label from `real`. A synthetic set of another
    dim raises DimensionError.
    """
    check_fits(real, synthetic, "real set", "synthetic set")
    picked, rows = [], real.class_layout.rows
    for row, label in zip(synthetic.inputs, synthetic.labels):
        idx = rows[label]
        d2 = _squared_distances(real.inputs[idx], row)
        picked.append(idx[int(np.argmin(d2))])  # argmin returns first minimum
    return _selection(real, np.asarray(picked))


def encode_set(enc: Encoder, data: Dataset, source: str) -> Dataset:
    """`data` with its rows passed through the encoder. Features no Dataset
    can hold (an encoder that overflows) raise FeatureFileError naming
    `source`, the set's file or what it is, and the encoder kind."""
    try:
        with np.errstate(all="ignore"):  # the Dataset check reports what overflows
            feats = encode(enc, data.inputs)
        return Dataset(feats, data.labels, data.class_count)
    except FeatureFileError as e:
        e.args = (f"{source} encoded with encoder={enc.kind}: {e}",)
        raise


def check_methods(methods) -> list[str]:
    """The names in `methods`, in their order, with `mse` read as
    mse-ablation. A name not in METHOD_NAMES or named twice, no name at all,
    or neighbor without clpdd (it selects against the distilled set) raises
    ValueError."""
    names = []
    for name in methods:
        name = "mse-ablation" if name == "mse" else name
        if name not in METHOD_NAMES:
            raise ValueError(f"unknown compare method {name!r} (choose from {METHOD_NAMES})")
        if name in names:
            raise ValueError(f"compare_methods names {name!r} twice")
        names.append(name)
    if not names:
        raise ValueError("compare_methods is empty")
    if "neighbor" in names and "clpdd" not in names:
        raise ValueError(
            "the neighbor baseline selects against the just-distilled set; "
            "include clpdd in compare_methods"
        )
    return names


def compare_methods(cfg: DistillConfig, splits, methods, names):
    """Each method's probe accuracy per run, in three stages that each go
    over every run: distill (clpdd with cfg's objective, mse-ablation with
    mse), select and encode, probe. `methods` names some of clpdd, random,
    centroid, neighbor and mse-ablation, which `check_methods` checks before
    the first split is read; `mse` is mse-ablation. Run i takes the
    i-th (train, eval-or-None) of `splits`, read as the distill stage reaches
    it, and seed cfg.seed + i; each stream is keyed by its run's seed, so no
    draw moves. `names` name the train and eval splits in errors. A run
    that picks ipc real rows per class (from_real init, or random or
    centroid where it has an eval split) raises MissingClassError naming
    `ipc=` and its train split, before it distills, when a class has fewer.
    Returns ({method: accuracies}, the first run's clpdd curve and set, or
    [] and None); without an eval split nothing is encoded or probed."""
    methods = check_methods(methods)
    selects = not {"random", "centroid"}.isdisjoint(methods)
    runs, curve, first = [], [], None
    for i, (train, ev) in enumerate(splits):
        if cfg.init == "from_real" or (selects and ev is not None):
            check_every_class(train, train.class_count, f"ipc={cfg.ipc}: {names[0]}", cfg.ipc)
        run = replace(cfg, seed=cfg.seed + i)
        enc, sets = run.build_encoder(train.dim), {}
        if "clpdd" in methods:
            sets["clpdd"], steps = run_distill(run, train, ev, enc=enc)
            if i == 0:
                curve, first = steps, sets["clpdd"]
        if "mse-ablation" in methods:
            mse = replace(run, outer_objective="mse")
            sets["mse-ablation"], _ = run_distill(mse, train, ev, enc=enc)
        runs.append((run.seed, enc, train, ev, sets))
    # past every run's last step, each split and each set is encoded once; the
    # feature baselines pick rows of the encoded train split as they are
    encoded = []
    for seed, enc, train, ev, sets in runs:
        if ev is None:
            continue
        feats = {name: encode_set(enc, syn, f"the {name} set") for name, syn in sets.items()}
        if "random" in methods:
            picked = select_random(train, cfg.ipc, seed=stream_seed(seed, "select"))
            feats["random"] = encode_set(enc, picked, "the random set")
        if "centroid" in methods or "neighbor" in methods:
            real = encode_set(enc, train, names[0])
            if "centroid" in methods:
                feats["centroid"] = select_centroid(real, cfg.ipc)
            if "neighbor" in methods:
                feats["neighbor"] = select_neighbor(real, feats["clpdd"])
        encoded.append((seed, feats, encode_set(enc, ev, names[1])))
    accs = {}
    for seed, feats, ev in encoded:
        for name, f in feats.items():
            probe = train_linear_probe(f, ev, cfg.probe_epochs, cfg.probe_lr,
                                       cfg.probe_batch_size, stream_seed(seed, "probe"))
            accs.setdefault(name, []).append(probe.eval_acc)
    return accs, curve, first


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
