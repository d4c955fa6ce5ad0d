"""Toy dataset generation and feature-file ingestion.

Gaussian blob tasks stand in for real feature distributions at desk scale;
feature rows exported from an external pipeline can be ingested through the
CLPF binary format (or its CSV fallback) and distilled with the identity
encoder.

CLPF layout, all little-endian:

    magic   4 bytes  b"CLPF"
    version u16      currently 1
    flags   u16      bit0 set -> float64 payload, clear -> float32
    n       u64      sample count
    dim     u64      feature dimension
    classes u32      class count
    labels  n * u32
    payload n * dim floats, row-major

float32 payloads are widened to float64 on load.
"""

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .objective import onehot

CLPF_MAGIC = b"CLPF"
CLPF_VERSION = 1
_FLAG_F64 = 0x0001
_HEADER = struct.Struct("<4sHHQQI")


class FeatureFileError(ValueError):
    """Base class for feature-file parse failures."""


class BadMagicError(FeatureFileError):
    pass


class VersionError(FeatureFileError):
    pass


class TruncatedFileError(FeatureFileError):
    pass


class LabelRangeError(FeatureFileError):
    pass


class NonFiniteFeatureError(FeatureFileError):
    """A feature payload holds NaN or Inf."""


class MissingClassError(FeatureFileError):
    """Some class id below the class count labels no row."""


@dataclass(frozen=True)
class Dataset:
    """A labelled set: inputs, integer labels, class count.

    Real splits, distilled sets and selected sets all take this form. Like
    every matrix in the package, inputs and labels are treated as immutable
    once the dataset is built; per-class row indices are derived from the
    labels once and reused.
    """

    inputs: np.ndarray  # n x dim float64
    labels: np.ndarray  # n int64
    class_count: int

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} inputs but {self.labels.shape[0]} labels"
            )
        if self.inputs.shape[0] < self.class_count:
            raise ValueError(
                f"{self.inputs.shape[0]} samples cannot cover {self.class_count} classes"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise LabelRangeError(
                f"labels must lie in [0, {self.class_count})"
            )

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def onehot_labels(self) -> np.ndarray:
        return onehot(self.labels, self.class_count)

    @cached_property
    def _rows_by_class(self) -> tuple[np.ndarray, ...]:
        # a stable sort keeps each class's rows in ascending order, exactly
        # as np.flatnonzero(labels == c) lists them
        order = np.argsort(self.labels, kind="stable")
        order.setflags(write=False)
        bounds = np.searchsorted(self.labels[order], np.arange(self.class_count + 1))
        return tuple(order[bounds[c] : bounds[c + 1]] for c in range(self.class_count))

    def class_indices(self, c: int) -> np.ndarray:
        """Ascending row indices of class c (read-only; empty outside [0, C))."""
        if 0 <= c < self.class_count:
            return self._rows_by_class[c]
        return np.empty(0, dtype=np.intp)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (
        a.class_count == b.class_count
        and a.inputs.shape == b.inputs.shape
        and np.array_equal(a.inputs, b.inputs)
        and np.array_equal(a.labels, b.labels)
    )


def gen_blobs(
    c: int,
    dim: int,
    n_per_class: int,
    center_scale: float,
    cluster_std: float,
    seed: int = 0,
    anisotropic: bool = False,
):
    """Gaussian blob classification task, split 80/20 per class into train/eval.

    Class centers are N(0, center_scale^2 * I); samples scatter around them
    with std cluster_std. With anisotropic=True each class instead gets its
    own random covariance (per-axis scales in [0.25, 1.75] * cluster_std mixed
    by a random rotation), which keeps centroid selection from being a
    near-oracle and makes the two outer objectives behave differently.
    """
    if min(c, dim, n_per_class) < 1:
        raise ValueError("c, dim and n_per_class must all be >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, dim)) * center_scale
    n_train = int(np.ceil(0.8 * n_per_class))
    train_x, train_y, eval_x, eval_y = [], [], [], []
    for ci in range(c):
        z = rng.standard_normal((n_per_class, dim))
        if anisotropic:
            scales = rng.uniform(0.25, 1.75, size=dim) * cluster_std
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            samples = centers[ci] + (z * scales) @ q.T
        else:
            samples = centers[ci] + z * cluster_std
        train_x.append(samples[:n_train])
        eval_x.append(samples[n_train:])
        train_y.append(np.full(n_train, ci, dtype=np.int64))
        eval_y.append(np.full(n_per_class - n_train, ci, dtype=np.int64))
    train = Dataset(np.vstack(train_x), np.concatenate(train_y), c)
    eval_ = Dataset(np.vstack(eval_x), np.concatenate(eval_y), c)
    return train, eval_


def save_features(dataset: Dataset, path, dtype: str = "f64"):
    """Write a dataset as CLPF (or CSV when the path ends in .csv)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _save_csv(dataset, path)
        return
    if dtype not in ("f32", "f64"):
        raise ValueError(f"dtype must be 'f32' or 'f64', got {dtype!r}")
    flags = _FLAG_F64 if dtype == "f64" else 0
    header = _HEADER.pack(
        CLPF_MAGIC, CLPF_VERSION, flags, dataset.n, dataset.dim, dataset.class_count
    )
    labels = dataset.labels.astype("<u4").tobytes()
    payload = dataset.inputs.astype("<f8" if dtype == "f64" else "<f4").tobytes()
    path.write_bytes(header + labels + payload)


def load_features(path) -> Dataset:
    """Read a CLPF file (or CSV when the path ends in .csv) back to a Dataset."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        if raw[:4] != CLPF_MAGIC:
            raise BadMagicError(f"{path}: not a CLPF file")
        raise TruncatedFileError(f"{path}: header truncated")
    magic, version, flags, n, dim, classes = _HEADER.unpack_from(raw)
    if magic != CLPF_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != CLPF_VERSION:
        raise VersionError(f"{path}: unsupported version {version}")
    f64 = bool(flags & _FLAG_F64)
    label_bytes = 4 * n
    payload_bytes = (8 if f64 else 4) * n * dim
    expected = _HEADER.size + label_bytes + payload_bytes
    if len(raw) < expected:
        raise TruncatedFileError(
            f"{path}: expected {expected} bytes, found {len(raw)}"
        )
    labels = np.frombuffer(raw, dtype="<u4", count=n, offset=_HEADER.size).astype(np.int64)
    payload = np.frombuffer(
        raw, dtype="<f8" if f64 else "<f4", count=n * dim, offset=_HEADER.size + label_bytes
    )
    inputs = payload.astype(np.float64).reshape(n, dim)
    if labels.size and labels.max() >= classes:
        raise LabelRangeError(
            f"{path}: label {labels.max()} out of range for {classes} classes"
        )
    if n < classes:
        raise MissingClassError(f"{path}: {n} rows cannot cover {classes} classes")
    _check_finite_rows(inputs, lambda i: f"{path}: row {i}")
    return Dataset(inputs=inputs, labels=labels, class_count=classes)


def _check_finite_rows(inputs: np.ndarray, where):
    """Reject NaN/Inf features at ingestion; `where(i)` locates row i in the file."""
    bad = np.flatnonzero(~np.isfinite(inputs).all(axis=1))
    if bad.size:
        raise NonFiniteFeatureError(
            f"{where(int(bad[0]))} holds non-finite features "
            f"({bad.size} bad row{'s' if bad.size > 1 else ''} in total)"
        )


def check_every_class(labels: np.ndarray, class_count: int, source) -> None:
    """Raise MissingClassError, naming `source` and the ids, when some class id
    below `class_count` labels no row."""
    missing = np.setdiff1d(np.arange(class_count), labels)
    if missing.size:
        raise MissingClassError(
            f"{source}: no rows for class ids {missing.tolist()} of {class_count} classes"
        )


def _save_csv(dataset: Dataset, path: Path):
    header = "label," + ",".join(f"f{j}" for j in range(dataset.dim))
    lines = [header]
    for i in range(dataset.n):
        row = ",".join(repr(float(v)) for v in dataset.inputs[i])
        lines.append(f"{dataset.labels[i]},{row}")
    path.write_text("\n".join(lines) + "\n")


def _load_csv(path: Path) -> Dataset:
    lines = path.read_text().strip().splitlines()
    if not lines or not lines[0].startswith("label,"):
        raise BadMagicError(f"{path}: expected 'label,f0,...' CSV header")
    dim = len(lines[0].split(",")) - 1
    labels, rows = [], []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise TruncatedFileError(f"{path}:{ln}: expected {dim + 1} fields")
        labels.append(int(parts[0]))
        rows.append([float(v) for v in parts[1:]])
    labels = np.asarray(labels, dtype=np.int64)
    inputs = np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)
    if labels.size and labels.min() < 0:
        raise LabelRangeError(f"{path}: negative label")
    _check_finite_rows(inputs, lambda i: f"{path}:{i + 2}: row {i}")
    classes = int(labels.max()) + 1 if labels.size else 0
    check_every_class(labels, classes, f"{path} (class count inferred as max label + 1)")
    return Dataset(inputs=inputs, labels=labels, class_count=classes)
