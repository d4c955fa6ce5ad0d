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

import numbers
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .linalg import DimensionError, check_at_least

CLPF_MAGIC = b"CLPF"
CLPF_VERSION = 1
_FLAG_F64 = 0x0001
_HEADER = struct.Struct("<4sHHQQI")


class FeatureFileError(ValueError):
    """Base class for a feature file, or a labelled set, that no Dataset can hold."""


class BadMagicError(FeatureFileError):
    pass


class VersionError(FeatureFileError):
    pass


class TruncatedFileError(FeatureFileError):
    pass


class LabelRangeError(FeatureFileError):
    pass


class ShapeError(FeatureFileError):
    """Inputs not n x dim with dim >= 1, labels not n long, a class count
    that is not an integer, or no classes."""


class NonFiniteFeatureError(FeatureFileError):
    """A feature payload holds NaN or Inf; `row` is the first such row."""

    def __init__(self, row: int, count: int):
        self.row = row
        super().__init__(
            f"row {row} holds non-finite features "
            f"({count} bad row{'s' if count > 1 else ''} in total)"
        )


class DtypeError(FeatureFileError):
    """Inputs of neither an integer nor a floating dtype, or labels not of an
    integer dtype."""


class MissingClassError(FeatureFileError):
    """Fewer rows than classes, or a class with fewer rows than a caller needs
    (by default, a class id below the class count that labels no row)."""


def _check_label_range(labels: np.ndarray, class_count: int):
    # a negative id would index from the end instead of failing
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise LabelRangeError(
            f"labels must lie in [0, {class_count}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )


def onehot(labels: np.ndarray, class_count: int) -> np.ndarray:
    labels = np.asarray(labels)
    _check_label_range(labels, class_count)
    t = np.zeros((labels.shape[0], class_count))
    t[np.arange(labels.shape[0]), labels] = 1.0
    return t


class ClassLayout(NamedTuple):
    """A dataset's rows grouped by class, in class-major order.

    `order[starts[c] : starts[c] + counts[c]]` are class c's rows, ascending;
    `rows[c]` is that slice, made once. Every array is read-only.
    """

    order: np.ndarray  # n row indices, class-major
    starts: np.ndarray  # C offsets into order
    counts: np.ndarray  # C row counts
    rows: tuple[np.ndarray, ...]  # C read-only views into order


@dataclass(frozen=True)
class Dataset:
    """A labelled set: inputs, integer labels, class count.

    Real splits, distilled and selected sets all take this form, and only
    it decides what a labelled set is: finite n x dim inputs with dim >= 1,
    n labels in [0, class_count), an integer (not bool) class_count >= 1 and
    n >= class_count (a class may have no rows). Inputs of an integer or
    floating dtype are widened to float64 once (float64 ones are kept as
    they are); labels have an integer dtype. Building a set that breaks
    this, which scans its inputs once, raises a FeatureFileError subclass.
    Inputs and labels are then treated as immutable; the class layout is
    derived once and reused.
    """

    inputs: np.ndarray  # n x dim float64
    labels: np.ndarray  # n int64
    class_count: int

    def __post_init__(self):
        x, y = self.inputs, self.labels
        if x.ndim != 2 or y.shape != x.shape[:1]:
            raise ShapeError(f"inputs must be n x dim and labels n long, got {x.shape}, {y.shape}")
        if x.dtype.kind not in "iuf":  # bool, complex, object, ...
            raise DtypeError(f"inputs must be integer or floating, got dtype {x.dtype}")
        if y.dtype.kind not in "iu":
            raise DtypeError(f"labels must be integer, got dtype {y.dtype}")
        x = x.astype(np.float64, copy=False)
        object.__setattr__(self, "inputs", x)
        _check_shape(self.dim, self.class_count)
        # scanned before the row count, so a file with both faults reports the NaN
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
        if bad.size:
            raise NonFiniteFeatureError(int(bad[0]), bad.size)
        if self.n < self.class_count:
            raise MissingClassError(f"{self.n} rows cannot cover {self.class_count} classes")
        _check_label_range(self.labels, self.class_count)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def onehot_labels(self) -> np.ndarray:
        return onehot(self.labels, self.class_count)

    @cached_property
    def class_layout(self) -> ClassLayout:
        # a stable sort keeps each class's rows in ascending order, exactly
        # as np.flatnonzero(labels == c) lists them
        order = np.argsort(self.labels, kind="stable")
        bounds = np.searchsorted(self.labels[order], np.arange(self.class_count + 1))
        starts, counts = bounds[:-1], np.diff(bounds)
        for a in (order, starts, counts):
            a.setflags(write=False)
        rows = tuple(order[bounds[c] : bounds[c + 1]] for c in range(self.class_count))
        return ClassLayout(order, starts, counts, rows)


def _check_shape(dim: int, class_count: int, where: str = ""):
    """The dim and class-count half of the Dataset rule; `where` leads the message."""
    if dim == 0:
        raise ShapeError(f"{where}rows have no features (dim 0)")
    if isinstance(class_count, bool) or not isinstance(class_count, numbers.Integral):
        raise ShapeError(f"{where}class count must be an integer, got {class_count!r}")
    if class_count < 1:
        raise ShapeError(f"{where}no classes (class count {class_count})")


def _file_dataset(path, inputs, labels, class_count: int, first_line: int | None = None):
    """The Dataset of rows read from `path`; its error names the file and,
    where row i sits on line i + first_line, a non-finite row's line."""
    try:
        return Dataset(inputs, labels, class_count)
    except FeatureFileError as e:
        row = getattr(e, "row", None)
        line = "" if first_line is None or row is None else f":{row + first_line}"
        e.args = (f"{path}{line}: {e}",)
        raise


# the fewest rows per class whose 80/20 split, ceil(0.8 n) train rows, leaves
# an eval row: n - ceil(0.8 n) is 0 for n = 1..4 and floor(0.2 n) >= 1 from 5
BLOB_MIN_PER_CLASS = 5


def check_blob_sizes(c, dim, n_per_class, seed,
                     names=("c", "dim", "n_per_class", "seed")) -> None:
    """Raise ValueError unless `gen_blobs` can split these sizes: class count
    and dim integers >= 1, an integer count of at least BLOB_MIN_PER_CLASS
    rows per class, and an integer seed >= 0. `names` are the four values'
    names in the message."""
    check_at_least(names[0], c, 1)
    check_at_least(names[1], dim, 1)
    # the integer rule alone: a count below the floor gets the 80/20 message
    check_at_least(names[2], n_per_class, min(n_per_class, BLOB_MIN_PER_CLASS))
    if n_per_class < BLOB_MIN_PER_CLASS:
        raise ValueError(
            f"{names[2]} must be >= {BLOB_MIN_PER_CLASS} so the 80/20 split leaves each "
            f"class an eval row, got {n_per_class}"
        )
    check_at_least(names[3], seed, 0)


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
    check_blob_sizes(c, dim, n_per_class, seed)
    n_train = int(np.ceil(0.8 * n_per_class))
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, dim)) * center_scale
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
    """Write a dataset as CLPF (or CSV when the path ends in .csv). With an
    f32 payload, a row holding a feature beyond the float32 range, which
    would load back as Inf, raises FeatureFileError and nothing is written."""
    if dtype not in ("f32", "f64"):
        raise ValueError(f"dtype must be 'f32' or 'f64', got {dtype!r}")
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _save_csv(dataset, path)
        return
    flags = _FLAG_F64 if dtype == "f64" else 0
    header = _HEADER.pack(
        CLPF_MAGIC, CLPF_VERSION, flags, dataset.n, dataset.dim, dataset.class_count
    )
    labels = dataset.labels.astype("<u4").tobytes()
    with np.errstate(over="ignore"):  # an overflow is reported by row below
        payload = dataset.inputs.astype("<f8" if dtype == "f64" else "<f4")
    if dtype == "f32":
        bad = np.flatnonzero(~np.isfinite(payload).all(axis=1))
        if bad.size:
            raise FeatureFileError(
                f"{path}: row {bad[0]} holds a feature beyond the float32 range; "
                "save it with dtype='f64'"
            )
    path.write_bytes(header + labels + payload.tobytes())


def load_features(path) -> Dataset:
    """Read a CLPF file (or CSV when the path ends in .csv) back to a Dataset."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    with path.open("rb") as f:
        f64, n, dim, classes = _read_header(f, path)
        labels = np.frombuffer(f.read(4 * n), dtype="<u4").astype(np.int64)
        # read straight into the array: an f64 payload is never copied, and
        # the Dataset widens an f32 one once
        payload = np.empty((n, dim), dtype="<f8" if f64 else "<f4")
        if f.readinto(payload) != payload.nbytes:
            raise TruncatedFileError(f"{path}: payload ends early")
    return _file_dataset(path, payload, labels, classes)


def feature_shape(path) -> tuple[int, int]:
    """(dim, class_count) of a feature file: a CLPF file's header alone, or a
    CSV file loaded whole (its class count comes from its labels)."""
    if Path(path).suffix.lower() == ".csv":
        dataset = _load_csv(Path(path))
        return dataset.dim, dataset.class_count
    with open(path, "rb") as f:
        return _read_header(f, path)[2:]


def _read_header(f, path) -> tuple[bool, int, int, int]:
    """(f64 payload, n, dim, class count) of the open CLPF file `f`, checked
    against the file's size, the Dataset rule's dim and class-count half and
    a nonzero row count; `f` is left at the start of the labels."""
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size:
        if head[:4] != CLPF_MAGIC:
            raise BadMagicError(f"{path}: not a CLPF file")
        raise TruncatedFileError(f"{path}: header truncated")
    magic, version, flags, n, dim, classes = _HEADER.unpack(head)
    if magic != CLPF_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != CLPF_VERSION:
        raise VersionError(f"{path}: unsupported version {version}")
    _check_shape(dim, classes, f"{path}: ")
    # a Dataset has at least one row; without rows, no payload size bounds the dim
    if n == 0:
        raise MissingClassError(f"{path}: 0 rows cannot cover {classes} classes")
    f64 = bool(flags & _FLAG_F64)
    expected = _HEADER.size + 4 * n + (8 if f64 else 4) * n * dim
    size = os.fstat(f.fileno()).st_size
    if size < expected:
        raise TruncatedFileError(f"{path}: expected {expected} bytes, found {size}")
    return f64, n, dim, classes


def check_every_class(data: Dataset, class_count: int, source, rows: int = 1) -> None:
    """Raise MissingClassError, naming `source` and the ids, when a class id below
    `class_count` has fewer than `rows` rows in `data` (none past its own count)."""
    counts = data.class_layout.counts[:class_count]
    short = np.flatnonzero(np.pad(counts, (0, class_count - counts.size)) < rows)
    if short.size:
        what = "no rows" if rows == 1 else f"fewer than {rows} rows"
        raise MissingClassError(
            f"{source}: {what} for class ids {short.tolist()} of {class_count} classes"
        )


def check_fits(base: Dataset, other: Dataset, base_name, other_name) -> None:
    """Raise unless a probe of `base` can score `other`: DimensionError for
    another dim, MissingClassError for a class either counts that `base` lacks."""
    if other.dim != base.dim:
        raise DimensionError(f"{other_name} is {other.dim}-dim, {base_name} {base.dim}-dim")
    check_every_class(base, max(base.class_count, other.class_count), base_name)


def _save_csv(dataset: Dataset, path: Path):
    header = "label," + ",".join(f"f{j}" for j in range(dataset.dim))
    lines = [header]
    for i in range(dataset.n):
        row = ",".join(repr(float(v)) for v in dataset.inputs[i])
        lines.append(f"{dataset.labels[i]},{row}")
    path.write_text("\n".join(lines) + "\n")


def _load_csv(path: Path) -> Dataset:
    try:
        lines = path.read_text().strip().splitlines()
    except UnicodeDecodeError as e:
        raise FeatureFileError(f"{path}: not UTF-8 text (byte {e.start})") from e
    if not lines or not lines[0].startswith("label,"):
        raise BadMagicError(f"{path}: expected 'label,f0,...' CSV header")
    dim = len(lines[0].split(",")) - 1
    labels, rows = [], []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise TruncatedFileError(f"{path}:{ln}: expected {dim + 1} fields")
        try:
            labels.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise FeatureFileError(f"{path}:{ln}: expected an integer label, then numbers")
    try:
        labels = np.asarray(labels, dtype=np.int64)
    except OverflowError:
        raise LabelRangeError(f"{path}: a label does not fit in 64 bits") from None
    inputs = np.asarray(rows, dtype=np.float64).reshape(len(rows), dim)
    # labels that are all negative still count one class, and fail its label range
    classes = int(labels.max(initial=0)) + 1 if labels.size else 0
    dataset = _file_dataset(path, inputs, labels, classes, first_line=2)
    check_every_class(dataset, classes, f"{path} (class count inferred as max label + 1)")
    return dataset
