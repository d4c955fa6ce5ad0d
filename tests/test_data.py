import numpy as np
import pytest

from clpdd.data import (
    BadMagicError,
    Dataset,
    DtypeError,
    FeatureFileError,
    LabelRangeError,
    MissingClassError,
    NonFiniteFeatureError,
    ShapeError,
    TruncatedFileError,
    VersionError,
    check_every_class,
    feature_shape,
    gen_blobs,
    load_features,
    onehot,
    save_features,
)
from clpdd.distill import DistillConfig, run_distill
from clpdd.evaluation import _accuracy
from clpdd.solver import ridge_kernel

from oracles import class_rows, datasets_equal, write_clpf


def test_blobs_zero_variance_collapses_to_centers():
    train, ev = gen_blobs(2, 2, 10, center_scale=1.0, cluster_std=0.0, seed=0)
    for ds in (train, ev):
        for c in range(2):
            rows = ds.inputs[ds.labels == c]
            assert np.all(rows == rows[0])
    # train and eval share the same centers
    assert np.array_equal(train.inputs[train.labels == 0][0], ev.inputs[ev.labels == 0][0])


def test_blobs_split_arithmetic():
    train, ev = gen_blobs(2, 3, 10, 1.0, 1.0, seed=1)
    assert train.n == int(np.ceil(0.8 * 2 * 10))
    assert ev.n == 2 * 10 - train.n


def test_blobs_separable_probe_accuracy():
    for seed in range(5):
        train, ev = gen_blobs(3, 8, 50, center_scale=10.0, cluster_std=1.0, seed=seed)
        w_ridge = ridge_kernel(train.inputs, train.onehot_labels(), 0.1).w_star
        assert _accuracy(ev.inputs @ w_ridge, ev.labels) >= 0.99


def test_blobs_deterministic():
    a, _ = gen_blobs(3, 4, 20, 1.0, 0.5, seed=9, anisotropic=True)
    b, _ = gen_blobs(3, 4, 20, 1.0, 0.5, seed=9, anisotropic=True)
    assert datasets_equal(a, b)


def test_blobs_anisotropic_changes_geometry():
    iso, _ = gen_blobs(2, 6, 50, 1.0, 1.0, seed=3, anisotropic=False)
    aniso, _ = gen_blobs(2, 6, 50, 1.0, 1.0, seed=3, anisotropic=True)
    assert not np.array_equal(iso.inputs, aniso.inputs)


def _random_dataset(rng, n=7, dim=3, classes=4):
    return Dataset(
        inputs=rng.standard_normal((n, dim)),
        labels=rng.integers(0, classes, size=n).astype(np.int64),
        class_count=classes,
    )


def test_clpf_round_trip_f64(tmp_path):
    rng = np.random.default_rng(0)
    ds = _random_dataset(rng)
    path = tmp_path / "x.clpf"
    save_features(ds, path, dtype="f64")
    assert datasets_equal(load_features(path), ds)


def test_clpf_round_trip_keeps_classes_without_rows(tmp_path):
    # only a train split must cover every class; the file format itself does not
    ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 2, 2, 0]), class_count=4)
    path = tmp_path / "gap.clpf"
    save_features(ds, path)
    loaded = load_features(path)
    assert datasets_equal(loaded, ds)
    assert loaded.class_indices(1).size == 0 and loaded.class_indices(3).size == 0


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_save_features_writes_the_documented_clpf_layout(tmp_path, dtype):
    ds = _random_dataset(np.random.default_rng(12))
    save_features(ds, tmp_path / "lib.clpf", dtype=dtype)
    write_clpf(tmp_path / "doc.clpf", ds.inputs, ds.labels, ds.class_count, dtype=dtype)
    assert (tmp_path / "lib.clpf").read_bytes() == (tmp_path / "doc.clpf").read_bytes()


@pytest.mark.parametrize(
    "shape, message",
    [((0, 3), "no classes (class count 0)"), ((2, 0), "rows have no features (dim 0)")],
    ids=["no-rows", "no-features"],
)
@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_clpf_round_trip_with_an_empty_payload(tmp_path, shape, message, dtype):
    # a file with no rows (so no classes) or no features holds no Dataset;
    # its header alone is rejected, also where only the header is read
    path = tmp_path / "empty.clpf"
    write_clpf(path, np.zeros(shape), np.arange(shape[0]), shape[0], dtype=dtype)
    for read in (load_features, feature_shape):
        with pytest.raises(ShapeError) as ei:
            read(path)
        assert str(ei.value) == f"{path}: {message}"


@pytest.mark.parametrize("dim", [4, 2**62, 2**64 - 1])
def test_clpf_header_without_rows_is_rejected_before_its_dim_is_used(tmp_path, dim):
    # no payload size bounds the dim of a file without rows, and no array has
    # 2**62 columns
    path = tmp_path / "zero.clpf"
    write_clpf(path, np.zeros((0, 4)), [], 3)
    raw = bytearray(path.read_bytes())
    raw[16:24] = dim.to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    for read in (load_features, feature_shape):
        with pytest.raises(MissingClassError) as ei:
            read(path)
        assert str(ei.value) == f"{path}: 0 rows cannot cover 3 classes"


def test_csv_label_past_64_bits_is_a_label_range_error(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("label,f0\n0,0.5\n99999999999999999999,1.5\n")
    with pytest.raises(LabelRangeError, match=r"big\.csv: a label does not fit in 64 bits"):
        load_features(path)


def test_clpf_round_trip_f32_widens(tmp_path):
    rng = np.random.default_rng(1)
    ds = _random_dataset(rng)
    path = tmp_path / "x.clpf"
    save_features(ds, path, dtype="f32")
    loaded = load_features(path)
    assert loaded.inputs.dtype == np.float64
    assert np.array_equal(loaded.inputs, ds.inputs.astype(np.float32).astype(np.float64))
    assert np.array_equal(loaded.labels, ds.labels)


def test_clpf_bad_magic(tmp_path):
    path = tmp_path / "bad.clpf"
    rng = np.random.default_rng(2)
    save_features(_random_dataset(rng), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_features(path)


def test_clpf_version_mismatch(tmp_path):
    path = tmp_path / "v.clpf"
    rng = np.random.default_rng(3)
    save_features(_random_dataset(rng), path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        load_features(path)


def test_clpf_truncation(tmp_path):
    path = tmp_path / "t.clpf"
    rng = np.random.default_rng(4)
    save_features(_random_dataset(rng), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(TruncatedFileError):
        load_features(path)
    path.write_bytes(raw[:10])  # inside the header
    with pytest.raises(TruncatedFileError):
        load_features(path)


@pytest.mark.parametrize("name", ["s.clpf", "s.csv"])
def test_feature_shape_matches_the_loaded_file(tmp_path, name):
    ds = Dataset(np.random.default_rng(6).standard_normal((7, 3)), np.arange(7) % 4, 4)
    save_features(ds, tmp_path / name)
    loaded = load_features(tmp_path / name)
    assert feature_shape(tmp_path / name) == (loaded.dim, loaded.class_count) == (ds.dim, 4)


def test_feature_shape_checks_the_clpf_header(tmp_path):
    path = tmp_path / "h.clpf"
    save_features(_random_dataset(np.random.default_rng(7)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(TruncatedFileError):
        feature_shape(path)
    path.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(BadMagicError):
        feature_shape(path)


def test_clpf_label_out_of_range(tmp_path):
    path = tmp_path / "l.clpf"
    rng = np.random.default_rng(5)
    ds = _random_dataset(rng, classes=4)
    save_features(ds, path)
    raw = bytearray(path.read_bytes())
    # first label lives right after the 28-byte header
    raw[28:32] = (7).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(LabelRangeError):
        load_features(path)


def test_csv_fallback_matches_binary(tmp_path):
    rng = np.random.default_rng(6)
    ds = _random_dataset(rng)
    bin_path = tmp_path / "x.clpf"
    csv_path = tmp_path / "x.csv"
    save_features(ds, bin_path, dtype="f64")
    save_features(ds, csv_path)
    assert csv_path.read_text().splitlines()[0] == "label," + ",".join(
        f"f{j}" for j in range(ds.dim)
    )
    assert datasets_equal(load_features(csv_path), load_features(bin_path))


def test_csv_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("not,a,header\n1,2,3\n")
    with pytest.raises(BadMagicError):
        load_features(p)


def test_onehot_rejects_out_of_range():
    with pytest.raises(ValueError):
        onehot(np.array([0, 3]), 3)


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(LabelRangeError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), class_count=3)


def test_dataset_rejects_row_count_mismatch():
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), class_count=2)


def test_dataset_rejects_fewer_samples_than_classes():
    with pytest.raises(MissingClassError, match=r"^2 rows cannot cover 3 classes$"):
        Dataset(np.zeros((2, 2)), np.array([0, 1]), class_count=3)


@pytest.mark.parametrize(
    "inputs, labels",
    [(np.zeros(4), np.arange(4) % 2), (np.zeros((4, 2, 1)), np.arange(4) % 2),
     (np.zeros((4, 2)), np.zeros((4, 1), dtype=np.int64))],
    ids=["1-d-inputs", "3-d-inputs", "2-d-labels"],
)
def test_dataset_rejects_inputs_that_are_not_rows(inputs, labels):
    with pytest.raises(ShapeError, match=r"^inputs must be n x dim and labels n long"):
        Dataset(inputs, labels, class_count=2)


def test_dataset_widens_integer_inputs_so_from_real_init_distills():
    train, _ = gen_blobs(3, 4, 20, center_scale=3.0, cluster_std=0.5, seed=0)
    ints = Dataset(np.rint(train.inputs).astype(np.int64), train.labels, 3)
    assert ints.inputs.dtype == np.float64
    syn, curve = run_distill(DistillConfig(iterations=3, init="from_real"), ints)
    assert syn.inputs.dtype == np.float64 and len(curve) == 3


def test_dataset_holds_float32_inputs_as_float64():
    x = np.linspace(-1, 1, 8, dtype=np.float32).reshape(4, 2)
    ds = Dataset(x, np.array([0, 1, 0, 1]), 2)
    assert ds.inputs.dtype == np.float64 and np.array_equal(ds.inputs, x.astype(np.float64))


@pytest.mark.parametrize(
    "labels, dtype",
    [(np.array([0, 0.5, 1]), "float64"), (np.array([False, True, True]), "bool")],
    ids=["float-labels", "bool-labels"],
)
def test_dataset_rejects_labels_that_are_not_integers(labels, dtype):
    with pytest.raises(DtypeError, match=rf"^labels must be integer, got dtype {dtype}$"):
        Dataset(np.zeros((3, 2)), labels, class_count=2)


@pytest.mark.parametrize("dtype", [complex, bool, object])
def test_dataset_rejects_inputs_that_are_not_real_numbers(dtype):
    inputs = np.zeros((3, 2), dtype=dtype)
    with pytest.raises(DtypeError, match=r"^inputs must be integer or floating, got dtype "):
        Dataset(inputs, np.array([0, 1, 0]), class_count=2)


def test_class_indices_cached_and_equal_to_flatnonzero():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 5, size=60).astype(np.int64)
    labels[:5] = np.arange(5)
    ds = Dataset(rng.standard_normal((60, 2)), labels, class_count=6)  # class 5 empty
    for c in range(6):
        idx = ds.class_indices(c)
        assert idx.dtype == class_rows(labels, c).dtype
        assert np.array_equal(idx, class_rows(labels, c))
        assert ds.class_indices(c) is idx  # computed once per dataset
        assert not idx.flags.writeable
    assert ds.class_indices(5).size == 0
    assert ds.class_indices(-1).size == 0 and ds.class_indices(6).size == 0


def test_class_layout_is_class_major_and_counts_rows():
    labels = np.array([2, 0, 2, 1, 0, 2, 0])
    ds = Dataset(np.zeros((7, 1)), labels, class_count=4)  # class 3 empty
    layout = ds.class_layout
    assert layout.order.tolist() == [1, 4, 6, 3, 0, 2, 5]
    assert layout.starts.tolist() == [0, 3, 4, 7] and layout.counts.tolist() == [3, 1, 3, 0]
    for c in range(4):
        assert np.shares_memory(ds.class_indices(c), layout.order) or layout.counts[c] == 0
    assert ds.class_layout is layout


def test_check_every_class_reads_a_dataset_like_its_labels():
    ds = Dataset(np.zeros((6, 1)), np.array([0, 2, 2, 4, 0, 4]), class_count=6)
    messages = []
    for rows in (ds, ds.labels):
        with pytest.raises(MissingClassError) as ei:
            check_every_class(rows, 6, "src")
        messages.append(str(ei.value))
    assert messages[0] == messages[1] == "src: no rows for class ids [1, 3, 5] of 6 classes"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("suffix", [".clpf", ".csv"])
def test_load_rejects_non_finite_payload(tmp_path, bad, suffix):
    rng = np.random.default_rng(11)
    ds = _random_dataset(rng, n=8)
    inputs = ds.inputs.copy()
    inputs[3, 1] = bad
    inputs[6, 0] = bad
    path = tmp_path / f"nan{suffix}"
    if suffix == ".clpf":
        write_clpf(path, inputs, ds.labels, ds.class_count)
    else:
        rows = [f"{y}," + ",".join(map(repr, map(float, x))) for x, y in zip(inputs, ds.labels)]
        path.write_text("label,f0,f1,f2\n" + "\n".join(rows) + "\n")
    with pytest.raises(NonFiniteFeatureError) as ei:
        load_features(path)
    assert isinstance(ei.value, FeatureFileError)
    msg = str(ei.value)
    assert str(path) in msg and "row 3" in msg and "2 bad rows" in msg
    if suffix == ".csv":
        assert f"{path}:5:" in msg  # header is line 1, row 3 is line 5


def test_csv_label_gap_names_missing_classes(tmp_path):
    p = tmp_path / "gap.csv"
    p.write_text("label,f0\n0,0.5\n2,1.5\n4,2.0\n0,0.1\n4,0.3\n")
    with pytest.raises(MissingClassError) as ei:
        load_features(p)
    assert isinstance(ei.value, FeatureFileError)
    assert "[1, 3]" in str(ei.value) and str(p) in str(ei.value)


@pytest.mark.parametrize("body", ["0,0.5\n2,nan\n4,2.0\n0,0.1\n4,0.3\n", "0,0.5\n9,nan\n"])
def test_csv_reports_a_nan_row_before_a_label_gap(tmp_path, body):
    # the second file has too few rows to cover its inferred class count
    p = tmp_path / "both.csv"
    p.write_text("label,f0\n" + body)
    with pytest.raises(NonFiniteFeatureError, match=r"both\.csv:3: row 1 holds non-finite"):
        load_features(p)


@pytest.mark.parametrize(
    "row", ["x,0.5,1.0", "1.5,0.5,1.0", "1,abc,1.0"], ids=["label-x", "label-1.5", "feature-abc"]
)
def test_csv_rejects_a_value_that_is_not_a_number(tmp_path, row):
    p = tmp_path / "text.csv"
    p.write_text(f"label,f0,f1\n0,0.1,0.2\n{row}\n1,0.3,0.4\n")
    with pytest.raises(FeatureFileError) as ei:
        load_features(p)
    assert str(ei.value) == f"{p}:3: expected an integer label, then numbers"



@pytest.mark.parametrize("labels", ["0,-1,1", "-3,-3"], ids=["one-negative", "all-negative"])
def test_csv_rejects_a_negative_label(tmp_path, labels):
    p = tmp_path / "neg.csv"
    p.write_text("label,f0\n" + "".join(f"{y},0.5\n" for y in labels.split(",")))
    with pytest.raises(LabelRangeError, match=r"neg\.csv: labels must lie in \[0, "):
        load_features(p)
