import numpy as np
import pytest

from clpdd.data import (
    BadMagicError,
    Dataset,
    FeatureFileError,
    LabelRangeError,
    MissingClassError,
    NonFiniteFeatureError,
    TruncatedFileError,
    VersionError,
    datasets_equal,
    gen_blobs,
    load_features,
    save_features,
)
from clpdd.evaluation import closed_form_probe

from oracles import class_rows


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
        res = closed_form_probe(
            train.inputs, train.onehot_labels(), 0.1, ev.inputs, ev.labels
        )
        assert res.eval_acc >= 0.99


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


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(LabelRangeError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), class_count=3)


def test_dataset_rejects_row_count_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), class_count=2)


def test_dataset_rejects_fewer_samples_than_classes():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 1]), class_count=3)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("suffix", [".clpf", ".csv"])
def test_load_rejects_non_finite_payload(tmp_path, bad, suffix):
    rng = np.random.default_rng(11)
    ds = _random_dataset(rng, n=8)
    inputs = ds.inputs.copy()
    inputs[3, 1] = bad
    inputs[6, 0] = bad
    path = tmp_path / f"nan{suffix}"
    save_features(Dataset(inputs, ds.labels, ds.class_count), path)
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
