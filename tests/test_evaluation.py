import numpy as np
import pytest

import clpdd.evaluation
from clpdd.data import Dataset, MissingClassError, gen_blobs
from clpdd.evaluation import (
    _accuracy,
    pca_project_2d,
    select_centroid,
    select_neighbor,
    select_random,
    train_linear_probe,
)
from clpdd.linalg import DimensionError
from clpdd.objective import class_anchor_loss_and_grad
from clpdd.solver import ridge_kernel

from oracles import softmax_probe_ref


def test_probe_zero_epochs_is_chance_level():
    rng = np.random.default_rng(0)
    c, n = 4, 1000
    train = Dataset(rng.standard_normal((40, 6)), np.arange(40) % c, c)
    # balanced labels, independent of features
    ev = Dataset(rng.standard_normal((n, 6)), np.arange(n) % c, c)
    res = train_linear_probe(train, ev, epochs=0, seed=1)
    p = 1.0 / c
    assert abs(res.eval_acc - p) <= 3.0 * np.sqrt(p * (1 - p) / n)


def test_probe_separable_blobs_perfect_train():
    for seed in range(5):
        train, ev = gen_blobs(3, 6, 30, center_scale=10.0, cluster_std=1.0, seed=seed)
        res = train_linear_probe(train, ev, epochs=200, seed=seed)
        assert _accuracy(train.inputs @ res.w, train.labels) == 1.0


def test_probe_deterministic():
    train, ev = gen_blobs(3, 5, 20, 1.0, 1.0, seed=0)
    a = train_linear_probe(train, ev, epochs=30, seed=5)
    b = train_linear_probe(train, ev, epochs=30, seed=5)
    assert np.array_equal(a.w, b.w)


def test_probe_rejects_train_labels_missing_a_class():
    # a 3-class training set scored on a 5-class eval split: classes 3 and 4
    # could never be predicted, so the accuracy would mean nothing
    train, _ = gen_blobs(3, 5, 20, 1.0, 1.0, seed=0)
    _, ev = gen_blobs(5, 5, 20, 1.0, 1.0, seed=1)
    with pytest.raises(MissingClassError, match=r"probe training labels: .*\[3, 4\] of 5"):
        train_linear_probe(train, ev, epochs=5)


def test_probe_rejects_a_class_with_no_training_rows():
    train = Dataset(np.eye(4), np.array([0, 2, 0, 2]), class_count=3)
    _, ev = gen_blobs(3, 4, 10, 1.0, 1.0, seed=0)
    with pytest.raises(MissingClassError, match=r"probe training labels: .*\[1\] of 3"):
        train_linear_probe(train, ev, epochs=5)


def test_probe_takes_class_count_from_train():
    # an eval split that lacks the top class still leaves it a column of w
    train, ev = gen_blobs(3, 5, 20, 1.0, 1.0, seed=0)
    ev2 = Dataset(ev.inputs[ev.labels < 2], ev.labels[ev.labels < 2], class_count=2)
    assert train_linear_probe(train, ev2, epochs=5).w.shape == (5, 3)


def test_probe_rejects_feature_dims_that_differ():
    train, _ = gen_blobs(3, 5, 20, 1.0, 1.0, seed=0)
    _, ev = gen_blobs(3, 4, 20, 1.0, 1.0, seed=0)
    with pytest.raises(DimensionError, match="train 5, eval 4"):
        train_linear_probe(train, ev, epochs=5)


@pytest.mark.parametrize("batch_size", [256, 16])  # one full batch; shuffled mini-batches
def test_probe_matches_reference_bitwise(batch_size):
    train, ev = gen_blobs(3, 5, 20, 1.0, 1.0, seed=4)
    res = train_linear_probe(train, ev, epochs=25, batch_size=batch_size, seed=2)
    ref = softmax_probe_ref(train.inputs, train.labels, 3, 25, 0.01, batch_size, seed=2)
    assert np.array_equal(res.w, ref)


@pytest.mark.parametrize("center_scale,cluster_std", [(2.0, 0.5), (10.0, 1.0)])
def test_evaluator_agreement_on_blobs(center_scale, cluster_std):
    # the ridge solution and a 500-epoch trained probe agree within 2 accuracy points
    for seed in range(5):
        train, ev = gen_blobs(3, 8, 200, center_scale, cluster_std, seed=seed)
        w_ridge = ridge_kernel(train.inputs, train.onehot_labels(), 0.1).w_star
        tp = train_linear_probe(train, ev, epochs=500, seed=seed)
        assert abs(_accuracy(ev.inputs @ w_ridge, ev.labels) - tp.eval_acc) <= 0.02


def _dataset():
    train, _ = gen_blobs(4, 5, 25, 1.0, 1.0, seed=3)
    return train


def test_select_random_counts_and_membership():
    ds = _dataset()
    sel = select_random(ds, 2, seed=0)
    assert sel.inputs.shape == (8, 5)
    for i, lbl in enumerate(sel.labels):
        cls_rows = ds.inputs[ds.labels == lbl]
        assert any(np.array_equal(sel.inputs[i], r) for r in cls_rows)


def test_select_random_deterministic():
    ds = _dataset()
    a = select_random(ds, 1, seed=4)
    b = select_random(ds, 1, seed=4)
    assert np.array_equal(a.inputs, b.inputs)


def test_select_random_class_too_small():
    ds = _dataset()
    with pytest.raises(ValueError):
        select_random(ds, 1000, seed=0)


def test_select_centroid_one_dimensional():
    ds = Dataset(
        inputs=np.array([[0.0], [1.0], [2.0]]),
        labels=np.array([0, 0, 0]),
        class_count=1,
    )
    sel = select_centroid(ds, 1)
    assert sel.inputs[0, 0] == 1.0


def test_select_centroid_tie_breaks_low_index():
    ds = Dataset(
        inputs=np.array([[1.0], [-1.0], [0.0]]),  # mean 0: rows 0 and 1 equidistant
        labels=np.array([0, 0, 0]),
        class_count=1,
    )
    sel = select_centroid(ds, 1)
    assert sel.inputs[0, 0] == 0.0
    sel2 = select_centroid(ds, 2)
    assert sel2.inputs[:, 0].tolist() == [0.0, 1.0]


def test_select_centroid_matches_brute_force():
    ds = _dataset()
    feats = ds.inputs
    sel = select_centroid(ds, 1)
    for c in range(ds.class_count):
        idx = np.flatnonzero(ds.labels == c)
        mean = feats[idx].mean(axis=0)
        best = min(idx, key=lambda i: (np.sum((feats[i] - mean) ** 2), i))
        assert np.array_equal(sel.inputs[c], ds.inputs[best])


def test_select_neighbor_exact_row():
    ds = _dataset()
    syn = Dataset(np.stack([ds.inputs[ds.labels == c][0] for c in range(4)]), np.arange(4), 4)
    sel = select_neighbor(ds, syn)
    assert np.array_equal(sel.inputs, syn.inputs)


def test_select_neighbor_matches_brute_force_and_class_constraint():
    ds = _dataset()
    rng = np.random.default_rng(1)
    syn = Dataset(rng.standard_normal((4, 5)), np.arange(4), 4)
    sel = select_neighbor(ds, syn)
    for c in range(4):
        idx = np.flatnonzero(ds.labels == c)
        best = min(idx, key=lambda i: (np.sum((ds.inputs[i] - syn.inputs[c]) ** 2), i))
        assert np.array_equal(sel.inputs[c], ds.inputs[best])
        assert sel.labels[c] == c


def test_select_neighbor_keeps_labels_of_rows_it_picks():
    # synthetic labels that are not class-major: row 0 is class 1, row 1 class 0
    ds = Dataset(
        inputs=np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]]),
        labels=np.array([0, 0, 1, 1]),
        class_count=2,
    )
    syn = Dataset(np.array([[5.0, 5.0], [0.0, 0.0]]), np.array([1, 0]), class_count=2)
    sel = select_neighbor(ds, syn)
    assert sel.inputs.tolist() == [[5.0, 5.0], [0.0, 0.0]]
    assert sel.labels.tolist() == [1, 0]


def test_pca_two_dim_subspace_explains_everything():
    rng = np.random.default_rng(2)
    basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    coords = rng.standard_normal((50, 2)) * np.array([3.0, 1.0])
    x = coords @ basis.T
    _, explained = pca_project_2d(x)
    assert abs(sum(explained) - 1.0) <= 1e-9


def test_pca_isotropic_cloud_fractions():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10_000, 5))
    _, explained = pca_project_2d(x)
    for frac in explained:
        assert 0.15 <= frac <= 0.25


def test_pca_translation_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 4))
    proj, _ = pca_project_2d(x)
    proj_shift, _ = pca_project_2d(x + 7.5)
    assert np.allclose(proj, proj_shift, atol=1e-9)


def test_pca_rank_zero_input():
    x = np.tile(np.array([1.0, 2.0, 3.0]), (10, 1))
    proj, explained = pca_project_2d(x)
    assert np.array_equal(proj, np.zeros((10, 2)))
    assert explained == (0.0, 0.0)


def test_pca_sign_convention():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 3)) * np.array([5.0, 1.0, 0.2])
    proj1, _ = pca_project_2d(x)
    proj2, _ = pca_project_2d(x)
    assert np.array_equal(proj1, proj2)


def test_argmax_accuracy_scale_invariance():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((20, 4))
    labels = rng.integers(0, 3, size=20)
    w = rng.standard_normal((4, 3))
    assert _accuracy(feats @ w, labels) == _accuracy(feats @ (3.7 * w), labels)


def test_accuracy_tie_breaks_low():
    scores = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
    assert _accuracy(scores, np.array([0, 1])) == 1.0
    assert _accuracy(scores, np.array([1, 2])) == 0.0


@pytest.mark.parametrize("batch_size", [64, 16], ids=["full-batch", "mini-batch"])
def test_probe_gradient_is_the_class_anchor_gradient_at_tau_1(monkeypatch, batch_size):
    # the probe's cross-entropy is the outer loss at tau = 1: one softmax serves both
    rng = np.random.default_rng(3)
    train = Dataset(rng.standard_normal((40, 6)), np.arange(40) % 4, 4)
    grads = []
    adam_update = clpdd.evaluation.adam_update

    def recorded(state, grad, *args):
        grads.append(grad.copy())
        return adam_update(state, grad, *args)

    monkeypatch.setattr(clpdd.evaluation, "adam_update", recorded)
    train_linear_probe(train, train, epochs=1, batch_size=batch_size, seed=5)
    # the first weights and the first batch, drawn as the probe draws them
    probe_rng = np.random.default_rng(5)
    w0 = probe_rng.standard_normal((6, 4)) / np.sqrt(6)
    rows = np.arange(40) if batch_size >= 40 else probe_rng.permutation(40)[:batch_size]
    _, expected = class_anchor_loss_and_grad(train.inputs[rows], train.labels[rows], w0, 1.0)
    assert len(grads) == (1 if batch_size >= 40 else 3)
    assert np.array_equal(grads[0], expected)
