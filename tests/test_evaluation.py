import re

import numpy as np
import pytest

import clpdd.distill
import clpdd.evaluation
import clpdd.linalg
from clpdd.data import Dataset, MissingClassError, gen_blobs
from clpdd.distill import DistillConfig, run_distill
from clpdd.encoder import make_encoder
from clpdd.evaluation import (
    _accuracy,
    compare_methods,
    pca_project_2d,
    select_centroid,
    select_neighbor,
    select_random,
    train_linear_probe,
)
from clpdd.gradcheck import _pipeline_instance
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
    with pytest.raises(MissingClassError, match=r"probe training set: .*\[3, 4\] of 5"):
        train_linear_probe(train, ev, epochs=5)


def test_probe_rejects_a_class_with_no_training_rows():
    train = Dataset(np.eye(4), np.array([0, 2, 0, 2]), class_count=3)
    _, ev = gen_blobs(3, 4, 10, 1.0, 1.0, seed=0)
    with pytest.raises(MissingClassError, match=r"probe training set: .*\[1\] of 3"):
        train_linear_probe(train, ev, epochs=5)


def test_step_and_probe_read_adams_constants_from_one_owner(monkeypatch):
    # patching the one eps moves both the distillation step and the trained probe
    train, ev = gen_blobs(3, 4, 10, 1.0, 1.0, seed=0)
    cfg = DistillConfig(iterations=3)

    def outputs():
        syn, _ = run_distill(cfg, train)
        return syn.inputs, train_linear_probe(train, ev, epochs=3, seed=0).w

    inputs, probe = outputs()
    monkeypatch.setattr(clpdd.distill, "ADAM_EPS", 1.0)
    patched_inputs, patched_probe = outputs()
    assert not np.allclose(inputs, patched_inputs)
    assert not np.allclose(probe, patched_probe)


def test_gradcheck_reads_its_tau_from_distill_config(monkeypatch):
    # the temperature has one owner: patching it moves the battery's instances
    enc = make_encoder("linear", 3, 4, seed=0)

    def analytic():
        return _pipeline_instance(np.random.default_rng(0), enc, 2, 1, "class_anchor")[0]

    before = analytic()
    monkeypatch.setattr(DistillConfig, "tau", 1.0)
    assert not np.allclose(before, analytic())


def test_probe_takes_class_count_from_train():
    # an eval split that lacks the top class still leaves it a column of w
    train, ev = gen_blobs(3, 5, 20, 1.0, 1.0, seed=0)
    ev2 = Dataset(ev.inputs[ev.labels < 2], ev.labels[ev.labels < 2], class_count=2)
    assert train_linear_probe(train, ev2, epochs=5).w.shape == (5, 3)


def test_probe_rejects_feature_dims_that_differ():
    train, _ = gen_blobs(3, 5, 20, 1.0, 1.0, seed=0)
    _, ev = gen_blobs(3, 4, 20, 1.0, 1.0, seed=0)
    message = r"^probe eval split is 4-dim, probe training set 5-dim$"
    with pytest.raises(DimensionError, match=message):
        train_linear_probe(train, ev, epochs=5)


@pytest.mark.parametrize(
    "bound, message",
    [
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"epochs": -3}, "epochs must be >= 0, got -3"),
    ],
    ids=["batch_size", "epochs"],
)
def test_probe_rejects_a_batch_size_or_epoch_count_out_of_bounds(bound, message):
    train, ev = gen_blobs(3, 5, 20, 1.0, 1.0, seed=0)
    with pytest.raises(ValueError) as ei:
        train_linear_probe(train, ev, **bound)
    assert str(ei.value) == message


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


@pytest.mark.parametrize(
    "x",
    [np.outer([-1.0, 0.0, 1.0, 2.0], [1.0, 2.0, 2.0]), np.array([[0.5], [1.5], [-2.0]])],
    ids=["rank-1", "one-dim"],
)
def test_pca_second_column_is_zero_without_a_second_direction(x):
    proj, explained = pca_project_2d(x)
    assert np.array_equal(proj[:, 1], np.zeros(x.shape[0])) and explained[1] == 0.0
    assert explained[0] == pytest.approx(1.0)
    assert np.allclose(np.abs(proj[:, 0]), np.linalg.norm(x - x.mean(axis=0), axis=1))


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
    adam_rows = clpdd.evaluation._adam_rows

    def recorded(step, lr, grad, *arrays):
        grads.append(grad.copy())
        return adam_rows(step, lr, grad, *arrays)

    monkeypatch.setattr(clpdd.evaluation, "_adam_rows", recorded)
    train_linear_probe(train, train, epochs=1, batch_size=batch_size, seed=5)
    # the first weights and the first batch, drawn as the probe draws them
    probe_rng = np.random.default_rng(5)
    w0 = probe_rng.standard_normal((6, 4)) / np.sqrt(6)
    rows = np.arange(40) if batch_size >= 40 else probe_rng.permutation(40)[:batch_size]
    _, expected = class_anchor_loss_and_grad(train.inputs[rows], train.labels[rows], w0, 1.0)
    assert len(grads) == (1 if batch_size >= 40 else 3)
    assert np.array_equal(grads[0], expected)


@pytest.mark.parametrize("n, batches", [(1000, 4), (240, 1)], ids=["mini-batch", "full-batch"])
def test_probe_writes_the_same_bytes_on_one_lane_or_two(monkeypatch, two_lanes, n, batches):
    # 512 features and 100 classes. Each batch runs two split blocks: its rows
    # at row 96, and the 512 rows of w at row 240. The mini-batches hold 256,
    # 256, 256 and the ragged 232 rows.
    rng = np.random.default_rng(12)
    train = Dataset(rng.standard_normal((n, 512)), np.arange(n) % 100, 100)
    ev = Dataset(rng.standard_normal((200, 512)), np.arange(200) % 100, 100)
    two = train_linear_probe(train, ev, epochs=2, seed=3)
    assert two_lanes == [(0, 96), (0, 240)] * 2 * batches
    monkeypatch.setattr(clpdd.linalg, "_affinity_cpus", lambda: 1)
    one = train_linear_probe(train, ev, epochs=2, seed=3)
    assert len(two_lanes) == 4 * batches
    assert np.array_equal(one.w, two.w) and one.eval_acc == two.eval_acc


@pytest.mark.parametrize("methods, message", [
    (["clpdd", "mse", "bogus"], "unknown compare method 'bogus' (choose from ('clpdd', "
     "'random', 'centroid', 'neighbor', 'mse-ablation'))"),
    (["clpdd", "random", "clpdd"], "compare_methods names 'clpdd' twice"),
    (["mse", "mse-ablation"], "compare_methods names 'mse-ablation' twice"),
    (["random", "neighbor"], "the neighbor baseline selects against the just-distilled set; "
     "include clpdd in compare_methods"),
    ([], "compare_methods is empty"),
], ids=["unknown", "twice", "mse-twice", "neighbor-alone", "empty"])
def test_compare_methods_checks_its_methods_before_reading_a_split(methods, message):
    def splits():
        pytest.fail("a split was read")
        yield

    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_methods(DistillConfig(), splits(), methods, ("train", "eval"))


def test_compare_methods_reads_mse_as_the_mse_ablation():
    train, ev = gen_blobs(3, 4, 10, 0.5, 0.5, seed=0)
    cfg = DistillConfig(iterations=2, probe_epochs=2)
    accs, curve, first = compare_methods(cfg, [(train, ev)], ("mse", "clpdd"), ("train", "eval"))
    assert list(accs) == ["clpdd", "mse-ablation"] and len(curve) == 2 and first is not None


@pytest.mark.parametrize("init, methods", [
    ("random_normal", ["clpdd", "random"]),
    ("random_normal", ["clpdd", "centroid"]),
    ("from_real", ["clpdd"]),
], ids=["random", "centroid", "from_real"])
def test_compare_methods_checks_ipc_rows_before_it_distills(monkeypatch, init, methods):
    ran = []
    monkeypatch.setattr(clpdd.evaluation, "run_distill", lambda *a, **k: ran.append(a))
    train, ev = gen_blobs(3, 4, 10, 0.5, 0.5, seed=0)  # 8 train rows per class
    cfg = DistillConfig(ipc=9, init=init, iterations=2)
    with pytest.raises(MissingClassError) as ei:
        compare_methods(cfg, [(train, ev)] * 2, methods, ("train", "eval"))
    assert str(ei.value) == "ipc=9: train: fewer than 9 rows for class ids [0, 1, 2] of 3 classes"
    assert ran == []


def test_compare_methods_without_an_eval_split_picks_no_rows():
    train, _ = gen_blobs(3, 4, 10, 0.5, 0.5, seed=0)
    cfg = DistillConfig(ipc=9, iterations=2)
    accs, curve, first = compare_methods(cfg, [(train, None)], ["clpdd", "random"],
                                         ("train", "eval"))
    assert accs == {} and len(curve) == 2 and first.n == 27


def test_a_default_step_and_probe_run_on_whole_arrays(monkeypatch, two_lanes):
    # at the default 5 x 16 shape no row block splits, so a step's Adam and
    # the probe's two blocks are called on whole arrays and skip
    # run_row_halves, whose argument lists and slices would slow them
    calls = []
    for module in (clpdd.distill, clpdd.evaluation):
        hand_over = module.run_row_halves
        monkeypatch.setattr(module, "run_row_halves",
                            lambda *a, _f=hand_over: calls.append(a) or _f(*a))
    train, ev = gen_blobs(5, 16, 250, 0.1, 0.15, seed=0)
    syn, _ = run_distill(DistillConfig(iterations=3), train, ev)
    train_linear_probe(syn, ev, epochs=3)
    assert calls == [] and two_lanes == []
