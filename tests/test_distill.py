import json
from dataclasses import asdict

import numpy as np
import pytest

from clpdd.data import Dataset, datasets_equal, gen_blobs, load_features, save_features
from clpdd.distill import (
    AdamState,
    DistillConfig,
    DistillDivergenceError,
    adam_update,
    augment,
    cosine_lr,
    distill_step,
    init_synthetic,
    meta_loss_and_grad,
    rng_stream,
    run_distill,
    sample_balanced_batch,
    stream_seed,
)
from clpdd.encoder import make_encoder
from clpdd.objective import make_outer_batch

from oracles import adam_ref, balanced_picks, central_diff_grad, max_rel_err


def _blob_task(seed=0):
    return gen_blobs(3, 5, 20, center_scale=0.3, cluster_std=0.3, seed=seed)


def test_init_shapes_and_label_layout():
    syn = init_synthetic(3, 1, 4, seed=0)
    assert syn.inputs.shape == (3, 4)
    assert syn.labels.tolist() == [0, 1, 2] and syn.class_count == 3
    syn2 = init_synthetic(2, 3, 4, seed=0)
    assert syn2.labels.tolist() == [0, 0, 0, 1, 1, 1]


def test_init_deterministic():
    a = init_synthetic(4, 2, 6, seed=123)
    b = init_synthetic(4, 2, 6, seed=123)
    assert np.array_equal(a.inputs, b.inputs)


def test_init_from_real_membership():
    train, _ = _blob_task()
    syn = init_synthetic(3, 1, 5, mode="from_real", real=train, seed=1)
    for i in range(3):
        cls_rows = train.inputs[train.labels == i]
        assert any(np.array_equal(syn.inputs[i], row) for row in cls_rows)


def test_init_from_real_insufficient_samples():
    train, _ = _blob_task()
    with pytest.raises(ValueError):
        init_synthetic(3, 100, 5, mode="from_real", real=train, seed=0)


def test_balanced_batch_counts():
    train, _ = gen_blobs(5, 3, 10, 1.0, 1.0, seed=0)
    batch = sample_balanced_batch(train, 4, rng_stream(0, "batch"))
    assert batch.m == 20
    for c in range(5):
        assert int(np.sum(batch.labels == c)) == 4


def test_balanced_batch_small_class_with_replacement():
    ds = Dataset(
        inputs=np.arange(10, dtype=np.float64).reshape(5, 2),
        labels=np.array([0, 0, 1, 1, 1]),
        class_count=2,
    )
    batch = sample_balanced_batch(ds, 4, rng_stream(1, "batch"))
    rows_c0 = batch.x_real[batch.labels == 0]
    assert rows_c0.shape == (4, 2)
    allowed = ds.inputs[:2]
    for row in rows_c0:
        assert any(np.array_equal(row, a) for a in allowed)


def test_balanced_batch_deterministic():
    train, _ = _blob_task()
    b1 = sample_balanced_batch(train, 2, rng_stream(7, "batch"))
    b2 = sample_balanced_batch(train, 2, rng_stream(7, "batch"))
    assert np.array_equal(b1.x_real, b2.x_real)


@pytest.mark.parametrize("b_per_class", [3, 8])  # 8 > the 5-row class: with replacement
def test_balanced_batch_matches_choosing_from_class_rows(b_per_class):
    rng = np.random.default_rng(12)
    labels = np.repeat(np.arange(4), [20, 15, 5, 12])  # class 2 has 5 rows
    rng.shuffle(labels)
    ds = Dataset(rng.standard_normal((labels.size, 3)), labels, 4)
    ours, ref = rng_stream(4, "batch"), rng_stream(4, "batch")
    for _ in range(5):
        batch = sample_balanced_batch(ds, b_per_class, ours)
        picks = balanced_picks(ds.labels, 4, b_per_class, ref)
        assert np.array_equal(batch.x_real, ds.inputs[picks])
        assert np.array_equal(batch.labels, ds.labels[picks])
        assert np.array_equal(batch.t_onehot, np.eye(4)[ds.labels[picks]])
    # both generators end in the same state: the stream is consumed identically
    assert ours.bit_generator.state == ref.bit_generator.state


def test_adam_in_place_matches_reference_and_returns_fresh_array():
    rng = np.random.default_rng(13)
    state = AdamState.like(np.zeros((3, 4)))
    m, v = np.zeros((3, 4)), np.zeros((3, 4))
    for step in range(1, 8):
        grad = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-3, 3)
        lr = 0.05 / step
        update = adam_update(state, grad, lr, 0.9, 0.999, 1e-8)
        m, v, ref = adam_ref(m, v, step, grad, lr, 0.9, 0.999, 1e-8)
        assert state.step == step
        assert np.array_equal(update, ref)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert not np.shares_memory(update, state.m)
        assert not np.shares_memory(update, state.v)
        assert not np.shares_memory(update, grad)


def test_augment_leaves_inputs_untouched():
    x = np.random.default_rng(14).standard_normal((4, 3))
    before = x.copy()
    noisy = augment(x, 0.1, rng_stream(2, "augment"))
    assert np.array_equal(x, before) and not np.shares_memory(noisy, x)
    ref = before + 0.1 * rng_stream(2, "augment").standard_normal(x.shape)
    assert np.array_equal(noisy, ref)


def test_augment_identity_at_zero_sigma():
    x = np.random.default_rng(0).standard_normal((4, 3))
    assert np.array_equal(augment(x, 0.0, rng_stream(0, "augment")), x)


def test_augment_noise_scale():
    x = np.zeros((1000, 100))  # 1e5 draws
    noisy = augment(x, 0.01, rng_stream(3, "augment"))
    std = np.std(noisy)
    assert abs(std - 0.01) <= 0.2 * 0.01


def test_augment_reproducible():
    x = np.zeros((5, 5))
    a = augment(x, 0.5, rng_stream(11, "augment"))
    b = augment(x, 0.5, rng_stream(11, "augment"))
    assert np.array_equal(a, b)


def _tiny_cfg(**kw):
    defaults = dict(
        iterations=5, ipc=1, augment_noise_sigma=0.0, eval_every=2, seed=0
    )
    defaults.update(kw)
    return DistillConfig(**defaults)


def test_distill_step_zero_lr_freezes_inputs():
    train, _ = _blob_task()
    cfg = _tiny_cfg(lr=0.0)
    enc = cfg.build_encoder(train.dim)
    syn = init_synthetic(3, 1, train.dim, seed=0)
    adam = AdamState.like(syn.inputs)
    new_inputs, metrics = distill_step(
        syn.inputs, syn.onehot_labels(), adam, cfg, enc, train,
        rng_stream(0, "batch"), rng_stream(0, "augment"), 0,
    )
    assert np.array_equal(new_inputs, syn.inputs)
    assert np.isfinite(metrics.outer_loss)


def test_whole_pipeline_gradient_matches_finite_differences():
    # the composite gradient through encoder, solver and outer loss is the
    # most load-bearing derivative in the package
    train, _ = gen_blobs(2, 3, 10, center_scale=0.3, cluster_std=0.3, seed=2)
    enc = make_encoder("identity", 3)
    rng = np.random.default_rng(0)
    inputs = 0.5 * rng.standard_normal((2, 3))
    y = np.eye(2)
    batch = sample_balanced_batch(train, 2, rng_stream(5, "batch"))
    for objective in ("class_anchor", "mse"):
        _, analytic = meta_loss_and_grad(inputs, y, enc, batch, 0.1, 0.07, objective)
        fd = central_diff_grad(
            lambda xp: meta_loss_and_grad(xp, y, enc, batch, 0.1, 0.07, objective)[0],
            inputs,
        )
        assert max_rel_err(analytic, fd) <= 1e-5


@pytest.mark.parametrize("kind", ["identity", "linear", "mlp1"])
def test_pipeline_gradient_all_encoders(kind):
    rng = np.random.default_rng(3)
    d_in = 3
    d_out = 3 if kind == "identity" else 4
    enc = make_encoder(kind, d_in, d_out, hidden_dim=4, seed=5)
    inputs = 0.5 * rng.standard_normal((2, d_in))
    y = np.eye(2)
    batch = make_outer_batch(
        0.4 * rng.standard_normal((4, d_in)), np.array([0, 1, 0, 1]), 2
    )
    _, analytic = meta_loss_and_grad(inputs, y, enc, batch, 0.1, 0.07, "class_anchor")
    fd = central_diff_grad(
        lambda xp: meta_loss_and_grad(xp, y, enc, batch, 0.1, 0.07, "class_anchor")[0],
        inputs,
    )
    assert max_rel_err(analytic, fd) <= 1e-5


def test_same_seed_identical_loss_sequences():
    train, _ = _blob_task()
    cfg = _tiny_cfg(iterations=10, augment_noise_sigma=0.01)
    _, rep1 = run_distill(cfg, train)
    _, rep2 = run_distill(cfg, train)
    assert [m.outer_loss for m in rep1.curve] == [m.outer_loss for m in rep2.curve]


def test_run_distill_zero_iterations_is_noop():
    train, _ = _blob_task()
    cfg = _tiny_cfg(iterations=0)
    syn, rep = run_distill(cfg, train)
    init = init_synthetic(3, 1, train.dim, seed=stream_seed(cfg.seed, "init"))
    assert np.array_equal(syn.inputs, init.inputs)
    assert rep.curve == []


@pytest.mark.parametrize("name", ["syn.clpf", "syn.csv"])
def test_distilled_set_round_trips_through_feature_files(tmp_path, name):
    train, _ = _blob_task()
    syn, _ = run_distill(_tiny_cfg(ipc=2, augment_noise_sigma=0.01), train)
    assert np.array_equal(syn.labels, np.repeat(np.arange(3), 2))
    save_features(syn, tmp_path / name, dtype="f64")
    assert datasets_equal(load_features(tmp_path / name), syn)


def test_run_distill_report_records_config():
    train, _ = _blob_task()
    cfg = _tiny_cfg(iterations=2, tau=0.2)
    _, rep = run_distill(cfg, train)
    assert rep.config == asdict(cfg)
    assert DistillConfig(**json.loads(json.dumps(rep.config))) == cfg


def test_run_distill_loss_decreases_on_blobs():
    for seed in range(5):
        train, ev = gen_blobs(
            5, 16, 40, center_scale=0.1, cluster_std=0.15, seed=seed, anisotropic=True
        )
        cfg = DistillConfig(iterations=500, seed=seed, eval_every=250)
        _, rep = run_distill(cfg, train, ev)
        assert rep.curve[-1].outer_loss < rep.curve[0].outer_loss


def test_run_distill_curve_bookkeeping():
    train, ev = _blob_task()
    cfg = _tiny_cfg(iterations=7, eval_every=3)
    _, rep = run_distill(cfg, train, ev)
    assert len(rep.curve) == 7
    assert [m.iteration for m in rep.curve] == list(range(7))
    recorded = [m.iteration for m in rep.curve if m.eval_acc is not None]
    assert recorded == [2, 5]  # every eval_every steps


def test_labels_fixed_across_steps():
    train, _ = _blob_task()
    cfg = _tiny_cfg(iterations=8)
    enc = cfg.build_encoder(train.dim)
    syn = init_synthetic(3, 1, train.dim, seed=0)
    inputs, y_onehot = syn.inputs, syn.onehot_labels()
    label_bytes = y_onehot.tobytes()
    adam = AdamState.like(inputs)
    rb, ra = rng_stream(0, "batch"), rng_stream(0, "augment")
    for t in range(8):
        inputs, _ = distill_step(inputs, y_onehot, adam, cfg, enc, train, rb, ra, t)
    assert y_onehot.tobytes() == label_bytes


def test_adam_step_norm_bound():
    train, _ = _blob_task()
    for objective in ("class_anchor", "mse"):
        cfg = _tiny_cfg(iterations=100, outer_objective=objective, augment_noise_sigma=0.01)
        enc = cfg.build_encoder(train.dim)
        syn = init_synthetic(3, 1, train.dim, seed=0)
        inputs, y_onehot = syn.inputs, syn.onehot_labels()
        adam = AdamState.like(inputs)
        rb, ra = rng_stream(0, "batch"), rng_stream(0, "augment")
        bound = np.sqrt(inputs.size)
        for t in range(cfg.iterations):
            prev = inputs
            inputs, metrics = distill_step(inputs, y_onehot, adam, cfg, enc, train, rb, ra, t)
            assert np.isfinite(metrics.outer_loss)
            assert np.linalg.norm(inputs - prev) <= metrics.lr * bound


def test_inputs_stay_finite_across_run():
    train, _ = _blob_task()
    cfg = _tiny_cfg(iterations=50, augment_noise_sigma=0.01)
    syn, _ = run_distill(cfg, train)
    assert np.all(np.isfinite(syn.inputs))


def test_gradient_explosion_guard():
    train, _ = _blob_task()
    cfg = DistillConfig(iterations=3, tau=1e-12, augment_noise_sigma=0.0, seed=0)
    with pytest.raises(DistillDivergenceError) as ei:
        run_distill(cfg, train)
    assert "iteration" in str(ei.value)
    assert "lambda" in str(ei.value)


def test_cosine_schedule_endpoints():
    assert cosine_lr(0.05, 0, 1000) == pytest.approx(0.05)
    assert cosine_lr(0.05, 500, 1000) == pytest.approx(0.025)
    assert cosine_lr(0.05, 1000, 1000) == pytest.approx(0.0, abs=1e-18)


def test_config_validation():
    with pytest.raises(ValueError):
        DistillConfig(lam=0.0)
    with pytest.raises(ValueError):
        DistillConfig(tau=-1.0)
    with pytest.raises(ValueError):
        DistillConfig(outer_objective="hinge")
    with pytest.raises(ValueError):
        DistillConfig(init="zeros")
    with pytest.raises(ValueError):
        DistillConfig(lr_schedule="step")


def test_stream_seeds_are_stable_and_distinct():
    assert stream_seed(0, "batch") == stream_seed(0, "batch")
    assert stream_seed(0, "batch") != stream_seed(0, "augment")
    assert stream_seed(0, "batch") != stream_seed(1, "batch")
