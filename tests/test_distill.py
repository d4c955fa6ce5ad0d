import functools
import math
import sys
import threading

import numpy as np
import pytest

import clpdd.distill
import clpdd.linalg
from clpdd.data import (
    Dataset,
    MissingClassError,
    NonFiniteFeatureError,
    ShapeError,
    gen_blobs,
    load_features,
    save_features,
)
from clpdd.distill import (
    BLOCK_DOUBLES,
    OUTER_OBJECTIVES,
    AdamState,
    DistillConfig,
    DistillDivergenceError,
    _adam_rows,
    adam_update,
    augment_noise,
    balanced_batches,
    cosine_lr,
    distill_step,
    init_synthetic,
    meta_loss_and_grad,
    rng_stream,
    run_distill,
    stream_seed,
)
from clpdd.encoder import ENCODER_KINDS, encode, encode_vjp, make_encoder
from clpdd.linalg import DimensionError
from clpdd.objective import class_anchor_loss_and_grad, mse_outer_loss_and_grad
from clpdd.solver import ridge_kernel, solve_backward

from oracles import (
    adam_ref,
    central_diff_grad,
    datasets_equal,
    distill_loop_ref,
    floyd_balanced_picks,
    max_rel_err,
)


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
    x_real, labels = next(balanced_batches(train, 4, rng_stream(0, "batch")))
    assert x_real.shape[0] == 20
    for c in range(5):
        assert int(np.sum(labels == c)) == 4


def test_balanced_batch_small_class_with_replacement():
    ds = Dataset(
        inputs=np.arange(10, dtype=np.float64).reshape(5, 2),
        labels=np.array([0, 0, 1, 1, 1]),
        class_count=2,
    )
    x_real, labels = next(balanced_batches(ds, 4, rng_stream(1, "batch")))
    rows_c0 = x_real[labels == 0]
    assert rows_c0.shape == (4, 2)
    allowed = ds.inputs[:2]
    for row in rows_c0:
        assert any(np.array_equal(row, a) for a in allowed)


def test_balanced_batch_rejects_a_class_without_rows():
    ds = Dataset(np.zeros((4, 2)), np.array([0, 2, 2, 0]), class_count=3)
    with pytest.raises(MissingClassError, match=r"^real set: no rows for class ids \[1\] of 3 c"):
        next(balanced_batches(ds, 2, rng_stream(0, "batch")))


def test_balanced_batch_deterministic():
    train, _ = _blob_task()
    b1 = next(balanced_batches(train, 2, rng_stream(7, "batch")))
    b2 = next(balanced_batches(train, 2, rng_stream(7, "batch")))
    assert np.array_equal(b1[0], b2[0])


def _uneven_task():
    rng = np.random.default_rng(12)
    labels = np.repeat(np.arange(4), [20, 15, 5, 12])  # class 2 has 5 rows
    rng.shuffle(labels)
    return Dataset(rng.standard_normal((labels.size, 3)), labels, 4)


def _assert_batches_match_per_class_floyd(ds, b_per_class, count, seed):
    """`count` batches of one stream equal as many sequential per-class Floyd
    draws, bitwise; returns the number of clashes the oracle fixed up."""
    ours, ref = rng_stream(seed, "batch"), rng_stream(seed, "batch")
    batches = balanced_batches(ds, b_per_class, ours)
    clashes = 0
    for _ in range(count):
        x_real, labels = next(batches)
        picks, clashed = floyd_balanced_picks(ds.labels, ds.class_count, b_per_class, ref)
        clashes += clashed
        assert np.array_equal(x_real, ds.inputs[picks])
        assert np.array_equal(labels, ds.labels[picks])
    return clashes, ours, ref


# b = 5 and b = 12 draw all n = b rows of the 5- and 12-row classes; b = 8 and
# b = 12 sample the 5-row class with replacement
@pytest.mark.parametrize("b_per_class", [3, 5, 8, 12])
def test_balanced_batch_matches_per_class_floyd(monkeypatch, b_per_class):
    # five batches per refill, so twelve batches cross two refill boundaries
    monkeypatch.setattr(clpdd.distill, "BLOCK_DOUBLES", 5 * 4 * b_per_class)
    clashes, ours, ref = _assert_batches_match_per_class_floyd(_uneven_task(), b_per_class, 12, 4)
    assert clashes > 0  # the fix-up ran
    # three refills draw exactly what fifteen per-batch draws would
    for _ in range(3):
        ref.random((4, b_per_class))
    assert ours.bit_generator.state == ref.bit_generator.state


def test_balanced_batch_refill_boundary_at_the_default_block():
    train, _ = gen_blobs(5, 3, 10, 1.0, 1.0, seed=0)  # 8 train rows per class, b = 4
    block = BLOCK_DOUBLES // (5 * 4)
    clashes, _, _ = _assert_batches_match_per_class_floyd(train, 4, block + 3, 2)
    assert clashes > 0


def test_balanced_batch_draws_one_uniform_per_row():
    # a refill leaves the generator as one rng.random((k, C, b)) call would,
    # and the k - 1 batches after it draw nothing
    ds = _uneven_task()
    ours, ref = rng_stream(9, "batch"), rng_stream(9, "batch")
    block = BLOCK_DOUBLES // (4 * 4)
    batches = balanced_batches(ds, 4, ours)
    for _ in range(2):
        next(batches)
        ref.random((block, 4, 4))
        assert ours.bit_generator.state == ref.bit_generator.state
        for _ in range(block - 1):
            next(batches)
        assert ours.bit_generator.state == ref.bit_generator.state


def test_balanced_batch_floyd_subsets_are_uniform():
    # 100 classes of 6 rows, b = 4, 600 batches: 60 000 draws of a 4-subset
    # of a 6-row class, each of the 15 subsets equally likely
    labels = np.repeat(np.arange(100), 6)
    ds = Dataset(np.arange(600, dtype=np.float64)[:, None], labels, 100)
    batches = balanced_batches(ds, 4, rng_stream(3, "batch"))
    hits = {}
    for _ in range(600):
        x_real, _ = next(batches)
        within = x_real[:, 0].astype(np.int64).reshape(100, 4) % 6
        assert all(len(set(row)) == 4 for row in within.tolist())  # no repeated row
        for row in within.tolist():
            key = tuple(sorted(row))
            hits[key] = hits.get(key, 0) + 1
    assert len(hits) == 15
    assert all(abs(n - 4000) <= 200 for n in hits.values()), hits


def test_adam_rows_match_the_reference_whole_and_in_row_ranges():
    rng = np.random.default_rng(13)
    whole, split = AdamState.like(np.zeros((3, 4))), AdamState.like(np.zeros((3, 4)))
    m, v = np.zeros((3, 4)), np.zeros((3, 4))
    param = rng.standard_normal((3, 4))
    for step in range(1, 8):
        grad = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-3, 3)
        lr = 0.05 / step
        # the new parameters over the gradient, whole
        in_place = grad.copy()
        adam_update(whole, in_place, param, lr)
        # the update over the gradient and the new parameters beside it, one row range at a time
        update, stepped = grad.copy(), np.empty((3, 4))
        for rows in (slice(0, 1), slice(1, 3)):
            arrays = (update, split.m, split.v, split.scratch, param, stepped)
            _adam_rows(step, lr, *(a[rows] for a in arrays))
        m, v, ref = adam_ref(m, v, step, grad, lr, 0.9, 0.999, 1e-8)
        assert whole.step == step  # adam_update counts its steps
        assert split.step == 0  # _adam_rows is handed the count
        assert np.array_equal(update, ref)
        assert np.array_equal(stepped, param - ref) and np.array_equal(in_place, param - ref)
        for state in (whole, split):
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_distill_steps_adam_writes_the_same_bytes_on_one_lane_or_two(monkeypatch, two_lanes):
    # 192 synthetic rows of 384 dims: N < d takes the kernel route and the
    # identity encoder does no work, so each step's one split block is Adam's
    rng = np.random.default_rng(4)
    real = Dataset(rng.standard_normal((96, 384)), np.arange(96) % 48, 48)
    cfg = DistillConfig(ipc=4, b_per_class=2, iterations=3, augment_noise_sigma=0.01, seed=2)
    two, _ = run_distill(cfg, real)
    assert two_lanes == [(0, 96)] * 3
    monkeypatch.setattr(clpdd.linalg, "_affinity_cpus", lambda: 1)
    one, _ = run_distill(cfg, real)
    assert len(two_lanes) == 3
    assert np.array_equal(one.inputs, two.inputs)


@pytest.mark.parametrize("kind, ipc, beside", [
    ("identity", 2, []), ("linear", 1, []), ("linear", 2, [12] * 3), ("mlp1", 2, [12] * 3)
], ids=["identity-primal", "linear-kernel", "linear-primal", "mlp1-primal"])
def test_a_step_below_the_floor_starts_no_thread(two_lanes, monkeypatch, kind, ipc, beside):
    # 3 classes x 5 dims: at ipc 2, N = 6 >= d takes the primal route, where
    # an encoder that does work encodes the 12-row real batch beside the
    # solve; it is far below SPLIT_MIN_MADDS, so it runs in the caller. The
    # identity encoder and the kernel route (ipc 1) never hand it over.
    monkeypatch.setattr(clpdd.linalg, "_helper", None)
    run_beside, calls = clpdd.distill.run_beside, []

    def recording(part, row_madds, work, *arrays):
        calls.append(arrays[0].shape[0])
        return run_beside(part, row_madds, work, *arrays)

    monkeypatch.setattr(clpdd.distill, "run_beside", recording)
    threads = threading.active_count()
    train, _ = _blob_task()
    run_distill(_tiny_cfg(encoder_kind=kind, ipc=ipc, iterations=3), train)
    assert calls == beside and two_lanes == []
    assert clpdd.linalg._helper is None and threading.active_count() == threads


def _step_streams(cfg, real, shape):
    return (
        balanced_batches(real, cfg.b_per_class, rng_stream(cfg.seed, "batch")),
        augment_noise(shape, cfg.augment_noise_sigma, rng_stream(cfg.seed, "augment")),
    )


def test_augment_leaves_inputs_untouched():
    # the step adds its inputs into the noise array, never the other way
    train, _ = _blob_task()
    cfg = DistillConfig(iterations=5, augment_noise_sigma=0.1)
    syn = init_synthetic(3, 1, train.dim, seed=0)
    before = syn.inputs.copy()
    new_inputs, _ = distill_step(
        syn.inputs, syn.onehot_labels(), AdamState.like(syn.inputs), cfg,
        cfg.build_encoder(train.dim), *_step_streams(cfg, train, syn.inputs.shape), 0,
    )
    assert np.array_equal(syn.inputs, before)
    assert not np.shares_memory(new_inputs, syn.inputs)


def test_augment_identity_at_zero_sigma():
    rng = rng_stream(0, "augment")
    state = rng.bit_generator.state
    noise = augment_noise((4, 3), 0.0, rng)
    assert [next(noise) for _ in range(3)] == [None, None, None]
    assert [(noise.send(True), next(noise)) for _ in range(3)] == [(None, None)] * 3
    assert rng.bit_generator.state == state  # nothing drawn


def test_augment_noise_scale():
    noise = next(augment_noise((1000, 100), 0.01, rng_stream(3, "augment")))  # 1e5 draws
    assert abs(np.std(noise) - 0.01) <= 0.2 * 0.01


def test_augment_reproducible():
    a = next(augment_noise((5, 5), 0.5, rng_stream(11, "augment")))
    b = next(augment_noise((5, 5), 0.5, rng_stream(11, "augment")))
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "stream, arg, match",
    [
        ("noise", (0, 3), r"^shape must have extents >= 1, got \(0, 3\)$"),
        ("noise", (3, 0), r"^shape must have extents >= 1, got \(3, 0\)$"),
        ("batch", 0, r"^b_per_class must be >= 1, got 0$"),
        ("batch", -1, r"^b_per_class must be >= 1, got -1$"),
    ],
    ids=["noise-no-rows", "noise-no-columns", "batch-b-0", "batch-b-negative"],
)
def test_streams_reject_an_empty_draw(stream, arg, match):
    rng = rng_stream(0, stream)
    if stream == "noise":
        draws = augment_noise(arg, 0.01, rng)
    else:
        draws = balanced_batches(_blob_task()[0], arg, rng)
    with pytest.raises(ValueError, match=match):
        next(draws)


# a refill of about BLOCK_DOUBLES values holds k arrays: 102 of 5 x 16, 2 of
# 4096 values, 390 of 3 x 7, and one of 4097 values or more
@pytest.mark.parametrize("shape", [(5, 16), (40, 512), (64, 64), (1, 4097), (1, 8192), (3, 7)])
def test_augment_noise_matches_sequential_draws(shape):
    # plain nexts, then True sent after every next: a send after a refill's
    # last array draws the next refill, which the next `next` hands over
    # without drawing, and a send after any other array draws nothing
    k = max(1, BLOCK_DOUBLES // math.prod(shape))
    for send in (False, True):
        ours, ref, states = (rng_stream(6, "augment") for _ in range(3))
        noise = augment_noise(shape, 0.01, ours)
        drawn = 0
        for i in range(2 * max(k, 2) + 1):  # across two refill boundaries
            assert np.array_equal(next(noise), 0.01 * ref.standard_normal(shape))
            # a refill draws what k draws of `shape` would
            made = (i // k + 1) * k
            if send:
                assert noise.send(True) is None
                made += k * (i % k == k - 1)
            for _ in range(made - drawn):
                states.standard_normal(shape)
            drawn = made
            assert ours.bit_generator.state == states.bit_generator.state


class _RecordedDraws:
    """An "augment" generator that records the thread of each draw."""

    def __init__(self, seed):
        self.rng, self.threads = rng_stream(seed, "augment"), []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.current_thread().name)
        return self.rng.standard_normal(*args, **kwargs)


def _record_augment_draws(monkeypatch):
    draws = []
    rng_stream_of = clpdd.distill.rng_stream

    def recording(seed, name):
        if name != "augment":
            return rng_stream_of(seed, name)
        draws.append(_RecordedDraws(seed))
        return draws[-1]

    monkeypatch.setattr(clpdd.distill, "rng_stream", recording)
    return draws


def _above_floor_task(ipc=8, iterations=4):
    # 16 classes x 128 dims, mlp1 at ipc 8: N = 128 >= d takes the primal
    # route. Its 128 x 128 noise fills a refill alone, and its 256-row real batch
    # (16 per class) clears the hand-over floor of the encode beside the solve
    real, _ = gen_blobs(16, 128, 20, 0.3, 0.3, seed=3)
    cfg = DistillConfig(
        encoder_kind="mlp1", ipc=ipc, b_per_class=16, iterations=iterations, seed=5
    )
    return real, cfg


def _over_half_a_refill_task():
    # 10 classes x 64 dims, mlp1 at ipc 8: N = 80 >= d takes the primal route.
    # Its 80 x 64 noise (5120 values) is more than half a refill, so it fills
    # one alone; with 256 hidden units its 260-row real batch (26 per class)
    # clears the hand-over floor of the encode beside the solve
    real, _ = gen_blobs(10, 64, 30, 0.3, 0.3, seed=3)
    cfg = DistillConfig(
        encoder_kind="mlp1", hidden_dim=256, ipc=8, b_per_class=26, iterations=4, seed=5
    )
    return real, cfg


# at ipc 6, N = 96 < d takes the kernel route, whose 96 x 128 noise still
# fills a refill alone but has no helper part to draw it: each step draws its own.
# With refills of two 128 x 128 arrays, 7 steps go twice round the ring
@pytest.mark.parametrize("task, ahead_on_helper, k", [
    (_above_floor_task, True, 1), (functools.partial(_above_floor_task, 6), False, 1),
    (_over_half_a_refill_task, True, 1),
    (functools.partial(_above_floor_task, iterations=7), True, 2),
], ids=["primal", "kernel", "primal-5120-values", "primal-refills-of-2"])
def test_a_run_above_the_floor_draws_the_same_noise(
    monkeypatch, two_lanes, task, ahead_on_helper, k
):
    real, cfg = task()
    shape, batch_rows = (real.class_count * cfg.ipc, real.dim), real.class_count * cfg.b_per_class
    if k > 1:
        monkeypatch.setattr(clpdd.distill, "BLOCK_DOUBLES", k * math.prod(shape))
    refills = math.ceil(cfg.iterations / k)
    draws = _record_augment_draws(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the two threads trade the lock as often as they can
    try:
        two, _ = run_distill(cfg, real)
    finally:
        sys.setswitchinterval(interval)
    # step 0 draws its own refill; on the primal route each later refill is
    # drawn by the step that took the last array before it, on the helper
    caller = threading.current_thread().name
    helper = [name.startswith("clpdd-rows") for name in draws[0].threads]
    assert helper == [False] + [ahead_on_helper] * (refills - 1)
    assert draws[0].threads[0] == caller
    if ahead_on_helper:
        assert two_lanes.count((0, batch_rows)) == cfg.iterations  # the encode beside each solve
    ref = rng_stream(cfg.seed, "augment")
    for _ in range(refills * k):
        ref.standard_normal(shape)
    assert draws[0].rng.bit_generator.state == ref.bit_generator.state
    monkeypatch.setattr(clpdd.linalg, "_affinity_cpus", lambda: 1)
    one, _ = run_distill(cfg, real)
    assert draws[1].threads == [caller] * refills
    assert draws[1].rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(one.inputs, two.inputs)


def test_a_divergence_while_the_helper_draws_leaves_it_idle(monkeypatch, two_lanes):
    real, cfg = _above_floor_task()
    first, _ = run_distill(cfg, real)
    parts = []
    run_under = clpdd.linalg._run_under

    def tracked(errstate, part, args):
        parts.append("start")
        run_under(errstate, part, args)
        parts.append("end")

    monkeypatch.setattr(clpdd.linalg, "_run_under", tracked)
    ridge_kernel_of, solves = clpdd.distill._ridge_kernel, []

    def failing(*args):
        solves.append(len(solves))
        if len(solves) == 3:  # step 2's solve, while the helper draws step 3's noise
            raise FloatingPointError("solve failed")
        return ridge_kernel_of(*args)

    monkeypatch.setattr(clpdd.distill, "_ridge_kernel", failing)
    with pytest.raises(FloatingPointError, match="^solve failed$"):
        run_distill(cfg, real)
    assert parts == ["start", "end"] * 3  # each part ran to its end, none is pending
    monkeypatch.setattr(clpdd.distill, "_ridge_kernel", ridge_kernel_of)
    again, _ = run_distill(cfg, real)
    assert np.array_equal(again.inputs, first.inputs)
    # a step's own guard reports its iteration as on one lane
    diverging = DistillConfig(**{**cfg.__dict__, "tau": 1e-12})
    with pytest.raises(DistillDivergenceError) as two:
        run_distill(diverging, real)
    assert parts.count("start") == parts.count("end")
    monkeypatch.setattr(clpdd.linalg, "_affinity_cpus", lambda: 1)
    with pytest.raises(DistillDivergenceError) as one:
        run_distill(diverging, real)
    assert str(two.value) == str(one.value)
    assert " at iteration 0 (lambda=0.1, tau=1e-12, " in str(two.value)


def test_the_tiny_step_draws_as_before(monkeypatch, two_lanes):
    # the default 5 x 16 task: each refill of about BLOCK_DOUBLES values feeds
    # 102 steps in the caller, and the identity encoder sends the stream nothing
    monkeypatch.setattr(clpdd.linalg, "_helper", None)
    calls, arrays, sends = [], [], []
    for module, name in ((clpdd.distill, "run_beside"), (clpdd.linalg, "_with_helper")):
        monkeypatch.setattr(module, name, lambda *a, _name=name: calls.append(_name))
    augment_noise_of = clpdd.distill.augment_noise

    def recorded_noise(*args):
        for noise in augment_noise_of(*args):
            arrays.append(noise)
            sent = yield noise
            if sent is not None:
                sends.append(sent)

    monkeypatch.setattr(clpdd.distill, "augment_noise", recorded_noise)
    threads = threading.active_count()
    train, _ = gen_blobs(5, 16, 250, 0.1, 0.15, seed=0, anisotropic=True)
    run_distill(DistillConfig(iterations=120), train)
    block = BLOCK_DOUBLES // (5 * 16)
    assert calls == [] and two_lanes == [] and sends == []
    assert [a.base.shape for a in arrays] == [(2, block, 5, 16)] * 120
    assert len({id(a.base) for a in arrays}) == 1  # one ring of two refills
    assert clpdd.linalg._helper is None and threading.active_count() == threads


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
        syn.inputs, syn.onehot_labels(), adam, cfg, enc,
        *_step_streams(cfg, train, syn.inputs.shape), 0,
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
    x_real, labels = next(balanced_batches(train, 2, rng_stream(5, "batch")))
    for objective in ("class_anchor", "mse"):
        _, analytic = meta_loss_and_grad(inputs, y, enc, x_real, labels, 0.1, 0.07, objective)
        fd = central_diff_grad(
            lambda xp: meta_loss_and_grad(xp, y, enc, x_real, labels, 0.1, 0.07, objective)[0],
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
    x_real, labels = 0.4 * rng.standard_normal((4, d_in)), np.array([0, 1, 0, 1])
    _, analytic = meta_loss_and_grad(inputs, y, enc, x_real, labels, 0.1, 0.07, "class_anchor")
    fd = central_diff_grad(
        lambda xp: meta_loss_and_grad(xp, y, enc, x_real, labels, 0.1, 0.07, "class_anchor")[0],
        inputs,
    )
    assert max_rel_err(analytic, fd) <= 1e-5


def _public_chain(inputs, y, enc, x_real, labels, lam, tau, objective):
    """meta_loss_and_grad spelled out with the checked public functions;
    `encode_vjp` recomputes the mlp1 activation that the core reuses."""
    x_syn = encode(enc, inputs)
    sol = ridge_kernel(x_syn, y, lam)
    feats = encode(enc, x_real)
    if objective == "class_anchor":
        loss, g = class_anchor_loss_and_grad(feats, labels, sol.w_star, tau)
    else:
        loss, g = mse_outer_loss_and_grad(feats, labels, sol.w_star)
    grad = encode_vjp(enc, inputs, solve_backward(sol, x_syn, g))
    return loss, grad, sol.mode


@pytest.mark.parametrize("c, d, hidden, ipc, mode", [
    # N = c * ipc rows: 3 < d takes the kernel solve, 12 >= d the primal
    pytest.param(3, 6, 5, 1, "kernel", id="1-kernel"),
    pytest.param(3, 6, 5, 4, "primal", id="4-primal"),
    # 400 rows >= d: the encoder, its VJP and the primal backward each clear
    # SPLIT_MIN_MADDS, so they run on two lanes
    pytest.param(200, 256, 256, 2, "primal", id="2-primal-two-lanes"),
])
@pytest.mark.parametrize("objective", OUTER_OBJECTIVES)
@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_meta_loss_cores_match_the_public_chain(request, monkeypatch, kind, objective, c, d,
                                                 hidden, ipc, mode):
    # the step runs unchecked cores; they must compute the same loss bits as
    # the checked functions a library caller sees, and the same bits as one
    # lane does. The gradient holds the same bits too, but where linear and
    # mlp1 take the primal backward's factors U, V through the encoder: the
    # public chain applies their product U V^T, which moves last bits
    two_lanes = request.getfixturevalue("two_lanes") if c * ipc >= 400 else None
    rng = np.random.default_rng(21)
    enc = make_encoder(kind, d, d, hidden_dim=hidden, seed=9)
    inputs = 0.5 * rng.standard_normal((c * ipc, d))
    y = np.repeat(np.eye(c), ipc, axis=0)
    x_real, labels = 0.4 * rng.standard_normal((4 * c, d)), np.repeat(np.arange(c), 4)
    loss, grad = meta_loss_and_grad(inputs, y, enc, x_real, labels, 0.1, 0.07, objective)
    ref_loss, ref_grad, ref_mode = _public_chain(
        inputs, y, enc, x_real, labels, 0.1, 0.07, objective
    )
    assert ref_mode == mode
    assert loss == ref_loss
    if mode == "kernel" or kind == "identity":
        assert np.array_equal(grad, ref_grad)
    else:
        assert max_rel_err(grad, ref_grad) <= 1e-12
    if two_lanes is not None:
        # the helper's rows of each split block: per chain, the primal p and
        # the backward's U, each split at row 192; identity, and the public
        # chain, expand U V^T there too. For linear and mlp1 the synthetic
        # encode and the VJP split at row 192, and the step's VJP splits the
        # 256 rows of W V (linear's w, mlp1's w2) at row 96. The step encodes
        # the real batch's 800 rows whole beside the solve; the public chain
        # splits them at row 384.
        if kind == "identity":
            assert two_lanes == [(0, 192)] * 6
        else:
            step = [(0, 192), (0, 800), (0, 192), (0, 192), (0, 96), (0, 192)]
            public = [(0, 192), (0, 192), (0, 384), (0, 192), (0, 192), (0, 192)]
            assert two_lanes == step + public
        monkeypatch.setattr(clpdd.linalg, "_affinity_cpus", lambda: 1)
        one_lane = meta_loss_and_grad(inputs, y, enc, x_real, labels, 0.1, 0.07, objective)
        assert one_lane[0] == loss
        assert np.array_equal(one_lane[1], grad)


def test_same_seed_identical_loss_sequences():
    train, _ = _blob_task()
    cfg = _tiny_cfg(iterations=10, augment_noise_sigma=0.01)
    _, curve1 = run_distill(cfg, train)
    _, curve2 = run_distill(cfg, train)
    assert [m.outer_loss for m in curve1] == [m.outer_loss for m in curve2]


# the linear encoder's primal route (ipc 2: N = 6 >= d = 5) sends the noise
# stream True in every step but the last: its 6 x 5 noise fills refills of 2
# arrays when a refill holds 60 values, and of one at 59; at 31 steps the last
# step's refill is drawn ahead by the step before
@pytest.mark.parametrize(
    "objective, ipc, sigma, block_doubles, iterations, kind",
    [
        ("class_anchor", 1, 0.01, 60, 30, "identity"),
        ("mse", 1, 0.01, 60, 30, "identity"),
        ("class_anchor", 2, 0.01, 60, 30, "identity"),
        ("mse", 2, 0.0, 60, 30, "identity"),
        ("class_anchor", 2, 0.01, BLOCK_DOUBLES, 300, "identity"),  # crosses one noise refill
        ("class_anchor", 2, 0.01, 60, 30, "linear"),
        ("class_anchor", 2, 0.01, 59, 30, "linear"),
        ("class_anchor", 2, 0.01, 60, 31, "linear"),
    ],
    ids=["class_anchor-1-0.01-60-30", "mse-1-0.01-60-30", "class_anchor-2-0.01-60-30",
         "mse-2-0.0-60-30", "class_anchor-2-0.01-8192-300", "linear-blocks", "linear-two-arrays",
         "linear-blocks-odd-budget"],
)
def test_run_distill_matches_a_loop_drawing_every_step(
    monkeypatch, objective, ipc, sigma, block_doubles, iterations, kind
):
    monkeypatch.setattr(clpdd.distill, "BLOCK_DOUBLES", block_doubles)
    then_next, sends = clpdd.distill._then_next, []

    def counted(*args):
        sends.append(len(sends))
        then_next(*args)

    monkeypatch.setattr(clpdd.distill, "_then_next", counted)
    draws = _record_augment_draws(monkeypatch)
    train, _ = _blob_task()
    cfg = _tiny_cfg(
        iterations=iterations, ipc=ipc, augment_noise_sigma=sigma, outer_objective=objective,
        encoder_kind=kind,
    )
    syn, curve = run_distill(cfg, train)
    assert len(sends) == (iterations - 1 if kind == "linear" else 0)
    # the "augment" generator ends after the refills that hold the run's arrays
    k = max(1, block_doubles // (3 * ipc * train.dim))
    assert len(draws[0].threads) == (math.ceil(iterations / k) if sigma else 0)
    init = init_synthetic(3, ipc, train.dim, seed=stream_seed(cfg.seed, "init"))
    enc, y = cfg.build_encoder(train.dim), init.onehot_labels()

    def loss_and_grad(x_aug, x_real, labels):
        return meta_loss_and_grad(x_aug, y, enc, x_real, labels, cfg.lam, cfg.tau, objective)

    ref_inputs, ref_losses = distill_loop_ref(
        init.inputs, train.inputs, train.labels, 3, cfg, loss_and_grad,
        rng_stream(cfg.seed, "batch"), rng_stream(cfg.seed, "augment"),
    )
    assert [m.outer_loss for m in curve] == ref_losses
    assert np.array_equal(syn.inputs, ref_inputs)


def test_run_distill_zero_iterations_is_noop():
    train, _ = _blob_task()
    cfg = _tiny_cfg(iterations=0)
    syn, curve = run_distill(cfg, train)
    init = init_synthetic(3, 1, train.dim, seed=stream_seed(cfg.seed, "init"))
    assert np.array_equal(syn.inputs, init.inputs)
    assert curve == []


@pytest.mark.parametrize("name", ["syn.clpf", "syn.csv"])
def test_distilled_set_round_trips_through_feature_files(tmp_path, name):
    train, _ = _blob_task()
    syn, _ = run_distill(_tiny_cfg(ipc=2, augment_noise_sigma=0.01), train)
    assert np.array_equal(syn.labels, np.repeat(np.arange(3), 2))
    save_features(syn, tmp_path / name, dtype="f64")
    assert datasets_equal(load_features(tmp_path / name), syn)


def test_run_distill_loss_decreases_on_blobs():
    for seed in range(5):
        train, ev = gen_blobs(
            5, 16, 40, center_scale=0.1, cluster_std=0.15, seed=seed, anisotropic=True
        )
        cfg = DistillConfig(iterations=500, seed=seed, eval_every=250)
        _, curve = run_distill(cfg, train, ev)
        assert curve[-1].outer_loss < curve[0].outer_loss


def test_run_distill_curve_bookkeeping():
    train, ev = _blob_task()
    cfg = _tiny_cfg(iterations=7, eval_every=3)
    _, curve = run_distill(cfg, train, ev)
    assert len(curve) == 7
    assert [m.iteration for m in curve] == list(range(7))
    recorded = [m.iteration for m in curve if m.eval_acc is not None]
    assert recorded == [2, 5]  # every eval_every steps


def test_labels_fixed_across_steps():
    train, _ = _blob_task()
    cfg = _tiny_cfg(iterations=8)
    enc = cfg.build_encoder(train.dim)
    syn = init_synthetic(3, 1, train.dim, seed=0)
    inputs, y_onehot = syn.inputs, syn.onehot_labels()
    label_bytes = y_onehot.tobytes()
    adam = AdamState.like(inputs)
    batches, noise = _step_streams(cfg, train, inputs.shape)
    for t in range(8):
        inputs, _ = distill_step(inputs, y_onehot, adam, cfg, enc, batches, noise, t)
    assert y_onehot.tobytes() == label_bytes


def test_adam_step_norm_bound():
    train, _ = _blob_task()
    for objective in ("class_anchor", "mse"):
        cfg = _tiny_cfg(iterations=100, outer_objective=objective, augment_noise_sigma=0.01)
        enc = cfg.build_encoder(train.dim)
        syn = init_synthetic(3, 1, train.dim, seed=0)
        inputs, y_onehot = syn.inputs, syn.onehot_labels()
        adam = AdamState.like(inputs)
        batches, noise = _step_streams(cfg, train, inputs.shape)
        bound = np.sqrt(inputs.size)
        for t in range(cfg.iterations):
            prev = inputs
            inputs, metrics = distill_step(inputs, y_onehot, adam, cfg, enc, batches, noise, t)
            assert np.isfinite(metrics.outer_loss)
            assert np.linalg.norm(inputs - prev) <= metrics.lr * bound


def test_inputs_stay_finite_across_run():
    train, _ = _blob_task()
    cfg = _tiny_cfg(iterations=50, augment_noise_sigma=0.01)
    syn, _ = run_distill(cfg, train)
    assert np.all(np.isfinite(syn.inputs))


def _nan_row(train, ev):
    inputs = train.inputs.copy()
    inputs[7, 2] = np.nan
    return Dataset(inputs, train.labels, train.class_count), ev, None


def _no_classes(train, ev):
    return Dataset(np.zeros((0, train.dim)), np.zeros(0, dtype=np.int64), 0), ev, None


def _class_without_rows(train, ev):
    return Dataset(train.inputs, train.labels, train.class_count + 1), ev, None


def _rows_without_features(train, ev):
    return Dataset(np.zeros((train.n, 0)), train.labels, train.class_count), None, None


def _eval_split_of_other_dim(train, ev):
    return train, Dataset(ev.inputs[:, :4], ev.labels, ev.class_count), None


def _encoder_of_other_dim(train, ev):
    return train, ev, make_encoder("identity", train.dim + 1)


def _eval_split_with_classes_the_real_set_lacks(train, ev):
    labels = ev.labels.copy()
    labels[:2] = [3, 4]
    return train, Dataset(ev.inputs, labels, 5), None


@pytest.mark.parametrize(
    "build, error, match",
    [
        (_nan_row, NonFiniteFeatureError, r"^row 7 holds non-finite features \(1 bad row in"),
        (_rows_without_features, ShapeError, r"^rows have no features \(dim 0\)$"),
        (_no_classes, ShapeError, r"^no classes \(class count 0\)$"),
    ],
    ids=["nan_row", "no_features", "no_classes"],
)
def test_run_distill_never_sees_a_set_the_dataset_rejects(build, error, match):
    # a Dataset checks its own rows when it is built, so run_distill need not
    with pytest.raises(error, match=match):
        build(*_blob_task())


@pytest.mark.parametrize(
    "build, error, match",
    [
        (_class_without_rows, MissingClassError, r"^real set: no rows for class ids \[3\] of 4"),
        (_eval_split_of_other_dim, DimensionError, r"^eval split is 4-dim, real set 5-dim$"),
        (_encoder_of_other_dim, DimensionError, r"^encoder expects 6-dim inputs, real set has 5"),
        (
            _eval_split_with_classes_the_real_set_lacks,
            MissingClassError,
            r"^real set: no rows for class ids \[3, 4\] of 5 classes$",
        ),
    ],
    ids=["class_without_rows", "eval_dim", "encoder_dim", "eval_classes"],
)
def test_run_distill_rejects_bad_data_before_the_first_step(monkeypatch, build, error, match):
    # a set may lack rows of a class, and its dims are the run's to match:
    # run_distill checks both once, before any step
    steps = []
    step = clpdd.distill.distill_step

    def counted(*args, **kwargs):
        steps.append(args[-1])
        return step(*args, **kwargs)

    monkeypatch.setattr(clpdd.distill, "distill_step", counted)
    real, ev, enc = build(*_blob_task())
    with pytest.raises(error, match=match):
        run_distill(_tiny_cfg(), real, ev, enc=enc)
    assert steps == []


def test_distill_step_rejects_encoder_of_other_dim():
    train, _ = _blob_task()  # 5-dim rows
    cfg = _tiny_cfg()
    syn = init_synthetic(3, 1, 6, seed=0)
    with pytest.raises(DimensionError, match=r"^encoder expects 6-dim inputs, real set has 5"):
        distill_step(
            syn.inputs, syn.onehot_labels(), AdamState.like(syn.inputs), cfg,
            make_encoder("identity", 6), *_step_streams(cfg, train, syn.inputs.shape), 0,
        )


@pytest.mark.parametrize("name", ["train.clpf", "train.csv"])
def test_run_distill_does_not_rescan_a_loaded_set(tmp_path, monkeypatch, name):
    save_features(_blob_task()[0], tmp_path / name)
    scanned = []
    isfinite = np.isfinite

    def recorded(x, *args, **kwargs):
        scanned.append(x)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", recorded)
    train = load_features(tmp_path / name)
    assert sum(x is train.inputs for x in scanned) == 1  # the scan at load
    scanned.clear()
    run_distill(_tiny_cfg(), train)
    run_distill(_tiny_cfg(outer_objective="mse"), train)
    assert not any(x is train.inputs for x in scanned)


def test_gradient_explosion_guard():
    train, _ = _blob_task()
    cfg = DistillConfig(iterations=3, tau=1e-12, augment_noise_sigma=0.0, seed=0)
    with pytest.raises(DistillDivergenceError) as ei:
        run_distill(cfg, train)
    assert "iteration" in str(ei.value)
    assert "lambda" in str(ei.value)


@pytest.mark.parametrize(
    "loss, grad, update, what",
    [
        (np.nan, 0.0, None, "non-finite loss/gradient"),
        (1.0, 1e7, None, f"gradient norm {1e7 * np.sqrt(15):.3e} exceeds 1e+06"),
        (1.0, 0.1, np.inf, "synthetic inputs became non-finite"),
    ],
    ids=["loss", "grad_norm", "inputs"],
)
def test_each_step_guard_names_what_failed_the_iteration_and_the_bound(
    monkeypatch, loss, grad, update, what
):
    train, _ = _blob_task()
    cfg = _tiny_cfg(lam=0.3, tau=0.2)
    syn = init_synthetic(3, 1, 5, seed=0)
    monkeypatch.setattr(
        clpdd.distill, "meta_loss_and_grad", lambda x, *a: (loss, np.full(x.shape, grad))
    )
    if update is not None:

        def adam_update(state, grad, param, lr):
            grad[...] = param - update

        monkeypatch.setattr(clpdd.distill, "adam_update", adam_update)
    with pytest.raises(DistillDivergenceError) as ei:
        distill_step(
            syn.inputs, syn.onehot_labels(), AdamState.like(syn.inputs), cfg,
            make_encoder("identity", 5), *_step_streams(cfg, train, syn.inputs.shape), 7,
        )
    # sigma = 0, so the step's inputs are the synthetic inputs themselves
    mu = np.linalg.eigvalsh(syn.inputs @ syn.inputs.T)[-1]
    bound = f"cond(A) <= {(mu + 0.3) / 0.3:.3e}"
    assert str(ei.value) == f"{what} at iteration 7 (lambda=0.3, tau=0.2, {bound})"


def test_cosine_schedule_endpoints():
    assert cosine_lr(0.05, 0, 1000) == pytest.approx(0.05)
    assert cosine_lr(0.05, 500, 1000) == pytest.approx(0.025)
    assert cosine_lr(0.05, 1000, 1000) == pytest.approx(0.0, abs=1e-18)


def test_cosine_lr_without_a_budget_is_the_base_rate():
    assert cosine_lr(0.05, 0, 0) == 0.05


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
