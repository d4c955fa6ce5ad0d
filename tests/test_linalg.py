import multiprocessing
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import clpdd.distill
import clpdd.encoder
import clpdd.evaluation
import clpdd.linalg
import clpdd.solver
from clpdd.data import Dataset
from clpdd.distill import DistillConfig, run_distill
from clpdd.encoder import encode, encode_vjp, make_encoder
from clpdd.evaluation import train_linear_probe
from clpdd.linalg import (
    SPLIT_MIN_MADDS,
    SPLIT_ROW_STEP,
    DimensionError,
    NotPositiveDefiniteError,
    cholesky_factor,
    run_beside,
    run_row_halves,
)
from clpdd.solver import ridge_kernel, solve_backward


def test_lapack_routines_are_scipys():
    from scipy.linalg import lapack

    assert clpdd.linalg.dpotrf is lapack.dpotrf
    assert clpdd.linalg.dpotrs is lapack.dpotrs


def test_lapack_loader_names_the_directory_searched(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        clpdd.linalg._load_flapack(tmp_path)


def test_cholesky_scaled_identity():
    z = cholesky_factor(2.0 * np.eye(4)).solve(np.eye(4))
    assert np.allclose(z, 0.5 * np.eye(4), rtol=0, atol=1e-14)


def test_cholesky_residual():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))
    a = m.T @ m + 0.1 * np.eye(6)
    b = rng.standard_normal((6, 2))
    z = cholesky_factor(a).solve(b)
    assert np.linalg.norm(a @ z - b) <= 1e-10 * np.linalg.norm(b)


def test_cholesky_residual_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        m = rng.standard_normal((n, n))
        a = m.T @ m + float(rng.uniform(0.01, 1.0)) * np.eye(n)
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        z = cholesky_factor(a).solve(b)
        assert np.linalg.norm(a @ z - b) <= 1e-10 * np.linalg.norm(b)


def test_cholesky_singular_reports_pivot():
    v = np.ones((4, 1))
    a = v @ v.T  # rank one, lambda = 0
    with pytest.raises(NotPositiveDefiniteError) as ei:
        cholesky_factor(a).solve(np.eye(4))
    assert ei.value.pivot == 2


def test_cholesky_rejects_non_square():
    with pytest.raises(DimensionError):
        cholesky_factor(np.ones((2, 3)))


@pytest.mark.parametrize("n, d", [(5, 16), (40, 12)], ids=["kernel", "primal"])
def test_gram_products_are_exactly_symmetric(n, d):
    # cholesky_factor reads only the lower triangle of the Gram matrices the
    # solver builds; distilled sets keep their bytes only if the BLAS returns
    # both products exactly symmetric
    x = np.random.default_rng(6).standard_normal((n, d))
    for gram in (x @ x.T, x.T @ x):
        assert np.array_equal(gram, gram.T)


def test_cholesky_dim_mismatch():
    with pytest.raises(DimensionError):
        cholesky_factor(np.eye(3)).solve(np.eye(4))


def test_cholesky_factor_reuse():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5))
    a = m.T @ m + np.eye(5)
    f = cholesky_factor(a)
    for _ in range(3):
        b = rng.standard_normal((5, 2))
        assert np.linalg.norm(a @ f.solve(b) - b) <= 1e-10 * np.linalg.norm(b)


# --- row halves --------------------------------------------------------------

# (rows, dim, probe_dim, classes, helper rows). `_row_blocks` runs both
# encoders' forward pass and VJP on rows x dim inputs with dim x dim weights,
# the ridge solve's p = (Y - X W*)/lam and its backward on rows x probe_dim
# features of `classes` classes (in row halves on the primal route only, where
# rows >= probe_dim), and one full-batch epoch of the trained probe on those
# features: its batch rows, then the probe_dim rows of its weights. The
# helper's half of each split block covers rows [0, h), h listed in that
# order. In the first case every block sits one step under SPLIT_MIN_MADDS,
# and in the second just above it. The ragged shapes are ones whose halves at
# rows / 2 would not keep their bits; 256 and 232 are the linear probe's
# batches at the primal benchmark shape, whose ridge solve takes the kernel
# route.
ROW_CASES = [(240, 209, 240, 182, []), (240, 210, 240, 183, [96] * 8),
             (1000, 512, 512, 100, [480] * 7 + [240]), (973, 187, 187, 323, [480] * 7 + [48]),
             (256, 512, 512, 100, [96] * 5 + [240]), (232, 512, 512, 100, [96] * 5 + [240])]


def test_row_case_shapes_sit_where_they_say():
    assert SPLIT_ROW_STEP == 48
    assert 96 * 209 * 209 < SPLIT_MIN_MADDS <= 96 * 210 * 210
    assert 96 * 240 * 182 < SPLIT_MIN_MADDS <= 96 * 240 * 183
    # the probe's 96-row half of a batch's logits is the smaller of its blocks
    assert SPLIT_MIN_MADDS <= 96 * 512 * 100 < 240 * 232 * 100


def _row_blocks(rows, dim, probe_dim, classes):
    """Every row-wise block that goes through `run_row_halves`: the forward
    pass and VJP of both encoders, the primal probe's p and backward, and a
    trained probe's step."""
    rng = np.random.default_rng(rows)
    out = []
    for kind in ("linear", "mlp1"):
        enc = make_encoder(kind, dim, dim, hidden_dim=dim, seed=4)
        inputs = 0.5 * rng.standard_normal((rows, dim))
        out.append(encode(enc, inputs))
        out.append(encode_vjp(enc, inputs, rng.standard_normal((rows, dim))))
    x = rng.standard_normal((rows, probe_dim))
    sol = ridge_kernel(x, np.eye(classes)[rng.integers(0, classes, rows)], 0.1)
    out.append(solve_backward(sol, x, rng.standard_normal((probe_dim, classes))))
    probe_set = Dataset(x, np.arange(rows) % classes, classes)
    out.append(train_linear_probe(probe_set, probe_set, epochs=1, batch_size=rows, seed=1).w)
    return out


@pytest.mark.parametrize("rows, dim, probe_dim, classes, helper_rows", ROW_CASES,
                         ids=["below", "at", "1000x512", "ragged", "probe-256", "probe-232"])
def test_row_halves_keep_every_bit(two_lanes, monkeypatch, rows, dim, probe_dim, classes,
                                   helper_rows):
    split = _row_blocks(rows, dim, probe_dim, classes)
    assert two_lanes == [(0, h) for h in helper_rows]
    monkeypatch.setattr(clpdd.linalg, "_affinity_cpus", lambda: 1)
    whole = _row_blocks(rows, dim, probe_dim, classes)
    assert len(two_lanes) == len(helper_rows)
    for a, b in zip(split, whole):
        assert np.array_equal(a, b)


def test_row_halves_allocate_only_in_the_caller(monkeypatch):
    # every part writes into arrays allocated before the split, so the helper
    # thread never needs a large block from the allocator
    peaks = []

    def traced(part, args):
        tracemalloc.start()
        try:
            part(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    def traced_halves(part, row_madds, *arrays):
        half = arrays[0].shape[0] // 2
        for rows in (slice(0, half), slice(half, None)):
            traced(part, [a[rows] for a in arrays])

    def traced_beside(part, row_madds, work, *arrays):
        result = work()
        traced(part, arrays)
        return result

    for module in (clpdd.encoder, clpdd.solver, clpdd.evaluation, clpdd.distill):
        monkeypatch.setattr(module, "run_row_halves", traced_halves)
    monkeypatch.setattr(clpdd.distill, "run_beside", traced_beside)
    rng = np.random.default_rng(0)
    inputs = 0.5 * rng.standard_normal((1000, 512))
    upstream = rng.standard_normal((1000, 512))
    for kind in ("linear", "mlp1"):
        enc = make_encoder(kind, 512, 512, hidden_dim=512, seed=4)
        _, hidden = clpdd.encoder._encode(enc, inputs)
        clpdd.encoder._encode_vjp(enc, inputs, upstream, hidden)
        encode_vjp(enc, inputs, upstream)
    sol = ridge_kernel(inputs, np.eye(100)[rng.integers(0, 100, 1000)], 0.1)
    assert sol.mode == "primal"
    solve_backward(sol, inputs, rng.standard_normal((512, 100)))
    assert len(peaks) == 16
    # one probe epoch: four batches, each a block over its rows and one over w's
    features = Dataset(inputs, np.arange(1000) % 100, 100)
    train_linear_probe(features, features, epochs=1, seed=2)
    assert len(peaks) == 16 + 4 * 2 * 2
    # one distill step on 1000 x 512 synthetic inputs; with the identity
    # encoder its row blocks are the primal p and backward, and Adam
    run_distill(DistillConfig(ipc=10, iterations=1), features)
    assert len(peaks) == 16 + 16 + 3 * 2
    # with mlp1 the step also encodes the synthetic set and takes its VJP in
    # halves, and encodes the 400-row real batch whole beside the solve
    run_distill(DistillConfig(ipc=10, iterations=1, encoder_kind="mlp1"), features)
    assert len(peaks) == 16 + 16 + 3 * 2 + 5 * 2 + 1
    assert max(peaks) <= 256 << 10, peaks


# the two ways to hand a part to the helper, with the rows it takes of a
# 192-row block: the first half of the split, or the whole block beside
# `work`, which here runs the part on the last 96 rows in the caller
HANDOVERS = [
    pytest.param(run_row_halves, (0, 96), id="row-halves"),
    pytest.param(lambda part, row_madds, *arrays: run_beside(
        part, row_madds, lambda: part(*(a[96:] for a in arrays)), *arrays), (0, 192), id="beside"),
]


def _on_helper() -> bool:
    return threading.current_thread().name.startswith("clpdd-rows")


def test_row_halves_hand_each_lane_its_rows_of_every_array(two_lanes):
    a = np.arange(192.0)[:, None] * np.ones((1, 256))  # row i holds i
    out, seen = np.zeros((192, 2)), {}

    def part(x, o):
        seen[_on_helper()] = (x[0, 0], x.shape[0], o.shape[0])
        o[:] = x[:, :2]

    run_row_halves(part, 256 * 256, a, out)
    assert seen == {True: (0.0, 96, 96), False: (96.0, 96, 96)} and two_lanes == [(0, 96)]
    assert np.array_equal(out, a[:, :2])


@pytest.mark.parametrize("hand_over, helper_rows", HANDOVERS)
def test_helper_part_runs_under_the_callers_error_state(two_lanes, hand_over, helper_rows):
    a, w = np.full((192, 256), 1e306), np.full((256, 256), 10.0)  # every product overflows
    out = np.empty((192, 256))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            hand_over(lambda x, o: np.matmul(x, w, o), w.size, a, out)
    assert two_lanes == [helper_rows] and np.isposinf(out).all()


@pytest.mark.parametrize("hand_over, helper_rows", HANDOVERS)
def test_helper_part_calls_the_callers_error_callback(two_lanes, hand_over, helper_rows):
    a, w = np.full((192, 256), 1e306), np.full((256, 256), 10.0)
    out, calls = np.empty((192, 256)), []
    with np.errstate(all="call", call=lambda kind, flag: calls.append(kind)):
        hand_over(lambda x, o: np.matmul(x, w, o), w.size, a, out)
    assert two_lanes == [helper_rows] and calls == ["overflow", "overflow"]


def _halves(raise_in, log):
    """A part whose `raise_in` half fails at once while the other half takes
    a while and logs when it is done."""

    def part(rows):
        half = "helper" if _on_helper() else "caller"
        if half == raise_in:
            raise KeyError(half)
        time.sleep(0.05)
        log.append(half)

    return part


@pytest.mark.parametrize("raise_in", ["helper", "caller"])
@pytest.mark.parametrize("hand_over, helper_rows", HANDOVERS)
def test_helper_and_caller_raise_after_both_finish(two_lanes, hand_over, helper_rows, raise_in):
    log = []
    with pytest.raises(KeyError, match=raise_in):
        hand_over(_halves(raise_in, log), 256 * 256, np.arange(192))
    assert log == [{"helper": "caller", "caller": "helper"}[raise_in]]
    assert two_lanes == [helper_rows]


def test_beside_returns_the_work_and_runs_the_part_whole_on_the_helper(two_lanes):
    rng = np.random.default_rng(9)
    a, w = rng.standard_normal((96, 256)), rng.standard_normal((256, 256))
    out, where = np.empty((96, 256)), []

    def part(x, o):
        where.append(threading.current_thread())
        np.matmul(x, w, o)

    assert run_beside(part, w.size, threading.current_thread, a, out) is threading.current_thread()
    assert two_lanes == [(0, 96)] and where[0] is not threading.current_thread()
    assert np.array_equal(out, a @ w)


def test_beside_below_the_floor_runs_the_part_after_the_work_and_starts_no_thread(
    two_lanes, monkeypatch
):
    monkeypatch.setattr(clpdd.linalg, "_helper", None)
    threads = threading.active_count()
    log = []
    result = run_beside(lambda rows: log.append(len(rows)), SPLIT_MIN_MADDS // 16,
                        lambda: log.append("work") or 7, np.arange(15))
    assert result == 7 and log == ["work", 15] and two_lanes == []
    assert clpdd.linalg._helper is None and threading.active_count() == threads


def test_a_hand_over_called_on_the_helper_runs_whole(two_lanes, monkeypatch):
    # the helper's executor has one thread: a half that the helper itself
    # queued there would wait behind the part that waits for it, forever
    monkeypatch.setattr(clpdd.linalg, "_helper", None)  # a helper of this test's own
    rng = np.random.default_rng(10)
    a, w = rng.standard_normal((192, 256)), rng.standard_normal((256, 256))
    out, inner = np.full((192, 256), np.nan), []

    def rows(x, o):
        inner.append((threading.current_thread().name, x.shape[0]))
        np.matmul(x, w, o)

    def part(x, o):
        run_row_halves(rows, w.size, x, o)
        run_beside(rows, w.size, lambda: None, x, o)

    caller = threading.Thread(target=run_beside, args=(part, w.size, lambda: None, a, out))
    caller.start()
    caller.join(timeout=30)
    stuck = caller.is_alive()
    if stuck:  # cancel the queued half, or the interpreter waits for the helper at exit
        clpdd.linalg._helper.shutdown(wait=False, cancel_futures=True)
        caller.join(timeout=30)
    assert not stuck
    assert two_lanes == [(0, 192)]  # the outer part; both inner calls stayed on the helper
    assert [n for _, n in inner] == [192] * 2
    assert all(name.startswith("clpdd-rows") for name, _ in inner)
    assert np.array_equal(out, a @ w)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the OS names no CPU set")
def test_affinity_cpus_counts_the_cpus_this_process_may_run_on():
    assert clpdd.linalg._affinity_cpus() == len(os.sched_getaffinity(0))


def test_one_cpu_starts_no_thread(two_lanes, monkeypatch):
    monkeypatch.setattr(clpdd.linalg, "_affinity_cpus", lambda: 1)
    monkeypatch.setattr(clpdd.linalg, "_helper", None)
    threads = threading.active_count()
    rows = []
    run_row_halves(lambda r: rows.append(len(r)), 512 * 512, np.arange(1000))
    assert rows == [1000] and two_lanes == []
    assert clpdd.linalg._helper is None and threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a child")
def test_a_forked_child_makes_its_own_helper(two_lanes):
    # the parent's helper thread is not copied into a child; a child that
    # kept the parent's executor would queue its half and wait forever
    run_row_halves(lambda rows: None, 256 * 256, np.arange(192))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        child = multiprocessing.get_context("fork").Process(
            target=run_row_halves, args=(lambda rows: None, 256 * 256, np.arange(192))
        )
        child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0 and len(two_lanes) == 1


def test_row_halves_stay_whole_with_more_blas_threads(two_lanes, monkeypatch):
    monkeypatch.setattr(clpdd.linalg, "_blas_threads", lambda: 2)
    run_row_halves(lambda rows: None, 512 * 512, np.arange(1000))
    assert two_lanes == []


def test_callers_on_many_threads_share_the_helper(two_lanes):
    # more callers than CPUs, each splitting through the one helper thread;
    # a half lost or run twice would leave a row of its output wrong
    rng = np.random.default_rng(8)
    a, w = rng.standard_normal((192, 256)), rng.standard_normal((256, 256))
    want = a @ w
    wrong = []

    def caller():
        for _ in range(20):
            out = np.full_like(want, np.nan)
            run_row_halves(lambda x, o: np.matmul(x, w, o), w.size, a, out)
            if not np.array_equal(out, want):
                wrong.append(out)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert wrong == [] and len(two_lanes) == 80
