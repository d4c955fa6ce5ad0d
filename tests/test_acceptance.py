"""Acceptance gate: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time

import numpy as np
import pytest

from clpdd.cli import cmd_distill, cmd_gradcheck, compare_report, config_text, default_config
from clpdd.data import (
    BadMagicError,
    Dataset,
    TruncatedFileError,
    load_features,
    save_features,
)
from clpdd.distill import DistillConfig
from clpdd.solver import gd_steady_state, ridge_kernel, ridge_primal

from oracles import datasets_equal, dense_max_eig, random_onehot


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def compare_run():
    """The toy distillation-vs-selection protocol shared by criteria 4 and 5."""
    cfg = default_config()
    # the default config IS the acceptance protocol; pin it here so a default
    # drift fails loudly instead of silently testing something else
    assert cfg["blob_classes"] == 5 and cfg["blob_dim"] == 16
    assert cfg["blob_per_class"] == 250 and cfg["blob_anisotropic"]
    assert cfg["encoder"] == "identity" and cfg["ipc"] == 1
    assert cfg["iterations"] == 1000 and cfg["compare_seeds"] == 5
    assert cfg["lambda"] == 0.1 and cfg["tau"] == 0.07 and cfg["b_per_class"] == 4
    from clpdd.cli import build_data

    train, _ = build_data(cfg)
    assert all(int(np.sum(train.labels == c)) == 200 for c in range(5))
    t0 = time.perf_counter()
    report, _ = compare_report(cfg)
    wall = time.perf_counter() - t0
    return report, wall


def test_criterion_1_solver_equivalence():
    rng = np.random.default_rng(20)
    lams = [0.01, 0.1, 1.0]
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        if i % 2 == 0:
            n, d = int(rng.integers(2, 8)), int(rng.integers(8, 40))  # N < d
        else:
            n, d = int(rng.integers(8, 40)), int(rng.integers(2, 8))  # N >= d
        c = int(rng.integers(2, 5))
        lam = lams[i % 3]
        x = rng.standard_normal((n, d))
        y, _ = random_onehot(rng, n, c)
        wp = ridge_primal(x, y, lam)
        wk = ridge_kernel(x, y, lam).w_star
        worst = max(worst, np.linalg.norm(wk - wp) / np.linalg.norm(wp))
    wall = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-9 and wall < 5.0,
        f"primal/kernel max rel err {worst:.2e} over 100 instances in {wall:.2f}s",
    )


def test_criterion_2_steady_state_equivalence():
    rng = np.random.default_rng(21)
    worst = 0.0
    diverged = 0
    for i in range(20):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(2, 9))
        c = int(rng.integers(2, 4))
        lam = [0.1, 0.3, 1.0][i % 3]
        x = 0.7 * rng.standard_normal((n, d))
        y, _ = random_onehot(rng, n, c)
        w_star = ridge_primal(x, y, lam)
        mu = dense_max_eig(x.T @ x + lam * np.eye(d))
        w_gd = gd_steady_state(x, y, lam, 1.0 / mu, 5000)
        worst = max(worst, np.linalg.norm(w_gd - w_star) / np.linalg.norm(w_star))
        w_div = gd_steady_state(x, y, lam, 2.5 / mu, 200)
        if np.linalg.norm(w_div) > 1e3 * np.linalg.norm(w_star):
            diverged += 1
    _report(
        2,
        worst <= 1e-6 and diverged == 20,
        f"GD@eta=1/mu max rel err {worst:.2e}; {diverged}/20 diverged at eta=2.5/mu",
    )


def test_criterion_3_gradient_oracles():
    t0 = time.perf_counter()
    code, report = cmd_gradcheck(default_config())
    wall = time.perf_counter() - t0
    worst = max(c["max_rel_err"] for c in report["checks"])
    thresholds_ok = all(c["threshold"] == 1e-5 for c in report["checks"])
    counts_ok = all(c["instances"] == 50 for c in report["checks"])
    _report(
        3,
        code == 0 and thresholds_ok and counts_ok and wall < 30.0,
        f"gradcheck exit {code}, worst rel err {worst:.2e}, {wall:.1f}s",
    )


def test_criterion_4_distillation_beats_selection(compare_run):
    report, wall = compare_run
    clpdd = report.accuracies["clpdd"].mean
    centroid = report.accuracies["centroid"].mean
    random_ = report.accuracies["random"].mean
    ok = clpdd >= centroid and clpdd >= random_ + 0.02 and wall < 60.0
    _report(
        4,
        ok,
        f"clpdd {clpdd:.3f} vs centroid {centroid:.3f} vs random {random_:.3f} "
        f"(5 seeds, compare in {wall:.1f}s)",
    )


def test_criterion_5_ablation_direction(compare_run):
    report, _ = compare_run
    clpdd = report.accuracies["clpdd"].mean
    mse = report.accuracies["mse-ablation"].mean
    # absolute gap sizes are scale-dependent; only the direction (within half
    # a point) is asserted
    _report(
        5,
        clpdd >= mse - 0.005,
        f"class-anchor {clpdd:.3f} vs mse {mse:.3f} (5 seeds)",
    )


def test_criterion_6_determinism(tmp_path):
    cfg = default_config()
    cmd_distill(cfg, tmp_path / "a")
    cmd_distill(cfg, tmp_path / "b")
    same_syn = (tmp_path / "a" / "synthetic.clpf").read_bytes() == (
        tmp_path / "b" / "synthetic.clpf"
    ).read_bytes()
    same_curve = (tmp_path / "a" / "curve.csv").read_bytes() == (
        tmp_path / "b" / "curve.csv"
    ).read_bytes()
    _report(6, same_syn and same_curve, "synthetic.clpf and curve.csv byte-identical")


def test_criterion_7_default_conformance():
    text = config_text(default_config())
    wanted = [
        "lambda=0.1",
        "tau=0.07",
        "b_per_class=4",
        "lr=0.05",
        "lr_schedule=cosine",
        "probe_epochs=500",
        "probe_lr=0.01",
    ]
    missing = [w for w in wanted if w not in text.splitlines()]
    dc = DistillConfig()
    typed_ok = (
        dc.lam == 0.1
        and dc.tau == 0.07
        and dc.b_per_class == 4
        and dc.lr == 0.05
        and dc.lr_schedule == "cosine"
        and dc.probe_epochs == 500
        and dc.probe_lr == 0.01
    )
    _report(7, not missing and typed_ok, f"defaults serialized (missing: {missing})")


def test_criterion_8_file_format_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    path = tmp_path / "cycle.clpf"
    ok = True
    for i in range(1000):
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 7))
        classes = int(rng.integers(1, min(n, 4) + 1))
        ds = Dataset(
            inputs=rng.standard_normal((n, dim)),
            labels=rng.integers(0, classes, size=n).astype(np.int64),
            class_count=classes,
        )
        dtype = "f32" if i % 2 else "f64"
        save_features(ds, path, dtype=dtype)
        loaded = load_features(path)
        if dtype == "f64":
            ok &= datasets_equal(loaded, ds)
        else:
            stored = ds.inputs.astype(np.float32).astype(np.float64)
            ok &= np.array_equal(loaded.inputs, stored)
            ok &= np.array_equal(loaded.labels, ds.labels)
            ok &= loaded.class_count == ds.class_count
        if not ok:
            break

    # corrupted magic and truncation must raise their distinct errors
    save_features(
        Dataset(np.zeros((2, 2)), np.array([0, 1]), 2), path, dtype="f64"
    )
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad.clpf"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    truncated = tmp_path / "trunc.clpf"
    truncated.write_bytes(raw[:-3])
    with pytest.raises(BadMagicError):
        load_features(bad_magic)
    with pytest.raises(TruncatedFileError):
        load_features(truncated)
    _report(8, ok, "1000 save/load cycles lossless; corrupt fixtures raise distinct errors")
