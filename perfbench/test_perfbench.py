"""Tests for the benchmark's own code; run with `python -m pytest perfbench`."""

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(name, start, end, parent, rows=None, extra=None):
    return [name, start, end, parent, rows, extra]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.child", 15, 25, 1),
        _span("b", 50, 90, 0),
    ]
    assert spans.self_times(tree) == [100 - 30 - 40, 30 - 10, 10, 40]


def test_layer_metrics_divide_by_steps_and_cover_run_distill():
    tree = [
        _span("distill.run_distill", 0, 10_000, -1),
        _span("distill.distill_step", 0, 4_000, 0),
        _span("encoder.encode", 1_000, 2_000, 1, rows=7),
        _span("distill.distill_step", 5_000, 9_000, 0),
        _span("encoder.encode", 6_000, 8_000, 3, rows=9),
        _span("solver.ridge_kernel", 8_000, 8_500, 3, extra="kernel"),
    ]
    m = spans.layer_metrics(tree)
    assert m["encoder.encode.self_us_per_iter"] == pytest.approx(1.5)
    assert m["encoder.encode.rows_per_iter"] == 8
    assert m["distill.distill_step.self_us_per_iter"] == pytest.approx((3_000 + 1_500) / 2e3)
    assert m["solver.ridge_kernel.kernel_frac"] == 1.0
    assert m["trace.coverage_frac"] == pytest.approx(0.8)
    assert set(m) == set(spans.LAYER_METRICS) - {"trace.overhead_frac"}


def test_recorder_nests_spans_and_keeps_results():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    inner = rec.wrap("inner", lambda x: x + 1, rows=lambda args, result: args[0])
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert [s[0] for s in rec.spans] == ["outer", "inner"]
    assert rec.spans[1][3] == 0 and rec.spans[0][3] == -1
    assert rec.spans[1][4] == 3
    assert spans.self_times(rec.spans) == [2, 1]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(9) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(99) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10_000) == 99.9


def test_end_to_end_averages_bimodal_times_over_untraced_sessions():
    def session(steps, job_s, setup_s, traced=False):
        return {"traced": traced, "step_us": steps, "probe_s": [job_s / 10],
                "job_s": job_s, "setup_s": setup_s, "data_seed": 1, "eval_acc": 0.5,
                "peak_rss_mb": 64.0}

    records = [
        session([100.0] * 6 + [300.0] * 4, 1.0, 0.1),
        session([100.0] * 4 + [300.0] * 6, 2.0, 0.2),
        session([100.0] * 3, 4.0, 0.9),
        session([1e6], 99.0, 99.0, traced=True),
    ]
    m = run.end_to_end(records)
    # 13 steps at 100 us and 10 at 300 us: the median sits on one mode,
    # the mean moves with the share of slow steps
    assert m["iter_us_mean"] == pytest.approx((13 * 100 + 10 * 300) / 23)
    assert m["job_s"] == pytest.approx(7 / 3)
    assert m["probe_s_mean"] == pytest.approx(7 / 30)
    assert m["setup_s"] == 0.2
    assert set(m) == set(run.E2E_METRICS)


def test_percentile_matches_numpy_default():
    values = list(np.random.default_rng(0).exponential(size=101))
    for p in (0, 50, 90, 99, 100):
        assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines f and C.m; fakepkg.user and fakepkg re-bind f."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def f(x):
        return x * 10

    class C:
        def m(self, x):
            return x + 1

    core.f, core.C = f, C
    user.f, user.g = f, f  # an alias is a binding too
    pkg.f = f
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, core, user, f, C


def test_install_wraps_every_binding_and_restore_puts_originals_back(fake_package):
    pkg, core, user, f, C = fake_package
    original_m = C.m
    rec = spans.SpanRecorder()
    targets = [("f", "fakepkg.core", "f", None, None), ("C.m", "fakepkg.core:C", "m", None, None)]
    patched, absent = spans.install(targets, rec.wrap, package="fakepkg")
    assert absent == []
    assert core.f is not f and user.f is core.f and user.g is core.f and pkg.f is core.f
    assert user.f(2) == 20 and C().m(1) == 2
    assert [s[0] for s in rec.spans] == ["f", "C.m"]
    spans.restore(patched)
    assert core.f is f and user.f is f and user.g is f and pkg.f is f
    assert C.m is original_m


def test_install_reports_missing_names_instead_of_failing(fake_package):
    targets = [
        ("gone", "fakepkg.core", "no_such_function", None, None),
        ("gone.m", "fakepkg.core:NoSuchClass", "m", None, None),
        ("gone.attr", "fakepkg.core:C", "no_such_method", None, None),
        ("gone.mod", "fakepkg.no_such_module", "f", None, None),
    ]
    patched, absent = spans.install(targets, spans.SpanRecorder().wrap, package="fakepkg")
    assert patched == []
    assert absent == [
        "fakepkg.core.no_such_function",
        "fakepkg.core:NoSuchClass.m",
        "fakepkg.core:C.no_such_method",
        "fakepkg.no_such_module.f",
    ]


def test_failed_annotation_does_not_fail_the_call():
    rec = spans.SpanRecorder()
    wrapped = rec.wrap("f", lambda: 5, extra=lambda args, result: args[3])
    assert wrapped() == 5 and rec.spans[0][5] is None


def test_metric_and_workload_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.E2E_METRICS
    assert layers == spans.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [*e2e, *layers, *workloads.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [*e2e.values(), *layers.values()]:
        assert UNIT.fullmatch(unit), unit


def test_clpf_writer_and_reader_round_trip(tmp_path):
    x = np.arange(12, dtype=float).reshape(4, 3)
    labels = np.array([0, 0, 1, 1])
    workloads.write_clpf(tmp_path / "a.clpf", x, labels, 2)
    inputs, got_labels, classes = workloads.read_clpf(tmp_path / "a.clpf")
    assert classes == 2 and np.array_equal(inputs, x) and np.array_equal(got_labels, labels)
    (tmp_path / "b.clpf").write_bytes((tmp_path / "a.clpf").read_bytes()[:-1])
    with pytest.raises(ValueError):
        workloads.read_clpf(tmp_path / "b.clpf")


def test_synthetic_check_rejects_wrong_layout_and_non_finite(tmp_path):
    path = tmp_path / "s.clpf"
    workloads.write_clpf(path, np.zeros((4, 3)), np.array([0, 0, 1, 1]), 2)
    checks = workloads.Checks()
    workloads.check_synthetic(checks, path, classes=2, ipc=2, dim=3)
    workloads.check_synthetic(checks, path, classes=4, ipc=1, dim=3)
    workloads.write_clpf(path, np.full((4, 3), np.nan), np.array([0, 0, 1, 1]), 2)
    workloads.check_synthetic(checks, path, classes=2, ipc=2, dim=3)
    assert [ok for _, ok, _ in checks.results] == [True, False, False]


def test_determinism_check_needs_two_identical_sessions():
    same = [{"data_seed": 3, "sha256": "ab", "eval_acc": 0.5}] * 2
    assert run.determinism_checks(same)[0][1]
    assert not run.determinism_checks(same[:1])[0][1]
    differ = same + [{"data_seed": 3, "sha256": "cd", "eval_acc": 0.5}]
    assert not run.determinism_checks(differ)[0][1]
