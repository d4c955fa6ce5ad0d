import collections
import inspect
import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import clpdd.cli
import clpdd.distill
import clpdd.evaluation
import clpdd.gradcheck
import clpdd.linalg
from clpdd.cli import (
    CONFIG_SPEC,
    ConfigError,
    build_data,
    cmd_compare,
    cmd_distill,
    cmd_eval,
    cmd_export_embeddings,
    cmd_gradcheck,
    cmd_sweep,
    compare_report,
    config_text,
    default_config,
    distill_config_from,
    load_config,
    main,
    parse_config_file,
)
from clpdd.data import Dataset, MissingClassError, gen_blobs, save_features
from clpdd.distill import DistillConfig
from clpdd.evaluation import train_linear_probe
from clpdd.solver import ridge_kernel

from oracles import write_clpf


def _fast_cfg(**kw):
    cfg = default_config()
    cfg.update(
        blob_classes=3,
        blob_dim=6,
        blob_per_class=25,
        iterations=20,
        probe_epochs=40,
        compare_seeds=2,
    )
    cfg.update(kw)
    return cfg


def test_config_file_round_trip(tmp_path):
    cfg = _fast_cfg(tau=0.11, blob_anisotropic=False)
    path = tmp_path / "run.cfg"
    path.write_text(config_text(cfg))
    assert parse_config_file(path) == cfg


def test_config_unknown_key_diagnostics(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.cfg"
    built = []
    monkeypatch.setattr(clpdd.cli, "build_data", lambda *a, **k: built.append(a))
    # export-embeddings writes the PCA CSV; Adam's beta1, beta2 and eps are constants
    for line in ("bogus=3", "pca_export=true", "adam_beta1=0.9", "adam_beta2=0.999",
                 "adam_eps=1e-8"):
        key = line.partition("=")[0]
        path.write_text(f"# comment\nlambda=0.1\n{line}\n")
        with pytest.raises(ConfigError) as ei:
            parse_config_file(path)
        assert str(ei.value) == f"{path}:3: unknown config key {key!r}"
        with pytest.raises(ConfigError) as ei:
            load_config(overrides=[line])
        assert str(ei.value) == f"--set {key}: unknown config key {key!r}"
        for argv in (["--config", str(path)], ["--set", line]):
            assert main(["distill", "--out", str(tmp_path / "m")] + argv) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("config error: ") and key in err[0]
    assert built == []


def test_config_bad_value_diagnostics(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lambda=abc\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_file(path)
    assert "bad.cfg:1" in str(ei.value)


def test_flag_overrides_win(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("tau=0.2\nseed=3\n")
    cfg = load_config(path, overrides=["tau=0.5"])
    assert cfg["tau"] == 0.5
    assert cfg["seed"] == 3


def test_default_config_values():
    cfg = default_config()
    assert cfg["lambda"] == 0.1
    assert cfg["tau"] == 0.07
    assert cfg["b_per_class"] == 4
    assert cfg["lr"] == 0.05
    assert cfg["lr_schedule"] == "cosine"
    assert cfg["probe_epochs"] == 500
    assert cfg["probe_lr"] == 0.01


GRADCHECK_NAMES = [
    "solver_backward",
    "class_anchor_grad",
    "mse_grad",
    "encoder_vjp_identity",
    "encoder_vjp_linear",
    "encoder_vjp_mlp1",
    "pipeline_class_anchor",
    "pipeline_mse",
    "pipeline_primal",
]


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    json_path = tmp_path / "gradcheck.json"
    code, report = cmd_gradcheck(default_config(), json_path=json_path)
    assert code == 0
    assert report["passed"]
    assert report["battery_size"] == len(GRADCHECK_NAMES)
    on_disk = json.loads(json_path.read_text())
    assert [c["name"] for c in on_disk["checks"]] == GRADCHECK_NAMES
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == [
        f"gradcheck {name}" for name in GRADCHECK_NAMES
    ]


def _corrupt_check(monkeypatch, name):
    """Perturb the analytic gradient of one battery check (a negative control)."""
    check = clpdd.gradcheck._CHECKS[name]

    def corrupted(rng):
        analytic, fd = check(rng)
        return analytic * 1.001 + 1e-3, fd

    monkeypatch.setitem(clpdd.gradcheck._CHECKS, name, corrupted)


def test_gradcheck_corrupted_backward_fails(monkeypatch):
    _corrupt_check(monkeypatch, "solver_backward")
    code, report = cmd_gradcheck(default_config())
    assert code == 1
    failing = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["solver_backward"]
    assert failing[0]["worst_seed"] != 0


def test_gradcheck_primal_pipeline_takes_primal_route(monkeypatch):
    import clpdd.distill
    import clpdd.encoder
    from clpdd import gradcheck

    solves, shapes = [], []

    def recording_solve(x, y, lam):
        sol = ridge_kernel(x, y, lam)
        solves.append((sol.mode, x.shape[0] // y.shape[1]))
        shapes.append((x.shape[0], 2 * y.shape[1]))
        return sol

    upstreams, expanded = [], []

    def recording_vjp(enc, inputs, upstream, hidden):
        upstreams.append(upstream)
        return clpdd.encoder._encode_vjp(enc, inputs, upstream, hidden)

    # meta_loss_and_grad solves through the unchecked core on every route,
    # beside the real batch's encode or before it
    monkeypatch.setattr(clpdd.distill, "_ridge_kernel", recording_solve)
    monkeypatch.setattr(clpdd.distill, "_encode_vjp", recording_vjp)
    monkeypatch.setattr(clpdd.encoder, "low_rank_product", lambda *pair: expanded.append(pair))
    for i in range(10):
        gradcheck._CHECKS["pipeline_primal"](np.random.default_rng(i))
    assert solves and all(mode == "primal" and ipc > 1 for mode, ipc in solves)
    # the mlp1 VJP takes every primal gradient as its factors U, V of rank 2C
    # and never expands them
    assert [u[0].shape for u in upstreams] == shapes and not expanded


def test_distill_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = _fast_cfg()
    report = cmd_distill(cfg, out)
    assert (out / "synthetic.clpf").exists()
    assert (out / "report.json").exists()
    assert (out / "curve.csv").exists()
    assert len(report.curve) == cfg["iterations"]
    assert set(report.accuracies) == {"clpdd"}


def test_distill_zero_iterations(tmp_path):
    out = tmp_path / "run0"
    cfg = _fast_cfg(iterations=0)
    report = cmd_distill(cfg, out)
    assert report.curve == []
    assert (out / "synthetic.clpf").exists()
    assert (out / "curve.csv").read_text().splitlines() == [
        "iteration,outer_loss,grad_norm,lr,eval_acc"
    ]


def test_distill_deterministic_artifacts(tmp_path):
    cfg = _fast_cfg()
    cmd_distill(cfg, tmp_path / "a")
    cmd_distill(cfg, tmp_path / "b")
    for name in ("synthetic.clpf", "curve.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_config_round_trips(tmp_path):
    out = tmp_path / "run"
    cfg = _fast_cfg()
    cmd_distill(cfg, out)
    echoed = json.loads((out / "report.json").read_text())["config"]
    text = config_text(echoed)
    path = tmp_path / "echo.cfg"
    path.write_text(text)
    assert load_config(path) == cfg


def test_compare_stats_and_artifacts(tmp_path):
    cfg = _fast_cfg()
    report = cmd_compare(cfg, tmp_path / "cmp")
    assert set(report.accuracies) == {
        "clpdd", "random", "centroid", "neighbor", "mse-ablation"
    }
    for acc in report.accuracies.values():
        assert acc.std >= 0.0
        for v in acc.values:
            assert 0.0 <= v <= 1.0
    assert report.seeds == [cfg["seed"], cfg["seed"] + 1]
    assert len(report.curve) == cfg["iterations"]


def test_compare_single_seed_zero_std(tmp_path):
    cfg = _fast_cfg(compare_seeds=1)
    report = cmd_compare(cfg, tmp_path / "cmp1")
    for acc in report.accuracies.values():
        assert acc.std == 0.0


def test_compare_neighbor_requires_distillation():
    cfg = _fast_cfg(compare_methods="random,neighbor")
    with pytest.raises(ConfigError) as ei:
        compare_report(cfg)
    assert "neighbor" in str(ei.value)


def test_sweep_matches_compare_and_rows(tmp_path):
    cfg = _fast_cfg()
    rows = cmd_sweep(cfg, "tau", ["0.07"], tmp_path / "sweep")
    assert len(rows) == 1
    compare = cmd_compare(cfg, tmp_path / "cmp")
    value, report = rows[0]
    assert value == pytest.approx(cfg["tau"])
    for name in report.accuracies:
        assert report.accuracies[name].values == compare.accuracies[name].values
    csv_lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 2


def test_sweep_duplicates_and_row_count(tmp_path):
    cfg = _fast_cfg(compare_seeds=1, compare_methods="random,centroid")
    rows = cmd_sweep(cfg, "lambda", ["0.1", "0.1", "0.5"], tmp_path / "sw")
    assert len(rows) == 3
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1] == lines[2]  # duplicate values give identical rows


@pytest.mark.parametrize(
    "param, values", [("tau", "0.1,abc"), ("tau", "0.1,-1"), ("b_per_class", "2,2.5")]
)
def test_sweep_checks_every_value_before_the_first_compare(
    tmp_path, capsys, monkeypatch, param, values
):
    ran = []
    for name in ("compare_methods", "build_data"):
        monkeypatch.setattr(clpdd.cli, name, lambda *a, name=name: ran.append(name))
    out = tmp_path / "sw"
    assert main(["sweep", "--param", param, "--values", values, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert ran == []
    assert not (out / "sweep.csv").exists()


def test_sweep_unknown_param(tmp_path):
    with pytest.raises(ConfigError):
        cmd_sweep(_fast_cfg(), "momentum", ["0.9"], tmp_path / "sw")
    with pytest.raises(ConfigError):
        cmd_sweep(_fast_cfg(), "tau", [], tmp_path / "sw")


@pytest.mark.parametrize("sets, lanes", [
    ({}, False),
    ({"encoder": "mlp1"}, False),  # 3 synthetic rows < 6 dims: kernel route
    ({"encoder": "mlp1", "ipc": 4}, False),  # 12 rows >= 6 dims: primal route
    ({"encoder": "linear"}, False),
    # the probe's row blocks split at 1000 rows of 512 dims
    ({"blob_classes": 100, "blob_dim": 512, "blob_anisotropic": False, "ipc": 10,
      "iterations": 2, "probe_epochs": 1}, True),
], ids=["identity", "mlp1-kernel", "mlp1-primal", "linear", "two-lanes"])
def test_cmd_eval_on_saved_synthetic(tmp_path, request, sets, lanes):
    # eval keeps its own probe call; it must score the saved set exactly as
    # distill's probe stage scored it
    helper_parts = request.getfixturevalue("two_lanes") if lanes else None
    cfg = _fast_cfg(**sets)
    report = cmd_distill(cfg, tmp_path / "run")
    distilled = None if helper_parts is None else len(helper_parts)
    result = cmd_eval(cfg, tmp_path / "run" / "synthetic.clpf", json_path=tmp_path / "e.json")
    assert result["eval_acc"] == report.accuracies["clpdd"].mean
    n = cfg["blob_classes"] * cfg["ipc"]
    assert json.loads((tmp_path / "e.json").read_text())["n_synthetic"] == n
    if helper_parts is not None:
        assert distilled > 0 and len(helper_parts) > distilled


def test_export_embeddings_rows(tmp_path):
    cfg = _fast_cfg()
    cmd_distill(cfg, tmp_path / "run")
    out_csv = tmp_path / "emb.csv"
    cmd_export_embeddings(cfg, tmp_path / "run" / "synthetic.clpf", out_csv)
    lines = out_csv.read_text().splitlines()
    origins = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
    assert origins.count("synthetic") == 3
    assert origins.count("real") == len(lines) - 1 - 3


def test_files_data_source(tmp_path):
    train, ev = gen_blobs(3, 4, 20, 0.5, 0.5, seed=0)
    save_features(train, tmp_path / "train.clpf")
    save_features(ev, tmp_path / "eval.clpf")
    cfg = _fast_cfg(
        data="files",
        data_train=str(tmp_path / "train.clpf"),
        data_eval=str(tmp_path / "eval.clpf"),
    )
    report = cmd_distill(cfg, tmp_path / "run")
    assert "clpdd" in report.accuracies


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["gradcheck", "--set", "seed=0"]) == 0
    with monkeypatch.context() as m:
        _corrupt_check(m, "mse_grad")
        assert main(["gradcheck"]) == 1
    assert main(["distill", "--out", str(tmp_path / "m"), "--set", "iterations=2",
                 "--set", "blob_per_class=10", "--set", "blob_classes=2",
                 "--set", "blob_dim=4", "--set", "probe_epochs=5"]) == 0
    assert main(["distill", "--out", str(tmp_path / "m2"), "--set", "bogus=1"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err


@pytest.mark.parametrize(
    "setting",
    [
        "lambda=-1",
        "outer_objective=foo",
        "ipc=0",
        "eval_every=0",
        "eval_every=-3",
        "probe_batch_size=0",
        "probe_epochs=-1",
        "feature_dim=-1",
        "hidden_dim=-2",
        "tau=nan",
        "lr=nan",
        "lambda=inf",
        "augment_noise_sigma=inf",
        "probe_lr=nan",
        "probe_lr=-0.01",
        "seed=-1",
        "feature_dim=8",  # the default identity encoder keeps the input dim
        "hidden_dim=7",  # the default identity encoder has no hidden layer
        "encoder=bogus",
    ],
)
def test_main_rejects_bad_distill_values_before_building_data(
    tmp_path, capsys, monkeypatch, setting
):
    built = []
    monkeypatch.setattr(clpdd.cli, "build_data", lambda *a, **k: built.append(a))
    assert main(["distill", "--out", str(tmp_path / "m"), "--set", setting]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert built == []


@pytest.mark.parametrize(
    "setting, key",
    [
        ("blob_per_class=0", "blob_per_class"),
        ("blob_per_class=1", "blob_per_class"),
        ("blob_per_class=4", "blob_per_class"),  # 4 train rows, no eval row
        ("blob_classes=0", "blob_classes"),
        ("blob_dim=0", "blob_dim"),
        ("blob_seed=-1", "blob_seed"),
    ],
)
def test_main_rejects_bad_blob_counts_before_distilling(
    tmp_path, capsys, monkeypatch, setting, key
):
    ran = []
    monkeypatch.setattr(clpdd.evaluation, "run_distill", lambda *a, **k: ran.append(a))
    assert main(["distill", "--out", str(tmp_path / "m"), "--set", setting]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {key}")
    assert ran == []


def test_main_runs_where_the_c_library_has_no_mallopt(tmp_path, monkeypatch):
    monkeypatch.setattr(clpdd.cli.ctypes, "CDLL", lambda name: object())
    assert main(["distill", "--out", str(tmp_path / "m"), "--set", "iterations=2",
                 "--set", "probe_epochs=5"]) == 0


# Counts the minor page faults of each distill_step of one CLI session.
_STEP_FAULTS = """
import resource, sys
import clpdd.cli, clpdd.distill

step, faults = clpdd.distill.distill_step, []

def counted(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = step(*args, **kwargs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return result

clpdd.distill.distill_step = counted
code = clpdd.cli.main(["distill", "--out", sys.argv[1]] + sys.argv[2:])
print(code, *faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_cli_steady_state_steps_take_no_page_faults(tmp_path):
    # N = 50 * 10 = 500 >= d = 256 takes the primal route; each step frees
    # several 500 x 256 double temporaries (1 MB each), more than glibc's
    # default dynamic trim threshold would keep in the heap
    settings = ["encoder=mlp1", "blob_classes=50", "blob_dim=256", "blob_per_class=50",
                "ipc=10", "iterations=20", "probe_epochs=1"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(clpdd.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [str(tmp_path / "m")] + [a for kv in settings for a in ("--set", kv)]
    proc = subprocess.run(
        [sys.executable, "-c", _STEP_FAULTS, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, *faults = map(int, proc.stdout.split()[-21:])
    assert code == 0 and len(faults) == 20
    # without the thresholds step 1 faults 751 pages back in, 251 with them
    assert faults[1] <= 500, faults
    assert sum(faults[10:]) <= 50, faults


def test_main_eval_rejects_synthetic_with_other_class_count(tmp_path, capsys):
    small = ["--set", "blob_dim=4", "--set", "probe_epochs=5"]
    assert main(["distill", "--out", str(tmp_path / "m"), "--set", "iterations=2",
                 "--set", "blob_classes=3", *small]) == 0
    capsys.readouterr()
    assert main(["eval", "--synthetic", str(tmp_path / "m" / "synthetic.clpf"), *small]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0] == "config error: synthetic set has 3 classes but the data has 5"


@pytest.mark.parametrize("distilled, message", [
    (["--set", "blob_dim=8"], "synthetic dim 8 does not match data dim 16"),
    (["--set", "blob_classes=3"], "synthetic set has 3 classes but the data has 5"),
])
def test_main_export_embeddings_rejects_mismatched_synthetic(tmp_path, capsys,
                                                              distilled, message):
    small = ["--set", "probe_epochs=5"]
    assert main(["distill", "--out", str(tmp_path / "m"), "--set", "iterations=2",
                 *distilled, *small]) == 0
    capsys.readouterr()
    out_csv = tmp_path / "emb.csv"
    assert main(["export-embeddings", "--synthetic", str(tmp_path / "m" / "synthetic.clpf"),
                 "--out", str(out_csv), *small]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
    assert not out_csv.exists()


def test_import_leaves_scipy_linalg_unloaded():
    # clpdd binds LAPACK from scipy's compiled module alone; the scipy.linalg
    # package __init__ and what it pulls in cost start-up time and memory
    probe = "import json, sys, clpdd.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ)
    src = str(Path(clpdd.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"scipy.linalg", "scipy._lib", "numpy.f2py", "numpy.testing"}


def test_cli_writes_the_same_bytes_whatever_blas_thread_count_it_starts_with(tmp_path):
    # main sets every loaded OpenBLAS to one thread before any work: a product
    # split among two BLAS threads can change last bits, and here it did
    if not clpdd.linalg._openblas_libs():
        pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count can be set")
    probe = "import sys, clpdd.cli; sys.exit(clpdd.cli.main(sys.argv[1:]))"
    sets = ["encoder=mlp1", "blob_classes=50", "blob_dim=128", "blob_per_class=6", "ipc=2",
            "iterations=3", "probe_epochs=1"]
    src = str(Path(clpdd.cli.__file__).resolve().parents[1])
    written = []
    for threads in ("2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / threads
        argv = ["distill", "--out", str(out)] + [a for s in sets for a in ("--set", s)]
        proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        written.append([(out / name).read_bytes() for name in ("synthetic.clpf", "curve.csv")])
    assert written[0] == written[1]


def test_import_and_default_compare_start_no_thread(tmp_path):
    # the row-halves helper thread and its concurrent.futures import come at
    # the first split; import and the default compare (identity encoder, 5
    # rows) never split, so they pay for neither
    probe = (
        "import sys, threading, clpdd.cli\n"
        "def state(): return ('concurrent.futures' in sys.modules, threading.active_count())\n"
        "imported = state()\n"
        "code = clpdd.cli.main(['compare', '--out', sys.argv[1]])\n"
        "print(imported, code, state())\n"
    )
    env = dict(os.environ)
    src = str(Path(clpdd.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "c")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "(False, 1) 0 (False, 1)"


# the helper's rows in a primal-route run: each of 3 steps splits the
# synthetic encode, the primal p and the backward's U, the VJP and Adam at
# row 192 and the VJP's W V over the 256 rows of W at row 96, and encodes its
# 800-row real batch whole beside the solve; then the final probe's features
# are encoded (the synthetic set at row 192, the eval split at row 96), and
# the first batch of each of its 2 epochs splits both blocks at row 96
PRIMAL_HELPER_ROWS = {(0, 96): 8, (0, 192): 16, (0, 800): 3}
# blobs without the per-class rotation: the same shapes, drawn without 200 QRs
ISOTROPIC = {"blob_anisotropic": False}


@pytest.mark.parametrize("sets, helper_rows", [
    ({}, PRIMAL_HELPER_ROWS),
    # ipc 1: N = 200 < d takes the kernel route, where each step encodes its
    # real batch in halves in the caller, split at row 384, and its Adam and
    # the probe's weight block are too small to split
    ({"ipc": 1, **ISOTROPIC}, {(0, 96): 10, (0, 384): 3}),
    ({"encoder": "linear", **ISOTROPIC}, PRIMAL_HELPER_ROWS),
    ({"outer_objective": "mse", **ISOTROPIC}, PRIMAL_HELPER_ROWS),
    ({"init": "from_real", **ISOTROPIC}, PRIMAL_HELPER_ROWS),
], ids=["mlp1-primal", "mlp1-kernel", "linear-primal", "mse", "from-real"])
def test_distill_writes_the_same_bytes_on_one_lane_or_two(tmp_path, monkeypatch, two_lanes,
                                                           sets, helper_rows):
    # 400 synthetic rows of 256 dims at ipc 2 take the primal route
    cfg = dict(_fast_cfg(encoder="mlp1", blob_classes=200, blob_dim=256, blob_per_class=6, ipc=2,
                         iterations=3, probe_epochs=2), **sets)
    cmd_distill(cfg, tmp_path / "two")
    assert collections.Counter(two_lanes) == helper_rows
    monkeypatch.setattr(clpdd.linalg, "_affinity_cpus", lambda: 1)
    split = len(two_lanes)
    cmd_distill(cfg, tmp_path / "one")
    assert len(two_lanes) == split
    for name in ("synthetic.clpf", "curve.csv"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("seeds, message", [
    (0, "compare_seeds must be >= 1, got 0"),
    (2.5, "compare_seeds must be an integer, got 2.5"),
])
def test_compare_report_checks_its_config(monkeypatch, seeds, message):
    monkeypatch.setattr(clpdd.cli, "build_data", lambda *a, **k: pytest.fail("data was built"))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        compare_report(dict(default_config(), compare_seeds=seeds))


def test_cmd_distill_checks_its_config(tmp_path):
    with pytest.raises(ConfigError, match="blob_cluster_std must be finite and > 0"):
        cmd_distill(_fast_cfg(blob_cluster_std=-1.0), tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_cmd_eval_checks_its_config(tmp_path):
    train, _ = gen_blobs(3, 4, 20, 0.5, 0.5, seed=0)
    save_features(train, tmp_path / "train.clpf")
    cfg = _fast_cfg(data="files", data_train=str(tmp_path / "train.clpf"))
    with pytest.raises(ConfigError, match="eval needs an eval split"):
        cmd_eval(cfg, tmp_path / "train.clpf")


def _count_every_binding(monkeypatch, calls, key, fn):
    """Replace `fn` at every clpdd.* module attribute bound to it, as the
    benchmark's hooks do, with a wrapper that counts calls under `key`."""
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "clpdd" or name.startswith("clpdd.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize(
    "argv, steps, probes",
    [
        (["distill"], 3, 1),
        (["compare", "--set", "compare_seeds=2"], 2 * 2 * 3, 2 * 5),  # clpdd and mse
        (["eval"], 0, 1),
    ],
    ids=["distill", "compare", "eval"],
)
def test_cli_runs_the_bound_step_and_probe(tmp_path, monkeypatch, argv, steps, probes):
    # the benchmark times each step and each probe by wrapping every binding
    # of clpdd.distill.distill_step and of clpdd.cli.train_linear_probe; a
    # call that bypasses them would go untimed
    small = ["--set", "iterations=3", "--set", "blob_dim=4", "--set", "probe_epochs=5"]
    if argv == ["eval"]:
        assert main(["distill", "--out", str(tmp_path / "m"), *small]) == 0
        argv = ["eval", "--synthetic", str(tmp_path / "m" / "synthetic.clpf")]
    else:
        argv = [*argv, "--out", str(tmp_path / "o")]
    calls = {"step": 0, "probe": 0}
    _count_every_binding(monkeypatch, calls, "step", clpdd.distill.distill_step)
    _count_every_binding(monkeypatch, calls, "probe", clpdd.cli.train_linear_probe)
    assert main(argv + small) == 0
    assert calls == {"step": steps, "probe": probes}


def test_default_blob_distill_under_a_minute(tmp_path):
    import time

    t0 = time.perf_counter()
    cmd_distill(default_config(), tmp_path / "timed")
    assert time.perf_counter() - t0 < 60.0


def test_config_spec_covers_serialization():
    cfg = default_config()
    text = config_text(cfg)
    assert len(text.strip().splitlines()) == len(CONFIG_SPEC)


def test_cli_defaults_are_distill_config_defaults():
    assert distill_config_from(default_config()) == DistillConfig()
    probe = inspect.signature(train_linear_probe).parameters
    assert (probe["epochs"].default, probe["lr"].default, probe["batch_size"].default) == (
        DistillConfig.probe_epochs, DistillConfig.probe_lr, DistillConfig.probe_batch_size
    )


def test_each_distill_field_set_by_exactly_one_key(monkeypatch):
    # hand every key its own name as value and record which field receives it
    monkeypatch.setattr(clpdd.cli, "DistillConfig", lambda **kw: kw)
    received = distill_config_from({key: key for key in CONFIG_SPEC})
    assert sorted(received) == sorted(f.name for f in fields(DistillConfig))
    assert len(set(received.values())) == len(received)
    assert received["lam"] == "lambda" and received["encoder_kind"] == "encoder"


def _files_with_empty_class(tmp_path):
    """A train CLPF whose header counts 3 classes but has no rows of class 1."""
    rng = np.random.default_rng(0)
    labels = np.array([0, 2, 0, 2, 0, 2])
    train = Dataset(rng.standard_normal((6, 4)), labels, class_count=3)
    _, ev = gen_blobs(3, 4, 10, 0.5, 0.5, seed=0)
    save_features(train, tmp_path / "train.clpf")
    save_features(ev, tmp_path / "eval.clpf")
    return _fast_cfg(
        data="files",
        data_train=str(tmp_path / "train.clpf"),
        data_eval=str(tmp_path / "eval.clpf"),
    )


def test_train_file_with_empty_class_rejected(tmp_path):
    cfg = _files_with_empty_class(tmp_path)
    with pytest.raises(MissingClassError) as ei:
        build_data(cfg)
    assert cfg["data_train"] in str(ei.value) and "[1]" in str(ei.value)


def test_eval_file_with_empty_class_accepted(tmp_path):
    cfg = _files_with_empty_class(tmp_path)
    # swapped: the full blob split trains, the gapped file is the eval split
    cfg.update(data_train=cfg["data_eval"], data_eval=cfg["data_train"])
    train, ev = build_data(cfg)
    assert ev.class_count == 3 and ev.class_layout.rows[1].size == 0


def test_main_reports_feature_file_error(tmp_path, capsys):
    cfg = _files_with_empty_class(tmp_path)
    argv = ["distill", "--out", str(tmp_path / "run")]
    for key in ("data", "data_train", "data_eval", "iterations"):
        argv += ["--set", f"{key}={cfg[key]}"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("feature file error:") and "train.clpf" in err[0]


def test_main_reports_file_with_fewer_rows_than_classes(tmp_path, capsys):
    path = tmp_path / "few.clpf"
    save_features(Dataset(np.eye(3), np.array([0, 1, 2]), class_count=3), path)
    raw = bytearray(path.read_bytes())
    raw[24:28] = (5).to_bytes(4, "little")  # the header's class count
    path.write_bytes(bytes(raw))
    assert main(["eval", "--synthetic", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("feature file error:") and "few.clpf" in err[0]
    assert "3 rows cannot cover 5 classes" in err[0]


def _record_encodes(monkeypatch):
    """Record, in order, each run_distill call and each encode call's inputs
    array of the compare protocol in clpdd.evaluation."""
    events = []
    encode, run_distill = clpdd.evaluation.encode, clpdd.evaluation.run_distill

    def recording_encode(enc, inputs, *args, **kwargs):
        events.append(("encode", inputs))
        return encode(enc, inputs, *args, **kwargs)

    def recording_run_distill(*args, **kwargs):
        events.append(("distill", None))
        return run_distill(*args, **kwargs)

    monkeypatch.setattr(clpdd.evaluation, "encode", recording_encode)
    monkeypatch.setattr(clpdd.evaluation, "run_distill", recording_run_distill)
    return events


def test_compare_seed_encodes_each_split_and_set_once(tmp_path, monkeypatch):
    # five methods: per seed the eval and train splits, the two distilled
    # sets and the random picks; centroid and neighbor pick rows of the
    # encoded train split
    events = _record_encodes(monkeypatch)
    splits = []
    build = clpdd.cli.build_data

    def recording_build(*args, **kwargs):
        splits.append(build(*args, **kwargs))
        return splits[-1]

    monkeypatch.setattr(clpdd.cli, "build_data", recording_build)
    cmd_compare(_fast_cfg(compare_seeds=2), tmp_path / "cmp")
    kinds = [kind for kind, _ in events]
    # every seed distills before anything is encoded, where it would delay
    # the next seed's steps
    assert kinds == ["distill"] * 4 + ["encode"] * 10
    encoded = [inputs for kind, inputs in events if kind == "encode"]
    assert len(splits) == 2
    for train, ev in splits:
        assert sum(x is train.inputs for x in encoded) == 1
        assert sum(x is ev.inputs for x in encoded) == 1


def test_distill_encodes_eval_split_and_synthetic_set_once(tmp_path, monkeypatch):
    events = _record_encodes(monkeypatch)
    cmd_distill(_fast_cfg(), tmp_path / "run")
    assert [kind for kind, _ in events] == ["distill", "encode", "encode"]


def _train_and_eval_files(tmp_path, eval_classes=3, eval_dim=4):
    train, _ = gen_blobs(3, 4, 20, 0.5, 0.5, seed=0)
    _, ev = gen_blobs(eval_classes, eval_dim, 20, 0.5, 0.5, seed=1)
    save_features(train, tmp_path / "train.clpf")
    save_features(ev, tmp_path / "eval.clpf")
    return _fast_cfg(
        data="files",
        data_train=str(tmp_path / "train.clpf"),
        data_eval=str(tmp_path / "eval.clpf"),
    )


def _argv(cfg, *command):
    argv = list(command)
    for key in ("data", "data_train", "data_eval", "iterations", "probe_epochs",
                "compare_seeds"):
        argv += ["--set", f"{key}={cfg[key]}"]
    return argv


@pytest.mark.parametrize("eval_classes, eval_dim", [(3, 6), (5, 4)])  # wider; more classes
@pytest.mark.parametrize("command", ["distill", "eval", "compare"])
def test_main_rejects_eval_split_that_does_not_fit_train(tmp_path, capsys, monkeypatch,
                                                         command, eval_classes, eval_dim):
    cfg = _train_and_eval_files(tmp_path, eval_classes, eval_dim)
    syn = tmp_path / "syn.clpf"
    save_features(Dataset(np.zeros((3, 4)), np.arange(3), class_count=3), syn)
    ran = []
    monkeypatch.setattr(clpdd.evaluation, "run_distill", lambda *a, **k: ran.append(a))
    where = ["--synthetic", str(syn)] if command == "eval" else ["--out", str(tmp_path / "o")]
    assert main(_argv(cfg, command, *where)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("feature file error: ")
    assert "train.clpf" in err[0] and "eval.clpf" in err[0]
    assert ran == []


def _main_on_data_file(tmp_path, capsys, monkeypatch, command, key, path):
    """Run `command` through main with `path` as its `key` file (data_train or
    data_eval); returns (exit code, stderr lines, run_distill calls)."""
    cfg = _train_and_eval_files(tmp_path)
    cfg[key] = str(path)
    syn = tmp_path / "syn.clpf"
    save_features(Dataset(np.zeros((3, 4)), np.arange(3), class_count=3), syn)
    ran = []
    monkeypatch.setattr(clpdd.evaluation, "run_distill", lambda *a, **k: ran.append(a))
    where = ["--synthetic", str(syn)] if command == "eval" else ["--out", str(tmp_path / "o")]
    code = main(_argv(cfg, command, *where))
    return code, capsys.readouterr().err.strip().splitlines(), ran


@pytest.mark.parametrize("command", ["distill", "eval", "compare"])
def test_main_rejects_a_train_file_without_features(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "bad-train.clpf"
    write_clpf(path, np.zeros((6, 0)), np.arange(6) % 3, 3)
    code, err, ran = _main_on_data_file(tmp_path, capsys, monkeypatch, command, "data_train", path)
    assert code == 2
    assert err == [f"feature file error: {path}: rows have no features (dim 0)"]
    assert ran == []


@pytest.mark.parametrize("command", ["distill", "eval", "compare"])
def test_main_rejects_a_train_file_without_classes(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "bad-train.clpf"
    write_clpf(path, np.zeros((0, 4)), [], 0)
    code, err, ran = _main_on_data_file(tmp_path, capsys, monkeypatch, command, "data_train", path)
    assert code == 2
    assert err == [f"feature file error: {path}: no classes (class count 0)"]
    assert ran == []


@pytest.mark.parametrize("name", ["empty.clpf", "empty.csv"])
@pytest.mark.parametrize("command", ["distill", "eval", "compare"])
def test_main_rejects_an_eval_split_without_rows(tmp_path, capsys, monkeypatch, command, name):
    # a CLPF header counting no rows and no classes, or a CSV header alone
    path = tmp_path / name
    if name.endswith(".clpf"):
        write_clpf(path, np.zeros((0, 4)), [], 0)
    else:
        path.write_text("label,f0,f1,f2,f3\n")
    code, err, ran = _main_on_data_file(tmp_path, capsys, monkeypatch, command, "data_eval", path)
    assert code == 2
    assert err == [f"feature file error: {path}: no classes (class count 0)"]
    assert ran == []


def test_main_rejects_a_csv_value_that_is_not_a_number(tmp_path, capsys, monkeypatch):
    path = tmp_path / "text.csv"
    path.write_text("label,f0,f1,f2,f3\n0,0.1,0.2,0.3,0.4\nx,0.1,0.2,0.3,0.4\n")
    code, err, ran = _main_on_data_file(tmp_path, capsys, monkeypatch, "distill", "data_train",
                                        path)
    assert code == 2
    assert err == [f"feature file error: {path}:3: expected an integer label, then numbers"]
    assert ran == []


@pytest.mark.parametrize("command", ["distill", "compare", "sweep"])
def test_main_leaves_no_out_directory_after_a_rejection(tmp_path, capsys, command):
    out = tmp_path / "o"
    argv = [command, "--out", str(out), "--set", "blob_seed=-1"]
    if command == "sweep":
        argv += ["--param", "tau", "--values", "0.05"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: blob_seed must be >= 0")
    assert not out.exists()


@pytest.mark.parametrize("key", ["data_train", "data_eval"])
def test_main_rejects_a_data_file_under_blobs(tmp_path, capsys, monkeypatch, key):
    built = []
    monkeypatch.setattr(clpdd.cli, "gen_blobs", lambda *a, **k: built.append(a))
    argv = ["distill", "--out", str(tmp_path / "o"), "--set", f"{key}={tmp_path / 'x.clpf'}"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: {key} is set, but data=blobs ignores it; set data=files"]
    assert built == []


@pytest.mark.parametrize(
    "command, sets",
    [
        ("compare", []),  # the random and centroid baselines pick ipc rows per class
        ("compare", ["compare_methods=clpdd,centroid"]),
        ("compare", ["compare_methods=clpdd", "init=from_real"]),
        ("distill", ["init=from_real"]),
    ],
)
def test_main_rejects_ipc_past_the_smallest_train_class(tmp_path, capsys, monkeypatch,
                                                        command, sets):
    ran = []
    monkeypatch.setattr(clpdd.evaluation, "run_distill", lambda *a, **k: ran.append(a))
    argv = [command, "--out", str(tmp_path / "o"), "--set", "ipc=201"]  # 200 train rows each
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["feature file error: ipc=201: the blob train split: fewer than 201 rows "
                   "for class ids [0, 1, 2, 3, 4] of 5 classes"]
    assert ran == []


def test_ipc_past_a_class_distills_from_a_random_normal_init(tmp_path):
    # only from_real init and the random and centroid baselines pick real rows
    cfg = _fast_cfg(ipc=21)  # 20 train rows per class
    report = cmd_distill(cfg, tmp_path / "run")
    assert len(report.curve) == cfg["iterations"]
    report = cmd_compare(dict(cfg, compare_methods="clpdd,neighbor", compare_seeds=1),
                         tmp_path / "cmp")
    assert set(report.accuracies) == {"clpdd", "neighbor"}


@pytest.mark.parametrize("missing", ["config", "data_train", "synthetic"])
def test_main_reports_a_missing_input_path(tmp_path, capsys, missing):
    path = tmp_path / "absent"
    argv = {
        "config": ["distill", "--out", str(tmp_path / "o"), "--config", str(path)],
        "data_train": ["distill", "--out", str(tmp_path / "o"),
                       "--set", "data=files", "--set", f"data_train={path}"],
        "synthetic": ["eval", "--synthetic", str(path)],
    }[missing]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(path) in err[0]


def test_eval_and_export_read_only_the_header_of_a_clpf_train_file(tmp_path, monkeypatch):
    cfg = _train_and_eval_files(tmp_path)
    report = cmd_distill(cfg, tmp_path / "run")
    loaded = []
    load = clpdd.cli.load_features
    monkeypatch.setattr(clpdd.cli, "load_features", lambda p: loaded.append(str(p)) or load(p))
    syn = tmp_path / "run" / "synthetic.clpf"
    result = cmd_eval(cfg, syn)
    cmd_export_embeddings(cfg, syn, tmp_path / "emb.csv")
    assert result["eval_acc"] == report.accuracies["clpdd"].mean
    assert cfg["data_eval"] in loaded and cfg["data_train"] not in loaded


def test_files_compare_loads_each_file_once(tmp_path, monkeypatch):
    cfg = _train_and_eval_files(tmp_path)
    loaded = []
    load = clpdd.cli.load_features
    monkeypatch.setattr(clpdd.cli, "load_features", lambda p: loaded.append(str(p)) or load(p))
    report = cmd_compare(dict(cfg, compare_seeds=3), tmp_path / "cmp")
    assert report.seeds == [cfg["seed"] + i for i in range(3)]
    assert sorted(loaded) == sorted([cfg["data_train"], cfg["data_eval"]])


def test_files_sweep_loads_each_file_once(tmp_path, monkeypatch):
    cfg = dict(_train_and_eval_files(tmp_path), compare_seeds=2)
    loaded = []
    load = clpdd.cli.load_features
    monkeypatch.setattr(clpdd.cli, "load_features", lambda p: loaded.append(str(p)) or load(p))
    rows = cmd_sweep(cfg, "tau", ["0.05", "0.07", "0.1"], tmp_path / "sw")
    assert [report.seeds for _, report in rows] == [[cfg["seed"], cfg["seed"] + 1]] * 3
    assert sorted(loaded) == sorted([cfg["data_train"], cfg["data_eval"]])


def test_blob_sweep_builds_each_seeds_splits_once(tmp_path, monkeypatch):
    cfg = _fast_cfg(compare_seeds=2, blob_seed=4)
    built = []
    gen = clpdd.cli.gen_blobs

    def recording_gen(*args, **kwargs):
        built.append(kwargs["seed"])
        return gen(*args, **kwargs)

    monkeypatch.setattr(clpdd.cli, "gen_blobs", recording_gen)
    rows = cmd_sweep(cfg, "lambda", ["0.1", "0.2", "0.5"], tmp_path / "sw")
    assert built == [4, 5] and len(rows) == 3
    # every value reads the splits a compare of that value builds for itself
    compare = cmd_compare(dict(cfg, **{"lambda": 0.5}), tmp_path / "cmp")
    for name, acc in rows[2][1].accuracies.items():
        assert acc.values == compare.accuracies[name].values


@pytest.mark.parametrize("data", ["blobs", "files"])
def test_each_compare_seed_is_the_one_seed_compare_at_its_seeds(tmp_path, data):
    # run i of a compare is a one-seed compare at seed + i and blob_seed + i
    # (a files source is the same split for every seed)
    cfg = _fast_cfg(seed=3, blob_seed=5)
    if data == "files":
        cfg = dict(_train_and_eval_files(tmp_path), seed=3)
    many = cmd_compare(dict(cfg, compare_seeds=3), tmp_path / "many")
    for i in range(3):
        one = cmd_compare(
            dict(cfg, compare_seeds=1, seed=cfg["seed"] + i, blob_seed=cfg["blob_seed"] + i),
            tmp_path / f"one{i}",
        )
        assert one.seeds == [many.seeds[i]]
        assert list(one.accuracies) == list(many.accuracies)
        for name, acc in one.accuracies.items():
            assert acc.values == [many.accuracies[name].values[i]]


def test_distill_is_a_one_seed_clpdd_compare(tmp_path):
    cfg = _fast_cfg(compare_seeds=1, compare_methods="clpdd")
    distilled = cmd_distill(cfg, tmp_path / "d")
    compared = cmd_compare(cfg, tmp_path / "c")
    for name in ("synthetic.clpf", "curve.csv"):
        assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()
    assert distilled.accuracies == compared.accuracies
    assert distilled.seeds == compared.seeds == [cfg["seed"]]


def test_distill_without_an_eval_split_probes_nothing(tmp_path, monkeypatch):
    cfg = _train_and_eval_files(tmp_path)
    cfg["data_eval"] = ""
    probes = []
    monkeypatch.setattr(clpdd.evaluation, "train_linear_probe",
                        lambda *a, **k: probes.append(a))
    report = cmd_distill(cfg, tmp_path / "run")
    assert report.accuracies == {} and probes == []
    assert len(report.curve) == cfg["iterations"]
    assert all(m.eval_acc is None for m in report.curve)
    assert (tmp_path / "run" / "synthetic.clpf").exists()


def _small(*sets):
    argv = []
    for item in ("blob_classes=3", "blob_dim=4", "blob_per_class=10", "iterations=2",
                 "probe_epochs=5", *sets):
        argv += ["--set", item]
    return argv


@pytest.mark.parametrize(
    "case", ["distill", "compare", "sweep", "eval-synthetic", "eval-json", "export", "config"]
)
def test_main_reports_a_path_of_the_wrong_kind_in_one_line(tmp_path, capsys, monkeypatch, case):
    a_file, a_dir = tmp_path / "a-file", tmp_path / "a-dir"
    a_file.write_text("")
    a_dir.mkdir()
    syn = tmp_path / "syn.clpf"
    save_features(Dataset(np.zeros((3, 4)), np.arange(3), class_count=3), syn)
    ran = []
    if case in ("distill", "compare", "sweep"):
        monkeypatch.setattr(clpdd.evaluation, "run_distill",
                            lambda *a, **k: ran.append(a))
    argv = {
        "distill": ["distill", "--out", str(a_file)],
        "compare": ["compare", "--out", str(a_file)],
        "sweep": ["sweep", "--param", "tau", "--values", "0.05", "--out", str(a_file)],
        "eval-synthetic": ["eval", "--synthetic", str(a_dir)],
        "eval-json": ["eval", "--synthetic", str(syn), "--json", str(a_dir)],
        "export": ["export-embeddings", "--synthetic", str(syn), "--out", str(a_dir)],
        "config": ["distill", "--out", str(tmp_path / "o"), "--config", str(a_dir)],
    }[case]
    assert main(argv + _small()) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    if case in ("distill", "compare", "sweep"):
        assert err == [f"config error: --out {a_file} exists and is not a directory"]
        assert ran == []
    else:
        assert err[0].startswith("file error: ") and str(a_dir) in err[0]
    assert a_file.read_text() == "" and list(a_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
def test_main_names_the_file_and_encoder_whose_features_overflow(tmp_path, capsys, command):
    syn = tmp_path / "huge.clpf"
    save_features(Dataset(np.full((3, 4), 1.7e308), np.arange(3), class_count=3), syn)
    argv = [command, "--synthetic", str(syn)] + _small("encoder=linear", "feature_dim=4")
    if command == "export-embeddings":
        argv += ["--out", str(tmp_path / "emb.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("feature file error: ")
    assert str(syn) in err[0] and "encoder=linear" in err[0]
    assert not (tmp_path / "emb.csv").exists()


def test_main_reports_a_divergence_in_one_line(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["distill", "--out", str(out)] + _small("tau=1e-300")) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("divergence: ")
    assert not out.exists()


def test_main_rejects_compare_without_an_eval_split_before_building_data(
    tmp_path, capsys, monkeypatch
):
    cfg = _train_and_eval_files(tmp_path)
    built = []
    build = clpdd.cli.build_data
    monkeypatch.setattr(clpdd.cli, "build_data", lambda *a, **k: built.append(a) or build(*a, **k))
    argv = ["compare", "--out", str(tmp_path / "o"), "--set", "data=files",
            "--set", f"data_train={cfg['data_train']}"]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: compare needs an eval split (set data_eval)"]
    assert built == []
