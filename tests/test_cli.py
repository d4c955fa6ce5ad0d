import json
from dataclasses import fields

import numpy as np
import pytest

import clpdd.cli
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
from clpdd.gradcheck import CHECK_NAMES
from clpdd.solver import ridge_kernel


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


def test_config_unknown_key_diagnostics(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# comment\nlambda=0.1\nbogus=3\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_file(path)
    assert "bad.cfg:3" in str(ei.value)
    assert "bogus" in str(ei.value)


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


def test_gradcheck_passes_and_reports(tmp_path):
    json_path = tmp_path / "gradcheck.json"
    code, report = cmd_gradcheck(default_config(), json_path=json_path)
    assert code == 0
    assert report["passed"]
    assert report["battery_size"] == len(CHECK_NAMES)
    on_disk = json.loads(json_path.read_text())
    assert len(on_disk["checks"]) == len(CHECK_NAMES)


def test_gradcheck_corrupted_backward_fails():
    code, report = cmd_gradcheck(default_config(), corrupt="solver_backward")
    assert code == 1
    failing = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["solver_backward"]
    assert failing[0]["worst_seed"] != 0


def test_gradcheck_primal_pipeline_takes_primal_route(monkeypatch):
    import clpdd.distill
    from clpdd import gradcheck

    solves = []

    def recording_solve(x, y, lam):
        sol = ridge_kernel(x, y, lam)
        solves.append((sol.mode, x.shape[0] // y.shape[1]))
        return sol

    monkeypatch.setattr(clpdd.distill, "ridge_kernel", recording_solve)
    for i in range(10):
        gradcheck._CHECKS["pipeline_primal"](np.random.default_rng(i))
    assert solves and all(mode == "primal" and ipc > 1 for mode, ipc in solves)


def test_distill_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = _fast_cfg(pca_export=True)
    report = cmd_distill(cfg, out)
    assert (out / "synthetic.clpf").exists()
    assert (out / "report.json").exists()
    assert (out / "curve.csv").exists()
    assert (out / "embeddings.csv").exists()
    assert len(report.curve) == cfg["iterations"]
    assert set(report.accuracies) == {"clpdd"}
    header = (out / "embeddings.csv").read_text().splitlines()[0]
    assert header == "x,y,label,origin"


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


def test_sweep_unknown_param(tmp_path):
    with pytest.raises(ConfigError):
        cmd_sweep(_fast_cfg(), "momentum", ["0.9"], tmp_path / "sw")
    with pytest.raises(ConfigError):
        cmd_sweep(_fast_cfg(), "tau", [], tmp_path / "sw")


def test_cmd_eval_on_saved_synthetic(tmp_path):
    cfg = _fast_cfg()
    report = cmd_distill(cfg, tmp_path / "run")
    result = cmd_eval(cfg, tmp_path / "run" / "synthetic.clpf", json_path=tmp_path / "e.json")
    assert result["eval_acc"] == pytest.approx(report.accuracies["clpdd"].mean)
    assert json.loads((tmp_path / "e.json").read_text())["n_synthetic"] == 3


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


def test_main_exit_codes(tmp_path, capsys):
    assert main(["gradcheck", "--set", "seed=0"]) == 0
    assert main(["gradcheck", "--corrupt", "mse_grad"]) == 1
    assert main(["distill", "--out", str(tmp_path / "m"), "--set", "iterations=2",
                 "--set", "blob_per_class=10", "--set", "blob_classes=2",
                 "--set", "blob_dim=4", "--set", "probe_epochs=5"]) == 0
    assert main(["distill", "--out", str(tmp_path / "m2"), "--set", "bogus=1"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err


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
    assert ev.class_count == 3 and ev.class_indices(1).size == 0


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
