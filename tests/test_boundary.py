"""The CLI boundary: whatever it is given, `main` ends in one of three ways.

It exits 0; or exits 1 with exactly one `divergence:` line on stderr; or
exits 2 with exactly one stderr line. No call ends in a traceback (and, with
warnings as errors, in a numpy float warning), and a failed run leaves no
output behind. The rules that the config alone decides, and the output
paths, are checked by `clpdd.cli.check_config` before any data is built.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clpdd.cli
from clpdd.cli import CONFIG_SPEC, main
from clpdd.data import Dataset, gen_blobs, load_features, save_features

from oracles import write_clpf

EXIT_2_PREFIXES = ("config error: ", "feature file error: ", "no such file: ", "file error: ")
# 3 classes x 4 dims x 10 rows of blobs, two steps, two probe epochs
TINY = {"blob_classes": "3", "blob_dim": "4", "blob_per_class": "10", "iterations": "2",
        "probe_epochs": "2", "compare_seeds": "1"}
OUT_COMMANDS = {"distill": "dir", "compare": "dir", "sweep": "dir", "eval": "file",
                "export-embeddings": "file"}


def _call(argv):
    """(exit code, stderr lines) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _assert_one_of_three_endings(code, err):
    if code == 0:
        assert err == []
    elif code == 1:
        assert len(err) == 1 and err[0].startswith("divergence: "), err
    else:
        assert code == 2 and len(err) == 1 and err[0].startswith(EXIT_2_PREFIXES), (code, err)


def _sets(settings_):
    return [a for key, value in settings_.items() for a in ("--set", f"{key}={value}")]


def _write_inputs(root: Path):
    """A 3 x 4 synthetic CLPF set and CLPF train and eval splits that fit it."""
    train, ev = gen_blobs(3, 4, 8, 0.5, 0.5, seed=0)
    save_features(train, root / "train.clpf")
    save_features(ev, root / "eval.clpf")
    save_features(Dataset(np.eye(3, 4), np.arange(3), 3), root / "syn.clpf")


def _output(root: Path, kind: str, is_dir: bool) -> Path:
    """An output path of one kind; the files and directories it needs exist."""
    (root / "a-file").write_text("")
    (root / "a-dir").mkdir(exist_ok=True)
    return {
        "new": root / ("new" if is_dir else "new.txt"),
        "existing-dir": root / "a-dir",
        "existing-file": root / "a-file",
        "under-a-file": root / "a-file" / "x",
        "under-a-missing-dir": root / "missing" / "deeper" / "x",
    }[kind]


def _argv(command: str, root: Path, out: Path | None, param="tau", values="0.05"):
    argv = [command]
    if command in ("eval", "export-embeddings"):
        argv += ["--synthetic", str(root / "syn.clpf")]
    if command == "sweep":
        argv += ["--param", param, "--values", values]
    if out is not None:
        argv += ["--json" if command in ("eval", "gradcheck") else "--out", str(out)]
    return argv


def _snapshot(path: Path):
    """What lies at `path`: None, a file's bytes, or a directory's listing."""
    if path.is_dir():
        return sorted(p.name for p in path.iterdir())
    return path.read_bytes() if path.exists() else None


def _assert_failed_run_left_nothing(code, out: Path | None, before):
    if code != 0 and out is not None:
        assert _snapshot(out) == before


# --- the rules check_config owns, each pinned through main -------------------

@pytest.mark.parametrize(
    "command, sets, where, message",
    [
        ("distill", ["lambda=-1"], None, "lambda must be finite and > 0, got -1.0"),
        ("gradcheck", ["lambda=-1"], None, "lambda must be finite and > 0, got -1.0"),
        ("distill", ["data=bogus"], None, "unknown data source 'bogus' (use 'blobs' or 'files')"),
        ("distill", ["data_eval=x.clpf"], None,
         "data_eval is set, but data=blobs ignores it; set data=files"),
        ("distill", ["blob_classes=0"], None, "blob_classes must be >= 1, got 0"),
        ("distill", ["blob_dim=-1"], None, "blob_dim must be >= 1, got -1"),
        ("distill", ["blob_per_class=4"], None, "blob_per_class must be >= 5 so the 80/20 "
         "split leaves each class an eval row, got 4"),
        ("distill", ["blob_seed=-1"], None, "blob_seed must be >= 0, got -1"),
        ("distill", ["blob_center_scale=nan"], None,
         "blob_center_scale must be finite and >= 0, got nan"),
        ("distill", ["blob_center_scale=-1"], None,
         "blob_center_scale must be finite and >= 0, got -1.0"),
        ("distill", ["blob_cluster_std=-1"], None,
         "blob_cluster_std must be finite and > 0, got -1.0"),
        ("distill", ["blob_cluster_std=0"], None,
         "blob_cluster_std must be finite and > 0, got 0.0"),
        ("distill", ["blob_cluster_std=inf"], None,
         "blob_cluster_std must be finite and > 0, got inf"),
        ("distill", ["data=files"], None, "data=files requires data_train"),
        ("distill", ["data=files", "data_train=a\0b"], None,
         "data_train holds a NUL byte, which no file name can"),
        ("compare", ["data=files", "data_train=t.clpf"], None,
         "compare needs an eval split (set data_eval)"),
        ("sweep", ["data=files", "data_train=t.clpf"], None,
         "sweep needs an eval split (set data_eval)"),
        ("eval", ["data=files", "data_train=t.clpf"], None,
         "eval needs an eval split (set data_eval)"),
        ("compare", ["compare_methods=bogus"], None, "unknown compare method 'bogus' (choose "
         "from ('clpdd', 'random', 'centroid', 'neighbor', 'mse-ablation'))"),
        ("sweep", ["compare_methods=,"], None, "compare_methods is empty"),
        ("sweep", ["compare_methods=clpdd,mse,mse-ablation,clpdd"], None,
         "compare_methods names 'mse-ablation' twice"),  # mse is mse-ablation
        ("compare", ["compare_methods=clpdd,random,clpdd"], None,
         "compare_methods names 'clpdd' twice"),
        ("compare", ["compare_seeds=0"], None, "compare_seeds must be >= 1, got 0"),
        ("sweep", ["compare_seeds=-1"], None, "compare_seeds must be >= 1, got -1"),
        ("compare", [], "existing-file", "--out {out} exists and is not a directory"),
        ("compare", [], "under-a-file", "file error: {out}: Not a directory"),
        ("distill", [], "under-a-file", "file error: {out}: Not a directory"),
        ("eval", [], "existing-dir", "file error: {out}: Is a directory"),
        ("eval", [], "under-a-missing-dir", "no such file: {out}"),
        ("export-embeddings", [], "existing-dir", "file error: {out}: Is a directory"),
        ("export-embeddings", [], "under-a-file", "file error: {out}: Not a directory"),
        ("gradcheck", [], "existing-dir", "file error: {out}: Is a directory"),
        ("gradcheck", [], "under-a-missing-dir", "no such file: {out}"),
    ],
)
def test_check_config_rejects_before_any_data_is_built(tmp_path, monkeypatch, command, sets,
                                                        where, message):
    calls = []
    for name in ("build_data", "run_battery", "load_features"):
        monkeypatch.setattr(clpdd.cli, name, lambda *a, _name=name, **k: calls.append(_name))
    out = None
    if where is not None:
        out = _output(tmp_path, where, OUT_COMMANDS.get(command) == "dir")
    elif command in OUT_COMMANDS and OUT_COMMANDS[command] == "dir":
        out = tmp_path / "o"
    argv = _argv(command, tmp_path, out)
    before = None if out is None else _snapshot(out)
    code, err = _call(argv + _sets(TINY) + [a for s in sets for a in ("--set", s)])
    line = message.format(out=out)
    if not line.startswith(EXIT_2_PREFIXES):
        line = f"config error: {line}"
    assert (code, err, calls) == (2, [line], [])
    _assert_failed_run_left_nothing(code, out, before)


# --- defects the boundary used to let through --------------------------------

@pytest.mark.parametrize("setting", ["lr=1e308", "augment_noise_sigma=1e308"])
def test_a_step_whose_inputs_overflow_reports_one_divergence(tmp_path, setting):
    out = tmp_path / "o"
    code, err = _call(["distill", "--out", str(out)] + _sets(TINY) + ["--set", setting])
    assert code == 1 and len(err) == 1
    assert err[0].startswith("divergence: ") and "Gram matrix" in err[0]
    assert not out.exists()


def test_a_step_whose_ridge_solve_overflows_reports_one_divergence(tmp_path):
    # step 0 moves the inputs to about 1e154, so step 1's Gram matrix overflows;
    # the solve would return W* = 0 and a zero gradient without an error
    out = tmp_path / "o"
    code, err = _call(["distill", "--out", str(out), "--set", "iterations=20",
                       "--set", "lr=1e154"])
    assert code == 1 and len(err) == 1
    assert err[0].startswith("divergence: the ridge solve overflowed at iteration 1 (")
    assert "Gram matrix of the encoded inputs is not finite" in err[0]
    assert not out.exists()


def test_a_one_class_run_with_a_zero_gradient_keeps_running(tmp_path):
    out = tmp_path / "o"
    code, err = _call(["distill", "--out", str(out)] + _sets(dict(TINY, blob_classes="1")))
    assert (code, err) == (0, [])
    assert (out / "synthetic.clpf").exists()


def test_a_probe_that_overflows_reports_one_divergence(tmp_path):
    out = tmp_path / "o"
    code, err = _call(["compare", "--out", str(out)] + _sets(TINY)
                      + ["--set", "probe_lr=1e308"])
    assert code == 1 and len(err) == 1
    assert err[0].startswith("divergence: ") and "probe_lr=1e+308" in err[0]
    assert not out.exists()


def test_a_probe_whose_second_moment_overflows_reports_one_divergence(tmp_path):
    # class 0's one train row holds a feature at 1e200: the random and centroid
    # picks take it, and the probe's g * g overflows while its weights stay finite
    _write_inputs(tmp_path)
    x = np.vstack([[1e200, 0, 0, 0], np.random.default_rng(0).standard_normal((6, 4))])
    write_clpf(tmp_path / "big.clpf", x, [0, 1, 1, 1, 2, 2, 2], 3)
    out = tmp_path / "o"
    settings_ = dict(TINY, data="files", data_train=tmp_path / "big.clpf",
                     data_eval=tmp_path / "eval.clpf", compare_methods="random,centroid")
    code, err = _call(["compare", "--out", str(out)] + _sets(settings_))
    assert code == 1 and len(err) == 1
    assert err[0].startswith("divergence: ") and "probe_lr=0.01" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("sets", [["blob_cluster_std=1e308"],
                                  ["blob_center_scale=1e308", "blob_seed=2"]])
def test_blob_scales_that_overflow_are_one_line_naming_the_blob_splits(tmp_path, sets):
    out = tmp_path / "o"
    code, err = _call(["distill", "--out", str(out)] + _sets(TINY)
                      + [a for s in sets for a in ("--set", s)])
    assert code == 2 and len(err) == 1
    assert err[0].startswith("feature file error: the blob splits of blob_center_scale=")
    assert "holds non-finite features" in err[0]
    assert not out.exists()


def test_eval_scores_that_overflow_report_one_divergence(tmp_path):
    _write_inputs(tmp_path)
    settings_ = dict(TINY, blob_center_scale="1e308", probe_lr="1e308")
    code, err = _call(_argv("eval", tmp_path, None) + _sets(settings_))
    assert code == 1 and len(err) == 1
    assert err[0].startswith("divergence: ") and "eval scores" in err[0]


def test_export_of_features_whose_variance_overflows_is_one_line(tmp_path):
    _write_inputs(tmp_path)
    signs = np.where(np.arange(6) % 2, 1.0, -1.0)[:, None]
    save_features(Dataset(np.full((6, 4), 1e200) * signs, np.arange(6) % 3, 3),
                  tmp_path / "big.clpf")
    out = tmp_path / "emb.csv"
    settings_ = dict(TINY, data="files", data_train=tmp_path / "train.clpf",
                     data_eval=tmp_path / "big.clpf")
    code, err = _call(_argv("export-embeddings", tmp_path, out) + _sets(settings_))
    assert (code, err) == (2, [
        f"feature file error: {tmp_path / 'big.clpf'} and {tmp_path / 'syn.clpf'} encoded with "
        "encoder=identity: the features' variance overflows float64"
    ])
    assert not out.exists()


@pytest.mark.parametrize("role", ["config", "data_train", "data_eval", "synthetic"])
def test_a_file_that_is_not_utf8_is_one_line(tmp_path, role):
    _write_inputs(tmp_path)
    bad = tmp_path / ("bad.cfg" if role == "config" else "bad.csv")
    bad.write_bytes(b"label,f0\n\xff" if role != "config" else b"seed=1\n\xff=2\n")
    files = ["--set", "data=files", "--set", f"data_train={tmp_path / 'train.clpf'}",
             "--set", f"data_eval={tmp_path / 'eval.clpf'}"]
    argv = {
        "config": ["distill", "--out", str(tmp_path / "o"), "--config", str(bad)],
        "data_train": ["distill", "--out", str(tmp_path / "o"), *files,
                       "--set", f"data_train={bad}"],
        "data_eval": ["compare", "--out", str(tmp_path / "o"), *files,
                      "--set", f"data_eval={bad}"],
        "synthetic": ["eval", "--synthetic", str(bad)],
    }[role]
    code, err = _call(argv + _sets(TINY))
    kind = "config error" if role == "config" else "feature file error"
    byte = 7 if role == "config" else 9
    assert (code, err) == (2, [f"{kind}: {bad}: not UTF-8 text (byte {byte})"])
    assert not (tmp_path / "o").exists()


# --- the fuzz ------------------------------------------------------------------

_FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "", "x"]
_INTS = ["0", "-1", "", "x", "1e308", "1.5"]
# keys that set a size or a budget: the small values they take past the extremes
_CAPPED = {
    "blob_classes": ["1", "2", "4"],
    "blob_dim": ["1", "6"],
    "blob_per_class": ["1", "4", "5", "12"],
    "iterations": ["1", "3"],
    "probe_epochs": ["1", "2"],
    "compare_seeds": ["1", "2"],
    "ipc": ["1", "2", "9"],
    "b_per_class": ["1", "3", "9"],
    "feature_dim": ["1", "5"],
    "hidden_dim": ["1", "5"],
    "probe_batch_size": ["1", "2", str(2**64)],
}
_STRINGS = {
    "lr_schedule": ["cosine"],
    "outer_objective": ["class_anchor", "mse"],
    "encoder": ["identity", "linear", "mlp1"],
    "init": ["random_normal", "from_real"],
    "data": ["blobs", "files"],
    "data_train": ["train.clpf", "eval.clpf", "syn.clpf", "missing.clpf", "a-dir"],
    "data_eval": ["train.clpf", "eval.clpf", "syn.clpf", "missing.clpf", "a-dir"],
    "compare_methods": ["clpdd", "mse", "random,neighbor", "clpdd,neighbor,centroid", ",",
                        "clpdd,bogus"],
}


def _values(key: str) -> list[str]:
    parser, default = CONFIG_SPEC[key]
    if key in _STRINGS:
        return ["", "bogus", *_STRINGS[key]]
    if parser is float:
        return _FLOATS + [repr(default), "1e-3", "1e3"]
    if key in _CAPPED:
        return _INTS + _CAPPED[key]
    if parser is int:  # seeds and eval_every: no size or budget rides on them
        return _INTS + ["1", "7", str(2**64)]
    return ["true", "false", "1", "", "maybe"]


# one key at one value: every typed extreme of every key, or any short text
_SETTING = st.sampled_from([(key, v) for key in sorted(CONFIG_SPEC) for v in _values(key)]) | (
    st.tuples(st.sampled_from(sorted(_STRINGS)), st.text(max_size=6))
)


def _mutate(data: bytes, mutations) -> bytes:
    raw = bytearray(data)
    for kind, at, value in mutations:
        i = at % (len(raw) + 1)
        if kind == "truncate":
            del raw[i:]
        elif kind == "flip" and raw:
            raw[i % len(raw)] ^= value or 0xFF
        elif kind == "insert":
            raw[i:i] = bytes([value])
        elif kind == "header" and len(raw) >= 28:  # a CLPF's n, dim or class count
            offset, width = [(8, 8), (16, 8), (24, 4)][at % 3]
            count = [0, 1, 2, 7, 2**31, 2**32 - 1, 2**62][value % 7] % 2 ** (8 * width)
            raw[offset:offset + width] = count.to_bytes(width, "little")
    return bytes(raw)


_MUTATION = st.tuples(st.sampled_from(["truncate", "flip", "insert", "header"]),
                      st.integers(0, 400), st.integers(0, 255))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(
    command=st.sampled_from(sorted(OUT_COMMANDS)),
    setting_list=st.lists(_SETTING, max_size=3),
    in_file=st.booleans(),
    out_kind=st.sampled_from(["new", "existing-dir", "existing-file", "under-a-file",
                              "under-a-missing-dir", None]),
    param=st.sampled_from(["tau", "lambda", "b_per_class", "bogus"]),
    values=st.sampled_from(["0.05", "0.05,0.1", "2", "nan", "-1", "1e308", "", ","]),
)
def test_main_ends_in_one_of_three_ways_on_any_config(command, setting_list, in_file, out_kind,
                                                      param, values):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root)
        settings_ = dict(TINY)
        for key, value in setting_list:
            if key in ("data_train", "data_eval") and value in _STRINGS[key]:
                value = str(root / value)
            settings_[key] = value
        out = None
        if out_kind is not None or command != "eval":  # eval's --json is optional
            out = _output(root, out_kind or "new", OUT_COMMANDS[command] == "dir")
        argv = _argv(command, root, out, param, values)
        if in_file:
            config = root / "run.cfg"
            config.write_text("".join(f"{key}={value}\n" for key, value in settings_.items()))
            argv += ["--config", str(config)]
        else:
            argv += _sets(settings_)
        before = None if out is None else _snapshot(out)
        code, err = _call(argv)
        _assert_one_of_three_endings(code, err)
        _assert_failed_run_left_nothing(code, out, before)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(
    command=st.sampled_from(["distill", "compare", "eval", "export-embeddings"]),
    role=st.sampled_from(["train", "eval", "syn", "run"]),
    as_csv=st.booleans(),
    extreme=st.none() | st.tuples(st.integers(0, 99),
                                  st.sampled_from([1e155, -1e200, 1e300, 1.7e308, 5e-324])),
    mutations=st.lists(_MUTATION, max_size=3),
    encoder=st.sampled_from(["identity", "linear", "mlp1"]),
    methods=st.sampled_from(["clpdd", "random,centroid", "clpdd,neighbor,mse"]),
)
def test_main_ends_in_one_of_three_ways_on_any_data_file(command, role, as_csv, extreme,
                                                         mutations, encoder, methods):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root)
        paths = {name: root / f"{name}.clpf" for name in ("train", "eval", "syn")}
        paths["run"] = root / "run.cfg"
        if role != "run":  # a feature file, maybe as CSV, maybe with one extreme value
            data = load_features(paths[role])
            if extreme is not None:
                at, value = extreme
                data.inputs.flat[at % data.inputs.size] = value
            paths[role] = paths[role].with_suffix(".csv") if as_csv else paths[role]
            save_features(data, paths[role])
        settings_ = {"data": "files", "data_train": paths["train"], "data_eval": paths["eval"],
                     "compare_methods": methods, "encoder": encoder}
        text = "".join(f"{key}={value}\n" for key, value in settings_.items())
        paths["run"].write_text(text)
        paths[role].write_bytes(_mutate(paths[role].read_bytes(), mutations))
        out = root / ("o" if command in ("distill", "compare") else "o.txt")
        argv = [command]
        if command in ("eval", "export-embeddings"):
            argv += ["--synthetic", str(paths["syn"])]
        argv += ["--json" if command == "eval" else "--out", str(out)]
        # the caps come as flags, which win over the (maybe mutated) config file
        code, err = _call(argv + ["--config", str(paths["run"])] + _sets(TINY))
        _assert_one_of_three_endings(code, err)
        _assert_failed_run_left_nothing(code, out, None)
