"""Operator surface: subcommands wiring flat key=value configs to runs.

Subcommands: gradcheck, distill, eval, compare, sweep, export-embeddings.
Config files are flat `key=value` text (# comments allowed); `--set key=value`
flags override file values. The distillation keys and their defaults are the
fields of `DistillConfig`; the data-source and compare keys are declared
here. All randomness flows from the single `seed` key through named
per-purpose streams.
"""

import argparse
import ctypes
import errno
import math
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    FeatureFileError,
    check_every_class,
    feature_shape,
    gen_blobs,
    load_features,
    save_features,
)
from .distill import DistillConfig, DistillDivergenceError, run_distill, stream_seed
from .encoder import encode
from .evaluation import (
    pca_project_2d,
    select_centroid,
    select_neighbor,
    select_random,
    train_linear_probe,
)
from .gradcheck import battery_report, run_battery
from .report import MethodAccuracy, RunReport, json_text


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {s!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# DistillConfig fields whose CLI key has another name
_RENAMED = {"lam": "lambda", "encoder_kind": "encoder"}
# CLI key -> DistillConfig field, in field order
_DISTILL_FIELDS = {_RENAMED.get(f.name, f.name): f for f in fields(DistillConfig)}

# key -> (parser, default); declaration order is the serialization order
CONFIG_SPEC: dict[str, tuple] = {
    **{key: (f.type, f.default) for key, f in _DISTILL_FIELDS.items()},
    # data source
    "data": (str, "blobs"),
    "blob_classes": (int, 5),
    "blob_dim": (int, 16),
    "blob_per_class": (int, 250),
    # scales keep feature norms ~O(1) so the default lambda/tau are meaningful,
    # and give overlapping classes so selection baselines are non-trivial
    "blob_center_scale": (float, 0.1),
    "blob_cluster_std": (float, 0.15),
    "blob_anisotropic": (_parse_bool, True),
    "blob_seed": (int, 0),
    "data_train": (str, ""),
    "data_eval": (str, ""),
    # compare/sweep
    "compare_seeds": (int, 5),
    "compare_methods": (str, "clpdd,random,centroid,neighbor,mse-ablation"),
}

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc raises both thresholds by itself as blocks are freed: the mmap
# threshold up to DEFAULT_MMAP_THRESHOLD_MAX (32 MiB on 64-bit) and the trim
# threshold to twice it. Setting either one through mallopt turns that rule
# off, so both are set, to the values the rule tends to. A step's freed
# temporaries then stay in the heap for the next step instead of going back
# to the kernel and being faulted in again.
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20

METHOD_NAMES = ("clpdd", "random", "centroid", "neighbor", "mse-ablation")
SWEEP_PARAMS = ("tau", "lambda", "b_per_class")


def default_config() -> dict:
    return {key: default for key, (_, default) in CONFIG_SPEC.items()}


def _coerce(key: str, raw: str, where: str) -> object:
    if key not in CONFIG_SPEC:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    parser, _ = CONFIG_SPEC[key]
    try:
        return parser(raw)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key!r}: {e}") from e


def parse_config_file(path) -> dict:
    """Parse a flat key=value file; returns only the keys present."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text (byte {e.start})") from e
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        out[key.strip()] = _coerce(key.strip(), raw.strip(), f"{path}:{lineno}")
    return out


def load_config(config_path=None, overrides=()) -> dict:
    """Defaults, then file values, then --set overrides (flags win)."""
    cfg = default_config()
    if config_path is not None:
        cfg.update(parse_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        cfg[key.strip()] = _coerce(key.strip(), raw.strip(), f"--set {key.strip()}")
    return cfg


def config_text(cfg: dict) -> str:
    return "\n".join(f"{key}={_fmt(cfg[key])}" for key in CONFIG_SPEC) + "\n"


def distill_config_from(cfg: dict) -> DistillConfig:
    """The DistillConfig of a config dict; a value it rejects is a ConfigError."""
    try:
        return DistillConfig(**{f.name: cfg[key] for key, f in _DISTILL_FIELDS.items()})
    except ValueError as e:
        raise ConfigError(str(e)) from e


def check_config(cfg: dict, command: str, out) -> None:
    """Every rule that the config and the command's output path decide. Each
    `cmd_*` function and `compare_report` runs it first, before any data is
    built, so library callers get the same errors as `main`. A broken rule is
    a ConfigError; an output path that cannot be written raises the OSError
    its later write would raise. `out` is the --out directory of distill,
    compare and sweep, the file export-embeddings writes, or the --json file
    (None when there is none)."""
    distill_config_from(cfg)
    if cfg["data"] == "blobs":
        for key in ("data_train", "data_eval"):
            if cfg[key]:
                raise ConfigError(f"{key} is set, but data=blobs ignores it; set data=files")
        for key in ("blob_classes", "blob_dim"):
            if cfg[key] < 1:
                raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
        if cfg["blob_per_class"] < 5:
            raise ConfigError(
                "blob_per_class must be >= 5 so the 80/20 split leaves each class an "
                f"eval row, got {cfg['blob_per_class']}"
            )
        if cfg["blob_seed"] < 0:
            raise ConfigError(f"blob_seed must be >= 0, got {cfg['blob_seed']}")
        if not (math.isfinite(cfg["blob_center_scale"]) and cfg["blob_center_scale"] >= 0):
            raise ConfigError(
                f"blob_center_scale must be finite and >= 0, got {cfg['blob_center_scale']}"
            )
        if not (math.isfinite(cfg["blob_cluster_std"]) and cfg["blob_cluster_std"] > 0):
            raise ConfigError(
                f"blob_cluster_std must be finite and > 0, got {cfg['blob_cluster_std']}"
            )
    elif cfg["data"] == "files":
        if not cfg["data_train"]:
            raise ConfigError("data=files requires data_train")
        for key in ("data_train", "data_eval"):
            if "\0" in cfg[key]:
                raise ConfigError(f"{key} holds a NUL byte, which no file name can")
        # blobs always have an eval split; a files source names its own
        if command in ("compare", "sweep", "eval") and not cfg["data_eval"]:
            raise ConfigError(f"{command} needs an eval split (set data_eval)")
    else:
        raise ConfigError(f"unknown data source {cfg['data']!r} (use 'blobs' or 'files')")
    if command in ("compare", "sweep"):
        _parse_methods(cfg)
        if cfg["compare_seeds"] < 1:
            raise ConfigError("compare_seeds must be >= 1")
    if out is not None:
        _check_output(Path(out), is_dir=command in ("distill", "compare", "sweep"))


def _check_output(path: Path, is_dir: bool) -> None:
    """Raise now what writing the output `path` (a directory made with its
    parents, or a file) would raise later."""
    if is_dir and path.exists() and not path.is_dir():
        raise ConfigError(f"--out {path} exists and is not a directory")
    if not is_dir and path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    first = path if is_dir else path.parent  # the directory that must exist or be made
    ancestor = first
    while not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
    if ancestor != first and not is_dir:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


def build_data(cfg: dict, data_seed: int | None = None):
    """Returns (train, eval-or-None) from the source of a config that
    `check_config` passed."""
    if cfg["data"] == "files":
        train = load_features(cfg["data_train"])
        # balanced batches need rows of every class; an eval split may lack some
        check_every_class(train, train.class_count, cfg["data_train"])
        return train, _load_eval(cfg, train.dim, train.class_count)
    try:
        with np.errstate(all="ignore"):  # the Dataset check reports what overflows
            return gen_blobs(
                cfg["blob_classes"],
                cfg["blob_dim"],
                cfg["blob_per_class"],
                cfg["blob_center_scale"],
                cfg["blob_cluster_std"],
                seed=cfg["blob_seed"] if data_seed is None else data_seed,
                anisotropic=cfg["blob_anisotropic"],
            )
    except FeatureFileError as e:
        e.args = (f"the blob splits of blob_center_scale={cfg['blob_center_scale']} and "
                  f"blob_cluster_std={cfg['blob_cluster_std']}: {e}",)
        raise


def _check_ipc_fits(train: Dataset, cfg: dict, methods: list[str]):
    """from_real init and the random and centroid baselines pick ipc rows of
    every train class; a class with fewer rows is a ConfigError."""
    if cfg["init"] != "from_real" and not {"random", "centroid"} & set(methods):
        return
    counts = train.class_layout.counts
    short = np.flatnonzero(counts < cfg["ipc"])
    if short.size:
        c = int(short[0])
        raise ConfigError(f"ipc={cfg['ipc']} exceeds the {counts[c]} train rows of class {c}")


def _load_eval(cfg: dict, dim: int, class_count: int) -> Dataset | None:
    """The data_eval split, or None; it must have the train split's dim and
    no class past its class count."""
    if not cfg["data_eval"]:
        return None
    ev = load_features(cfg["data_eval"])
    if ev.dim != dim or ev.class_count > class_count:
        raise FeatureFileError(
            f"eval split {cfg['data_eval']} ({ev.dim}-d, {ev.class_count} classes) does not "
            f"fit train split {cfg['data_train']} ({dim}-d, {class_count} classes)"
        )
    return ev


def _eval_split_for(syn_data: Dataset, cfg: dict) -> Dataset | None:
    """The eval split (or None) of the data a saved synthetic set is probed
    on, which must match the set's dim and class count. Of a CLPF train file
    only the header is read: these commands never touch the train rows."""
    if cfg["data"] == "files":
        dim, class_count = feature_shape(cfg["data_train"])
        ev = _load_eval(cfg, dim, class_count)
    else:
        train, ev = build_data(cfg)
        dim, class_count = train.dim, train.class_count
    if syn_data.dim != dim:
        raise ConfigError(f"synthetic dim {syn_data.dim} does not match data dim {dim}")
    if syn_data.class_count != class_count:
        raise ConfigError(
            f"synthetic set has {syn_data.class_count} classes but the data has {class_count}"
        )
    return ev


def _split_name(cfg: dict, key: str) -> str:
    """The file of the data_train or data_eval split, or what it is under blobs."""
    return cfg[key] or f"the blob {key.removeprefix('data_')} split"


def _features(enc, data: Dataset, source: str) -> Dataset:
    """`data` with its rows passed through the encoder. Features no Dataset
    can hold (an encoder that overflows) raise FeatureFileError naming
    `source`, the set's file or what it is, and the encoder kind."""
    try:
        with np.errstate(all="ignore"):  # the Dataset check reports what overflows
            feats = encode(enc, data.inputs)
        return Dataset(feats, data.labels, data.class_count)
    except FeatureFileError as e:
        e.args = (f"{source} encoded with encoder={enc.kind}: {e}",)
        raise


def _probe_accuracy(train: Dataset, eval_set: Dataset, cfg: dict, probe_seed: int) -> float:
    return train_linear_probe(
        train, eval_set, epochs=cfg["probe_epochs"], lr=cfg["probe_lr"],
        batch_size=cfg["probe_batch_size"], seed=probe_seed,
    ).eval_acc


def cmd_gradcheck(cfg: dict, json_path=None):
    """Full finite-difference battery; returns (exit code, report dict)."""
    check_config(cfg, "gradcheck", json_path)
    t0 = time.perf_counter()
    results = run_battery(seed=cfg["seed"])
    report = battery_report(results)
    report["wall_seconds"] = time.perf_counter() - t0
    if json_path is not None:
        Path(json_path).write_text(json_text(report))
    for r in results:
        status = "pass" if r.passed else f"FAIL (seed {r.worst_seed})"
        print(f"gradcheck {r.name}: max_rel_err={r.max_rel_err:.3e} {status}")
    return (0 if report["passed"] else 1), report


def _parse_methods(cfg: dict) -> list[str]:
    methods = []
    for token in cfg["compare_methods"].split(","):
        name = token.strip()
        if not name:
            continue
        if name == "mse":
            name = "mse-ablation"
        if name not in METHOD_NAMES:
            raise ConfigError(f"unknown compare method {name!r} (choose from {METHOD_NAMES})")
        methods.append(name)
    if not methods:
        raise ConfigError("compare_methods is empty")
    if "neighbor" in methods and "clpdd" not in methods:
        raise ConfigError(
            "the neighbor baseline selects against the just-distilled set; "
            "include clpdd in compare_methods"
        )
    return methods


def _run_seed(cfg: dict, methods: list[str], index: int):
    """Every requested method for one run seed; returns (accs, curve, clpdd's
    set or None). Without an eval split nothing is probed and accs is {}."""
    run_seed = cfg["seed"] + index
    data_seed = cfg["blob_seed"] + index if cfg["data"] == "blobs" else None
    train, ev = build_data(cfg, data_seed=data_seed)
    # every seed's split has the same class counts, so only the first seed's
    # check can fail, before any step
    _check_ipc_fits(train, cfg, methods)
    dcfg = replace(distill_config_from(cfg), seed=run_seed)
    enc = dcfg.build_encoder(train.dim)

    distilled: dict[str, Dataset] = {}
    curve = []
    if "clpdd" in methods:
        distilled["clpdd"], curve = run_distill(dcfg, train, ev, enc=enc)
    if "mse-ablation" in methods:
        distilled["mse-ablation"], _ = run_distill(
            replace(dcfg, outer_objective="mse"), train, ev, enc=enc
        )
    if ev is None:
        return {}, curve, distilled.get("clpdd")
    # past the last step, each split and each set is encoded once; the
    # feature baselines pick rows of the encoded train split as they are
    feats = {name: _features(enc, syn, f"the {name} set") for name, syn in distilled.items()}
    if "random" in methods:
        sel = select_random(train, cfg["ipc"], seed=stream_seed(run_seed, "select"))
        feats["random"] = _features(enc, sel, "the random set")
    if "centroid" in methods or "neighbor" in methods:
        real_feats = _features(enc, train, _split_name(cfg, "data_train"))
        if "centroid" in methods:
            feats["centroid"] = select_centroid(real_feats, cfg["ipc"])
        if "neighbor" in methods:
            feats["neighbor"] = select_neighbor(real_feats, feats["clpdd"])
    ev_feats = _features(enc, ev, _split_name(cfg, "data_eval"))
    probe_seed = stream_seed(run_seed, "probe")
    accs = {name: _probe_accuracy(f, ev_feats, cfg, probe_seed) for name, f in feats.items()}
    return accs, curve, distilled.get("clpdd")


def _run(cfg: dict, methods: list[str], seeds: int):
    """The methods over `seeds` run seeds; returns (report, first seed's
    clpdd set or None)."""
    t0 = time.perf_counter()
    runs = [_run_seed(cfg, methods, i) for i in range(seeds)]
    accuracies = {
        name: MethodAccuracy([accs[name] for accs, _, _ in runs])
        for name in METHOD_NAMES
        if name in runs[0][0]
    }
    report = RunReport(
        config=dict(cfg),
        curve=runs[0][1],
        accuracies=accuracies,
        seeds=[cfg["seed"] + i for i in range(seeds)],
        wall_seconds=time.perf_counter() - t0,
    )
    return report, runs[0][2]


def _write_run(report: RunReport, syn: Dataset | None, out_dir) -> RunReport:
    """Make `out_dir` and write synthetic.clpf (when there is a set),
    report.json and curve.csv into it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if syn is not None:
        synthetic_path = out / "synthetic.clpf"
        save_features(syn, synthetic_path)
        report.synthetic_path = str(synthetic_path)
    report.save_json(out / "report.json")
    report.save_curve_csv(out / "curve.csv")
    return report


def cmd_distill(cfg: dict, out_dir) -> RunReport:
    """`compare` with one seed and clpdd alone, whose eval split is optional:
    without one nothing is probed. Writes synthetic.clpf, report.json and
    curve.csv."""
    check_config(cfg, "distill", out_dir)
    return _write_run(*_run(cfg, ["clpdd"], 1), out_dir)


def compare_report(cfg: dict):
    """Distill and evaluate every configured method over compare_seeds seeds.

    Returns (report, first seed's distilled set or None).
    """
    check_config(cfg, "compare", None)
    return _run(cfg, _parse_methods(cfg), cfg["compare_seeds"])


def cmd_compare(cfg: dict, out_dir) -> RunReport:
    check_config(cfg, "compare", out_dir)
    return _write_run(*_run(cfg, _parse_methods(cfg), cfg["compare_seeds"]), out_dir)


def cmd_sweep(cfg: dict, param: str, values: list, out_dir):
    """One compare row per parameter value, same seeds for every value."""
    check_config(cfg, "sweep", out_dir)
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r} (choose from {SWEEP_PARAMS})")
    if not values:
        raise ConfigError("sweep needs a nonempty value list")
    methods = _parse_methods(cfg)
    # every value is parsed and checked before the first compare runs
    runs = []
    for raw in values:
        value = _coerce(param, raw, "--values")
        cfg_v = dict(cfg, **{param: value})
        check_config(cfg_v, "sweep", out_dir)
        runs.append((value, cfg_v))
    rows = [(value, _run(cfg_v, methods, cfg_v["compare_seeds"])[0]) for value, cfg_v in runs]
    header = ["param", "value"]
    for name in methods:
        header += [f"{name}_mean", f"{name}_std"]
    lines = [",".join(header)]
    for value, report in rows:
        cells = [param, _fmt(value)]
        for name in methods:
            acc = report.accuracies[name]
            cells += [repr(acc.mean), repr(acc.std)]
        lines.append(",".join(cells))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return rows


def cmd_eval(cfg: dict, synthetic_path, json_path=None) -> dict:
    """Probe a saved synthetic set against the eval split of the config."""
    check_config(cfg, "eval", json_path)
    syn_data = load_features(synthetic_path)
    ev = _eval_split_for(syn_data, cfg)
    enc = distill_config_from(cfg).build_encoder(syn_data.dim)
    acc = _probe_accuracy(
        _features(enc, syn_data, str(synthetic_path)),
        _features(enc, ev, _split_name(cfg, "data_eval")),
        cfg,
        stream_seed(cfg["seed"], "probe"),
    )
    result = {
        "synthetic_path": str(synthetic_path),
        "n_synthetic": syn_data.n,
        "eval_acc": acc,
    }
    if json_path is not None:
        Path(json_path).write_text(json_text(result))
    return result


def cmd_export_embeddings(cfg: dict, synthetic_path, out_path):
    """2-D PCA of real + synthetic features, written as x,y,label,origin CSV.

    The real rows are the eval split's, or the train split's when there is
    none."""
    check_config(cfg, "export-embeddings", out_path)
    syn_data = load_features(synthetic_path)
    ev = _eval_split_for(syn_data, cfg)
    real, key = (ev, "data_eval") if ev is not None else (build_data(cfg)[0], "data_train")
    enc = distill_config_from(cfg).build_encoder(syn_data.dim)
    names = (_split_name(cfg, key), str(synthetic_path))
    feats = [_features(enc, real, names[0]), _features(enc, syn_data, names[1])]
    try:
        proj, _ = pca_project_2d(np.vstack([f.inputs for f in feats]))
    except ValueError as e:  # features finite, but too large for their variance
        raise FeatureFileError(
            f"{names[0]} and {names[1]} encoded with encoder={enc.kind}: {e}"
        ) from e
    labels = np.concatenate([real.labels, syn_data.labels])
    origins = ["real"] * real.n + ["synthetic"] * syn_data.n
    lines = ["x,y,label,origin"] + [
        f"{float(x)!r},{float(y)!r},{label},{origin}"
        for (x, y), label, origin in zip(proj, labels, origins)
    ]
    Path(out_path).write_text("\n".join(lines) + "\n")


def _keep_freed_memory():
    """Set glibc's mmap and trim thresholds for this process; a no-op where
    the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (flags win over the file)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="clpdd",
        description="Distill a small synthetic set through a closed-form linear probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient battery")
    _add_common(p)
    p.add_argument("--json", help="write the battery report to this path")

    p = sub.add_parser("distill", help="distill a synthetic set and write artifacts")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="probe a saved synthetic set")
    _add_common(p)
    p.add_argument("--synthetic", required=True, help="synthetic .clpf/.csv path")
    p.add_argument("--json", help="write the result to this path")

    p = sub.add_parser("compare", help="distillation vs selection baselines over seeds")
    _add_common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="compare across values of tau/lambda/b_per_class")
    _add_common(p)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True)

    p = sub.add_parser("export-embeddings", help="write a 2-D PCA of real+synthetic features")
    _add_common(p)
    p.add_argument("--synthetic", required=True)
    p.add_argument("--out", required=True, help="output CSV path")

    args = parser.parse_args(argv)
    _keep_freed_memory()  # the CLI owns its process; library callers keep their allocator
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command == "gradcheck":
            code, _ = cmd_gradcheck(cfg, json_path=args.json)
            return code
        if args.command == "distill":
            report = cmd_distill(cfg, args.out)
            for name, acc in report.accuracies.items():
                print(f"{name}: eval_acc={acc.mean:.4f}")
            print(f"artifacts written to {args.out}")
            return 0
        if args.command == "eval":
            result = cmd_eval(cfg, args.synthetic, json_path=args.json)
            print(json_text(result), end="")
            return 0
        if args.command == "compare":
            report = cmd_compare(cfg, args.out)
            for name, acc in report.accuracies.items():
                print(f"{name}: {acc.mean:.4f} +/- {acc.std:.4f}")
            return 0
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v]
            cmd_sweep(cfg, args.param, values, args.out)
            print(f"sweep written to {Path(args.out) / 'sweep.csv'}")
            return 0
        if args.command == "export-embeddings":
            cmd_export_embeddings(cfg, args.synthetic, args.out)
            print(f"embeddings written to {args.out}")
            return 0
        raise AssertionError(args.command)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FeatureFileError as e:
        print(f"feature file error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"no such file: {e.filename}", file=sys.stderr)
        return 2
    except OSError as e:  # a path that is there but cannot be used as asked
        where = "" if e.filename is None else f"{e.filename}: "
        print(f"file error: {where}{e.strerror or e}", file=sys.stderr)
        return 2
    except DistillDivergenceError as e:  # a failed run, not a usage error
        print(f"divergence: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
