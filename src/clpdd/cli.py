"""Operator surface: subcommands wiring flat key=value configs to runs.

Subcommands: gradcheck, distill, eval, compare, sweep, export-embeddings.
Config files are flat `key=value` text (# comments allowed); `--set key=value`
flags override file values. The distillation keys and their defaults are the
fields of `DistillConfig`; the data-source and compare keys are declared
here. All randomness flows from the single `seed` key through named
per-purpose streams.
"""

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    FeatureFileError,
    check_every_class,
    gen_blobs,
    load_features,
    save_features,
)
from .distill import DistillConfig, run_distill, stream_seed
from .encoder import encode
from .evaluation import (
    pca_project_2d,
    select_centroid,
    select_neighbor,
    select_random,
    train_linear_probe,
)
from .gradcheck import battery_report, run_battery
from .report import MethodAccuracy, RunReport


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
    "pca_export": (_parse_bool, False),
}

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
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
    return DistillConfig(**{f.name: cfg[key] for key, f in _DISTILL_FIELDS.items()})


def build_data(cfg: dict, data_seed: int | None = None):
    """Returns (train, eval-or-None) from the configured source."""
    if cfg["data"] == "blobs":
        seed = cfg["blob_seed"] if data_seed is None else data_seed
        return gen_blobs(
            cfg["blob_classes"],
            cfg["blob_dim"],
            cfg["blob_per_class"],
            cfg["blob_center_scale"],
            cfg["blob_cluster_std"],
            seed=seed,
            anisotropic=cfg["blob_anisotropic"],
        )
    if cfg["data"] == "files":
        if not cfg["data_train"]:
            raise ConfigError("data=files requires data_train")
        train = load_features(cfg["data_train"])
        # balanced batches need rows of every class; an eval split may lack some
        check_every_class(train.labels, train.class_count, cfg["data_train"])
        ev = load_features(cfg["data_eval"]) if cfg["data_eval"] else None
        return train, ev
    raise ConfigError(f"unknown data source {cfg['data']!r} (use 'blobs' or 'files')")


def _probe_accuracy(enc, train: Dataset, eval_set: Dataset, cfg: dict, probe_seed: int) -> float:
    res = train_linear_probe(
        encode(enc, train.inputs),
        train.labels,
        encode(enc, eval_set.inputs),
        eval_set.labels,
        epochs=cfg["probe_epochs"],
        lr=cfg["probe_lr"],
        batch_size=cfg["probe_batch_size"],
        seed=probe_seed,
    )
    return res.eval_acc


def _write_embeddings(enc, real: Dataset, syn: Dataset, path):
    real_feats = encode(enc, real.inputs)
    syn_feats = encode(enc, syn.inputs)
    proj, _ = pca_project_2d(np.vstack([real_feats, syn_feats]))
    lines = ["x,y,label,origin"]
    for i in range(real.n):
        lines.append(f"{float(proj[i, 0])!r},{float(proj[i, 1])!r},{real.labels[i]},real")
    for j in range(syn_feats.shape[0]):
        k = real.n + j
        lines.append(f"{float(proj[k, 0])!r},{float(proj[k, 1])!r},{syn.labels[j]},synthetic")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_gradcheck(cfg: dict, json_path=None, corrupt: str | None = None):
    """Full finite-difference battery; returns (exit code, report dict)."""
    t0 = time.perf_counter()
    results = run_battery(seed=cfg["seed"], corrupt=corrupt)
    report = battery_report(results)
    report["wall_seconds"] = time.perf_counter() - t0
    if json_path is not None:
        Path(json_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for r in results:
        status = "pass" if r.passed else f"FAIL (seed {r.worst_seed})"
        print(f"gradcheck {r.name}: max_rel_err={r.max_rel_err:.3e} {status}")
    return (0 if report["passed"] else 1), report


def cmd_distill(cfg: dict, out_dir) -> RunReport:
    """Distill once; writes synthetic.clpf, report.json, curve.csv (+ PCA CSV)."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, ev = build_data(cfg)
    dcfg = distill_config_from(cfg)
    enc = dcfg.build_encoder(train.dim)
    syn, report = run_distill(dcfg, train, ev, enc=enc)
    synthetic_path = out / "synthetic.clpf"
    save_features(syn, synthetic_path)
    if ev is not None:
        acc = _probe_accuracy(enc, syn, ev, cfg, stream_seed(cfg["seed"], "probe"))
        report.accuracies["clpdd"] = MethodAccuracy([acc])
    report.config = dict(cfg)
    report.synthetic_path = str(synthetic_path)
    report.wall_seconds = time.perf_counter() - t0
    report.save_json(out / "report.json")
    report.save_curve_csv(out / "curve.csv")
    if cfg["pca_export"]:
        _write_embeddings(enc, ev if ev is not None else train, syn, out / "embeddings.csv")
    return report


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


def _compare_one_seed(cfg: dict, methods: list[str], index: int):
    """All requested methods for one run seed; returns (accs, curve)."""
    run_seed = cfg["seed"] + index
    data_seed = cfg["blob_seed"] + index if cfg["data"] == "blobs" else None
    train, ev = build_data(cfg, data_seed=data_seed)
    if ev is None:
        raise ConfigError("compare needs an eval split (set data_eval)")
    dcfg = replace(distill_config_from(cfg), seed=run_seed)
    enc = dcfg.build_encoder(train.dim)
    probe_seed = stream_seed(run_seed, "probe")

    accs: dict[str, float] = {}
    curve = []
    syn = None
    if "clpdd" in methods:
        syn, rep = run_distill(dcfg, train, ev, enc=enc)
        accs["clpdd"] = _probe_accuracy(enc, syn, ev, cfg, probe_seed)
        curve = rep.curve
    if "mse-ablation" in methods:
        syn_mse, _ = run_distill(replace(dcfg, outer_objective="mse"), train, ev, enc=enc)
        accs["mse-ablation"] = _probe_accuracy(enc, syn_mse, ev, cfg, probe_seed)
    if "random" in methods:
        sel = select_random(train, cfg["ipc"], seed=stream_seed(run_seed, "select"))
        accs["random"] = _probe_accuracy(enc, sel, ev, cfg, probe_seed)
    if "centroid" in methods or "neighbor" in methods:
        real_feats = encode(enc, train.inputs)
        if "centroid" in methods:
            sel = select_centroid(train, real_feats, cfg["ipc"])
            accs["centroid"] = _probe_accuracy(enc, sel, ev, cfg, probe_seed)
        if "neighbor" in methods:
            sel = select_neighbor(train, real_feats, encode(enc, syn.inputs), syn.labels)
            accs["neighbor"] = _probe_accuracy(enc, sel, ev, cfg, probe_seed)
    return accs, curve, syn


def compare_report(cfg: dict):
    """Distill and evaluate every configured method over compare_seeds seeds.

    Returns (report, first seed's distilled set or None).
    """
    t0 = time.perf_counter()
    methods = _parse_methods(cfg)
    k = cfg["compare_seeds"]
    if k < 1:
        raise ConfigError("compare_seeds must be >= 1")
    runs = [_compare_one_seed(cfg, methods, i) for i in range(k)]
    accuracies = {
        name: MethodAccuracy([accs[name] for accs, _, _ in runs])
        for name in METHOD_NAMES
        if name in methods
    }
    report = RunReport(
        config=dict(cfg),
        curve=runs[0][1],
        accuracies=accuracies,
        seeds=[cfg["seed"] + i for i in range(k)],
        wall_seconds=time.perf_counter() - t0,
    )
    return report, runs[0][2]


def cmd_compare(cfg: dict, out_dir) -> RunReport:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report, first_syn = compare_report(cfg)
    if first_syn is not None:
        synthetic_path = out / "synthetic.clpf"
        save_features(first_syn, synthetic_path)
        report.synthetic_path = str(synthetic_path)
    report.save_json(out / "report.json")
    report.save_curve_csv(out / "curve.csv")
    return report


def cmd_sweep(cfg: dict, param: str, values: list, out_dir):
    """One compare row per parameter value, same seeds for every value."""
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r} (choose from {SWEEP_PARAMS})")
    if not values:
        raise ConfigError("sweep needs a nonempty value list")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    caster = int if param == "b_per_class" else float
    methods = _parse_methods(cfg)
    rows = []
    for raw in values:
        value = caster(raw)
        cfg_v = dict(cfg, **{param: value})
        report, _ = compare_report(cfg_v)
        rows.append((value, report))
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
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return rows


def cmd_eval(cfg: dict, synthetic_path, json_path=None) -> dict:
    """Probe a saved synthetic set against the configured eval split."""
    syn_data = load_features(synthetic_path)
    train, ev = build_data(cfg)
    if ev is None:
        raise ConfigError("eval needs an eval split (set data_eval)")
    if syn_data.dim != train.dim:
        raise ConfigError(
            f"synthetic dim {syn_data.dim} does not match data dim {train.dim}"
        )
    enc = distill_config_from(cfg).build_encoder(train.dim)
    acc = _probe_accuracy(enc, syn_data, ev, cfg, stream_seed(cfg["seed"], "probe"))
    result = {
        "synthetic_path": str(synthetic_path),
        "n_synthetic": syn_data.n,
        "eval_acc": acc,
    }
    if json_path is not None:
        Path(json_path).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def cmd_export_embeddings(cfg: dict, synthetic_path, out_path):
    """2-D PCA of real + synthetic features, written as x,y,label,origin CSV."""
    syn_data = load_features(synthetic_path)
    train, ev = build_data(cfg)
    real = ev if ev is not None else train
    enc = distill_config_from(cfg).build_encoder(train.dim)
    _write_embeddings(enc, real, syn_data, out_path)


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
    p.add_argument("--corrupt", help=argparse.SUPPRESS)  # negative-control test hook

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
    try:
        cfg = load_config(args.config, args.overrides)
        if args.command == "gradcheck":
            code, _ = cmd_gradcheck(cfg, json_path=args.json, corrupt=args.corrupt)
            return code
        if args.command == "distill":
            report = cmd_distill(cfg, args.out)
            for name, acc in report.accuracies.items():
                print(f"{name}: eval_acc={acc.mean:.4f}")
            print(f"artifacts written to {args.out}")
            return 0
        if args.command == "eval":
            result = cmd_eval(cfg, args.synthetic, json_path=args.json)
            print(json.dumps(result, indent=2, sort_keys=True))
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


if __name__ == "__main__":
    sys.exit(main())
