"""The benchmark workloads: CLI sessions, their inputs, their checks.

A workload turns a data seed into the CLI commands of one session, writes
any input files before timing starts, and checks a finished session's
artifacts with readers of its own, so a bug in clpdd's reader cannot hide a
bug in its writer. Each run cycles its sessions over `data_seeds` seeds
derived from the run seed; every seed runs at least twice, so the
byte-identity check always has a pair to compare.
"""

import csv
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CLPF_HEADER = struct.Struct("<4sHHQQI")


def write_clpf(path, inputs: np.ndarray, labels: np.ndarray, class_count: int):
    """CLPF version 1 with a float64 payload (layout in the clpdd README)."""
    n, dim = inputs.shape
    header = _CLPF_HEADER.pack(b"CLPF", 1, 1, n, dim, class_count)
    Path(path).write_bytes(
        header + labels.astype("<u4").tobytes() + inputs.astype("<f8").tobytes()
    )


def read_clpf(path):
    """Returns (inputs, labels, class_count); raises ValueError on a bad file."""
    raw = Path(path).read_bytes()
    if len(raw) < _CLPF_HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes is shorter than a CLPF header")
    magic, version, flags, n, dim, classes = _CLPF_HEADER.unpack_from(raw)
    if magic != b"CLPF" or version != 1:
        raise ValueError(f"{path}: magic {magic!r} version {version}")
    width = 8 if flags & 1 else 4
    if len(raw) != _CLPF_HEADER.size + 4 * n + width * n * dim:
        raise ValueError(f"{path}: size {len(raw)} does not match n={n} dim={dim}")
    labels = np.frombuffer(raw, "<u4", n, _CLPF_HEADER.size)
    inputs = np.frombuffer(raw, "<f8" if width == 8 else "<f4", n * dim,
                           _CLPF_HEADER.size + 4 * n).reshape(n, dim)
    return inputs, labels, classes


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Checks:
    """Named pass/fail results of one session."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.results.append((name, bool(ok), detail))


def check_synthetic(checks: Checks, path, classes: int, ipc: int, dim: int):
    """synthetic.clpf reloads as finite, class-major classes*ipc rows."""
    try:
        inputs, labels, class_count = read_clpf(path)
    except (OSError, ValueError) as e:
        checks.add("synthetic_reloads", False, str(e))
        return
    expected = np.repeat(np.arange(classes), ipc)
    ok = (
        class_count == classes
        and inputs.shape == (classes * ipc, dim)
        and np.array_equal(labels, expected)
        and bool(np.all(np.isfinite(inputs)))
    )
    checks.add("synthetic_reloads", ok,
               f"shape {inputs.shape}, {class_count} classes, expected {classes}x{ipc} by {dim}")


def _curve_losses(path) -> list[float]:
    with open(path, newline="") as f:
        return [float(row["outer_loss"]) for row in csv.DictReader(f)]


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    dim: int
    ipc: int
    data_seeds: int
    seed_stride: int = 1

    def data_seed(self, run_seed: int, session: int) -> int:
        return (run_seed * self.data_seeds + session % self.data_seeds) * self.seed_stride

    def prepare(self, inputs_dir: Path, data_seed: int):
        """Write input files for one data seed; called before timing starts."""

    def commands(self, out: Path, inputs_dir: Path, data_seed: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: Path, checks: Checks) -> dict:
        """Run the output checks; returns {"eval_acc": ...} plus any figures to report."""
        raise NotImplementedError


class CompareTiny(Workload):
    def commands(self, out, inputs_dir, data_seed):
        return [["compare", "--out", str(out),
                 "--set", f"seed={data_seed}", "--set", f"blob_seed={data_seed}"]]

    def check(self, out, checks):
        check_synthetic(checks, out / "synthetic.clpf", self.classes, self.ipc, self.dim)
        acc = {k: v["mean"] for k, v in
               json.loads((out / "report.json").read_text())["accuracies"].items()}
        clpdd = acc["clpdd"]
        # acceptance criterion 4's margin over random selection: at least 0.09
        # on each of the ~140 data seeds measured
        checks.add("clpdd_beats_random", clpdd >= acc["random"] + 0.02, f"{acc}")
        # criteria 4 (clpdd >= centroid) and 5 (clpdd >= mse - 0.005) are only
        # reported: the seed code misses criterion 5 on data seeds 36-38, 345,
        # 370 and 740 and criterion 4 on 370, so as checks they would fail
        # correct code
        return {"eval_acc": clpdd, "margins": {
            "clpdd-centroid": clpdd - acc["centroid"],
            "clpdd-mse": clpdd - acc["mse-ablation"],
        }}


class DistillEval(Workload):
    """`clpdd distill` then `clpdd eval` on the same config."""

    def config(self, inputs_dir: Path, data_seed: int) -> list[str]:
        raise NotImplementedError

    def commands(self, out, inputs_dir, data_seed):
        cfg = []
        for item in self.config(inputs_dir, data_seed):
            cfg += ["--set", item]
        return [
            ["distill", "--out", str(out)] + cfg,
            ["eval", "--synthetic", str(out / "synthetic.clpf"),
             "--json", str(out / "eval.json")] + cfg,
        ]

    def check(self, out, checks):
        check_synthetic(checks, out / "synthetic.clpf", self.classes, self.ipc, self.dim)
        losses = _curve_losses(out / "curve.csv")
        checks.add("loss_finite_and_falls",
                   bool(losses) and all(map(math.isfinite, losses)) and losses[-1] < losses[0],
                   f"first {losses[:1]}, last {losses[-1:]}")
        acc = json.loads((out / "eval.json").read_text())["eval_acc"]
        checks.add("acc_above_chance", acc > 1.0 / self.classes, f"{acc} vs 1/{self.classes}")
        # distill probes the in-memory set, eval the reloaded file: same bits
        distilled = json.loads((out / "report.json").read_text())["accuracies"]["clpdd"]["mean"]
        checks.add("eval_matches_distill", acc == distilled, f"{acc} vs {distilled}")
        return {"eval_acc": acc}


class DistillPrimalClpf(DistillEval):
    train_per_class = 100
    eval_per_class = 20

    def _paths(self, inputs_dir, data_seed):
        return inputs_dir / f"train-{data_seed}.clpf", inputs_dir / f"eval-{data_seed}.clpf"

    def prepare(self, inputs_dir, data_seed):
        """Gaussian blobs with per-class, per-axis spreads, written as CLPF."""
        rng = np.random.default_rng(data_seed)
        centers = rng.standard_normal((self.classes, self.dim)) * 0.2
        spread = rng.uniform(0.25, 1.75, (self.classes, 1, self.dim)) * 0.15
        for path, per_class in zip(self._paths(inputs_dir, data_seed),
                                   (self.train_per_class, self.eval_per_class)):
            noise = rng.standard_normal((self.classes, per_class, self.dim))
            x = (centers[:, None, :] + noise * spread).reshape(-1, self.dim)
            write_clpf(path, x, np.repeat(np.arange(self.classes), per_class), self.classes)

    def config(self, inputs_dir, data_seed):
        train, ev = self._paths(inputs_dir, data_seed)
        return [
            "data=files", f"data_train={train}", f"data_eval={ev}",
            "encoder=mlp1", f"ipc={self.ipc}", "iterations=50",
            # the default 500 epochs over 1000 rows take ~4 s per probe,
            # which would leave room for only two or three sessions per run
            "probe_epochs=100", f"seed={data_seed}",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # compare runs seeds s..s+4, so a stride of 5 keeps data seeds disjoint
        CompareTiny("compare-tiny", classes=5, dim=16, ipc=1, data_seeds=3, seed_stride=5),
        DistillPrimalClpf("distill-primal-clpf", classes=100, dim=512, ipc=10, data_seeds=1),
    )
}
