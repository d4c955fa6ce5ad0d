"""Run reports: per-iteration curves plus probe accuracies, saved as JSON/CSV."""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def json_text(obj) -> str:
    """Every JSON file's and printout's text: indent 2, sorted keys, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@dataclass
class StepMetrics:
    iteration: int
    outer_loss: float
    grad_norm: float
    lr: float
    eval_acc: float | None = None


@dataclass
class MethodAccuracy:
    """Per-seed accuracies for one method."""

    values: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))

    def to_dict(self) -> dict:
        return {"values": self.values, "mean": self.mean, "std": self.std}


@dataclass
class RunReport:
    config: dict
    curve: list[StepMetrics] = field(default_factory=list)
    accuracies: dict[str, MethodAccuracy] = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)
    wall_seconds: float = 0.0
    synthetic_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "accuracies": {k: v.to_dict() for k, v in self.accuracies.items()},
            "seeds": self.seeds,
            "wall_seconds": self.wall_seconds,
            "synthetic_path": self.synthetic_path,
            "iterations_recorded": len(self.curve),
        }

    def save_json(self, path):
        Path(path).write_text(json_text(self.to_dict()))

    def save_curve_csv(self, path):
        lines = ["iteration,outer_loss,grad_norm,lr,eval_acc"]
        for m in self.curve:
            acc = "" if m.eval_acc is None else repr(m.eval_acc)
            lines.append(
                f"{m.iteration},{m.outer_loss!r},{m.grad_norm!r},{m.lr!r},{acc}"
            )
        Path(path).write_text("\n".join(lines) + "\n")
