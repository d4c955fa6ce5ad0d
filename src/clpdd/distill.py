"""The bilevel distillation loop.

Each iteration re-solves the closed-form probe on the current synthetic
features, scores it on a fresh class-balanced real batch, and pushes the
outer gradient analytically back through the solve and the frozen encoder to
the synthetic inputs, which an Adam step with a cosine-annealed learning rate
then updates. Labels stay fixed; only the inputs learn.
"""

import math
import time
import zlib
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .data import Dataset
from .encoder import Encoder, encode, encode_vjp, make_encoder
from .linalg import row_argmax
from .objective import (
    OuterBatch,
    class_anchor_loss_and_grad,
    mse_outer_loss_and_grad,
    onehot,
)
from .report import RunReport, StepMetrics
from .solver import ridge_kernel, solve_backward

OUTER_OBJECTIVES = ("class_anchor", "mse")
INIT_MODES = ("random_normal", "from_real")

GRAD_NORM_LIMIT = 1e6


class DistillDivergenceError(RuntimeError):
    """Raised when a step produces a non-finite or exploding gradient."""


def stream_seed(seed: int, name: str) -> int:
    """Derive a per-purpose sub-seed so streams never share state.

    Changing how one stage consumes randomness must not shift the others,
    so each named stage (init, batch, augment, probe, ...) gets its own
    deterministic stream keyed by (seed, name).
    """
    return int(np.random.SeedSequence([seed, zlib.crc32(name.encode())]).generate_state(1)[0])


def rng_stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(stream_seed(seed, name))


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters of one distillation run.

    The single source of their defaults: the CLI derives its config keys,
    parsers and defaults from these fields, in this order.
    """

    # inner/outer problem
    lam: float = 0.1
    tau: float = 0.07
    b_per_class: int = 4
    iterations: int = 1000  # desk-scale budget; full-scale runs use 4000
    lr: float = 0.05
    lr_schedule: str = "cosine"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    outer_objective: str = "class_anchor"
    # encoder
    encoder_kind: str = "identity"
    feature_dim: int = 0  # 0 -> input dimension
    hidden_dim: int = 0  # 0 -> auto (mlp1 only)
    # synthetic set
    augment_noise_sigma: float = 0.01
    init: str = "random_normal"
    ipc: int = 1
    seed: int = 0
    eval_every: int = 250
    # probe protocol (shared by every method)
    probe_epochs: int = 500
    probe_lr: float = 0.01
    probe_batch_size: int = 256

    def __post_init__(self):
        if self.lam <= 0 or self.tau <= 0:
            raise ValueError("lambda and tau must be > 0")
        if self.lr < 0 or self.augment_noise_sigma < 0:
            raise ValueError("lr and augment_noise_sigma must be >= 0")
        if self.iterations < 0 or self.ipc < 1 or self.b_per_class < 1:
            raise ValueError("iterations must be >= 0, ipc and b_per_class >= 1")
        if self.outer_objective not in OUTER_OBJECTIVES:
            raise ValueError(f"unknown outer objective {self.outer_objective!r}")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.lr_schedule != "cosine":
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")

    def build_encoder(self, input_dim: int) -> Encoder:
        feature_dim = self.feature_dim if self.feature_dim > 0 else input_dim
        hidden = self.hidden_dim if self.hidden_dim > 0 else None
        return make_encoder(
            self.encoder_kind,
            input_dim,
            feature_dim,
            hidden_dim=hidden,
            seed=stream_seed(self.seed, "encoder"),
        )


@dataclass
class AdamState:
    """First/second moment accumulators shaped like the synthetic inputs."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def like(cls, inputs: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(inputs), v=np.zeros_like(inputs))


def adam_update(
    state: AdamState, grad: np.ndarray, lr: float, beta1: float, beta2: float, eps: float
) -> np.ndarray:
    """Advance the Adam state in place and return the (bias-corrected) update to subtract.

    Evaluates m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    lr * m_hat / (sqrt(v_hat) + eps) in the operation order of those formulas,
    so the result matches them bit for bit. The returned array is new and
    aliases neither moment.
    """
    state.step += 1
    scratch = np.multiply(1.0 - beta1, grad)
    state.m *= beta1
    state.m += scratch
    np.multiply(1.0 - beta2, grad, out=scratch)
    scratch *= grad
    state.v *= beta2
    state.v += scratch
    denom = np.divide(state.v, 1.0 - beta2**state.step, out=scratch)
    np.sqrt(denom, out=denom)
    denom += eps
    update = state.m / (1.0 - beta1**state.step)
    update *= lr
    update /= denom
    return update


def cosine_lr(base_lr: float, iteration: int, total: int) -> float:
    """Cosine anneal from base_lr at step 0 toward 0 over the full budget."""
    if total <= 0:
        return base_lr
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * iteration / total))


def init_synthetic(
    c: int,
    ipc: int,
    input_dim: int,
    mode: str = "random_normal",
    real: Dataset | None = None,
    seed: int = 0,
) -> Dataset:
    """Class-major synthetic set: row c*ipc + k belongs to class c."""
    if mode not in INIT_MODES:
        raise ValueError(f"unknown init mode {mode!r}")
    labels = np.repeat(np.arange(c), ipc)
    rng = np.random.default_rng(seed)
    if mode == "random_normal":
        inputs = rng.standard_normal((c * ipc, input_dim))
    else:
        if real is None:
            raise ValueError("from_real init needs a real dataset")
        rows = []
        for ci in range(c):
            idx = real.class_indices(ci)
            if idx.size < ipc:
                raise ValueError(
                    f"class {ci} has {idx.size} samples, needs >= {ipc} for from_real init"
                )
            rows.append(real.inputs[rng.choice(idx, size=ipc, replace=False)])
        inputs = np.vstack(rows)
    return Dataset(inputs, labels, c)


@lru_cache(maxsize=8)
def _balanced_targets(class_count: int, b_per_class: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and one-hot targets of every class-major balanced batch (read-only)."""
    labels = np.repeat(np.arange(class_count, dtype=np.int64), b_per_class)
    t_onehot = onehot(labels, class_count)
    labels.setflags(write=False)
    t_onehot.setflags(write=False)
    return labels, t_onehot


def sample_balanced_batch(real: Dataset, b_per_class: int, rng: np.random.Generator) -> OuterBatch:
    """Exactly b_per_class rows per class, class-major; small classes are drawn
    with replacement."""
    picks = np.empty(real.class_count * b_per_class, dtype=np.intp)
    for c in range(real.class_count):
        idx = real.class_indices(c)
        if idx.size == 0:
            raise ValueError(f"class {c} has no samples")
        # drawing positions consumes the stream exactly as rng.choice(idx, ...)
        # would and picks the same rows, without its array-argument overhead
        pos = rng.choice(idx.size, size=b_per_class, replace=idx.size < b_per_class)
        picks[c * b_per_class : (c + 1) * b_per_class] = idx[pos]
    labels, t_onehot = _balanced_targets(real.class_count, b_per_class)
    return OuterBatch(x_real=real.inputs[picks], labels=labels, t_onehot=t_onehot)


def augment(inputs: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive i.i.d. Gaussian noise into a new array; sigma=0 is the identity."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return inputs
    noisy = rng.standard_normal(inputs.shape)
    noisy *= sigma
    noisy += inputs
    return noisy


def meta_loss_and_grad(
    inputs: np.ndarray,
    y_onehot: np.ndarray,
    enc: Encoder,
    batch: OuterBatch,
    lam: float,
    tau: float,
    objective: str = "class_anchor",
):
    """Outer loss and its exact gradient with respect to the synthetic inputs.

    Chains: encode inputs -> closed-form probe -> outer loss on encoded real
    rows -> analytic backward through the solve -> encoder VJP. The batch
    carries raw real inputs and is encoded here with the same frozen map.
    """
    x_syn, hidden = encode(enc, inputs, return_hidden=True)
    sol = ridge_kernel(x_syn, y_onehot, lam)
    fbatch = batch.with_features(encode(enc, batch.x_real))
    if objective == "class_anchor":
        loss, g = class_anchor_loss_and_grad(fbatch, sol.w_star, tau)
    elif objective == "mse":
        loss, g = mse_outer_loss_and_grad(fbatch, sol.w_star)
    else:
        raise ValueError(f"unknown outer objective {objective!r}")
    grad_x = solve_backward(sol, x_syn, g)
    return loss, encode_vjp(enc, inputs, grad_x, hidden=hidden)


def _divergence_diagnostics(enc: Encoder, inputs: np.ndarray, lam: float) -> str:
    x = encode(enc, inputs)
    mu = np.linalg.eigvalsh(x @ x.T)[-1]
    return f"cond(A) <= {(mu + lam) / lam:.3e}"


def distill_step(
    inputs: np.ndarray,
    y_onehot: np.ndarray,
    adam: AdamState,
    cfg: DistillConfig,
    enc: Encoder,
    real: Dataset,
    rng_batch: np.random.Generator,
    rng_augment: np.random.Generator,
    iteration: int,
):
    """One outer iteration; returns (updated synthetic inputs, step metrics).

    The forward/backward pass runs at the augmented inputs (additive noise has
    identity Jacobian, so the gradient transfers unchanged), while the Adam
    update applies to the clean inputs.
    """
    inputs_aug = augment(inputs, cfg.augment_noise_sigma, rng_augment)
    batch = sample_balanced_batch(real, cfg.b_per_class, rng_batch)
    loss, grad = meta_loss_and_grad(
        inputs_aug, y_onehot, enc, batch, cfg.lam, cfg.tau, cfg.outer_objective
    )
    grad_norm = float(np.linalg.norm(grad))
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise DistillDivergenceError(
            f"non-finite loss/gradient at iteration {iteration} "
            f"(lambda={cfg.lam}, {_divergence_diagnostics(enc, inputs_aug, cfg.lam)})"
        )
    if grad_norm > GRAD_NORM_LIMIT:
        raise DistillDivergenceError(
            f"gradient norm {grad_norm:.3e} exceeds {GRAD_NORM_LIMIT:.0e} at iteration "
            f"{iteration}; check lambda/tau "
            f"(lambda={cfg.lam}, tau={cfg.tau}, "
            f"{_divergence_diagnostics(enc, inputs_aug, cfg.lam)})"
        )
    lr = cosine_lr(cfg.lr, iteration, cfg.iterations)
    update = adam_update(adam, grad, lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    new_inputs = np.subtract(inputs, update, out=update)
    if not np.isfinite(new_inputs).all():
        raise DistillDivergenceError(
            f"synthetic inputs became non-finite at iteration {iteration} "
            f"(lambda={cfg.lam}, {_divergence_diagnostics(enc, inputs_aug, cfg.lam)})"
        )
    return new_inputs, StepMetrics(
        iteration=iteration, outer_loss=loss, grad_norm=grad_norm, lr=lr
    )


def _monitor_accuracy(
    enc: Encoder, inputs: np.ndarray, y_onehot: np.ndarray, lam: float, eval_set: Dataset
) -> float:
    """Cheap closed-form probe accuracy on the eval split, for the curve only."""
    sol = ridge_kernel(encode(enc, inputs), y_onehot, lam)
    preds = row_argmax(encode(enc, eval_set.inputs) @ sol.w_star)
    return float(np.mean(preds == eval_set.labels))


def run_distill(
    cfg: DistillConfig,
    real: Dataset,
    eval_set: Dataset | None = None,
    enc: Encoder | None = None,
):
    """Run the full budget of iterations; returns (synthetic Dataset, report).

    Loss/gradient/lr are recorded every step; when an eval split is given, a
    closed-form probe accuracy is recorded every cfg.eval_every steps.
    Evaluation always uses the un-augmented synthetic inputs. The report's
    config holds the fields of `cfg`.
    """
    t0 = time.perf_counter()
    if enc is None:
        enc = cfg.build_encoder(real.dim)
    syn = init_synthetic(
        real.class_count, cfg.ipc, real.dim, cfg.init, real, seed=stream_seed(cfg.seed, "init")
    )
    inputs, y_onehot = syn.inputs, syn.onehot_labels()
    adam = AdamState.like(inputs)
    rng_batch = rng_stream(cfg.seed, "batch")
    rng_augment = rng_stream(cfg.seed, "augment")
    curve: list[StepMetrics] = []
    for t in range(cfg.iterations):
        inputs, metrics = distill_step(
            inputs, y_onehot, adam, cfg, enc, real, rng_batch, rng_augment, t
        )
        if eval_set is not None and (t + 1) % cfg.eval_every == 0:
            metrics.eval_acc = _monitor_accuracy(enc, inputs, y_onehot, cfg.lam, eval_set)
        curve.append(metrics)
    report = RunReport(
        config=asdict(cfg),
        curve=curve,
        seeds=[cfg.seed],
        wall_seconds=time.perf_counter() - t0,
    )
    return Dataset(inputs, syn.labels, syn.class_count), report
