"""The bilevel distillation loop.

Each iteration re-solves the closed-form probe on the current synthetic
features, scores it on a fresh class-balanced real batch, and pushes the
outer gradient analytically back through the solve and the frozen encoder to
the synthetic inputs, which an Adam step with a cosine-annealed learning rate
then updates. Labels stay fixed; only the inputs learn.
"""

import itertools
import math
import zlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_every_class
from .encoder import ENCODER_KINDS, Encoder, _encode, _encode_vjp, encode, make_encoder
from .linalg import DimensionError
from .objective import _accuracy, _class_anchor_loss_and_grad, _mse_outer_loss_and_grad
from .report import StepMetrics
from .solver import _ridge_kernel, _solve_backward

OUTER_OBJECTIVES = ("class_anchor", "mse")
INIT_MODES = ("random_normal", "from_real")

GRAD_NORM_LIMIT = 1e6
# doubles drawn per refill of a run's batch or noise stream (64 KB): the draws
# of many small steps share one call, and memory does not grow with the budget
BLOCK_DOUBLES = 1 << 13


class DistillDivergenceError(RuntimeError):
    """Raised when a step produces a non-finite or exploding gradient, or a
    linear probe ends with non-finite weights, Adam moments or eval scores."""


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
        real = (self.lam, self.tau, self.lr, self.adam_eps, self.augment_noise_sigma, self.probe_lr)
        if not all(map(math.isfinite, real)):
            raise ValueError(
                "lambda, tau, lr, adam_eps, augment_noise_sigma and probe_lr must be finite"
            )
        if self.lam <= 0 or self.tau <= 0:
            raise ValueError("lambda and tau must be > 0")
        if self.lr < 0 or self.augment_noise_sigma < 0:
            raise ValueError("lr and augment_noise_sigma must be >= 0")
        if self.adam_eps < 0 or self.probe_lr < 0:
            raise ValueError("adam_eps and probe_lr must be >= 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if self.iterations < 0 or self.seed < 0 or self.ipc < 1 or self.b_per_class < 1:
            raise ValueError("iterations and seed must be >= 0, ipc and b_per_class >= 1")
        if self.outer_objective not in OUTER_OBJECTIVES:
            raise ValueError(f"unknown outer objective {self.outer_objective!r}")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.lr_schedule != "cosine":
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")
        if self.eval_every < 1 or self.probe_batch_size < 1:
            raise ValueError("eval_every and probe_batch_size must be >= 1")
        if self.probe_epochs < 0 or self.feature_dim < 0 or self.hidden_dim < 0:
            raise ValueError("probe_epochs, feature_dim and hidden_dim must be >= 0")
        if self.encoder_kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder {self.encoder_kind!r} (choose from {ENCODER_KINDS})")
        if self.feature_dim > 0 and self.encoder_kind == "identity":
            raise ValueError("feature_dim is set, but encoder=identity keeps the input dim")
        if self.hidden_dim > 0 and self.encoder_kind != "mlp1":
            raise ValueError(f"hidden_dim is set, but encoder={self.encoder_kind} has no hidden layer")

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


def balanced_batches(
    real: Dataset, b_per_class: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endless stream of (inputs, labels) batches of exactly b_per_class rows
    per class, class-major.

    One `rng.random((k, C, b))` call feeds k batches, with k capped so that a
    refill holds about BLOCK_DOUBLES uniforms. PCG64 fills arrays in order, so
    the batches and the generator's state are those of k `rng.random((C, b))`
    calls, one per batch. Each class with n >= b rows takes a uniform b-subset
    of its rows by Floyd's algorithm (Bentley & Floyd, CACM 1987): draw k is
    floor(u_k * (n - b + k + 1)), and a draw equal to one of draws 0..k-1
    becomes n - b + k, with nothing new drawn. The rule only looks back, so it
    runs one draw position at a time, on every class of every batch of a
    refill at once. A class with fewer than b rows draws floor(u_k * n), with
    replacement. A class without rows, or b_per_class < 1, raises ValueError
    at the first batch.
    """
    if b_per_class < 1:
        raise ValueError(f"b_per_class must be >= 1, got {b_per_class}")
    layout = real.class_layout
    counts = layout.counts
    class_count = real.class_count
    if not counts.all():
        raise ValueError(f"class {int(np.argmin(counts))} has no samples")
    block = max(1, BLOCK_DOUBLES // (class_count * b_per_class))
    floyd = counts >= b_per_class  # the classes drawn without replacement
    last = counts[:, None] + np.arange(-b_per_class, 0)  # n - b + k
    span = np.where(floyd[:, None], last + 1, counts[:, None])
    labels = np.repeat(np.arange(class_count, dtype=np.int64), b_per_class)
    labels.setflags(write=False)
    inputs, starts = real.inputs, layout.starts[:, None]
    while True:
        pos = (rng.random((block, class_count, b_per_class)) * span).astype(np.intp)
        for k in range(1, b_per_class):
            taken = (pos[..., :k] == pos[..., k, None]).any(axis=2)
            taken &= floyd
            np.copyto(pos[..., k], last[:, k], where=taken)
        pos += starts
        for picks in layout.order[pos.reshape(block, -1)]:
            yield inputs[picks], labels


def augment_noise(
    shape: tuple[int, ...], sigma: float, rng: np.random.Generator
) -> Iterator[np.ndarray | None]:
    """Endless stream of sigma * N(0, 1) arrays of `shape`, one per step.

    One `rng.standard_normal((k, *shape))` call, scaled by sigma once, feeds k
    steps, with k capped so that a refill holds about BLOCK_DOUBLES values;
    the arrays are those of k sequential draws of `shape`, bit for bit. The
    step adds its inputs into the array it takes. With sigma = 0 nothing is
    drawn and the stream yields None: no noise. A negative sigma, or a shape
    with an extent below 1, raises ValueError at the first step.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if min(shape, default=1) < 1:
        raise ValueError(f"shape must have extents >= 1, got {shape}")
    if sigma == 0.0:
        yield from itertools.repeat(None)
    block = max(1, BLOCK_DOUBLES // math.prod(shape))
    while True:
        noise = rng.standard_normal((block, *shape))
        noise *= sigma
        yield from noise


def meta_loss_and_grad(
    inputs: np.ndarray,
    y_onehot: np.ndarray,
    enc: Encoder,
    x_real: np.ndarray,
    labels: np.ndarray,
    lam: float,
    tau: float,
    objective: str = "class_anchor",
):
    """Outer loss and its exact gradient with respect to the synthetic inputs.

    Chains: encode inputs -> closed-form probe -> outer loss on encoded real
    rows -> analytic backward through the solve -> encoder VJP. `x_real` holds
    the real batch's raw inputs, encoded here with the same frozen map, and
    `labels` their class ids.

    Expects validated inputs: it composes the unchecked cores of those
    public functions, so shapes, finiteness, label range and lam, tau > 0
    are the caller's to guarantee, as `run_distill` does once per run.
    """
    x_syn, hidden = _encode(enc, inputs)
    sol = _ridge_kernel(x_syn, y_onehot, lam)
    feats, _ = _encode(enc, x_real)
    if objective == "class_anchor":
        loss, g = _class_anchor_loss_and_grad(feats, labels, sol.w_star, tau)
    elif objective == "mse":
        loss, g = _mse_outer_loss_and_grad(feats, labels, sol.w_star)
    else:
        raise ValueError(f"unknown outer objective {objective!r}")
    grad_x = _solve_backward(sol, x_syn, g)
    return loss, _encode_vjp(enc, inputs, grad_x, hidden)


def _diverged(
    what: str, iteration: int, cfg: DistillConfig, enc: Encoder, inputs: np.ndarray
) -> DistillDivergenceError:
    """The step's error: `what` failed at `iteration`, with lambda, tau and a
    bound on the condition number of the ridge system at the step's `inputs`,
    or, where the encoded inputs' Gram matrix overflows, that it is not finite."""
    with np.errstate(all="ignore"):
        x = encode(enc, inputs)
        gram = x @ x.T
    bound = "the Gram matrix of the encoded inputs is not finite"
    if np.isfinite(gram).all():
        bound = f"cond(A) <= {(np.linalg.eigvalsh(gram)[-1] + cfg.lam) / cfg.lam:.3e}"
    return DistillDivergenceError(
        f"{what} at iteration {iteration} (lambda={cfg.lam}, tau={cfg.tau}, {bound})"
    )


def _check_encoder_dim(enc: Encoder, real_dim: int):
    if enc.input_dim != real_dim:
        raise DimensionError(
            f"encoder expects {enc.input_dim}-dim inputs, real set has {real_dim}"
        )


def distill_step(
    inputs: np.ndarray,
    y_onehot: np.ndarray,
    adam: AdamState,
    cfg: DistillConfig,
    enc: Encoder,
    batches: Iterator[tuple[np.ndarray, np.ndarray]],
    noise: Iterator[np.ndarray | None],
    iteration: int,
):
    """One outer iteration; returns (updated synthetic inputs, step metrics).

    `batches` and `noise` are the run's two streams, built by
    `balanced_batches(real, cfg.b_per_class, rng)` and
    `augment_noise(inputs.shape, cfg.augment_noise_sigma, rng)`; the step
    takes one item from each, so a stream's refill happens inside the step
    that needs it. The noise array is consumed: the step adds the inputs into
    it. The forward/backward pass runs at the augmented inputs (additive noise
    has identity Jacobian, so the gradient transfers unchanged), while the
    Adam update applies to the clean inputs.

    Expects validated inputs, as `run_distill` hands them over: batches from a
    finite real set with rows in every class, inputs of the encoder's input
    dim, and the one-hot labels of the synthetic rows. Its own guards (finite
    loss, the gradient-norm limit, finite new inputs) keep every later step's
    inputs valid. An encoder whose input dim is not the batch's raises
    DimensionError.
    """
    x_real, labels = next(batches)
    _check_encoder_dim(enc, x_real.shape[1])
    inputs_aug = next(noise)
    if inputs_aug is None:
        inputs_aug = inputs
    else:
        inputs_aug += inputs  # sigma * z + inputs, written into the noise array
    loss, grad = meta_loss_and_grad(
        inputs_aug, y_onehot, enc, x_real, labels, cfg.lam, cfg.tau, cfg.outer_objective
    )
    flat = grad.ravel(order="K")
    grad_norm = math.sqrt(flat @ flat)  # np.linalg.norm(grad), bit for bit
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise _diverged("non-finite loss/gradient", iteration, cfg, enc, inputs_aug)
    if grad_norm > GRAD_NORM_LIMIT:
        what = f"gradient norm {grad_norm:.3e} exceeds {GRAD_NORM_LIMIT:.0e}"
        raise _diverged(what, iteration, cfg, enc, inputs_aug)
    lr = cosine_lr(cfg.lr, iteration, cfg.iterations)
    update = adam_update(adam, grad, lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    new_inputs = np.subtract(inputs, update, out=update)
    if not np.isfinite(new_inputs).all():
        raise _diverged("synthetic inputs became non-finite", iteration, cfg, enc, inputs_aug)
    return new_inputs, StepMetrics(
        iteration=iteration, outer_loss=loss, grad_norm=grad_norm, lr=lr
    )


def _monitor_accuracy(
    enc: Encoder, inputs: np.ndarray, y_onehot: np.ndarray, lam: float, eval_set: Dataset
) -> float:
    """Cheap closed-form probe accuracy on the eval split, for the curve only.

    Runs the unchecked cores: the loop hands over inputs its step guards and
    an eval split `run_distill` checked."""
    sol = _ridge_kernel(_encode(enc, inputs)[0], y_onehot, lam)
    return _accuracy(_encode(enc, eval_set.inputs)[0] @ sol.w_star, eval_set.labels)


def run_distill(
    cfg: DistillConfig,
    real: Dataset,
    eval_set: Dataset | None = None,
    enc: Encoder | None = None,
):
    """Run the full budget of iterations; returns (synthetic Dataset, curve).

    The curve holds one StepMetrics per step: loss, gradient norm and lr; when
    an eval split is given, a closed-form probe accuracy every cfg.eval_every
    steps. Evaluation always uses the un-augmented synthetic inputs.

    Each `Dataset` checked its own rows when it was built. What the run needs
    beyond that is checked once, before the first step: a real class without
    rows, or an eval class past the real class count (it could never be
    predicted), raises MissingClassError, and an eval split of another dim or an `enc` whose
    input dim differs from the real set's DimensionError.
    """
    # the one check of the run; every step after it runs unchecked
    classes = max(real.class_count, 0 if eval_set is None else eval_set.class_count)
    check_every_class(real, classes, "real set")
    if eval_set is not None and eval_set.dim != real.dim:
        raise DimensionError(f"eval split is {eval_set.dim}-dim, real set {real.dim}-dim")
    if enc is None:
        enc = cfg.build_encoder(real.dim)
    _check_encoder_dim(enc, real.dim)
    syn = init_synthetic(
        real.class_count, cfg.ipc, real.dim, cfg.init, real, seed=stream_seed(cfg.seed, "init")
    )
    inputs, y_onehot = syn.inputs, syn.onehot_labels()
    adam = AdamState.like(inputs)
    batches = balanced_batches(real, cfg.b_per_class, rng_stream(cfg.seed, "batch"))
    noise = augment_noise(inputs.shape, cfg.augment_noise_sigma, rng_stream(cfg.seed, "augment"))
    curve: list[StepMetrics] = []
    # the step's guards report a non-finite loss, gradient or input as
    # DistillDivergenceError; numpy's float warnings on the way there add nothing
    with np.errstate(all="ignore"):
        for t in range(cfg.iterations):
            inputs, metrics = distill_step(inputs, y_onehot, adam, cfg, enc, batches, noise, t)
            if eval_set is not None and (t + 1) % cfg.eval_every == 0:
                metrics.eval_acc = _monitor_accuracy(enc, inputs, y_onehot, cfg.lam, eval_set)
            curve.append(metrics)
    return Dataset(inputs, syn.labels, syn.class_count), curve
