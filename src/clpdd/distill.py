"""The bilevel distillation loop.

Each iteration re-solves the closed-form probe on the current synthetic
features, scores it on a fresh class-balanced real batch, and pushes the
outer gradient analytically back through the solve and the frozen encoder to
the synthetic inputs, which an Adam step with a cosine-annealed learning rate
then updates. Labels stay fixed; only the inputs learn.
"""

import functools
import itertools
import math
import zlib
from collections.abc import Generator, Iterator
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, check_every_class, check_fits
from .encoder import (
    ENCODER_KINDS,
    Encoder,
    _encode,
    _encode_rows,
    _encode_vjp,
    encode,
    make_encoder,
)
from .linalg import (
    DimensionError,
    check_at_least,
    check_positive,
    run_beside,
    run_row_halves,
    split_row,
)
from .objective import _accuracy, _class_anchor_loss_and_grad, _mse_outer_loss_and_grad
from .report import StepMetrics
from .solver import _ridge_kernel, _solve_backward

OUTER_OBJECTIVES = ("class_anchor", "mse")
INIT_MODES = ("random_normal", "from_real")

GRAD_NORM_LIMIT = 1e6
# doubles drawn per refill of a run's batch or noise stream (64 KB; the noise
# stream keeps two): small steps share one call, and memory does not grow.
# One noise refill feeds 102 default (5 x 16) steps; an array of more than
# 4096 values fills one alone. Drawing in refills took compare-tiny from 146
# to 109 us per iteration (BENCH_pr8.json).
BLOCK_DOUBLES = 1 << 13
# what one Adam entry weighs against SPLIT_MIN_MADDS: on a 2-vCPU x86-64 host
# with BLAS at one thread an entry took 3.8-5.7 ns, as long as 150-290 of
# dgemm's multiply-adds. Counted low, so a step's Adam splits from 192 rows of
# 512 entries, where each half still takes about 0.2 ms.
ADAM_ENTRY_MADDS = 128
_AT_LEAST_ONE = ("b_per_class", "ipc", "eval_every", "probe_batch_size")  # other int fields: >= 0


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
        for f in fields(self):
            if f.type is int:
                check_at_least(f.name, getattr(self, f.name), int(f.name in _AT_LEAST_ONE))
        for name, value, or_zero in (
            ("lambda", self.lam, False),
            ("tau", self.tau, False),
            ("lr", self.lr, True),
            ("augment_noise_sigma", self.augment_noise_sigma, True),
            ("probe_lr", self.probe_lr, True),
        ):
            check_positive(name, value, or_zero)
        if self.outer_objective not in OUTER_OBJECTIVES:
            raise ValueError(f"unknown outer objective {self.outer_objective!r}")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.lr_schedule != "cosine":
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")
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
    """First/second moment accumulators shaped like the learned array, a
    scratch array of that shape, and the number of steps taken."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0

    @classmethod
    def like(cls, inputs: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(inputs), v=np.zeros_like(inputs), scratch=np.empty_like(inputs))


def adam_update(state: AdamState, grad: np.ndarray, param: np.ndarray, lr: float) -> None:
    """Adam step `state.step + 1`, which it counts in `state.step`: advance
    the moments in place and write `param` minus the bias-corrected update
    over `grad`.

    The rows run through `run_row_halves`, each entry counted as
    ADAM_ENTRY_MADDS multiply-adds; a step too small to split calls
    `_adam_rows` on the whole arrays itself, which skips the hand-over's
    argument lists and slices (0.1-0.3 us of a 5 x 16 step).
    """
    state.step += 1
    rows = grad.shape[0]
    row_madds = ADAM_ENTRY_MADDS * grad.size // max(rows, 1)
    arrays = (grad, state.m, state.v, state.scratch, param, grad)
    if split_row(rows, row_madds):
        run_row_halves(functools.partial(_adam_rows, state.step, lr), row_madds, *arrays)
    else:
        _adam_rows(state.step, lr, *arrays)


# Adam's constants, shared by the distillation step and the trained probe
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _adam_rows(step, lr, g, m, v, scratch, param, out) -> None:
    """`adam_update` on the rows it is handed of the gradient `g`, the
    moments `m` and `v`, the scratch array, `param` and `out`. b1, b2 and eps
    are ADAM_BETA1, ADAM_BETA2 and ADAM_EPS as they read at the call.

    Evaluates m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    lr * m_hat / (sqrt(v_hat) + eps) in the operation order of those formulas,
    so the result matches them bit for bit. It writes only into `g`, `m`, `v`,
    `scratch` and `out`, so the row halves of one step can run as the halves
    of `run_row_halves`. Output arrays go by position: keyword arguments cost
    numpy a parse per call, 2% of a 5 x 16 probe.
    """
    np.multiply(1.0 - ADAM_BETA1, g, scratch)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(1.0 - ADAM_BETA2, g, scratch)
    scratch *= g
    v *= ADAM_BETA2
    v += scratch
    denom = np.divide(v, 1.0 - ADAM_BETA2**step, scratch)
    np.sqrt(denom, denom)
    denom += ADAM_EPS
    update = np.divide(m, 1.0 - ADAM_BETA1**step, g)
    update *= lr
    update /= denom
    np.subtract(param, update, out)


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
    """Class-major synthetic set: row c*ipc + k belongs to class c. from_real
    init draws them from `real` (MissingClassError if a class has too few).
    An ipc below 1 raises ValueError."""
    if mode not in INIT_MODES:
        raise ValueError(f"unknown init mode {mode!r}")
    check_at_least("ipc", ipc, 1)
    labels = np.repeat(np.arange(c), ipc)
    rng = np.random.default_rng(seed)
    if mode == "random_normal":
        inputs = rng.standard_normal((c * ipc, input_dim))
    else:
        if real is None:
            raise ValueError("from_real init needs a real dataset")
        check_every_class(real, c, "real set", ipc)
        rows = [rng.choice(idx, size=ipc, replace=False) for idx in real.class_layout.rows[:c]]
        inputs = real.inputs[np.concatenate(rows)]
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
    replacement. A class without rows raises MissingClassError, and
    b_per_class < 1 ValueError, at the first batch.
    """
    check_at_least("b_per_class", b_per_class, 1)
    check_every_class(real, real.class_count, "real set")
    layout = real.class_layout
    counts = layout.counts
    class_count = real.class_count
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
) -> Generator[np.ndarray | None, bool | None, None]:
    """Endless stream of sigma * N(0, 1) arrays of `shape`, one per step.

    The stream keeps a ring of two refills of k >= 1 arrays, k as many as fit
    in about BLOCK_DOUBLES values. One `rng.standard_normal(out=)` call fills
    a refill and sigma scales it in place, so no step allocates. `send(True)`
    after a refill's last array draws the next refill, in the thread that
    calls it, while the step that took that array still uses it; the next
    `next` hands it over without drawing. After any other array, or with
    sigma = 0, where the stream yields None (no noise), a send draws nothing.
    Either way the arrays are those of sequential draws of `shape`, bit for
    bit, and the generator has drawn each refill handed over or drawn ahead.
    The step adds its inputs into the array it takes. A sigma not finite and
    >= 0, or a shape with an extent below 1, raises ValueError at the first
    step.
    """
    check_positive("sigma", sigma, or_zero=True)
    if min(shape, default=1) < 1:
        raise ValueError(f"shape must have extents >= 1, got {shape}")
    if sigma == 0.0:
        while True:
            if (yield None):  # send(True): nothing to draw
                yield
    count = max(1, BLOCK_DOUBLES // math.prod(shape))  # arrays per refill
    drawn_ahead = None
    for block in itertools.cycle(np.empty((2, count, *shape))):
        rng.standard_normal(out=block)
        block *= sigma
        if drawn_ahead:  # by send(True), which returns here
            yield
        for noise in block[:-1]:
            if (yield noise):  # send(True): this refill holds the next array
                yield
        drawn_ahead = yield block[-1]


def meta_loss_and_grad(
    inputs: np.ndarray,
    y_onehot: np.ndarray,
    enc: Encoder,
    x_real: np.ndarray,
    labels: np.ndarray,
    lam: float,
    tau: float,
    objective: str = "class_anchor",
    ahead: Generator | None = None,
):
    """Outer loss and its exact gradient with respect to the synthetic inputs.

    Chains: encode inputs -> closed-form probe -> outer loss on encoded real
    rows -> analytic backward through the solve -> encoder VJP. `x_real` holds
    the real batch's raw inputs, encoded here with the same frozen map, and
    `labels` their class ids.

    On the primal route (N >= feature dim) with an encoder that does work,
    the real batch is encoded whole by `run_beside`, on the second CPU where
    it pays, while the caller runs the whole ridge solve; then, unless `ahead`
    is None, the same lane calls `ahead.send(True)`, which lets the run's
    `augment_noise` stream draw its next refill ahead. The solve's row halves
    queue behind both. The kernel route keeps the serial order and leaves
    `ahead` alone: its solve is too short to hide a whole-lane encode.

    Expects validated inputs: it composes the unchecked cores of those
    public functions, so shapes, finiteness, label range and lam, tau > 0
    are the caller's to guarantee, as `run_distill` does once per run.
    """
    # encoding beside the solve took distill-primal-clpf from 37.9 to 34.5 ms
    # per iteration (BENCH_pr25.json), and drawing the next refill there from
    # 77.6 to 70.2 ms (BENCH_pr30.json)
    beside = enc.kind != "identity" and inputs.shape[0] >= enc.feature_dim
    x_syn, hidden = _encode(enc, inputs)
    if beside:
        rows, row_madds, arrays = _encode_rows(enc, x_real)
        if ahead is not None:
            rows = functools.partial(_then_next, rows, ahead)
        sol = run_beside(rows, row_madds, lambda: _ridge_kernel(x_syn, y_onehot, lam), *arrays)
        feats = arrays[1]
    else:
        sol = _ridge_kernel(x_syn, y_onehot, lam)
        feats, _ = _encode(enc, x_real)
    if objective == "class_anchor":
        loss, g = _class_anchor_loss_and_grad(feats, labels, sol.w_star, tau)
    elif objective == "mse":
        loss, g = _mse_outer_loss_and_grad(feats, labels, sol.w_star)
    else:
        raise ValueError(f"unknown outer objective {objective!r}")
    # on the primal route the gradient comes as its factors (U, V), which the
    # VJP applies without forming it
    grad_x = _solve_backward(sol, x_syn, g)
    return loss, _encode_vjp(enc, inputs, grad_x, hidden)


def _then_next(rows, ahead: Generator, *arrays) -> None:
    """The encode block `rows` on `arrays`, then the next step's noise draw."""
    rows(*arrays)
    ahead.send(True)


def _diverged(
    what: str, iteration: int, cfg: DistillConfig, enc: Encoder, inputs: np.ndarray
) -> DistillDivergenceError:
    """The step's error: `what` failed at `iteration`, with lambda, tau and a
    bound on the condition number of the ridge system at the step's `inputs`,
    or, where the encoded inputs' Gram matrix overflows, that it is not finite."""
    gram = _solve_gram(enc, inputs)
    bound = "the Gram matrix of the encoded inputs is not finite"
    if np.isfinite(gram).all():
        bound = f"cond(A) <= {(np.linalg.eigvalsh(gram)[-1] + cfg.lam) / cfg.lam:.3e}"
    return DistillDivergenceError(
        f"{what} at iteration {iteration} (lambda={cfg.lam}, tau={cfg.tau}, {bound})"
    )


def _solve_gram(enc: Encoder, inputs: np.ndarray) -> np.ndarray:
    """The Gram matrix that the ridge solve factors at the encoded `inputs` X:
    X X^T on the kernel route, X^T X on the primal; not finite where it
    overflows."""
    with np.errstate(all="ignore"):
        x = encode(enc, inputs)
        return x @ x.T if x.shape[0] < x.shape[1] else x.T @ x


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
    noise: Generator[np.ndarray | None, bool | None, None],
    iteration: int,
):
    """One outer iteration; returns (updated synthetic inputs, step metrics).

    `batches` and `noise` are the run's two streams, built by
    `balanced_batches(real, cfg.b_per_class, rng)` and
    `augment_noise(inputs.shape, cfg.augment_noise_sigma, rng)`; the step
    takes one item from each. A batch refill happens inside the step that
    needs it, and so does a noise refill unless the step before drew it ahead.
    Every step but the last of `cfg.iterations` hands `noise` to
    `meta_loss_and_grad`, whose primal route sends it True once to offer the
    next step's draw, so on that route `noise` must be an `augment_noise`
    stream. The noise array is the step's until it returns, and consumed: the
    step adds the inputs into it. The forward/backward pass runs at the
    augmented inputs (additive noise has identity Jacobian, so the gradient
    transfers unchanged), while the Adam update applies to the clean inputs.

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
    ahead = noise if iteration + 1 < cfg.iterations else None
    loss, grad = meta_loss_and_grad(
        inputs_aug, y_onehot, enc, x_real, labels, cfg.lam, cfg.tau, cfg.outer_objective, ahead
    )
    flat = grad.ravel(order="K")
    grad_norm = math.sqrt(flat @ flat)  # np.linalg.norm(grad), bit for bit
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise _diverged("non-finite loss/gradient", iteration, cfg, enc, inputs_aug)
    if grad_norm > GRAD_NORM_LIMIT:
        what = f"gradient norm {grad_norm:.3e} exceeds {GRAD_NORM_LIMIT:.0e}"
        raise _diverged(what, iteration, cfg, enc, inputs_aug)
    # an overflowed Gram matrix factors with an infinite diagonal and no error,
    # and every solve against it gives 0, so the gradient is exactly 0; only
    # then is the Gram matrix tested (a one-class run has a zero gradient too)
    if grad_norm == 0.0 and not np.isfinite(_solve_gram(enc, inputs_aug)).all():
        raise _diverged("the ridge solve overflowed", iteration, cfg, enc, inputs_aug)
    lr = cosine_lr(cfg.lr, iteration, cfg.iterations)
    # the gradient array takes Adam's update, then the new inputs
    adam_update(adam, grad, inputs, lr)
    new_inputs = grad
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

    Where the primal route encodes the real batch beside the solve, each step
    but the last sends the noise stream True there, so the next noise refill
    is drawn in the step that took the last array before it, on the second
    CPU where it is handed over. The noise is that of one draw per step
    either way.
    """
    # the one check of the run; every step after it runs unchecked
    if eval_set is None:
        check_every_class(real, real.class_count, "real set")
    else:
        check_fits(real, eval_set, "real set", "eval split")
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
