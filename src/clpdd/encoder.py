"""Frozen differentiable feature extractors.

Stand-ins for pre-trained backbones at desk scale: an identity map, a fixed
random linear map, and a fixed one-hidden-layer tanh network. Each supports
the exact vector-Jacobian product needed to chain outer-loss gradients from
feature space back to the learnable inputs.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionError,
    NonFiniteError,
    check_at_least,
    low_rank_product,
    run_row_halves,
)

# each kind's weights, in the order `Encoder.weights` holds them
_WEIGHT_NAMES = {"identity": (), "linear": ("w", "b"), "mlp1": ("w1", "b1", "w2", "b2")}
ENCODER_KINDS = tuple(_WEIGHT_NAMES)


@dataclass(frozen=True)
class Encoder:
    """Immutable feature map; weights are fixed for its whole lifetime.

    `weights` are linear's (w, b) or mlp1's (w1, b1, w2, b2), shaped as
    `make_encoder` draws them, the hidden width being w1's column count;
    identity has none. Another count or shape raises DimensionError, and a
    weight with a NaN or Inf entry NonFiniteError.
    """

    kind: str
    input_dim: int
    feature_dim: int
    weights: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        check_at_least("input_dim", self.input_dim, 1)
        check_at_least("feature_dim", self.feature_dim, 1)
        if self.kind == "identity" and self.input_dim != self.feature_dim:
            raise DimensionError(
                f"identity encoder needs input_dim == feature_dim, "
                f"got {self.input_dim} vs {self.feature_dim}"
            )
        names = _WEIGHT_NAMES[self.kind]
        if len(self.weights) != len(names):
            raise DimensionError(
                f"{self.kind} encoder needs {len(names)} weights, got {len(self.weights)}"
            )
        d, f = self.input_dim, self.feature_dim
        shapes = ((d, f), (f,))
        if self.kind == "mlp1":
            w1 = np.shape(self.weights[0])
            if len(w1) != 2:
                raise DimensionError(f"encoder weight w1 must be ({d}, hidden), got {w1}")
            shapes = ((d, w1[1]), (w1[1],), (w1[1], f), (f,))
        for name, w, shape in zip(names, self.weights, shapes):
            if np.shape(w) != shape:
                raise DimensionError(f"encoder weight {name} must be {shape}, got {np.shape(w)}")
            if not np.isfinite(w).all():
                raise NonFiniteError(f"encoder weight {name} holds non-finite entries")


def make_encoder(
    kind: str,
    input_dim: int,
    feature_dim: int | None = None,
    hidden_dim: int | None = None,
    seed: int = 0,
) -> Encoder:
    """Build an encoder with frozen weights drawn from N(0, 1/fan_in).

    The 1/sqrt(fan_in) scale keeps feature magnitudes O(1) so the default
    ridge coefficient stays meaningful at toy scale. The same seed always
    yields bit-identical weights. `input_dim`, `feature_dim` (default
    `input_dim`) and mlp1's `hidden_dim` (default the larger of the two; the
    other kinds ignore it) below 1 raise ValueError before any weight is drawn.
    """
    if feature_dim is None:
        feature_dim = input_dim
    if hidden_dim is None:
        hidden_dim = max(input_dim, feature_dim)
    dims = (("input_dim", input_dim), ("feature_dim", feature_dim), ("hidden_dim", hidden_dim))
    for name, value in dims[: 3 if kind == "mlp1" else 2]:
        check_at_least(name, value, 1)
    rng = np.random.default_rng(seed)
    weights = ()  # identity's; Encoder rejects an unknown kind, which draws none
    if kind == "linear":
        w = rng.standard_normal((input_dim, feature_dim)) / np.sqrt(input_dim)
        b = rng.standard_normal(feature_dim) / np.sqrt(input_dim)
        weights = (w, b)
    elif kind == "mlp1":
        w1 = rng.standard_normal((input_dim, hidden_dim)) / np.sqrt(input_dim)
        b1 = rng.standard_normal(hidden_dim) / np.sqrt(input_dim)
        w2 = rng.standard_normal((hidden_dim, feature_dim)) / np.sqrt(hidden_dim)
        b2 = rng.standard_normal(feature_dim) / np.sqrt(hidden_dim)
        weights = (w1, b1, w2, b2)
    return Encoder(kind, input_dim, feature_dim, weights, seed)


def _check_inputs(enc: Encoder, inputs: np.ndarray):
    if inputs.ndim != 2 or inputs.shape[1] != enc.input_dim:
        raise DimensionError(
            f"encoder expects n x {enc.input_dim} inputs, got {inputs.shape}"
        )


def encode(enc: Encoder, inputs: np.ndarray) -> np.ndarray:
    """Map inputs (n x input_dim) to features (n x feature_dim)."""
    _check_inputs(enc, inputs)
    return _encode(enc, inputs)[0]


def _encode(enc: Encoder, inputs: np.ndarray):
    """(features, hidden) of inputs already checked, where hidden is the mlp1
    tanh activation (None for the other kinds); passing it on to
    `_encode_vjp` at the same inputs saves recomputing it. Rows are encoded
    through `run_row_halves`, in two halves when the work pays for it."""
    if enc.kind == "identity":
        return inputs, None
    rows, row_madds, arrays = _encode_rows(enc, inputs)
    run_row_halves(rows, row_madds, *arrays)
    return arrays[1], arrays[2] if enc.kind == "mlp1" else None


def _encode_rows(enc: Encoder, inputs: np.ndarray):
    """The row-wise block that encodes checked `inputs` with a linear or mlp1
    encoder: (rows, row_madds, arrays), where `rows(*arrays)` writes the
    features `arrays[1]` of the inputs `arrays[0]`, and for mlp1 their tanh
    activation `arrays[2]`. Both outputs are allocated here, by the caller,
    so the block may run on the helper thread. `row_madds` is the
    multiply-adds per row of its smallest matrix product."""
    out = np.empty((inputs.shape[0], enc.feature_dim))
    if enc.kind == "linear":
        w, b = enc.weights

        def rows(x, o):
            np.matmul(x, w, o)
            o += b

        return rows, w.size, (inputs, out)
    w1, b1, w2, b2 = enc.weights

    def rows(x, o, h):
        np.matmul(x, w1, h)
        h += b1
        np.tanh(h, h)
        np.matmul(h, w2, o)
        o += b2

    return rows, min(w1.size, w2.size), (inputs, out, np.empty((inputs.shape[0], w1.shape[1])))


def encode_vjp(enc: Encoder, inputs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Apply the transposed encoder Jacobian at `inputs` to `upstream` rows.

    Returns d<upstream, encode(inputs)>/d inputs, shape n x input_dim.
    """
    _check_inputs(enc, inputs)
    if upstream.shape != (inputs.shape[0], enc.feature_dim):
        raise DimensionError(
            f"upstream must be {inputs.shape[0]} x {enc.feature_dim}, got {upstream.shape}"
        )
    return _encode_vjp(enc, inputs, upstream, None)


def _encode_vjp(
    enc: Encoder, inputs: np.ndarray, upstream, hidden: np.ndarray | None
) -> np.ndarray:
    """`encode_vjp` on arguments already checked; for mlp1, `hidden` is the
    activation `_encode` returned at `inputs`, or None to recompute it. It is
    read, never modified. `upstream` is the n x feature_dim array, or a pair
    (U, V) of an n x r and a feature_dim x r array that stands for U V^T, as
    `solver._solve_backward` returns it on the primal route. Identity expands
    the pair; linear and mlp1 take it through the weight W next to the
    features as U (W V)^T, with W V a row block of its own."""
    if enc.kind == "identity":
        return low_rank_product(*upstream) if isinstance(upstream, tuple) else upstream
    # the first product is a @ b.T: the upstream times W^T, or U (W V)^T.
    # With W k x f, the pair costs k f r + n r k multiply-adds where expanding
    # U V^T first costs n f r + n f k; on the primal route n >= f and r = 2C,
    # so for k = f the pair costs no more wherever n >= 2C
    w = enc.weights[0 if enc.kind == "linear" else 2]
    if isinstance(upstream, tuple):
        a, v = upstream
        b = np.empty((w.shape[0], v.shape[1]))
        run_row_halves(lambda w_rows, o: np.matmul(w_rows, v, o), v.size, w, b)
    else:
        a, b = upstream, w
    out = np.empty((a.shape[0], enc.input_dim))
    if enc.kind == "linear":
        run_row_halves(lambda a_rows, o: np.matmul(a_rows, b.T, o), b.size, a, out)
        return out
    w1, b1, _, _ = enc.weights
    if hidden is None:
        hidden = np.tanh(inputs @ w1 + b1)

    def rows(h, a_rows, slope, dh, o):
        np.multiply(h, h, slope)
        np.subtract(1.0, slope, slope)  # tanh' = 1 - tanh^2
        np.matmul(a_rows, b.T, dh)
        dh *= slope
        np.matmul(dh, w1.T, o)

    slope, dh = np.empty((2, *hidden.shape))
    run_row_halves(rows, min(w1.size, b.size), hidden, a, slope, dh, out)
    return out
