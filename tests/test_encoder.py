import numpy as np
import pytest

from clpdd.encoder import (
    ENCODER_KINDS,
    Encoder,
    _encode,
    _encode_vjp,
    encode,
    encode_vjp,
    make_encoder,
)
from clpdd.linalg import SPLIT_MIN_MADDS, DimensionError
from clpdd.solver import _solve_backward, ridge_kernel

from oracles import central_diff_grad, max_rel_err, mlp1_vjp_ref


def test_identity_passthrough():
    enc = make_encoder("identity", 4)
    m = np.random.default_rng(0).standard_normal((3, 4))
    assert np.array_equal(encode(enc, m), m)


def test_identity_requires_matching_dims():
    with pytest.raises(DimensionError):
        Encoder("identity", 3, 4)


def test_linear_scaling():
    enc = Encoder("linear", 2, 2, weights=(2.0 * np.eye(2), np.zeros(2)))
    assert np.array_equal(encode(enc, np.array([[1.0, 3.0]])), np.array([[2.0, 6.0]]))


def test_mlp1_zero_weights_gives_bias():
    b2 = np.array([1.5, -2.0, 0.25])
    enc = Encoder(
        "mlp1", 2, 3,
        weights=(np.zeros((2, 4)), np.zeros(4), np.zeros((4, 3)), b2),
    )
    out = encode(enc, np.random.default_rng(1).standard_normal((5, 2)))
    assert np.array_equal(out, np.tile(b2, (5, 1)))


def test_encode_dim_mismatch():
    enc = make_encoder("linear", 3, 2, seed=0)
    with pytest.raises(DimensionError):
        encode(enc, np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        encode_vjp(enc, np.zeros((2, 3)), np.zeros((2, 3)))


def test_vjp_identity():
    enc = make_encoder("identity", 3)
    u = np.random.default_rng(2).standard_normal((4, 3))
    assert np.array_equal(encode_vjp(enc, np.zeros((4, 3)), u), u)


def test_vjp_linear_constant_jacobian():
    enc = Encoder("linear", 2, 2, weights=(2.0 * np.eye(2), np.zeros(2)))
    u = np.random.default_rng(3).standard_normal((3, 2))
    assert np.allclose(encode_vjp(enc, np.zeros((3, 2)), u), 2.0 * u, rtol=0, atol=0)


def test_vjp_mlp1_finite_differences():
    enc = make_encoder("mlp1", 4, 6, hidden_dim=5, seed=11)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4))
    u = rng.standard_normal((3, 6))
    analytic = encode_vjp(enc, x, u)
    fd = central_diff_grad(lambda xp: float(np.sum(u * encode(enc, xp))), x)
    assert max_rel_err(analytic, fd) <= 1e-6


@pytest.mark.parametrize("kind", ["identity", "linear", "mlp1"])
def test_vjp_finite_differences_every_kind(kind):
    rng = np.random.default_rng(5)
    for i in range(5):
        d_in = int(rng.integers(2, 6))
        d_out = d_in if kind == "identity" else int(rng.integers(2, 6))
        enc = make_encoder(kind, d_in, d_out, hidden_dim=4, seed=100 + i)
        x = rng.standard_normal((3, d_in))
        u = rng.standard_normal((3, d_out))
        analytic = encode_vjp(enc, x, u)
        fd = central_diff_grad(lambda xp: float(np.sum(u * encode(enc, xp))), x)
        assert max_rel_err(analytic, fd) <= 1e-6


def test_vjp_linearity():
    enc = make_encoder("mlp1", 3, 4, seed=7)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3))
    u, v = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
    combo = encode_vjp(enc, x, 1.7 * u - 0.3 * v)
    parts = 1.7 * encode_vjp(enc, x, u) - 0.3 * encode_vjp(enc, x, v)
    assert np.linalg.norm(combo - parts) <= 1e-12 * max(np.linalg.norm(parts), 1.0)


@pytest.mark.parametrize("kind", ["linear", "mlp1"])
def test_same_seed_bit_identical_weights(kind):
    a = make_encoder(kind, 5, 4, hidden_dim=6, seed=42)
    b = make_encoder(kind, 5, 4, hidden_dim=6, seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_vjp_reuses_stored_hidden_bitwise():
    rng = np.random.default_rng(9)
    enc = make_encoder("mlp1", 6, 5, hidden_dim=7, seed=3)
    x = rng.standard_normal((8, 6))
    u = rng.standard_normal((8, 5))
    feats, hidden = _encode(enc, x)
    assert np.array_equal(feats, encode(enc, x))
    kept = hidden.copy()
    reused = _encode_vjp(enc, x, u, hidden)
    assert np.array_equal(hidden, kept)  # read, not overwritten
    assert np.array_equal(reused, _encode_vjp(enc, x, u, None))
    assert np.array_equal(reused, encode_vjp(enc, x, u))
    assert np.array_equal(reused, mlp1_vjp_ref(enc.weights, x, u))


# (n, d, hidden, c): n x d encoded inputs of c classes take the primal solve,
# whose gradient U V^T has rank 2c, with n above, at and below 2c, and a
# hidden layer wider than d. The last case's blocks clear SPLIT_MIN_MADDS and
# run on two lanes.
FACTOR_CASES = [
    pytest.param(12, 6, 6, 3, id="n-over-2c"),
    pytest.param(8, 6, 6, 4, id="n-at-2c"),
    pytest.param(6, 4, 4, 6, id="n-under-2c"),
    pytest.param(12, 4, 10, 3, id="wide-hidden"),
    pytest.param(600, 256, 256, 200, id="600x256-two-lanes"),
]


@pytest.mark.parametrize("n, d, hidden, c", FACTOR_CASES)
@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_factored_vjp_matches_the_dense_chain(request, kind, n, d, hidden, c):
    two_lanes = request.getfixturevalue("two_lanes") if n >= 600 else None
    rng = np.random.default_rng(n + d)
    enc = make_encoder(kind, d, d, hidden_dim=hidden, seed=7)
    inputs = 0.5 * rng.standard_normal((n, d))
    x, hidden_act = _encode(enc, inputs)
    sol = ridge_kernel(x, np.repeat(np.eye(c), n // c, axis=0), 0.1)
    g = rng.standard_normal((d, c))
    assert sol.mode == "primal"
    # the dense chain: the N x d gradient lam P g~^T - (X g~) W*^T, then the VJP
    g_tilde = sol.factor.solve(g)
    dense = sol.lam * (sol.p @ g_tilde.T) - (x @ g_tilde) @ sol.w_star.T
    u, v = _solve_backward(sol, x, g)
    assert u.shape == (n, 2 * c) and v.shape == (d, 2 * c)
    assert max_rel_err(u @ v.T, dense) <= 1e-12
    got = _encode_vjp(enc, inputs, (u, v), hidden_act)
    assert max_rel_err(got, encode_vjp(enc, inputs, dense)) <= 1e-12
    if two_lanes is not None:
        assert SPLIT_MIN_MADDS <= 288 * d * c  # U's helper half
        assert (0, 288) in two_lanes


@pytest.mark.parametrize("kind", ["identity", "linear"])
def test_no_hidden_activation_outside_mlp1(kind):
    enc = make_encoder(kind, 3, 3, seed=2)
    x = np.random.default_rng(1).standard_normal((2, 3))
    feats, hidden = _encode(enc, x)
    assert hidden is None and np.array_equal(feats, encode(enc, x))


@pytest.mark.parametrize(
    "kind, dims, message",
    [
        ("mlp1", (3, 2, 0), "hidden_dim must be >= 1, got 0"),
        ("mlp1", (0, 2, 3), "input_dim must be >= 1, got 0"),
        ("linear", (3, 0, None), "feature_dim must be >= 1, got 0"),
        ("identity", (0, None, None), "input_dim must be >= 1, got 0"),
        ("linear", (3, 2, 0), None),  # only mlp1 has a hidden layer
        ("identity", (3, 3, -1), None),
    ],
)
def test_make_encoder_rejects_dims_below_one(kind, dims, message):
    input_dim, feature_dim, hidden_dim = dims
    if message is None:
        enc = make_encoder(kind, input_dim, feature_dim, hidden_dim=hidden_dim)
        assert all(np.isfinite(w).all() for w in enc.weights)
        return
    with pytest.raises(ValueError) as ei:
        make_encoder(kind, input_dim, feature_dim, hidden_dim=hidden_dim)
    assert str(ei.value) == message
