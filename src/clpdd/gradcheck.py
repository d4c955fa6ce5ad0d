"""Finite-difference battery for every analytic gradient in the library.

Each check draws random tiny instances, compares the analytic gradient with
central finite differences, and reports the worst relative error, measured as
the maximum absolute deviation over the largest finite-difference entry (this
keeps near-zero entries from turning difference noise into spurious failures
while still catching sign/transpose mistakes, which perturb entries at the
gradient's own scale).

Instance scales are chosen to keep softmax logits in their soft regime at the
default temperature; saturated logits make both gradients vanish and the
comparison meaningless.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .data import onehot
from .distill import DistillConfig, meta_loss_and_grad, rng_stream, stream_seed
from .encoder import ENCODER_KINDS, encode, encode_vjp, make_encoder
from .objective import class_anchor_loss_and_grad, mse_outer_loss_and_grad
from .solver import ridge_kernel, solve_backward

DEFAULT_H = 1e-5
DEFAULT_THRESHOLD = 1e-5
DEFAULT_INSTANCES = 50


def fd_grad(f, x: np.ndarray, h: float = DEFAULT_H) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(np.max(np.abs(fd)), 1e-12)
    return float(np.max(np.abs(analytic - fd)) / scale)


@dataclass
class CheckResult:
    name: str
    instances: int
    max_rel_err: float
    threshold: float
    passed: bool
    worst_seed: int


def _check_solver_backward(rng):
    n = int(rng.integers(2, 7))
    d = int(rng.integers(2, 9))
    c = int(rng.integers(2, 4))
    lam = float(rng.choice([0.01, 0.1, 1.0]))
    x = 0.8 * rng.standard_normal((n, d))
    y = onehot(rng.integers(0, c, size=n), c)
    g = rng.standard_normal((d, c))
    analytic = solve_backward(ridge_kernel(x, y, lam), x, g)
    fd = fd_grad(lambda xp: float(np.sum(g * ridge_kernel(xp, y, lam).w_star)), x)
    return analytic, fd


def _random_batch(rng, m, d, c, scale=0.5):
    x = scale * rng.standard_normal((m, d))
    labels = np.concatenate([np.arange(c), rng.integers(0, c, size=m - c)])
    return x, labels


def _check_class_anchor(rng):
    m, d, c = int(rng.integers(4, 9)), int(rng.integers(3, 9)), int(rng.integers(2, 4))
    tau = float(rng.choice([0.07, 0.2, 1.0]))
    x, labels = _random_batch(rng, m, d, c)
    w = 0.3 * rng.standard_normal((d, c))
    _, analytic = class_anchor_loss_and_grad(x, labels, w, tau)
    fd = fd_grad(lambda wp: class_anchor_loss_and_grad(x, labels, wp, tau)[0], w)
    return analytic, fd


def _check_mse(rng):
    m, d, c = int(rng.integers(4, 9)), int(rng.integers(3, 9)), int(rng.integers(2, 4))
    x, labels = _random_batch(rng, m, d, c)
    w = 0.5 * rng.standard_normal((d, c))
    _, analytic = mse_outer_loss_and_grad(x, labels, w)
    fd = fd_grad(lambda wp: mse_outer_loss_and_grad(x, labels, wp)[0], w)
    return analytic, fd


def _check_encoder_vjp(kind):
    def check(rng):
        n = int(rng.integers(2, 5))
        d_in = int(rng.integers(2, 6))
        d_out = d_in if kind == "identity" else int(rng.integers(2, 7))
        enc = make_encoder(
            kind, d_in, d_out, hidden_dim=int(rng.integers(3, 7)), seed=int(rng.integers(0, 2**31))
        )
        x = rng.standard_normal((n, d_in))
        u = rng.standard_normal((n, d_out))
        analytic = encode_vjp(enc, x, u)
        fd = fd_grad(lambda xp: float(np.sum(u * encode(enc, xp))), x)
        return analytic, fd

    return check


def _pipeline_instance(rng, enc, c, ipc, objective):
    d_in = enc.input_dim
    inputs = 0.5 * rng.standard_normal((c * ipc, d_in))
    y = np.repeat(np.eye(c), ipc, axis=0)  # class-major, as init_synthetic lays it out
    x_real, labels = _random_batch(rng, 2 * c, d_in, c, scale=0.4)
    lam, tau = DistillConfig.lam, DistillConfig.tau

    def loss_fn(xp):
        return meta_loss_and_grad(xp, y, enc, x_real, labels, lam, tau, objective)[0]

    _, analytic = meta_loss_and_grad(inputs, y, enc, x_real, labels, lam, tau, objective)
    return analytic, fd_grad(loss_fn, inputs)


def _check_pipeline(objective):
    def check(rng):
        c = int(rng.integers(2, 4))
        d_in = int(rng.integers(2, 5))
        kind = ENCODER_KINDS[int(rng.integers(0, 3))]
        d_out = d_in if kind == "identity" else int(rng.integers(2, 6))
        enc = make_encoder(
            kind, d_in, d_out, hidden_dim=int(rng.integers(3, 6)), seed=int(rng.integers(0, 2**31))
        )
        return _pipeline_instance(rng, enc, c, 1, objective)

    return check


def _check_pipeline_primal(rng):
    """ipc > 1 with N = c*ipc >= feature dim: the primal solve and the mlp1
    hidden activation that the forward pass hands to the VJP, end to end."""
    c, ipc = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    d_in = int(rng.integers(2, 5))
    d_out = int(rng.integers(2, min(c * ipc, 5) + 1))
    enc = make_encoder(
        "mlp1", d_in, d_out, hidden_dim=int(rng.integers(3, 6)), seed=int(rng.integers(0, 2**31))
    )
    return _pipeline_instance(rng, enc, c, ipc, "class_anchor")


_CHECKS = {
    "solver_backward": _check_solver_backward,
    "class_anchor_grad": _check_class_anchor,
    "mse_grad": _check_mse,
    "encoder_vjp_identity": _check_encoder_vjp("identity"),
    "encoder_vjp_linear": _check_encoder_vjp("linear"),
    "encoder_vjp_mlp1": _check_encoder_vjp("mlp1"),
    "pipeline_class_anchor": _check_pipeline("class_anchor"),
    "pipeline_mse": _check_pipeline("mse"),
    "pipeline_primal": _check_pipeline_primal,
}


def run_battery(seed: int = 0) -> list[CheckResult]:
    """Run every check on DEFAULT_INSTANCES instances against DEFAULT_THRESHOLD."""
    results = []
    for name, fn in _CHECKS.items():
        worst, worst_seed = 0.0, 0
        for i in range(DEFAULT_INSTANCES):
            stream = f"gradcheck.{name}.{i}"
            err = rel_err(*fn(rng_stream(seed, stream)))
            if err > worst:
                worst, worst_seed = err, stream_seed(seed, stream)
        results.append(
            CheckResult(
                name=name,
                instances=DEFAULT_INSTANCES,
                max_rel_err=worst,
                threshold=DEFAULT_THRESHOLD,
                passed=worst <= DEFAULT_THRESHOLD,
                worst_seed=worst_seed,
            )
        )
    return results


def battery_report(results: list[CheckResult]) -> dict:
    return {
        "checks": [asdict(r) for r in results],
        "battery_size": len(results),
        "passed": all(r.passed for r in results),
    }
