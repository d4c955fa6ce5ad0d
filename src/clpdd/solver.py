"""Closed-form ridge linear probe and its analytic backward pass.

The probe induced by features X (N x d) with one-hot targets Y (N x C) is the
ridge minimizer W* of 0.5*||XW - Y||_F^2 + 0.5*lam*||W||_F^2. Two equivalent
routes are provided:

* primal: solve (X^T X + lam*I_d) W = X^T Y, a d x d system;
* kernel: W* = X^T (X X^T + lam*I_N)^{-1} Y, an N x N system, preferable when
  N < d (one synthetic sample per class makes N tiny while d is large).

`ridge_kernel` picks the cheaper route, caches the Cholesky factorization in
the returned ProbeSolution, and `solve_backward` reuses that factorization to
push an upstream gradient dL/dW* back to dL/dX in closed form. A plain
unrolled gradient-descent reference (`gd_steady_state`) converges to the same
W* for any step size below `stable_step_bound` and is kept as a cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    CholeskyFactor,
    DimensionError,
    NonFiniteError,
    check_positive,
    cholesky_factor,
    run_row_halves,
)


@dataclass(frozen=True)
class ProbeSolution:
    """Closed-form probe with the factorization that produced it.

    `p` caches (K + lam*I)^{-1} Y; in every mode it satisfies
    (K + lam*I) p = Y and w_star = X^T p.
    """

    w_star: np.ndarray  # d x C
    p: np.ndarray  # N x C
    lam: float
    mode: str  # "kernel" (factor of K + lam*I_N) or "primal" (factor of X^T X + lam*I_d)
    factor: CholeskyFactor

    @property
    def n(self) -> int:
        return self.p.shape[0]


def _check_ridge_args(x: np.ndarray, y: np.ndarray, lam: float):
    check_positive("ridge coefficient", lam)
    if x.ndim != 2 or y.ndim != 2:
        raise DimensionError("x and y must be 2-D")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteError("ridge inputs contain non-finite entries")


def _check_onehot(y: np.ndarray):
    ok = np.all(np.isin(y, (0.0, 1.0))) and np.all(y.sum(axis=1) == 1.0)
    if not ok:
        raise ValueError("y rows must be one-hot")


def _check_factor(factor: CholeskyFactor) -> None:
    # a Gram matrix that overflows factors with an infinite diagonal and no
    # error, and every solve against that factor gives 0
    if not np.isfinite(factor.lower.diagonal()).all():
        raise NonFiniteError("the Gram matrix of the ridge inputs overflows")


def _add_ridge(gram: np.ndarray, lam: float) -> np.ndarray:
    """gram + lam*I, in place on a freshly computed (so C-contiguous, and
    ravel() a view of it) Gram matrix."""
    gram.ravel()[:: gram.shape[0] + 1] += lam
    return gram


def _primal_solve(x: np.ndarray, y: np.ndarray, lam: float):
    """(W*, factor of X^T X + lam*I) from the d x d normal equations."""
    factor = cholesky_factor(_add_ridge(x.T @ x, lam))
    w = factor.solve(x.T @ y)
    return w, factor


def ridge_primal(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """W* from the d x d normal equations (X^T X + lam*I) W = X^T Y. Inputs
    whose Gram matrix overflows raise NonFiniteError."""
    _check_ridge_args(x, y, lam)
    _check_onehot(y)
    with np.errstate(over="ignore", invalid="ignore"):  # _check_factor names an overflow
        w, factor = _primal_solve(x, y, lam)
    _check_factor(factor)
    return w


def ridge_kernel(x: np.ndarray, y: np.ndarray, lam: float) -> ProbeSolution:
    """Closed-form probe via the sample-space kernel system when N < d.

    For N >= d the primal route is used instead (same W*, cheaper factor);
    either way `p = (Y - X W*)/lam` solves (K + lam*I) p = Y exactly. Rows of
    `y` that are not one-hot raise ValueError, as in `ridge_primal`, and
    inputs whose Gram matrix overflows NonFiniteError.
    """
    _check_ridge_args(x, y, lam)
    _check_onehot(y)
    with np.errstate(over="ignore", invalid="ignore"):  # _check_factor names an overflow
        sol = _ridge_kernel(x, y, lam)
    _check_factor(sol.factor)
    return sol


def _ridge_kernel(x: np.ndarray, y: np.ndarray, lam: float) -> ProbeSolution:
    """`ridge_kernel` on arguments already checked. On the primal route
    p = (Y - X W*)/lam is computed row by row through `run_row_halves`."""
    n, d = x.shape
    if n < d:
        mode, factor = "kernel", cholesky_factor(_add_ridge(x @ x.T, lam))
        p = factor.solve(y)
        w = x.T @ p
    else:
        mode, (w, factor) = "primal", _primal_solve(x, y, lam)

        def rows(x_rows, y_rows, p_rows):
            np.matmul(x_rows, w, p_rows)
            np.subtract(y_rows, p_rows, p_rows)
            p_rows /= lam

        p = np.empty((n, w.shape[1]))
        run_row_halves(rows, w.size, x, y, p)
    return ProbeSolution(w_star=w, p=p, lam=lam, mode=mode, factor=factor)


def solve_backward(sol: ProbeSolution, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of L = <g, W*(X)> with respect to X, reusing the cached factor.

    With S = (K + lam*I)^{-1} and P = S Y the kernel-route gradient is
    P g^T - (S X g) W*^T - P ((S X g)^T X), since P^T X = W*^T; S is only ever
    applied through solves against the stored factorization, never formed.
    """
    if x.shape[0] != sol.n:
        raise DimensionError(f"x has {x.shape[0]} rows but solution has {sol.n}")
    if g.shape != sol.w_star.shape:
        raise DimensionError(f"g must be {sol.w_star.shape}, got {g.shape}")
    return _solve_backward(sol, x, g)


def _solve_backward(sol: ProbeSolution, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """`solve_backward` on arguments already checked."""
    p = sol.p
    if sol.mode == "kernel":
        u = sol.factor.solve(x @ g)  # S X g, one extra N x C solve
        return p @ g.T - u @ sol.w_star.T - p @ (u.T @ x)
    # primal route: W* = H^{-1} X^T Y with H = X^T X + lam*I, so with
    # g~ = H^{-1} g the gradient is (Y - X W*) g~^T - X g~ W*^T, and
    # Y - X W* = lam * P. Grouped as (X g~) W*^T the last term costs 2NdC
    # multiply-adds; X (g~ W*^T) would cost d^2 C + N d^2, far more when C << d.
    # Each row of the gradient needs only its own rows of P and X, so after the
    # one solve the rest runs through `run_row_halves`.
    g_tilde = sol.factor.solve(g)

    def rows(p_rows, x_rows, grad, xg, xgw):
        np.matmul(p_rows, g_tilde.T, grad)
        grad *= sol.lam
        np.matmul(x_rows, g_tilde, xg)
        grad -= np.matmul(xg, sol.w_star.T, xgw)

    grad = np.empty(x.shape)
    run_row_halves(rows, g.size, p, x, grad, np.empty(p.shape), np.empty(x.shape))
    return grad


def gd_steady_state(
    x: np.ndarray, y: np.ndarray, lam: float, eta: float, steps: int
) -> np.ndarray:
    """Unrolled gradient descent on the ridge objective from W0 = 0.

    Iterates W <- W - eta*(H W - c). Converges to the closed-form W* for
    eta below `stable_step_bound`; above it the iterates visibly diverge.
    """
    _check_ridge_args(x, y, lam)
    check_positive("step size", eta)
    d = x.shape[1]
    h = x.T @ x + lam * np.eye(d)
    c = x.T @ y
    w = np.zeros_like(c)
    for _ in range(steps):
        w = w - eta * (h @ w - c)
    return w


def stable_step_bound(x: np.ndarray, lam: float) -> float:
    """Largest stable GD step 2/mu_max(X^T X + lam*I).

    mu_max is the largest eigenvalue of the N x N Gram matrix X X^T, which
    shares the nonzero spectrum of X^T X, plus lam.
    """
    check_positive("ridge coefficient", lam)
    mu = float(np.linalg.eigvalsh(x @ x.T)[-1])
    return 2.0 / (mu + lam)
