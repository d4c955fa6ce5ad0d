import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clpdd.linalg import DimensionError, NonFiniteError
from clpdd.solver import (
    gd_steady_state,
    ridge_kernel,
    ridge_primal,
    solve_backward,
    stable_step_bound,
)

from oracles import central_diff_grad, dense_max_eig, max_rel_err, random_onehot


def test_primal_identity_case():
    w = ridge_primal(np.eye(2), np.eye(2), 1.0)
    assert np.allclose(w, 0.5 * np.eye(2), rtol=0, atol=1e-14)


def test_primal_zero_features():
    y, _ = random_onehot(np.random.default_rng(0), 3, 4)
    w = ridge_primal(np.zeros((3, 4)), y, 0.1)
    assert np.array_equal(w, np.zeros((4, 4)))


def test_primal_stationarity_residual():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 12))
    y, _ = random_onehot(rng, 5, 3)
    w = ridge_primal(x, y, 0.1)
    h = x.T @ x + 0.1 * np.eye(12)
    c = x.T @ y
    assert np.linalg.norm(h @ w - c) <= 1e-9


def test_primal_input_validation():
    y = np.eye(2)
    with pytest.raises(ValueError):
        ridge_primal(np.eye(2), y, 0.0)
    with pytest.raises(NonFiniteError):
        ridge_primal(np.array([[np.inf, 0.0], [0.0, 1.0]]), y, 0.1)
    with pytest.raises(ValueError):
        ridge_primal(np.eye(2), np.array([[0.5, 0.5], [1.0, 0.0]]), 0.1)


@pytest.mark.parametrize("rows", [5, 20], ids=["kernel_route", "primal_route"])
@pytest.mark.parametrize("solve", [ridge_kernel, ridge_primal], ids=["kernel", "primal"])
def test_both_solvers_reject_inputs_whose_gram_matrix_overflows(solve, rows):
    # finite inputs: the Gram matrix overflows, and the factor LAPACK returns
    # without an error would make every solve, and so W*, exactly 0
    x = np.random.default_rng(0).standard_normal((rows, 16)) * 1e160
    y = np.eye(5)[np.arange(rows) % 5]
    with pytest.raises(NonFiniteError):
        solve(x, y, 0.1)


@pytest.mark.parametrize("solve", [ridge_kernel, ridge_primal], ids=["kernel", "primal"])
def test_both_solvers_reject_targets_that_are_not_one_hot(solve):
    # 2 rows of 3 features: N < d, so ridge_kernel would take the kernel route
    with pytest.raises(ValueError, match="^y rows must be one-hot$"):
        solve(np.eye(2, 3), np.array([[2.0, 0.0], [0.5, 0.5]]), 0.1)


def test_kernel_identity_case():
    sol = ridge_kernel(np.eye(2), np.eye(2), 1.0)
    assert np.allclose(sol.w_star, 0.5 * np.eye(2), rtol=0, atol=1e-14)
    assert np.allclose(sol.p, 0.5 * np.eye(2), rtol=0, atol=1e-14)


def test_kernel_matches_primal_wide():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 64))
    y, _ = random_onehot(rng, 5, 3)
    wp = ridge_primal(x, y, 0.1)
    sol = ridge_kernel(x, y, 0.1)
    assert sol.mode == "kernel"
    assert np.linalg.norm(sol.w_star - wp) <= 1e-10 * np.linalg.norm(wp)


def test_kernel_single_row():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 6))
    y = np.zeros((1, 3))
    y[0, 1] = 1.0
    sol = ridge_kernel(x, y, 0.5)
    want = np.zeros((6, 3))
    want[:, 1] = x[0] / (x[0] @ x[0] + 0.5)
    assert np.allclose(sol.w_star, want, rtol=1e-12, atol=0)


def test_probe_solution_invariants():
    rng = np.random.default_rng(4)
    for n, d in [(4, 9), (9, 4), (6, 6)]:
        x = rng.standard_normal((n, d))
        y, _ = random_onehot(rng, n, 3)
        sol = ridge_kernel(x, y, 0.1)
        a = x @ x.T + 0.1 * np.eye(n)
        assert np.linalg.norm(a @ sol.p - y) <= 1e-9 * np.linalg.norm(y)
        assert np.linalg.norm(sol.w_star - x.T @ sol.p) <= 1e-12 * max(
            np.linalg.norm(sol.w_star), 1e-12
        )


def test_primal_kernel_equivalence_sweep():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(2, 12))
        c = int(rng.integers(2, 4))
        lam = float(rng.choice([0.01, 0.1, 1.0]))
        x = rng.standard_normal((n, d))
        y, _ = random_onehot(rng, n, c)
        wp = ridge_primal(x, y, lam)
        wk = ridge_kernel(x, y, lam).w_star
        assert np.linalg.norm(wk - wp) <= 1e-9 * np.linalg.norm(wp)


def test_scale_covariance():
    # replacing lambda by alpha^2*lambda and X by alpha*X scales W* by 1/alpha;
    # alpha = 2 keeps every float operation exact
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 7))
    y, _ = random_onehot(rng, 4, 3)
    w1 = ridge_kernel(x, y, 0.25).w_star
    w2 = ridge_kernel(2.0 * x, y, 1.0).w_star
    assert np.array_equal(w2, 0.5 * w1)


def test_gd_one_step_convergence():
    # H = 2I, eta = 0.5 makes I - eta*H = 0: one step lands on W*
    w = gd_steady_state(np.eye(2), np.eye(2), 1.0, 0.5, 1)
    assert np.array_equal(w, 0.5 * np.eye(2))


def test_gd_converges_at_stable_step():
    rng = np.random.default_rng(7)
    x = 0.7 * rng.standard_normal((5, 6))
    y, _ = random_onehot(rng, 5, 3)
    w_star = ridge_primal(x, y, 0.3)
    h = x.T @ x + 0.3 * np.eye(6)
    eta = 1.0 / dense_max_eig(h)
    w = gd_steady_state(x, y, 0.3, eta, 5000)
    assert np.linalg.norm(w - w_star) <= 1e-6 * np.linalg.norm(w_star)


def test_gd_diverges_past_bound():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 5))
    y, _ = random_onehot(rng, 4, 2)
    w_star = ridge_primal(x, y, 0.1)
    h = x.T @ x + 0.1 * np.eye(5)
    eta = 2.5 / dense_max_eig(h)
    w = gd_steady_state(x, y, 0.1, eta, 200)
    assert np.linalg.norm(w) > 1e3 * np.linalg.norm(w_star)


def test_gd_error_monotone_below_bound():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 5))
    y, _ = random_onehot(rng, 4, 2)
    w_star = ridge_primal(x, y, 0.5)
    eta = 0.9 * stable_step_bound(x, 0.5)
    errs = [
        np.linalg.norm(gd_steady_state(x, y, 0.5, eta, t) - w_star) for t in range(1, 60)
    ]
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev + 1e-12


def test_stable_step_bound_zero_features():
    assert stable_step_bound(np.zeros((3, 4)), 1.0) == pytest.approx(2.0, abs=1e-12)


def test_stable_step_bound_identity():
    assert stable_step_bound(np.eye(2), 1.0) == pytest.approx(1.0, rel=1e-9)


def test_stable_step_bound_vs_dense_oracle():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 9))
    want = 2.0 / dense_max_eig(x.T @ x + 0.2 * np.eye(9))
    got = stable_step_bound(x, 0.2)
    assert abs(got - want) <= 1e-5 * want


def test_backward_zero_upstream():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 5))
    y, _ = random_onehot(rng, 3, 2)
    sol = ridge_kernel(x, y, 0.1)
    assert np.array_equal(solve_backward(sol, x, np.zeros((5, 2))), np.zeros((3, 5)))


def test_backward_scalar_stationary_point():
    # W*(x) = x/(x^2+1) has zero derivative at x = 1
    x = np.array([[1.0]])
    y = np.array([[1.0]])
    sol = ridge_kernel(x, y, 1.0)
    g = np.array([[2.7]])
    assert np.allclose(solve_backward(sol, x, g), np.zeros((1, 1)), rtol=0, atol=1e-14)


def test_backward_finite_differences_kernel_mode():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 6))
    y, _ = random_onehot(rng, 4, 3)
    g = rng.standard_normal((6, 3))
    sol = ridge_kernel(x, y, 0.1)
    assert sol.mode == "kernel"
    analytic = solve_backward(sol, x, g)
    fd = central_diff_grad(
        lambda xp: float(np.sum(g * ridge_kernel(xp, y, 0.1).w_star)), x
    )
    assert max_rel_err(analytic, fd) <= 1e-6


def test_backward_finite_differences_primal_mode():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((7, 4))
    y, _ = random_onehot(rng, 7, 3)
    g = rng.standard_normal((4, 3))
    sol = ridge_kernel(x, y, 0.1)
    assert sol.mode == "primal"
    analytic = solve_backward(sol, x, g)
    fd = central_diff_grad(
        lambda xp: float(np.sum(g * ridge_kernel(xp, y, 0.1).w_star)), x
    )
    assert max_rel_err(analytic, fd) <= 1e-6


def test_backward_finite_differences_many_instances():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 8))
        c = int(rng.integers(2, 4))
        lam = float(rng.choice([0.01, 0.1, 1.0]))
        x = 0.8 * rng.standard_normal((n, d))
        y, _ = random_onehot(rng, n, c)
        g = rng.standard_normal((d, c))
        analytic = solve_backward(ridge_kernel(x, y, lam), x, g)
        fd = central_diff_grad(
            lambda xp: float(np.sum(g * ridge_kernel(xp, y, lam).w_star)), x
        )
        assert max_rel_err(analytic, fd) <= 1e-6


# random ridge problems on both sides of N = d; lam from 0.01 up keeps every
# system well enough conditioned for the bounds below
def _ridge_problems(max_side):
    return st.fixed_dictionaries({
        "n": st.integers(1, max_side),
        "d": st.integers(1, max_side),
        "c": st.integers(1, 4),
        "lam": st.sampled_from([0.01, 0.1, 1.0, 10.0]),
        "seed": st.integers(0, 2**32 - 1),
    })


def _ridge_problem(n, d, c, lam, seed):
    rng = np.random.default_rng(seed)
    x = 0.8 * rng.standard_normal((n, d))
    y, _ = random_onehot(rng, n, c)
    return x, y, lam, rng


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_ridge_problems(12))
def test_kernel_and_primal_routes_agree(problem):
    x, y, lam, _ = _ridge_problem(**problem)
    n, d = x.shape
    sol = ridge_kernel(x, y, lam)
    assert sol.mode == ("kernel" if n < d else "primal")
    wp = ridge_primal(x, y, lam)
    assert np.linalg.norm(sol.w_star - wp) <= 1e-9 * np.linalg.norm(wp)
    # either route leaves p solving (X X^T + lam I) p = Y with W* = X^T p
    residual = (x @ x.T + lam * np.eye(n)) @ sol.p - y
    assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(y)
    assert np.linalg.norm(x.T @ sol.p - wp) <= 1e-9 * np.linalg.norm(wp)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_ridge_problems(7))
def test_backward_matches_finite_differences_on_both_routes(problem):
    x, y, lam, rng = _ridge_problem(**problem)
    g = rng.standard_normal((x.shape[1], y.shape[1]))
    analytic = solve_backward(ridge_kernel(x, y, lam), x, g)
    fd = central_diff_grad(
        lambda xp: float(np.sum(g * ridge_kernel(xp, y, lam).w_star)), x
    )
    assert max_rel_err(analytic, fd) <= 1e-6


@pytest.mark.parametrize(
    "n, d, c", [(5, 16, 5), (20, 64, 20), (40, 64, 20), (100, 128, 100), (100, 512, 100)]
)
def test_kernel_backward_matches_the_three_product_formula_bitwise(n, d, c):
    # the kernel route writes P^T X as W*^T, which x.T @ p computed, and
    # keeps the bytes of the formula that forms P^T X again
    rng = np.random.default_rng(16)
    x = rng.standard_normal((n, d))
    y, _ = random_onehot(rng, n, c)
    g = rng.standard_normal((d, c))
    sol = ridge_kernel(x, y, 0.1)
    assert sol.mode == "kernel"
    p = sol.p
    u = sol.factor.solve(x @ g)
    want = p @ g.T - u @ (p.T @ x) - p @ (u.T @ x)
    assert solve_backward(sol, x, g).tobytes() == want.tobytes()


def test_backward_shape_mismatch():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 5))
    y, _ = random_onehot(rng, 3, 2)
    sol = ridge_kernel(x, y, 0.1)
    with pytest.raises(DimensionError):
        solve_backward(sol, x[:2], np.zeros((5, 2)))
    with pytest.raises(DimensionError):
        solve_backward(sol, x, np.zeros((4, 2)))
