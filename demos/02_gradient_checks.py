"""Every analytic gradient against central finite differences.

The distillation loop never calls an autodiff framework: the backward pass
through the linear solve, the outer-loss gradients, and the encoder VJPs are
all hand-derived formulas. This script runs the finite-difference battery
that keeps them honest, then walks one solver-backward comparison by hand,
and the other links of a distillation step's chain after it.
"""

import numpy as np

from clpdd import (
    class_anchor_loss_and_grad,
    encode,
    encode_vjp,
    make_encoder,
    mse_outer_loss_and_grad,
    ridge_kernel,
    run_battery,
    solve_backward,
)
from clpdd.gradcheck import fd_grad, rel_err

results = run_battery(seed=0)
print(f"full battery ({len(results)} checks x 50 random instances each):")
for result in results:
    flag = "ok" if result.passed else "FAIL"
    print(f"  {result.name:24s} max rel err {result.max_rel_err:.3e}  [{flag}]")

# one instance in slow motion: scalar objective L = <g, W*(X)> whose exact
# gradient solve_backward returns in closed form
rng = np.random.default_rng(7)
x = rng.standard_normal((4, 6))
y = np.eye(3)[np.arange(4) % 3]
g = rng.standard_normal((6, 3))
lam = 0.1

sol = ridge_kernel(x, y, lam)
analytic = solve_backward(sol, x, g)
numeric = fd_grad(lambda xp: float(np.sum(g * ridge_kernel(xp, y, lam).w_star)), x)

print("\nsingle solver-backward instance (N=4, d=6, C=3):")
print("  analytic[0] =", np.round(analytic[0], 6))
print("  numeric [0] =", np.round(numeric[0], 6))
print("  max rel err =", rel_err(analytic, numeric))

# the other links, against the same finite differences: both outer losses
# (gradient in the probe W*) and the mlp1 encoder's VJP (gradient of
# <u, encode(X)> in X)
labels = np.arange(4) % 3
w = rng.standard_normal((6, 3))
print("\nouter losses and the encoder VJP on the same instance:")
for name, loss_and_grad in (
    ("class-anchor loss", lambda wp: class_anchor_loss_and_grad(x, labels, wp, 0.07)),
    ("mse loss", lambda wp: mse_outer_loss_and_grad(x, labels, wp)),
):
    _, grad = loss_and_grad(w)
    numeric = fd_grad(lambda wp: loss_and_grad(wp)[0], w)
    print(f"  {name:17s} max rel err = {rel_err(grad, numeric):.3e}")
enc = make_encoder("mlp1", 6, feature_dim=5, hidden_dim=8, seed=0)
u = rng.standard_normal((4, 5))
numeric = fd_grad(lambda xp: float(np.sum(u * encode(enc, xp))), x)
print(f"  {'mlp1 encoder VJP':17s} max rel err = {rel_err(encode_vjp(enc, x, u), numeric):.3e}")
