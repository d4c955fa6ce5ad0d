"""Every analytic gradient against central finite differences.

The distillation loop never calls an autodiff framework: the backward pass
through the linear solve, the outer-loss gradients, and the encoder VJPs are
all hand-derived formulas. This script runs the finite-difference battery
that keeps them honest, then walks one solver-backward comparison by hand.
"""

import numpy as np

from clpdd import ridge_kernel, run_battery, solve_backward
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
