"""Successive approximation as an independent oracle for the Euler path.

On the band-truncated coefficients the discrete Picard map

    v[k+1](t_j) = v0 + sum_{i<j} f_n(v[k](t_i)) dt
                     + sum_{i<j} g_n(v[k](t_i)) dW_i

is a contraction whose fixed point is algebraically the plain Euler
recursion on the same grid. Iterating it therefore reconstructs the
Euler path through a completely different code path: cumulative sums
of whole iterates instead of a step-by-step recursion. The sup-norm
updates d_k decay factorially once the contraction takes hold.
"""

import numpy as np

from varexp_cir import (
    ModelParams,
    TruncationParams,
    euler_maruyama_truncated,
    gm_model,
    make_builtin,
    make_grid,
    path_increments,
    picard_solve,
)

params = ModelParams(kappa=2.0, theta=0.05, xi=0.3, v0=0.05)
model = gm_model(params, make_builtin("p1"))
grid = make_grid(1.0, 0.001)
tp = TruncationParams(10)

row = path_increments(seed=1, path_index=0, grid=grid)
report = picard_solve(tp, model, grid, row, tol=1e-9, k_max=200)
euler = euler_maruyama_truncated(tp, model, grid, row[None])[0]
sup = float(np.max(np.abs(report.fixed_point - euler)))

print(f"converged: {report.converged} after {report.iterations_used} sweeps")
print(f"fitted envelope constant: {report.rate_envelope_constant:.3g}")
print(f"sup |picard - euler| = {sup:.2e}")

print("\nsup-norm update history d_k:")
for k, d in enumerate(report.sup_diffs):
    bar = "#" * max(1, int(60 + 2 * np.log10(d))) if d > 0 else ""
    print(f"  k={k:3d}  d={d:.3e}  {bar}")

print("\nnote: at n=10 the band floor 1/n = 0.1 sits above v0 = 0.05, so the")
print("truncated drift pushes the path toward zero and below; the solvers")
print("extend the diffusion constantly below the band floor, keeping the")
print("iteration well defined on every excursion.")
