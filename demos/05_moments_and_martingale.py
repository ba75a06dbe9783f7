"""Executable solution properties: moment ceilings and the martingale check.

Polynomial moments of the solution grow at most like
2**(m-1) * (1 + v0**m) * exp(C_m t) with C_m = m*kappa*(theta+1)
+ (xi^2/2)*m*(m-1); the ceilings are deliberately slack, the point is
that the empirical moments sit below them at every checkpoint.
Subtracting the accumulated drift from the state gives a statistic
whose mean stays at v0 exactly; the batch means confirm it within
Monte Carlo noise. A path batch carries the model it was simulated
from, so both checks read the parameters and the drift from it.
"""

from varexp_cir import (
    ModelParams,
    check_moment_bounds,
    gm_model,
    make_builtin,
    make_grid,
    martingale_report,
    sample_batch,
    second_moment_bound,
    simulate_batch,
)

params = ModelParams(kappa=2.0, theta=0.05, xi=0.3, v0=0.05)
grid = make_grid(1.0, 0.001)
model = gm_model(params, make_builtin("p1"))
pb = simulate_batch(model, sample_batch(42, 5000, grid))

print("moment ceilings for gm:p1 at the quarter checkpoints")
print(f"{'m':>3} {'t':>6} {'empirical':>12} {'ceiling':>12} {'ok':>4}")
for rep in check_moment_bounds(pb, orders=(2, 3, 4)):
    print(
        f"{rep.order:3d} {rep.checkpoint:6.2f} {rep.empirical:12.3e} "
        f"{rep.theoretical_bound:12.4g} {'yes' if rep.satisfied else 'NO':>4}"
    )

print(f"\nuniform second-moment ceiling from the growth constant: "
      f"{second_moment_bound(model, grid):.3e}")
print("(astronomically slack at these parameters; a sanity bound, not a target)")

mart = martingale_report(pb)
print("\ndrift-compensated statistic (mean should stay at v0 = 0.05):")
for t, mu, se in zip(mart.checkpoints, mart.mh_means, mart.mh_stderrs):
    print(f"  t={t:4.2f}: mean={mu:.6f} +- {se:.6f}")
print(f"max deviation {mart.max_abs_drift:.2e}, satisfied={mart.satisfied}")
