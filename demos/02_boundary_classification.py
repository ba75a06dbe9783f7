"""Zero-boundary classification across model families.

The differential boundary test evaluates T(x) = f(x) - 1/2 (g^2)'(x)
near zero: a nonnegative limit means a strictly positive start never
reaches the boundary. For constant exponent 1/2 this reduces to the
classical condition 2*kappa*theta >= xi^2; for exponents with
p(0+) > 1/2 the diffusion term vanishes at the boundary and only the
drift limit matters.
"""

from varexp_cir import ModelParams, cir_model, feller_check, gm_model, make_builtin, pkm_model

params = ModelParams(kappa=2.0, theta=0.05, xi=0.3, v0=0.05)

print("reference parameters: kappa=2.0 theta=0.05 xi=0.3")
models = [
    ("cir", cir_model(params)),
    ("gm:p1", gm_model(params, make_builtin("p1"))),
    ("gm:p2", gm_model(params, make_builtin("p2"))),
    ("gm:p3", gm_model(params, make_builtin("p3"))),
    ("pkm a=0 b=1", pkm_model(params, 0, 1.0)),
    ("pkm a=1 b=0.5", pkm_model(params, 1, 0.5)),
]
for name, model in models:
    rep = feller_check(model)
    extra = ""
    if rep.classical_holds is not None:
        extra = f"  (2kt={rep.classical_lhs_2kt:.3f} vs xi^2={rep.classical_rhs_xi2:.3f})"
    print(
        f"  {name:>14}: {rep.verdict:15s} criterion={rep.criterion_used:14s} "
        f"limit={rep.analytic_limit:+.4f}{extra}"
    )

print("\nfailing regime: slow reversion, violent noise")
bad = ModelParams(kappa=0.1, theta=0.1, xi=0.5, v0=0.05)
rep = feller_check(cir_model(bad))
lhs, rhs = rep.classical_lhs_2kt, rep.classical_rhs_xi2
print(f"  cir kappa=0.1 theta=0.1 xi=0.5: {rep.verdict} (2kt={lhs} < xi^2={rhs})")

print("\nthe numeric profile near the boundary backs the analytic limit:")
rep = feller_check(gm_model(params, make_builtin("p1")))
for x, t in rep.numeric_profile[:4]:
    print(f"  T({x:.2e}) = {t:+.6f}")
print(f"  ... -> limit {rep.analytic_limit:+.4f} (p1(0) = 1/2 contributes -xi^2/2)")
