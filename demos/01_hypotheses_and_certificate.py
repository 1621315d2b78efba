"""Walk through the structural hypotheses on the three built-in systems.

For each system we check the eigenvalue signature over a sampled
neighborhood of the rest state, the source dominance shift K, the
boundary dissipation number theta, the exponential weight bound M3, and
the coupled smallness certificate theta + K L M3 < 1 that makes the
periodic construction contract.
"""
import numpy as np

from periodic_hyp import SweepContext, systems, validate_forcing, validate_hyperbolicity

EPS = 0.01

cases = {}
cases["linear_damped_scalar"] = (
    systems.linear_damped_scalar(),
    systems.scalar_inflow_boundary(
        systems.harmonic_signal([{"amplitude": EPS}], 1.0), 1.0),
)
cases["linear_reflect_2x2"] = (
    systems.linear_reflect_2x2(),
    systems.reflection_boundary(
        0.5, systems.harmonic_signal([{"amplitude": EPS}], 2.0),
        systems.zero_signal, 2.0),
)
cases["quasilinear_euler_damping"] = (
    systems.quasilinear_euler_damping(),
    systems.two_gain_boundary(
        0.5, 0.5,
        systems.harmonic_signal([{"amplitude": EPS}], 2.0),
        systems.harmonic_signal([{"amplitude": 0.5 * EPS, "phase": 1.0}], 2.0),
        2.0),
)

for name, (spec, bspec) in cases.items():
    print(f"\n=== {name} (n={spec.n}, m={spec.m}) ===")
    rep = validate_hyperbolicity(spec)
    print(f"signature {rep.signature} over {rep.samples} sampled states, "
          f"mu_max = {rep.mu_max:.4f}")
    print(f"A(0) diagonal: {rep.a0_diagonal}, F(0) residual: {rep.f0_norm:.1e}")

    # computed once per spec: g0 = gradF(0), mu0 = 1 / lambda(0), K_min
    g0, K_min = spec.origin.g0, spec.origin.K_min
    print(f"source Jacobian at the origin: {np.round(g0, 4).tolist()}")
    # the solve's set-up at the default shift: K, gtilde, M3, theta and the
    # certificate, as solve_periodic and the CLI derive it
    cert = SweepContext.for_solve(spec, bspec, None).certificate
    print(f"K_min = {K_min:.3g}, chosen K = {cert.K:.3g}, weight bound M3 = {cert.M3:.4f}")

    forcing = validate_forcing(bspec)
    print(f"theta = {cert.theta:.4f}, forcing C1 norm = {forcing.h_c1_max:.4g}, "
          f"periodic to {forcing.periodicity_residual:.1e}")

    verdict = "holds" if cert.ok else "FAILS"
    print(f"certificate: theta + K L M3 = {1 - cert.margin:.6f} < 1 {verdict} "
          f"(margin {cert.margin:.4f})")

print("\nA gain of 1.2 instead would give theta = 1.2 >= 1: reflected waves"
      "\nwould gain energy and the fixed-point construction has no contraction.")
