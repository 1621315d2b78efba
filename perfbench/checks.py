"""Output checks of the benchmark, computed apart from the program.

Every check takes plain numbers and arrays and returns a list of failure
messages (empty when the output is correct). Nothing here imports the
program: the closed forms, boundary maps, stencils, Perron roots and
forcing norms are rebuilt from the workload parameters with numpy alone.
Each tolerance is derived from the order of the scheme that produced the
output, not from observed values.
"""
from __future__ import annotations

import numpy as np

# 4-point Lagrange interpolation at fraction s of a cell errs by at most
# max|(s+1) s (s-1) (s-2)| / 4! = (9/16) / 24 = 3/128 times h^4 max|f''''|
CUBIC_INTERP_CONST = 3.0 / 128.0
# observed order a second-order residual must reach between a grid and
# its half; the 0.3 slack covers the pre-asymptotic part of the error on
# the coarse grids a timed benchmark can afford
MIN_RESIDUAL_ORDER = 1.7
# absolute slack on "Phi does not increase": rounding of a max-norm of
# O(1e-2) states
MONOTONE_SLACK = 1e-14
PERRON_TOL = 1e-6
# central difference of a linear map with step 1e-6: rounding only
GAIN_TOL = 1e-8


def reflect_closed_form(t, x, h1, k: float, L: float):
    """u1 = h1(t - (L - x)) / (1 - k^2), u2 = k h1(t - L - x) / (1 - k^2)."""
    u1 = h1(t - (L - x)) / (1.0 - k * k)
    u2 = k * h1(t - L - x) / (1.0 - k * k)
    return u1, u2


def reflect_tolerance(amplitude: float, omega: float, dt: float, k: float,
                      solver_tol: float) -> float:
    """Sup error bound of the lagged sweep on the reflection problem.

    Each sweep reads the other family's outgoing trace at the foot of a
    characteristic by cubic interpolation in time (error I below) and
    scales it by k, so the fixed point errs by at most k I / (1 - k); the
    stopped iteration adds at most the last delta times k / (1 - k).
    """
    amp = amplitude / (1.0 - k * k)
    interp = CUBIC_INTERP_CONST * (omega * dt) ** 4 * amp
    return (interp + solver_tol) * k / (1.0 - k)


def check_reflect(values, t_nodes, x_nodes, h1, k: float, L: float,
                  tol: float, fitted_beta) -> list:
    """Field against the closed form; contraction ratio one leg per sweep."""
    fails = []
    t = np.asarray(t_nodes)[:, None]
    x = np.asarray(x_nodes)[None, :]
    u1, u2 = reflect_closed_form(t, x, h1, k, L)
    err = max(float(np.abs(values[..., 0] - u1).max()),
              float(np.abs(values[..., 1] - u2).max()))
    if not err <= tol:
        fails.append(f"reflect field misses the closed form by {err:.3e} > {tol:.3e}")
    if fitted_beta is None or not 0.4 < fitted_beta < 0.6:
        fails.append(f"reflect contraction ratio {fitted_beta} outside (0.4, 0.6)")
    return fails


def check_boundary_relations(values, t_nodes, h1, h2, k_left: float,
                             k_right: float, tol: float) -> list:
    """u2(t, 0) = h2 + k_left u1(t, 0) and u1(t, L) = h1 + k_right u2(t, L).

    The sweep reads the outgoing trace from the previous iterate, so at
    the stop the relation holds to the gain times the last delta (tol).
    """
    t = np.asarray(t_nodes)
    left = values[:, 0, 1] - (h2(t) + k_left * values[:, 0, 0])
    right = values[:, -1, 0] - (h1(t) + k_right * values[:, -1, 1])
    worst = max(float(np.abs(left).max()), float(np.abs(right).max()))
    if not worst <= tol:
        return [f"euler boundary relation violated by {worst:.3e} > {tol:.3e}"]
    return []


def euler_residual(values, T_star: float, L: float, gamma: float, a: float,
                   base_c: float) -> float:
    """Sup of u_t + A(u) u_x - F(u) over the interior grid.

    Central differences in t (periodic) and x; A(u) = diag(v - c, v + c)
    and F(u) = -a (v, v) with v = (u1 + u2) / 2 and
    c = base_c + (gamma - 1) (u2 - u1) / 4, written out here from the
    Riemann-invariant form of damped isentropic flow.
    """
    Nt, Nx = values.shape[0], values.shape[1] - 1
    dt, dx = T_star / Nt, L / Nx
    ut = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2 * dt)
    ux = (values[:, 2:] - values[:, :-2]) / (2 * dx)
    u = values[:, 1:-1]
    v = 0.5 * (u[..., 0] + u[..., 1])
    c = base_c + 0.25 * (gamma - 1.0) * (u[..., 1] - u[..., 0])
    r1 = ut[:, 1:-1, 0] + (v - c) * ux[..., 0] + a * v
    r2 = ut[:, 1:-1, 1] + (v + c) * ux[..., 1] + a * v
    return float(max(np.abs(r1).max(), np.abs(r2).max()))


def check_residual_order(res_coarse: float, res_fine: float) -> list:
    """Second-order stencils: halving the spacing divides the residual by 4."""
    if not (res_fine > 0 and res_coarse > 0):
        return [f"residuals must be positive, got {res_coarse} and {res_fine}"]
    order = float(np.log2(res_coarse / res_fine))
    if not order >= MIN_RESIDUAL_ORDER:
        return [f"balance-law residual order {order:.2f} < {MIN_RESIDUAL_ORDER}"]
    return []


def check_contraction(converged: bool, certificate_ok: bool, fitted_beta) -> list:
    fails = []
    if not converged:
        fails.append("periodic solve did not converge")
    if not certificate_ok:
        fails.append("smallness certificate theta + K L M3 < 1 fails")
    if fitted_beta is None or not fitted_beta < 1.0:
        fails.append(f"fitted contraction ratio {fitted_beta} is not below 1")
    return fails


def phi_at_transits(times, profiles, field_values, T_star: float, T0: float,
                    cadence: float) -> list:
    """(k, Phi) at the recorded samples nearest k T0, k = 0, 1, ...

    Phi is the sup over x and components of |u(t) - periodic(t)|, with
    the periodic field linear in t between its rows; the trajectory and
    the field share the spatial nodes, so no x interpolation is needed.
    """
    Nt = field_values.shape[0]
    out = []
    k = 0
    for t_s, prof in zip(times, profiles):
        if abs(t_s - k * T0) > cadence / 2:
            continue
        s = (t_s / T_star - np.floor(t_s / T_star)) * Nt
        j0 = int(np.floor(s)) % Nt
        w = s - np.floor(s)
        ref = (1 - w) * field_values[j0] + w * field_values[(j0 + 1) % Nt]
        out.append((k, float(np.abs(np.asarray(prof) - ref).max())))
        k += 1
    return out


def check_stability(completed: bool, phi: list, floor_phi: list,
                    fitted_decay, fitted_derivative_decay) -> list:
    """Decay toward the periodic solution, from 2 T0 down to the floor.

    phi and floor_phi are (k, Phi) sequences of the perturbed and the
    unperturbed run; samples within 10x of the floor are below what the
    two solvers can resolve and end the sequence.
    """
    fails = []
    if not completed:
        fails.append("perturbed run left the neighborhood before t_end")
    floor = dict(floor_phi)
    above = []
    for k, p in phi:
        if p <= 10.0 * floor.get(k, 0.0):
            break
        above.append((k, p))
    tail = [p for k, p in above if k >= 2]
    if len(tail) < 2:
        fails.append(f"only {len(tail)} transit samples above the floor from 2 T0")
    for a, b in zip(tail, tail[1:]):
        if b > a + MONOTONE_SLACK:
            fails.append(f"Phi increases between transits: {a:.3e} -> {b:.3e}")
            break
    if fitted_decay is None or not fitted_decay < 1.0:
        fails.append(f"per-transit decay {fitted_decay} is not below 1")
    elif (fitted_derivative_decay is None
          or not fitted_decay / 2 <= fitted_derivative_decay <= 2 * fitted_decay):
        fails.append(f"derivative decay {fitted_derivative_decay} not within a "
                     f"factor 2 of the decay {fitted_decay}")
    return fails


def is_irreducible(matrix) -> bool:
    """Strong connectivity of the graph of nonzero entries."""
    G = np.asarray(matrix) != 0
    n = G.shape[0]

    def reaches_all(adj):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in np.nonzero(adj[i])[0]:
                if int(j) not in seen:
                    seen.add(int(j))
                    stack.append(int(j))
        return len(seen) == n

    return reaches_all(G) and reaches_all(G.T)


def check_theta(gains, value: float, scaling) -> list:
    """theta is the Perron root of |gains|; the scaling attains it.

    For a nonnegative matrix the infimum over positive diagonal scalings
    of the max row sum is its spectral radius, attained when the matrix
    is irreducible (by the Perron vector).
    """
    absG = np.abs(np.asarray(gains, dtype=float))
    rho = float(np.abs(np.linalg.eigvals(absG)).max())
    fails = []
    if not abs(value - rho) <= PERRON_TOL:
        fails.append(f"theta {value:.9f} differs from the Perron root "
                     f"{rho:.9f} by more than {PERRON_TOL}")
    if is_irreducible(absG):
        g = np.asarray(scaling, dtype=float)
        attained = float((g[:, None] * absG / g[None, :]).sum(axis=1).max())
        if not abs(attained - rho) <= PERRON_TOL:
            fails.append(f"scaling attains {attained:.9f}, Perron root {rho:.9f}")
    return fails


def check_forcing(h_c1_norms, periodicity_residual: float, gain_at_origin,
                  rescaled: bool, amplitudes, omegas, forcing_gains,
                  samples_per_period: int, T_star: float) -> list:
    """Measured forcing norms and gains against the designed signals.

    Signals are amp sin(omega t + phase); their C1 norm is
    max(amp, amp omega). The measurement samples 4096 points per period
    with central differences: the derivative errs by (omega dt)^2 / 6 and
    the sampled sup misses the peak by at most (omega dt)^2 / 8, both
    relative, so (omega dt)^2 bounds the relative error.
    """
    fails = []
    dt = T_star / samples_per_period
    amps = np.asarray(amplitudes, dtype=float)
    om = np.asarray(omegas, dtype=float)
    exact = np.maximum(amps, amps * om)
    rel = np.abs(np.asarray(h_c1_norms) - exact) / exact
    if not np.all(rel <= (om * dt) ** 2):
        fails.append(f"forcing C1 norms off by up to {rel.max():.2e} relative")
    if not periodicity_residual <= 1e-12:
        fails.append(f"periodicity residual {periodicity_residual:.2e} of exact sines")
    gain_err = np.abs(np.asarray(gain_at_origin) - np.asarray(forcing_gains))
    if not np.all(gain_err <= GAIN_TOL):
        fails.append(f"forcing gain at origin off by {gain_err.max():.2e}")
    if bool(rescaled) != bool(np.abs(forcing_gains).max() > 0.5):
        fails.append("rescaling flag does not match a forcing gain above 1/2")
    return fails
