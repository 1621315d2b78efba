"""Each check of the benchmark accepts the program's correct output and
rejects a deliberately wrong one; the Tracer replaces and restores every
namespace it touches.

    python3 -m pytest perfbench -q
"""
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads as wls

PROG = wls.load_program(Path(__file__).resolve().parent.parent / "src")
N = 16  # small grids keep the solves near one second


@pytest.fixture(scope="module")
def euler():
    wl = wls.PeriodicEuler(PROG, seed=3)
    cfg = PROG.ps.IterationConfig(Nt=N, Nx=N, tol=wls.SOLVER_TOL)
    fld, rep = PROG.ps.solve_periodic(wl.spec, wl.bspec, cfg)
    return wl, fld, rep


@pytest.fixture(scope="module")
def reflect():
    wl = wls.PeriodicReflect(PROG, seed=3)
    cfg = PROG.ps.IterationConfig(Nt=N, Nx=N, K=wls.REFLECT_SHIFT, tol=wls.SOLVER_TOL)
    fld, rep = PROG.ps.solve_periodic(wl.spec, wl.bspec, cfg)
    return wl, fld, rep


def _reflect_fails(wl, values, fld, rep):
    omega = 2 * np.pi / wls.T_STAR
    tol = checks.reflect_tolerance(wls.EPS, omega, wls.T_STAR / N, wls.REFLECT_K,
                                   wls.SOLVER_TOL)
    return checks.check_reflect(values, fld.t_nodes, fld.x_nodes,
                                wls.sine(wls.EPS, omega, wl.phase), wls.REFLECT_K,
                                wls.L, tol, rep.fitted_beta)


def test_reflect_closed_form_accepts_solution_rejects_one_node_shift(reflect):
    wl, fld, rep = reflect
    assert _reflect_fails(wl, fld.values, fld, rep) == []
    shifted = np.roll(fld.values, 1, axis=0)
    assert _reflect_fails(wl, shifted, fld, rep)


def _boundary_fails(wl, values, fld):
    omega = 2 * np.pi / wls.T_STAR
    return checks.check_boundary_relations(
        values, fld.t_nodes, wls.sine(wls.EPS, omega, wl.phase),
        wls.sine(0.5 * wls.EPS, omega, 1.0 + wl.phase), wls.K_LEFT, wls.K_RIGHT,
        tol=wls.K_LEFT * wls.SOLVER_TOL + 1e-15)


def test_boundary_relations_accept_solution_reject_broken_relation(euler):
    wl, fld, rep = euler
    assert _boundary_fails(wl, fld.values, fld) == []
    broken = fld.values.copy()
    broken[:, 0, 1] += 1e-6  # incoming component at x = 0 off its map
    assert _boundary_fails(wl, broken, fld)
    assert checks.check_contraction(rep.converged, rep.certificate.ok, rep.fitted_beta) == []
    assert checks.check_contraction(rep.converged, rep.certificate.ok, 1.0)


def test_residual_order_accepts_refinement_rejects_first_order(euler):
    wl, fld, _ = euler
    cfg = PROG.ps.IterationConfig(Nt=N // 2, Nx=N // 2, tol=wls.SOLVER_TOL)
    coarse, _ = PROG.ps.solve_periodic(wl.spec, wl.bspec, cfg)
    params = {k: wls.EULER[k] for k in ("gamma", "a", "base_c")}
    r_coarse = checks.euler_residual(coarse.values, wls.T_STAR, wls.L, **params)
    r_fine = checks.euler_residual(fld.values, wls.T_STAR, wls.L, **params)
    assert checks.check_residual_order(r_coarse, r_fine) == []
    assert checks.check_residual_order(r_coarse, r_coarse / 2)  # first order


def test_stability_accepts_decay_rejects_decay_at_or_above_one():
    phi = [(k, 0.02 * 0.4 ** k) for k in range(8)]
    floor = [(k, 1e-6) for k in range(8)]
    assert checks.check_stability(True, phi, floor, 0.4, 0.38) == []
    assert checks.check_stability(True, phi, floor, 1.0, 0.95)
    assert checks.check_stability(True, phi, floor, 1.05, 1.0)
    assert checks.check_stability(True, phi, floor, 0.4, 0.9)  # derivative off
    rising = phi[:4] + [(4, phi[3][1] * 1.5)] + phi[5:]
    assert checks.check_stability(True, rising, floor, 0.4, 0.38)
    assert checks.check_stability(False, phi, floor, 0.4, 0.38)


def test_phi_at_transits_matches_program_deviation():
    wl = wls.StabilityEuler(PROG, seed=3)
    cfg = PROG.ps.IterationConfig(Nt=N, Nx=N, tol=wls.SOLVER_TOL)
    fld, _ = PROG.ps.solve_periodic(wl.spec, wl.bspec, cfg)
    T0 = wl.spec.L * PROG.sm.measured_mu_max(wl.spec)
    u0 = fld.values[0] + 0.01 * PROG.ivp.bump_profile(fld.x_nodes, wl.spec.L)[:, None]
    traj = PROG.ivp.run(u0, wl.spec, wl.bspec, t_end=2 * T0, record_every=T0 / 4)
    rep = PROG.ivp.stability_metrics(traj, fld, wl.spec)
    ours = checks.phi_at_transits(traj.times, traj.profiles, fld.values, wls.T_STAR,
                                  T0, T0 / 4)
    theirs = dict(rep.phi_samples)
    assert [k for k, _ in ours] == [0, 1, 2]
    for k, p in ours:
        assert p == pytest.approx(theirs[traj.times[4 * k]], rel=1e-9, abs=1e-15)


def test_theta_accepts_program_rejects_off_by_1e3():
    wl = wls.ThetaDesigns(PROG, seed=3)
    design = next(d for d in wl.designs if d.gains.shape[0] == 5)
    data = PROG.bd.characterizing_data(design.bspec)
    assert checks.check_theta(design.gains, data.theta, data.optimal_scaling) == []
    assert checks.check_theta(design.gains, data.theta + 1e-3, data.optimal_scaling)
    assert checks.check_theta(design.gains, data.theta, np.ones(5))  # not a minimizer
    forcing = PROG.bd.validate_forcing(design.bspec)
    args = (forcing.h_c1_norms, forcing.periodicity_residual, forcing.gain_at_origin,
            forcing.rescaled, design.amplitudes, design.omegas)
    assert checks.check_forcing(*args, design.forcing_gains, wls.FORCING_SAMPLES,
                                wls.T_STAR) == []
    assert checks.check_forcing(*args, design.forcing_gains + 1e-6, wls.FORCING_SAMPLES,
                                wls.T_STAR)


def test_absorbing_design_fails_with_the_named_error_only():
    wl = wls.ThetaDesigns(PROG, seed=3)
    out = wl.op(None)
    assert wl.failures(out) == 1
    assert isinstance(out[-1], PROG.errors.ConvergenceError) and not wl.designs[-1].dense
    assert wl.check([out]) == []


def test_irreducibility():
    assert checks.is_irreducible(np.array([[0, 1], [1, 0]]))
    assert not checks.is_irreducible(wls.ABSORBING)


def test_tracer_replaces_every_namespace_and_restores():
    sm, ps, ivp = PROG.sm, PROG.ps, PROG.ivp
    import periodic_hyp.characteristics as ch
    original = sm.eigen_fields
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sm.eigen_fields is not original
        assert ps.eigen_fields is sm.eigen_fields is ivp.eigen_fields is ch.eigen_fields
        tracer.op = 0
        sm.eigen_fields(wls.PeriodicEuler(PROG, 1).spec, np.zeros((3, 2)))
    finally:
        tracer.uninstall()
    assert sm.eigen_fields is original and ps.eigen_fields is original
    assert not hasattr(ch.Field.interpolate, "__wrapped__")
    calls, total, _, states = tracer.totals()["system_model.eigen_fields"]
    assert calls == 1 and states == 3 and total > 0
    inner = tracer.totals()["system_model.SystemSpec.A_at"]
    assert inner[0] == 1
    eigen_span = tracer.spans[0]
    a_span = next(s for s in tracer.spans if tracer.names[s[0]].endswith("A_at"))
    assert a_span[3] == 0 and eigen_span[3] == -1  # A_at nested in eigen_fields
