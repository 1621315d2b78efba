"""Acceptance suite: one test per criterion, each printing a verdict line.

Expensive solves are shared through module-scoped fixtures; the stated
runtime budgets cover the work a criterion adds on top of them.
Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from periodic_hyp import boundary as bd
from periodic_hyp import cli
from periodic_hyp import diagnostics as dg
from periodic_hyp import ivp_solver as ivp
from periodic_hyp import periodic_solver as ps
from periodic_hyp import systems
from periodic_hyp.system_model import (
    coupling_B,
    eigen_fields,
    g_nonlinear,
    gtilde_matrix,
    neighborhood_samples,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPS = 0.01


def e1_exact(t, x):
    return EPS * np.exp(-0.5 * x) * np.sin(2 * np.pi * (t - x))


def make_e1():
    spec = systems.linear_damped_scalar()
    h = systems.harmonic_signal([{"amplitude": EPS}], 1.0)
    return spec, systems.scalar_inflow_boundary(h, 1.0)


def make_e2():
    spec = systems.linear_reflect_2x2()
    h1 = systems.harmonic_signal([{"amplitude": EPS}], 2.0)
    return spec, systems.reflection_boundary(0.5, h1, systems.zero_signal, 2.0)


def make_euler():
    spec = systems.quasilinear_euler_damping()
    h1 = systems.harmonic_signal([{"amplitude": EPS}], 2.0)
    h2 = systems.harmonic_signal([{"amplitude": 0.5 * EPS, "phase": 1.0}], 2.0)
    return spec, systems.two_gain_boundary(0.5, 0.5, h1, h2, 2.0)


@pytest.fixture(scope="module")
def e1_solves():
    spec, bspec = make_e1()
    t0 = time.perf_counter()
    out = {}
    for N in (256, 512):
        fld, rep = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=N, Nx=N))
        assert rep.converged
        out[N] = fld
    out["runtime"] = time.perf_counter() - t0
    out["spec"], out["bspec"] = spec, bspec
    return out


@pytest.fixture(scope="module")
def e2_solve():
    spec, bspec = make_e2()
    fld, rep = ps.solve_periodic(
        spec, bspec, ps.IterationConfig(Nt=256, Nx=256, K=1e-6))
    assert rep.converged
    return {"spec": spec, "bspec": bspec, "field": fld, "report": rep}


@pytest.fixture(scope="module")
def euler_solves():
    spec, bspec = make_euler()
    out = {"spec": spec, "bspec": bspec}
    for N in (128, 256):
        fld, rep = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=N, Nx=N))
        assert rep.converged
        out[N] = fld
    return out


def _stability_run(spec, bspec, fld, t_end_transits=12.0):
    # the decay is observable only while Phi sits above the discretization
    # mismatch between the two solvers, so an unperturbed reference run
    # measures that floor and gates the T0 sequence and the fits
    from periodic_hyp.system_model import measured_mu_max
    T0 = spec.L * measured_mu_max(spec)
    record_every = T0 / 4.0
    n = max(1, int(round(t_end_transits * T0 / record_every)))
    base = ps.extract_initial_data(fld)
    u0 = base + 0.5 * EPS * ivp.bump_profile(fld.x_nodes, spec.L)[:, None]
    traj = ivp.run(u0, spec, bspec, t_end=n * record_every,
                   record_every=record_every)
    assert traj.completed
    floor = ivp.run(base, spec, bspec, t_end=n * record_every,
                    record_every=record_every)
    assert floor.completed
    return ivp.stability_metrics(traj, fld, spec, floor_traj=floor)


@pytest.fixture(scope="module")
def e2_stability(e2_solve):
    t0 = time.perf_counter()
    rep = _stability_run(e2_solve["spec"], e2_solve["bspec"], e2_solve["field"])
    return {"report": rep, "runtime": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def euler_stability(euler_solves):
    t0 = time.perf_counter()
    rep = _stability_run(euler_solves["spec"], euler_solves["bspec"],
                         euler_solves[256])
    return {"report": rep, "runtime": time.perf_counter() - t0}


def test_criterion_1_linear_scalar_oracle(e1_solves):
    errs = {}
    for N in (256, 512):
        fld = e1_solves[N]
        tp = (np.arange(2 * N) + 0.5) * (1.0 / (2 * N))
        xp = (np.arange(2 * N) + 0.5) * (1.0 / (2 * N))
        probe = fld.interpolate(tp[:, None], xp[None, :])[..., 0]
        errs[N] = float(np.abs(probe - e1_exact(tp[:, None], xp[None, :])).max())
    assert errs[256] <= 5e-5
    assert errs[256] / errs[512] >= 3.2
    assert e1_solves["runtime"] <= 30.0
    print(f"\nPASS criterion 1: sup error {errs[256]:.3e} <= 5e-5 at 256^2, "
          f"shrink x{errs[256] / errs[512]:.2f} at 512^2, "
          f"runtime {e1_solves['runtime']:.1f}s <= 30s")


def test_criterion_2_reflection_oracle(e2_solve):
    # brute-force oracle, rebuilt here before asserting: the lagged
    # boundary recursion bc1 <- h1 + k bc2(t - L), bc2 <- k bc1(t - L)
    # on the time circle of period 2L shows each sweep adds one transport
    # leg (factor k = 0.5), and the steady state is h1 / (1 - k^2)
    k, L, N = 0.5, 1.0, 4096
    t = np.arange(N) * (2.0 / N)
    h1 = EPS * np.sin(np.pi * t)
    shift = N // 2
    bc1 = np.zeros(N)
    bc2 = np.zeros(N)
    deltas = []
    for _ in range(30):
        n1 = h1 + k * np.roll(bc2, shift)
        n2 = k * np.roll(bc1, shift)
        deltas.append(max(np.abs(n1 - bc1).max(), np.abs(n2 - bc2).max()))
        bc1, bc2 = n1, n2
    oracle_beta = ps.fit_contraction_rate(deltas)
    oracle_amp = np.abs(bc1).max()
    assert oracle_amp == pytest.approx(EPS / (1 - k**2), rel=1e-9)
    assert 0.4 < oracle_beta < 0.6  # one leg per sweep, k per sweep

    fld, rep = e2_solve["field"], e2_solve["report"]
    amp = np.abs(fld.values[:, -1, 0]).max()
    assert amp == pytest.approx(EPS / (1 - k**2), abs=2e-4)
    assert 0.4 < rep.fitted_beta < 0.6
    assert abs(rep.fitted_beta - oracle_beta) <= 0.05
    print(f"\nPASS criterion 2: steady amplitude {amp:.6f} "
          f"(oracle {oracle_amp:.6f}, tol 2e-4), fitted ratio "
          f"{rep.fitted_beta:.3f} in (0.4, 0.6) per brute-force recursion")


def test_criterion_3_characterizing_number():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        th = np.zeros((n, n))
        th[:m, m:] = rng.uniform(0.05, 1.0, (m, n - m))
        th[m:, :m] = rng.uniform(0.05, 1.0, (n - m, m))
        value, _ = bd.minimal_characterizing_number(th)
        rho = float(np.abs(np.linalg.eigvals(np.abs(th))).max())
        worst = max(worst, abs(value - rho))
    assert worst <= 1e-6
    value, _ = bd.minimal_characterizing_number(np.array([[0.0, 0.3], [0.12, 0.0]]))
    assert value == pytest.approx(np.sqrt(0.036), abs=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0
    print(f"\nPASS criterion 3: 100 random block matrices, worst method "
          f"disagreement {worst:.2e} <= 1e-6; sqrt(0.036) case exact to 1e-8; "
          f"{elapsed:.2f}s <= 5s")


def test_criterion_4_existence_invariants(e1_solves, e2_solve, euler_solves):
    # periodicity is structural: one period later is the same grid row
    fld = e2_solve["field"]
    shifted = fld.interpolate(fld.t_nodes + fld.T_star, 0.25)
    assert np.array_equal(shifted, fld.interpolate(fld.t_nodes, 0.25))

    # zero forcing pins the zero fixed point exactly
    spec, _ = make_e1()
    zb = systems.scalar_inflow_boundary(systems.zero_signal, 1.0)
    zfld, zrep = ps.solve_periodic(spec, zb, ps.IterationConfig(Nt=32, Nx=32))
    assert zrep.converged and zrep.iterations == 1
    assert np.abs(zfld.values).max() == 0.0

    orders = {}
    pairs = {
        "scalar": (make_e1(), (128, 256)),
        "reflect": (make_e2(), (128, 256)),
        "euler": (make_euler(), (128, 256)),
    }
    cached = {"euler": euler_solves, "scalar": {256: e1_solves[256]},
              "reflect": {256: e2_solve["field"]}}
    for name, ((spec, bspec), (Na, Nb)) in pairs.items():
        res = []
        for N in (Na, Nb):
            fldN = cached.get(name, {}).get(N)
            if fldN is None:
                K = 1e-6 if name == "reflect" else None
                fldN, _ = ps.solve_periodic(
                    spec, bspec, ps.IterationConfig(Nt=N, Nx=N, K=K))
            res.append(dg.pde_residual(fldN, spec))
        orders[name] = np.log2(res[0] / res[1])
        assert orders[name] >= 1.7, (name, res)
    print("\nPASS criterion 4: periodicity exact on grid, zero fixed point "
          "exact, residual orders " +
          ", ".join(f"{k}={v:.2f}" for k, v in orders.items()) + " (>= 1.7)")


def test_criterion_5_decay_envelope(e2_stability, euler_stability):
    for name, cell, window in (("reflect", e2_stability, (0.4, 0.6)),
                               ("euler", euler_stability, None)):
        rep = cell["report"]
        assert rep.fitted_decay is not None and rep.fitted_decay < 1.0
        # the T0 sequence is floor-gated: every retained multiple must obey
        # the envelope from k = 2 on, and enough must be retained to mean
        # something
        phis = [p for k, t, p in rep.phi_at_T0]
        assert len(phis) >= 7, name
        for k in range(2, len(phis) - 1):
            assert phis[k + 1] <= phis[k] + 1e-14, (name, k)
        if window:
            assert window[0] < rep.fitted_decay < window[1]
        assert cell["runtime"] <= 120.0
    print(f"\nPASS criterion 5: per-transit decay reflect="
          f"{e2_stability['report'].fitted_decay:.3f} in (0.4, 0.6), euler="
          f"{euler_stability['report'].fitted_decay:.3f} < 1, envelopes "
          f"monotone for k >= 2 above the measured floor, runtimes "
          f"{e2_stability['runtime']:.0f}s/{euler_stability['runtime']:.0f}s <= 120s")


def test_criterion_6_derivative_decay(e2_stability, euler_stability):
    msgs = []
    for name, cell in (("reflect", e2_stability), ("euler", euler_stability)):
        rep = cell["report"]
        assert rep.fitted_derivative_decay is not None
        lo, hi = rep.fitted_decay / 2, rep.fitted_decay * 2
        assert lo <= rep.fitted_derivative_decay <= hi, name
        msgs.append(f"{name}: {rep.fitted_derivative_decay:.3f} vs "
                    f"{rep.fitted_decay:.3f}")
    print("\nPASS criterion 6: derivative decay within factor 2 of value "
          "decay (" + "; ".join(msgs) + ")")


def test_criterion_7_regularity_boundedness(euler_solves):
    reps = {N: dg.regularity_measurements(euler_solves[N]) for N in (128, 256)}
    ratios = {}
    for name in ("d2t", "dtdx", "d2x"):
        a, b = getattr(reps[128], name), getattr(reps[256], name)
        ratios[name] = b / a
        assert 1 / 1.2 <= ratios[name] <= 1.2, (name, a, b)
    print("\nPASS criterion 7: second-difference sups change by " +
          ", ".join(f"{k}: {abs(v - 1) * 100:.1f}%" for k, v in ratios.items()) +
          " (<= 20%) between 128^2 and 256^2")


def test_criterion_8_hypothesis_gates(tmp_path):
    import yaml

    def cfg_variant(**changes):
        data = {
            "system": {"name": "linear_reflect_2x2",
                       "params": {"speed": 1.0, "L": 1.0, "domain_radius": 0.1}},
            "boundary": {"T_star": 2.0, "gains": {"k": 0.5},
                         "forcing": [[{"amplitude": 1.0, "harmonic": 1}], []]},
            "grid": {"Nt": 32, "Nx": 32},
            "solver": {"K": 1e-6},
            "experiment": {"eps": [0.01]},
        }
        for path, value in changes.items():
            node = data
            *front, last = path.split(".")
            for key in front:
                node = node[key]
            node[last] = value
        p = tmp_path / f"{len(list(tmp_path.iterdir()))}.yaml"
        p.write_text(yaml.safe_dump(data))
        return str(p)

    assert cli.run(["validate", "--config", cfg_variant(**{"boundary.gains": {"k": 1.2}})]) == 3
    assert cli.run(["validate", "--config", cfg_variant(**{"solver.K": 0.0})]) == 3
    assert cli.run(["validate", "--config",
                    cfg_variant(**{"system.params": {"speed": 0.5}})]) == 3
    for name in ("linear_damped_scalar.yaml", "linear_reflect_2x2.yaml",
                 "quasilinear_euler_damping.yaml", "sweep_reflect.yaml"):
        assert cli.run(["validate", "--config", str(CONFIGS / name)]) == 0, name
    print("\nPASS criterion 8: exit 3 for supercritical gain, undersized K, "
          "and slow speeds; exit 0 for all shipped configs")


def test_criterion_9_structural_invariants():
    t0 = time.perf_counter()
    euler = make_euler()
    specs = {"scalar": make_e1()[0], "reflect": make_e2()[0], "euler": euler[0]}

    # the built-ins are written in Riemann invariants: A gives the speeds
    # of a diagonal A, at sampled states these are the speeds, no bases
    # are built and the couplings vanish
    for name, spec in specs.items():
        assert spec.gives_speeds
        pts = neighborhood_samples(spec, 64)
        lam, left, right, _ = eigen_fields(spec, pts)
        assert left is None and right is None
        assert np.array_equal(lam, spec.A_at(pts))
        for u in pts[::8]:
            assert np.array_equal(coupling_B(spec, u), np.zeros((spec.n, spec.n)))

    # quadratic smallness of the superlinear remainder (state-dependent
    # speeds make it nontrivial for the euler system)
    spec = specs["euler"]
    direction = np.array([0.6, 0.8])
    vals = []
    for r in (1e-2, 5e-3, 2.5e-3):
        g = g_nonlinear(spec, r * direction)
        vals.append(np.linalg.norm(g) / r**2)
    assert max(vals) <= 2.0 * min(vals)

    # central-difference gradient of the remainder vanishes at the origin
    h = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        grad = (g_nonlinear(spec, e) - g_nonlinear(spec, -e)) / (2 * h)
        assert np.abs(grad).max() <= 1e-8

    # weight bounds on a dense sample: the weighted norm's weights
    # exp(g_ii (L - x)) (left-moving) and exp(-g_ii x) (right-moving) lie
    # in [1, M3] and are 1 at their family's far end
    g, L = np.diag(gtilde_matrix(specs["euler"], 1e-6)), specs["euler"].L
    M3 = ps.SweepContext.for_solve(*euler, 1e-6).certificate.M3
    x = np.linspace(0.0, L, 1024)
    left, right = np.exp(g[0] * (L - x)), np.exp(-g[1] * x)
    for w in (left, right):
        assert np.all(w >= 1.0 - 1e-12) and np.all(w <= M3 + 1e-12)
    assert left[-1] == 1.0 and right[0] == 1.0
    assert max(left.max(), right.max()) == pytest.approx(M3, rel=1e-15)

    # certificate arithmetic
    assert dg.smallness_certificate(0.5, 0.0, 1.0, 2.0).ok
    assert dg.smallness_certificate(0.5, 0.0, 1.0, 2.0).margin == pytest.approx(0.5)
    assert not dg.smallness_certificate(0.5, 0.3, 1.0, 2.0).ok
    assert dg.smallness_certificate(0.9999, 0.0, 1.0, 2.0).margin == pytest.approx(1e-4)

    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    print(f"\nPASS criterion 9: diagonal speeds without bases, zero coupling, "
          f"quadratic remainder halving, weight bounds, certificate "
          f"arithmetic all green in {elapsed:.1f}s <= 60s")
