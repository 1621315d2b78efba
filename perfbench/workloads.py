"""The benchmark's workloads: inputs from the seed, set-up, the timed
operation and the checks of its outputs.

Each workload is built in two steps that the set-up time covers: the
constructor makes the inputs from the seed, ``setup`` runs what the timed
operation needs (reference solve, floor run) and one warm-up operation.
``prepare(rep)`` makes the untimed per-repetition input, ``op`` is the
timed operation and ``check`` returns failure messages for its outputs.
The program is reached through module attributes only (``prog.ps``,
``prog.ivp``, ...), so a Tracer's replacements apply to every call.
"""
from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import numpy as np

import checks

EPS = 0.01          # forcing amplitude of the shipped configs
T_STAR = 2.0
L = 1.0
SOLVER_TOL = 1e-10
GRID = 32           # Nt = Nx of every PDE workload
EULER = dict(gamma=2.0, a=0.5, base_c=1.25, L=L, domain_radius=0.05)
K_LEFT = K_RIGHT = 0.5
REFLECT_K = 0.5
REFLECT_SHIFT = 1e-6  # solver.K of the shipped reflection config
PERTURBATION = 0.02   # 2-norm of the bump direction added to the periodic state
TRANSITS = 12
SAMPLES_PER_TRANSIT = 4
DESIGNS_PER_SHAPE = 2  # dense designs for each (n, m), n = 2..6
GAIN_FAMILY_SEED = 0   # generator of the dense gain matrices, fixed
FORCING_SAMPLES = 4096  # points per period validate_forcing measures on
# one end absorbs: the Perron root is 0 and the method agreement gate of
# minimal_characterizing_number fails on it every time
ABSORBING = np.array([[0, 0, .5, .5], [0, 0, .5, .5], [0, 0, 0, 0], [0, 0, 0, 0]])
ABSORBING_M = 2


def load_program(src) -> types.SimpleNamespace:
    """Import the package from the checkout's source tree, nowhere else."""
    src = Path(src).resolve()
    if not (src / "periodic_hyp" / "__init__.py").is_file():
        raise ImportError(f"no periodic_hyp package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("periodic_hyp")
    if Path(pkg.__file__).resolve().parent != src / "periodic_hyp":
        raise ImportError(f"periodic_hyp imported from {pkg.__file__}, not {src}")
    mods = {short: importlib.import_module(f"periodic_hyp.{full}") for short, full in (
        ("bd", "boundary"), ("ps", "periodic_solver"), ("ivp", "ivp_solver"),
        ("sm", "system_model"), ("systems", "systems"), ("errors", "errors"))}
    return types.SimpleNamespace(**mods)


def sine(amplitude: float, omega: float, phase: float):
    """amplitude sin(omega t + phase), the benchmark's own forcing signal."""
    return lambda t: amplitude * np.sin(omega * np.asarray(t, dtype=float) + phase)


def euler_boundary(prog, phase: float):
    """The shipped Euler config's gains and forcing, shifted by a phase."""
    sig = prog.systems.harmonic_signal
    h1 = sig([{"amplitude": 1.0, "harmonic": 1, "phase": phase}], T_STAR, scale=EPS)
    h2 = sig([{"amplitude": 0.5, "harmonic": 1, "phase": 1.0 + phase}], T_STAR, scale=EPS)
    return prog.systems.two_gain_boundary(K_LEFT, K_RIGHT, h1, h2, T_STAR)


class Workload:
    ops_per_rep = 1

    def prepare(self, rep: int):
        return None

    def failures(self, output) -> int:
        return 0


class PeriodicSolve(Workload):
    """One solve_periodic from the zero field to SOLVER_TOL per operation."""

    def setup(self):
        self.op(None)

    def op(self, _):
        return self.prog.ps.solve_periodic(self.spec, self.bspec, self.cfg)


class PeriodicEuler(PeriodicSolve):
    """solve_periodic on the damped Euler system with the shipped gains and
    forcing, both signals shifted by a seeded phase."""

    name = "periodic_euler"

    def __init__(self, prog, seed: int):
        self.prog = prog
        self.phase = float(np.random.default_rng(seed).uniform(0.0, 2 * np.pi))
        self.spec = prog.systems.quasilinear_euler_damping(**EULER)
        self.bspec = euler_boundary(prog, self.phase)
        self.cfg = prog.ps.IterationConfig(Nt=GRID, Nx=GRID, tol=SOLVER_TOL)

    def check(self, outputs) -> list:
        omega = 2 * np.pi / T_STAR
        h1 = sine(EPS, omega, self.phase)
        h2 = sine(0.5 * EPS, omega, 1.0 + self.phase)
        fails = []
        for fld, rep in outputs:
            fails += checks.check_contraction(rep.converged, rep.certificate.ok,
                                              rep.fitted_beta)
            fails += checks.check_boundary_relations(
                fld.values, fld.t_nodes, h1, h2, K_LEFT, K_RIGHT,
                tol=max(K_LEFT, K_RIGHT) * SOLVER_TOL + 1e-15)
        # the refinement pair: workload grid and its half, once per run
        half_cfg = self.prog.ps.IterationConfig(Nt=GRID // 2, Nx=GRID // 2, tol=SOLVER_TOL)
        half, _ = self.prog.ps.solve_periodic(self.spec, self.bspec, half_cfg)
        params = {k: EULER[k] for k in ("gamma", "a", "base_c")}
        fails += checks.check_residual_order(
            checks.euler_residual(half.values, T_STAR, L, **params),
            checks.euler_residual(outputs[-1][0].values, T_STAR, L, **params))
        return fails


class PeriodicReflect(PeriodicSolve):
    """solve_periodic on the gain-k reflection pair with T* = 2L, where the
    characteristics never change between sweeps."""

    name = "periodic_reflect"

    def __init__(self, prog, seed: int):
        self.prog = prog
        self.phase = float(np.random.default_rng(seed).uniform(0.0, 2 * np.pi))
        self.spec = prog.systems.linear_reflect_2x2(speed=1.0, L=L, domain_radius=0.1)
        h1 = prog.systems.harmonic_signal(
            [{"amplitude": 1.0, "harmonic": 1, "phase": self.phase}], T_STAR, scale=EPS)
        self.bspec = prog.systems.reflection_boundary(
            REFLECT_K, h1, prog.systems.zero_signal, T_STAR)
        self.cfg = prog.ps.IterationConfig(Nt=GRID, Nx=GRID, K=REFLECT_SHIFT, tol=SOLVER_TOL)

    def check(self, outputs) -> list:
        omega = 2 * np.pi / T_STAR
        tol = checks.reflect_tolerance(EPS, omega, T_STAR / GRID, REFLECT_K, SOLVER_TOL)
        fails = []
        for fld, rep in outputs:
            if not rep.converged:
                fails.append("reflect solve did not converge")
            fails += checks.check_reflect(fld.values, fld.t_nodes, fld.x_nodes,
                                          sine(EPS, omega, self.phase), REFLECT_K, L,
                                          tol, rep.fitted_beta)
        return fails


class StabilityEuler(Workload):
    """A perturbed ivp.run over 12 transit times plus stability_metrics
    against the Euler periodic field; one seeded perturbation phase per
    repetition, the same step count in all."""

    name = "stability_euler"

    def __init__(self, prog, seed: int):
        self.prog = prog
        self.rng = np.random.default_rng(seed)
        self.spec = prog.systems.quasilinear_euler_damping(**EULER)
        self.bspec = euler_boundary(prog, 0.0)

    def setup(self):
        ps, ivp = self.prog.ps, self.prog.ivp
        cfg = ps.IterationConfig(Nt=GRID, Nx=GRID, tol=SOLVER_TOL)
        self.field, _ = ps.solve_periodic(self.spec, self.bspec, cfg)
        self.T0 = self.spec.L * self.prog.sm.measured_mu_max(self.spec)
        self.record_every = self.T0 / SAMPLES_PER_TRANSIT
        self.t_end = TRANSITS * SAMPLES_PER_TRANSIT * self.record_every
        self.base = ps.extract_initial_data(self.field)
        self.bump = ivp.bump_profile(self.field.x_nodes, self.spec.L)
        self.floor = ivp.run(self.base, self.spec, self.bspec, t_end=self.t_end,
                             record_every=self.record_every)
        self.op(self.prepare(-1))

    def prepare(self, rep: int):
        phi = self.rng.uniform(0.0, 2 * np.pi)
        direction = np.array([np.cos(phi), np.sin(phi)])
        return self.base + PERTURBATION * self.bump[:, None] * direction[None, :]

    def op(self, u0):
        ivp = self.prog.ivp
        traj = ivp.run(u0, self.spec, self.bspec, t_end=self.t_end,
                       record_every=self.record_every)
        return traj, ivp.stability_metrics(traj, self.field, self.spec,
                                           floor_traj=self.floor)

    def _phi(self, traj):
        return checks.phi_at_transits(traj.times, traj.profiles, self.field.values,
                                      T_STAR, self.T0, self.record_every)

    def check(self, outputs) -> list:
        fails = []
        floor_phi = self._phi(self.floor)
        shapes = {(len(traj.times), traj.dt_used) for traj, _ in outputs}
        if len(shapes) != 1:
            fails.append(f"repetitions differ in step count: {sorted(shapes)}")
        for traj, rep in outputs:
            fails += checks.check_stability(traj.completed, self._phi(traj), floor_phi,
                                            rep.fitted_decay, rep.fitted_derivative_decay)
        return fails


class Design:
    """A boundary design of linear maps G_i(h, u) = c_i h + gains_i . u."""

    def __init__(self, prog, gains, m: int, forcing_gains, amplitudes, harmonics,
                 phases, dense: bool):
        self.gains = np.asarray(gains, dtype=float)
        self.m = m
        self.dense = dense
        n = self.gains.shape[0]
        self.forcing_gains = np.asarray(forcing_gains, dtype=float)
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        self.omegas = 2 * np.pi * np.asarray(harmonics, dtype=float) / T_STAR

        def linear(c, row):
            return lambda hv, u: c * hv + np.asarray(u, dtype=float) @ row

        right = [linear(self.forcing_gains[i], self.gains[i, m:]) for i in range(m)]
        left = [linear(self.forcing_gains[i], self.gains[i, :m]) for i in range(m, n)]
        h = [prog.systems.harmonic_signal(
            [{"amplitude": a, "harmonic": k, "phase": p}], T_STAR)
            for a, k, p in zip(amplitudes, harmonics, phases)]
        self.bspec = prog.bd.BoundarySpec(left_maps=left, right_maps=right, h=h,
                                          T_star=T_STAR)


def dense_gains(rng, n: int, m: int) -> np.ndarray:
    """Block anti-diagonal gains with every entry in [0.05, 1), as in the
    acceptance test of the dissipation number."""
    gains = np.zeros((n, n))
    gains[:m, m:] = rng.uniform(0.05, 1.0, (m, n - m))
    gains[m:, :m] = rng.uniform(0.05, 1.0, (n - m, m))
    return gains


class ThetaDesigns(Workload):
    """characterizing_data + validate_forcing over dense designs of every
    shape n = 2..6, m = 1..n-1, plus one fixed absorbing design. The run
    seed draws every forcing signal and forcing gain; the gain matrices
    come from a fixed family, because the cost of theta on one n = 6
    matrix moves by 30 % with its values and a per-seed draw of 30 of
    them moved the mean per design by 7 % between seeds."""

    name = "theta_designs"

    def __init__(self, prog, seed: int):
        self.prog = prog
        family = np.random.default_rng(GAIN_FAMILY_SEED)
        rng = np.random.default_rng(seed)
        self.designs = []
        for n in range(2, 7):
            for m in range(1, n):
                for _ in range(DESIGNS_PER_SHAPE):
                    self.designs.append(Design(
                        prog, dense_gains(family, n, m), m, rng.uniform(0.2, 1.0, n),
                        rng.uniform(0.005, 0.02, n), rng.integers(1, 4, n),
                        rng.uniform(0.0, 2 * np.pi, n), dense=True))
        n = ABSORBING.shape[0]
        self.designs.append(Design(prog, ABSORBING, ABSORBING_M, np.full(n, 0.4),
                                   np.full(n, 0.01), np.ones(n, dtype=int),
                                   np.zeros(n), dense=False))
        self.ops_per_rep = len(self.designs)

    def setup(self):
        self.op(None)

    def _design(self, d):
        bd = self.prog.bd
        try:
            return bd.characterizing_data(d.bspec), bd.validate_forcing(d.bspec)
        except self.prog.errors.ConvergenceError as exc:
            if "scaling methods disagree" not in str(exc):
                raise
            return exc

    def op(self, _):
        return [self._design(d) for d in self.designs]

    def failures(self, output) -> int:
        return sum(isinstance(o, Exception) for o in output)

    def check(self, outputs) -> list:
        fails = []
        for out in outputs:
            for d, res in zip(self.designs, out):
                if isinstance(res, Exception):
                    if d.dense:
                        fails.append(f"dense design n={d.gains.shape[0]} failed: {res}")
                    continue
                theta, forcing = res
                if not np.abs(theta.theta_matrix - d.gains).max() <= checks.GAIN_TOL:
                    fails.append("theta matrix differs from the designed gains")
                fails += checks.check_theta(d.gains, theta.theta, theta.optimal_scaling)
                fails += checks.check_forcing(
                    forcing.h_c1_norms, forcing.periodicity_residual,
                    forcing.gain_at_origin, forcing.rescaled, d.amplitudes, d.omegas,
                    d.forcing_gains, FORCING_SAMPLES, T_STAR)
        return fails


WORKLOADS = {w.name: w for w in (PeriodicEuler, PeriodicReflect, StabilityEuler, ThetaDesigns)}
