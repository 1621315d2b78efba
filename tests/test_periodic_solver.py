import dataclasses
import gc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sweep_kernel import euler_problem, reflect_problem

from periodic_hyp import cli
from periodic_hyp import periodic_solver as ps
from periodic_hyp import systems
from periodic_hyp.characteristics import Field
from periodic_hyp.errors import NonContractionError, NormalizationError
from periodic_hyp.system_model import SystemSpec, validate_hyperbolicity


def e1_exact(eps=0.01, c=0.5):
    """Closed-form periodic solution of the damped scalar transport:
    u(t, x) = eps exp(-c x) sin(2 pi (t - x))."""
    return lambda t, x: eps * np.exp(-c * x) * np.sin(2 * np.pi * (t - x))


def make_e1(eps=0.01):
    spec = systems.linear_damped_scalar()
    h = systems.harmonic_signal([{"amplitude": eps}], 1.0)
    bspec = systems.scalar_inflow_boundary(h, 1.0)
    return spec, bspec


def make_e2(eps=0.01, k=0.5):
    spec = systems.linear_reflect_2x2()
    h1 = systems.harmonic_signal([{"amplitude": eps}], 2.0)
    bspec = systems.reflection_boundary(k, h1, systems.zero_signal, 2.0)
    return spec, bspec


class TestIterationConfig:
    @pytest.mark.parametrize("bad", [{"tol": np.nan}, {"tol": np.inf}, {"Nt": 16.0},
                                     {"Nt": 16.5}, {"Nx": 16.0}, {"max_iter": 2.5}])
    def test_a_non_finite_tol_or_non_integer_size_is_refused(self, bad):
        with pytest.raises(ValueError):
            ps.IterationConfig(**{"Nt": 16, "Nx": 16, **bad})

    def test_numpy_integers_are_sizes(self):
        spec, bspec = make_e1()
        cfg = ps.IterationConfig(Nt=np.int64(16), Nx=np.int32(16), max_iter=np.int64(3))
        _, rep = ps.solve_periodic(spec, bspec, cfg)
        assert rep.iterations <= 3


class TestLinearizedStep:
    def test_zero_prev_zero_forcing(self):
        spec, _ = make_e1()
        bspec = systems.scalar_inflow_boundary(systems.zero_signal, 1.0)
        prev = Field.zeros(16, 16, 1, 1.0, 1.0)
        ctx = ps.SweepContext.for_solve(spec, bspec, None)
        out = ps.linearized_step(prev, ctx)
        assert np.abs(out.values).max() == 0.0

    def test_e1_first_sweep_hits_closed_form(self):
        # with K = 0 the scalar problem is solved exactly in one sweep:
        # straight unit-speed traces, analytic boundary data, exact
        # exponential factor
        spec, bspec = make_e1()
        prev = Field.zeros(64, 64, 1, 1.0, 1.0)
        ctx = ps.SweepContext.for_solve(spec, bspec, 0.0)
        out = ps.linearized_step(prev, ctx)
        exact = e1_exact()
        t = out.t_nodes[:, None]
        x = out.x_nodes[None, :]
        err = np.abs(out.values[..., 0] - exact(t, x)).max()
        assert err <= 1e-12

    def test_e2_first_sweep_pure_transport(self):
        spec, bspec = make_e2(eps=0.01, k=0.5)
        prev = Field.zeros(64, 32, 2, 2.0, 1.0)
        ctx = ps.SweepContext.for_solve(spec, bspec, 1e-6)
        out = ps.linearized_step(prev, ctx)
        t = out.t_nodes[:, None]
        x = out.x_nodes[None, :]
        # u1 carries h1(t + x - L) leftward, u2 stays 0 (h2 = 0, no
        # reflection on the first sweep); K = 1e-6 perturbs at that scale
        u1_expected = 0.01 * np.sin(np.pi * (t + x - 1.0))
        assert np.abs(out.values[..., 0] - u1_expected).max() <= 1e-5
        assert np.abs(out.values[..., 1]).max() <= 1e-5


SYSTEM_CONFIGS = [Path(__file__).resolve().parent.parent / "configs" / f"{name}.yaml"
                  for name in ("linear_damped_scalar", "linear_reflect_2x2",
                               "quasilinear_euler_damping")]


class TestSolvePeriodic:
    @pytest.mark.parametrize("path", SYSTEM_CONFIGS, ids=lambda p: p.stem)
    def test_reports_the_certificate_of_its_set_up(self, path):
        """The solve's certificate is the one ``SweepContext.for_solve``
        derives for its system, boundary and shift, field for field."""
        cfg = cli.load_config(path)
        spec, bspec = cli._build(cfg, cfg.eps[0])
        _, rep = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=16, Nx=16, K=cfg.solver.K))
        want = ps.SweepContext.for_solve(spec, bspec, cfg.solver.K).certificate
        for f in dataclasses.fields(want):
            assert getattr(rep.certificate, f.name) == getattr(want, f.name), f.name
        assert want.ok

    @pytest.mark.parametrize("N", [32, 64])
    @pytest.mark.parametrize("path, sweeps", zip(SYSTEM_CONFIGS, (3, 28, 24)),
                             ids=lambda p: getattr(p, "stem", p))
    def test_sweep_counts_of_the_shipped_configs(self, path, sweeps, N):
        """The shipped systems, gains, forcing, shift and tolerance on an
        N x N grid converge in the reproduced sweep counts: 3, 28 and 24,
        the same on both grids."""
        cfg = cli.load_config(path)
        spec, bspec = cli._build(cfg, cfg.eps[0])
        _, rep = ps.solve_periodic(spec, bspec, ps.IterationConfig(
            Nt=N, Nx=N, K=cfg.solver.K, tol=cfg.solver.tol, max_iter=cfg.solver.max_iter))
        assert rep.converged and rep.iterations == sweeps

    def test_zero_forcing_fixed_point(self):
        spec, _ = make_e1()
        bspec = systems.scalar_inflow_boundary(systems.zero_signal, 1.0)
        cfg = ps.IterationConfig(Nt=16, Nx=16)
        fld, rep = ps.solve_periodic(spec, bspec, cfg)
        assert rep.converged and rep.iterations == 1
        assert np.abs(fld.values).max() == 0.0

    def test_e1_matches_closed_form(self):
        spec, bspec = make_e1()
        cfg = ps.IterationConfig(Nt=128, Nx=128)
        fld, rep = ps.solve_periodic(spec, bspec, cfg)
        assert rep.converged
        exact = e1_exact()
        # probe on cell midpoints, where the bilinear representation error
        # of the delivered grid object peaks
        tp = (np.arange(256) + 0.5) / 256
        xp = (np.arange(256) + 0.5) / 256
        probe = fld.interpolate(tp[:, None], xp[None, :])[..., 0]
        err = np.abs(probe - exact(tp[:, None], xp[None, :])).max()
        assert err <= 5e-3 * 0.01

    def test_e2_resonant_amplitude_and_rate(self):
        # delay-recursion oracle: a(t) = h1(t) + k^2 a(t - 2L) with the
        # period equal to the round trip, so a = h1 / (1 - k^2); each sweep
        # adds one transport leg, so deltas decay by k per sweep
        spec, bspec = make_e2(eps=0.01, k=0.5)
        cfg = ps.IterationConfig(Nt=64, Nx=32, K=1e-6)
        fld, rep = ps.solve_periodic(spec, bspec, cfg)
        assert rep.converged
        amp = np.abs(fld.values[:, -1, 0]).max()
        assert amp == pytest.approx(0.01 / (1 - 0.25), abs=2e-4)
        assert 0.4 < rep.fitted_beta < 0.6
        assert rep.certificate.ok

    def test_periodicity_structural(self):
        spec, bspec = make_e2()
        cfg = ps.IterationConfig(Nt=32, Nx=16, K=1e-6)
        fld, _ = ps.solve_periodic(spec, bspec, cfg)
        t = fld.t_nodes + 0.25 * fld.dt
        for x in (0.0, 0.4375, 1.0):
            a = fld.interpolate(t, x)
            b = fld.interpolate(t + fld.T_star, x)
            assert np.array_equal(a, b)

    def test_geometric_cauchy_tail(self):
        # dissipative instance with the certificate holding: the delta tail
        # is monotone decreasing and the fitted ratio is below 1
        spec, bspec = make_e2(eps=0.01, k=0.5)
        cfg = ps.IterationConfig(Nt=32, Nx=32, K=1e-6)
        _, rep = ps.solve_periodic(spec, bspec, cfg)
        assert rep.certificate.ok
        tail = rep.deltas[2:]
        assert np.all(np.diff(tail) < 0)
        assert rep.fitted_beta < 1.0

    def test_amplitude_linearity(self):
        spec, b1 = make_e1(eps=0.005)
        _, b2 = make_e1(eps=0.01)
        cfg = ps.IterationConfig(Nt=32, Nx=32)
        f1, _ = ps.solve_periodic(spec, b1, cfg)
        f2, _ = ps.solve_periodic(spec, b2, cfg)
        ratio = np.abs(f2.values).max() / np.abs(f1.values).max()
        assert 1.9 < ratio < 2.1

    def test_a_solve_after_a_freed_spec_is_its_own(self):
        """Nothing a solve works out outlives it: solving one spec, dropping
        it, then solving another gives the second spec's field alone."""
        cfg = ps.IterationConfig(Nt=16, Nx=16, K=1e-6)
        alone, _ = ps.solve_periodic(*make_e2(eps=0.01, k=0.5), cfg)
        first = (systems.linear_reflect_2x2(speed=1.5), make_e2(eps=0.02, k=0.3)[1])
        ps.solve_periodic(*first, cfg)
        del first
        gc.collect()
        after, _ = ps.solve_periodic(*make_e2(eps=0.01, k=0.5), cfg)
        assert np.array_equal(after.values, alone.values)
        assert not np.array_equal(after.values, ps.solve_periodic(
            systems.linear_reflect_2x2(speed=1.5), make_e2(eps=0.02, k=0.3)[1], cfg)[0].values)

    def test_noncontraction_detected(self):
        # gain above 1 feeds energy back in; deltas grow and the solver
        # reports the breakdown instead of a bogus fixed point
        spec, bspec = make_e2(eps=0.01, k=1.6)
        small = systems.linear_reflect_2x2(domain_radius=1e9)
        cfg = ps.IterationConfig(Nt=16, Nx=8, K=1e-6, max_iter=40)
        with pytest.raises(NonContractionError):
            ps.solve_periodic(small, bspec, cfg)

    def test_nondiagonal_origin_raises_instead_of_looping(self):
        # the families at the origin are (u1 -+ u2) / sqrt 2, not the
        # components; the sweeps would run max_iter and stop unconverged
        spec = SystemSpec(n=2, m=1, A=lambda u: np.array([[0.0, 1.0], [1.0, 0.0]]),
                          F=lambda u: -0.5 * np.asarray(u, dtype=float),
                          domain_radius=0.05, L=1.0)
        h1 = systems.harmonic_signal([{"amplitude": 0.01}], 2.0)
        bspec = systems.reflection_boundary(0.5, h1, systems.zero_signal, 2.0)
        with pytest.raises(NormalizationError, match="A\\(0\\) is not diagonal"):
            ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=16, Nx=16))
        assert spec.origin.a0_offdiag_max == 1.0
        rep = validate_hyperbolicity(spec)
        assert rep.a0_offdiag_max == 1.0 and not rep.a0_diagonal
        assert cli._exit_code(NormalizationError("x")) == cli.EXIT_HYPOTHESIS

    def test_coupled_nondiagonal_system_converges(self):
        # off-diagonal coefficient matrix exercises the interaction terms;
        # the converged iterate must satisfy the balance law on the grid
        alpha = 0.5

        def A(u):
            u = np.asarray(u, dtype=float)
            out = np.zeros(u.shape[:-1] + (2, 2))
            out[..., 0, 0] = -1.0 + 0.1 * u[..., 1]
            out[..., 1, 1] = 1.0 + 0.1 * u[..., 0]
            out[..., 0, 1] = alpha * u[..., 0]
            out[..., 1, 0] = alpha * u[..., 1]
            return out

        from periodic_hyp.system_model import SystemSpec
        from periodic_hyp.diagnostics import pde_residual

        spec = SystemSpec(n=2, m=1, A=A, F=lambda u: -0.3 * np.asarray(u),
                          gradF=lambda u: -0.3 * np.eye(2),
                          domain_radius=0.1, L=1.0)
        h1 = systems.harmonic_signal([{"amplitude": 0.01}], 2.0)
        bspec = systems.reflection_boundary(0.3, h1, systems.zero_signal, 2.0)
        res = []
        for NN in (32, 64):
            cfg = ps.IterationConfig(Nt=NN, Nx=NN, K=0.0)
            fld, rep = ps.solve_periodic(spec, bspec, cfg)
            assert rep.converged
            res.append(pde_residual(fld, spec))
        assert res[1] <= res[0] / 3.2


class TestFitContractionRate:
    def test_exact_geometric(self):
        assert ps.fit_contraction_rate([1, 0.5, 0.25, 0.125, 0.0625]) == pytest.approx(0.5)

    def test_noisy_geometric(self):
        rng = np.random.default_rng(0)
        l = np.arange(12)
        deltas = 0.3**l * (1 + 0.01 * rng.standard_normal(12))
        beta = ps.fit_contraction_rate(deltas)
        assert 0.29 < beta < 0.31

    def test_too_few_points(self):
        assert ps.fit_contraction_rate([1.0, 0.5, 0.25]) is None

    def test_noise_floor(self):
        assert ps.fit_contraction_rate([1e-16, 1e-16, 1e-16, 1e-16]) == 0.0


class TestExtractInitialData:
    def test_zero_field(self):
        fld = Field.zeros(8, 8, 2, 1.0, 1.0)
        assert np.abs(ps.extract_initial_data(fld)).max() == 0.0

    def test_row_zero(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(8, 9, 2))
        fld = Field(values=vals, T_star=1.0, L=1.0)
        got = ps.extract_initial_data(fld)
        assert got.shape == (9, 2)
        assert np.array_equal(got, vals[0])

    def test_e1_initial_profile(self):
        spec, bspec = make_e1()
        cfg = ps.IterationConfig(Nt=64, Nx=64)
        fld, _ = ps.solve_periodic(spec, bspec, cfg)
        u0 = ps.extract_initial_data(fld)[:, 0]
        x = fld.x_nodes
        expected = 0.01 * np.exp(-0.5 * x) * np.sin(-2 * np.pi * x)
        assert np.abs(u0 - expected).max() <= 1e-6


class TestTimeShiftEquivariance:
    """Delaying every forcing signal by k grid rows, h_i(t - k T*/Nt),
    rolls the solved periodic field by k rows, in as many sweeps."""

    NT = 16
    PROBLEMS = {"linear_reflect_2x2": (reflect_problem, 1e-6),
                "quasilinear_euler_damping": (euler_problem, None)}

    def solve(self, name, delay=0):
        make, K = self.PROBLEMS[name]
        spec, bspec = make()
        shift = delay * bspec.T_star / self.NT
        bspec = dataclasses.replace(
            bspec, h=[lambda t, h=h: h(np.asarray(t) - shift) for h in bspec.h])
        fld, rep = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=self.NT, Nx=16, K=K))
        assert rep.converged
        return fld.values, rep.iterations

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(k=st.integers(1, NT - 1))
    def test_delayed_forcing_rolls_the_field(self, name, k):
        values, sweeps = self.solve(name)
        delayed, delayed_sweeps = self.solve(name, k)
        assert delayed_sweeps == sweeps
        assert np.abs(delayed - np.roll(values, k, axis=0)).max() <= 1e-15
        assert np.abs(delayed - values).max() > 1e-4  # the field moves in time
