import json
import math

import numpy as np
import pytest

from periodic_hyp import boundary as bd
from periodic_hyp import diagnostics as dg
from periodic_hyp import periodic_solver as ps
from periodic_hyp import system_model as sm
from periodic_hyp import systems
from periodic_hyp.characteristics import Field
from periodic_hyp.errors import DominanceError, IoError


def make_e1(eps=0.01):
    spec = systems.linear_damped_scalar()
    h = systems.harmonic_signal([{"amplitude": eps}], 1.0)
    return spec, systems.scalar_inflow_boundary(h, 1.0)


@pytest.fixture(scope="module")
def e1_fixed_point():
    spec, bspec = make_e1()
    fld, rep = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=256, Nx=256))
    return spec, bspec, fld, rep


class TestNorms:
    def test_zero_field(self):
        out = dg.norms(Field.zeros(8, 8, 2, 1.0, 1.0))
        assert out.c0 == 0.0 and out.c1 == 0.0

    def test_constant_field(self):
        fld = Field(values=np.full((8, 9, 1), -0.3), T_star=1.0, L=1.0)
        out = dg.norms(fld)
        assert out.c0 == pytest.approx(0.3)
        assert out.c1 == pytest.approx(0.3, abs=1e-12)

    def test_grids_follow_the_values(self):
        """The derivative grids and c1 are those of the values a field
        holds now: after an edit in place and after a new array."""
        t = np.arange(8)[:, None, None] / 8
        x = np.arange(9)[None, :, None] / 8
        fld = Field(values=np.sin(2 * np.pi * t) + 3 * x, T_star=1.0, L=1.0)
        assert dg.norms(fld).c1 > 3
        fld.values[:] = 0.0
        assert not fld.time_derivative_grid().any()
        assert not fld.space_derivative_grid().any()
        assert dg.norms(fld).c1 == 0.0
        fld.values = np.full((8, 9, 1), 2.0) + x
        assert np.allclose(fld.space_derivative_grid(), 1.0, rtol=0, atol=1e-12)
        assert not fld.time_derivative_grid().any()
        assert dg.norms(fld).c1 == pytest.approx(3.0 + 1.0)

    def test_e1_amplitude(self, e1_fixed_point):
        _, _, fld, _ = e1_fixed_point
        out = dg.norms(fld)
        assert 0.009 < out.c0 < 0.0101


def reference_weights(gii, m, L):
    """The weighted norm's weights, written out as in the paper:
    W_i(x) = exp(g_ii (L - x)) for i < m, exp(-g_ii x) otherwise."""
    def make(i, g):
        if i < m:
            return lambda x: np.exp(g * (L - np.asarray(x, dtype=float)))
        return lambda x: np.exp(-g * np.asarray(x, dtype=float))
    return [make(i, g) for i, g in enumerate(gii)]


def reference_M3(gii, m, L):
    """The largest endpoint weight: W_i(0) for i < m, W_i(L) otherwise."""
    W = reference_weights(gii, m, L)
    return float(np.max([W[i](0.0) if i < m else W[i](L) for i in range(len(gii))]))


def diagonal_design(rng, n, m):
    """A seeded n-family system with diagonal A (m speeds negative), a dense
    source linearization, length L, and pass-through inflow maps."""
    lam = np.concatenate([-rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, n - m)])
    g0 = rng.normal(scale=0.5, size=(n, n))
    spec = sm.SystemSpec(n=n, m=m, A=lambda u: np.diag(lam),
                         F=lambda u: np.asarray(u) @ g0.T, gradF=lambda u: g0,
                         domain_radius=0.05, L=float(rng.uniform(0.5, 2.0)))
    bspec = bd.BoundarySpec(left_maps=[lambda hv, u: hv] * (n - m),
                            right_maps=[lambda hv, u: hv] * m,
                            h=[systems.zero_signal] * n, T_star=1.0)
    return spec, bspec


def seeded_contexts():
    """SweepContexts of seeded designs, n = 1..6 and every m, at the default
    shift and at a larger one."""
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for m in range(n + 1):
            spec, bspec = diagonal_design(rng, n, m)
            for K in (None, spec.origin.K_min + rng.uniform(1e-6, 0.5)):
                yield ps.SweepContext.for_solve(spec, bspec, K)


def builtin_contexts():
    for builtin in systems.BUILTINS.values():
        spec = builtin.system()
        bspec = builtin.boundary({}, [systems.zero_signal] * spec.n, 1.0)
        for K in (None, 1e-6):
            yield ps.SweepContext.for_solve(spec, bspec, K)


def two_family_spec(F, gradF):
    return sm.SystemSpec(n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]), F=F, gradF=gradF,
                         domain_radius=0.05, L=1.0)


class TestWeights:
    """The certificate's M3 is the largest weight of the weighted norm."""

    def test_two_family_profile(self):
        spec = two_family_spec(lambda u: -np.asarray(u), lambda u: -np.eye(2))
        bspec = systems.reflection_boundary(0.5, systems.zero_signal,
                                            systems.zero_signal, 1.0)
        ctx = ps.SweepContext.for_solve(spec, bspec, 0.1)
        assert np.allclose(ctx.gii, [1.1, -1.1])
        W = reference_weights(ctx.gii, 1, 1.0)
        x = np.linspace(0, 1, 11)
        assert np.allclose(W[0](x), np.exp(1.1 * (1 - x)))
        assert np.allclose(W[1](x), np.exp(1.1 * x))
        assert ctx.certificate.M3 == reference_M3(ctx.gii, 1, 1.0)
        assert ctx.certificate.M3 == pytest.approx(np.exp(1.1))

    def test_scalar_profile(self):
        spec, bspec = make_e1()
        ctx = ps.SweepContext.for_solve(spec, bspec, 0.0)
        assert ctx.gii.tolist() == [-0.5]
        assert np.allclose(reference_weights(ctx.gii, 0, 1.0)[0](np.linspace(0, 1, 5)),
                           np.exp(0.5 * np.linspace(0, 1, 5)))
        assert ctx.certificate.M3 == reference_M3(ctx.gii, 0, 1.0)
        assert ctx.certificate.M3 == pytest.approx(np.exp(0.5))

    def test_dominance_required(self):
        spec = two_family_spec(
            lambda u: np.stack([0.1 * u[..., 0] + 0.3 * u[..., 1], -u[..., 1]], axis=-1),
            lambda u: np.array([[0.1, 0.3], [0.0, -1.0]]))
        bspec = systems.reflection_boundary(0.5, systems.zero_signal,
                                            systems.zero_signal, 1.0)
        # gtilde_matrix's message (tests/test_system_model.py), from the set-up
        with pytest.raises(DominanceError, match=r"^row 0: need gtilde_ii > 3\.000e-01, "
                           r"got 1\.000e-01 \(K too small\)$"):
            ps.SweepContext.for_solve(spec, bspec, 0.2)

    def test_M3_is_the_largest_endpoint_weight(self):
        """Bit for bit, on the built-ins and on n = 1..6 designs of every m."""
        for ctx in (*builtin_contexts(), *seeded_contexts()):
            spec = ctx.spec
            assert np.array_equal(ctx.gii, np.diag(sm.gtilde_matrix(spec, ctx.certificate.K)))
            assert ctx.certificate.M3 == reference_M3(ctx.gii, spec.m, spec.L)

    def test_weight_bounds_dense_sampling(self):
        for ctx in seeded_contexts():
            n, m, L = ctx.spec.n, ctx.spec.m, ctx.spec.L
            W = reference_weights(ctx.gii, m, L)
            x = np.linspace(0, L, 1024)
            for i in range(n):
                w = W[i](x)
                assert np.all(w >= 1.0 - 1e-12)
                assert np.all(w <= ctx.certificate.M3 + 1e-12)
                # decreasing for left-movers, increasing for right-movers
                mono = np.diff(w)
                assert np.all(mono < 0) if i < m else np.all(mono > 0)
                # unit value at the family's far end
                assert (W[i](L) if i < m else W[i](0.0)) == pytest.approx(1.0)


class TestCertificate:
    @pytest.mark.parametrize(
        "theta,K,L,M3,ok,margin",
        [
            (0.5, 0.0, 1.0, 2.0, True, 0.5),
            (0.5, 0.3, 1.0, 2.0, False, -0.1),
            (0.9999, 0.0, 1.0, 2.0, True, 1e-4),
        ],
    )
    def test_arithmetic(self, theta, K, L, M3, ok, margin):
        cert = dg.smallness_certificate(theta, K, L, M3)
        assert cert.ok == ok
        assert cert.margin == pytest.approx(margin, abs=1e-12)


class TestPdeResidual:
    def test_zero_field(self):
        spec, _ = make_e1()
        fld = Field.zeros(32, 32, 1, 1.0, 1.0)
        assert dg.pde_residual(fld, spec) == 0.0

    def test_exact_solution_truncation_order(self):
        spec, _ = make_e1()
        exact = lambda t, x: 0.01 * np.exp(-0.5 * x) * np.sin(2 * np.pi * (t - x))
        res = []
        for N in (64, 128):
            fld = Field.from_function(exact, N, N, 1.0, 1.0)
            res.append(dg.pde_residual(fld, spec))
        assert res[0] >= 3.2 * res[1]

    def test_detects_corruption(self):
        spec, _ = make_e1()
        exact = lambda t, x: 0.01 * np.exp(-0.5 * x) * np.sin(2 * np.pi * (t - x))
        fld = Field.from_function(exact, 64, 64, 1.0, 1.0)
        fld.values[10, 7, 0] += 1e-3
        assert dg.pde_residual(fld, spec) >= 1e-3 / (2 * fld.dt)


class TestRegularity:
    def test_pure_sine_in_time(self):
        fld = Field.from_function(lambda t, x: np.sin(2 * np.pi * t) * (1 + 0 * x),
                                  256, 16, 1.0, 1.0)
        rep = dg.regularity_measurements(fld)
        assert rep.d2t == pytest.approx((2 * np.pi) ** 2, rel=1e-2)
        assert rep.dtdx == pytest.approx(0.0, abs=1e-9)
        assert rep.d2x == pytest.approx(0.0, abs=1e-9)

    def test_constant_field(self):
        fld = Field(values=np.full((16, 17, 2), 0.5), T_star=1.0, L=1.0)
        rep = dg.regularity_measurements(fld)
        assert rep.d2t == rep.dtdx == rep.d2x == 0.0

    def test_e1_second_time_derivative(self, e1_fixed_point):
        _, _, fld, _ = e1_fixed_point
        rep = dg.regularity_measurements(fld)
        assert rep.d2t == pytest.approx(0.01 * (2 * np.pi) ** 2, rel=5e-2)

    def test_ratio_helper(self):
        a = dg.RegularityReport(d2t=1.0, dtdx=2.0, d2x=3.0)
        b = dg.RegularityReport(d2t=1.1, dtdx=1.9, d2x=3.3)
        assert dg.regularity_ratio(a, b) == pytest.approx(1.1)


class TestEmitReport:
    def test_iteration_csv(self, tmp_path, e1_fixed_point):
        _, _, _, rep = e1_fixed_point
        path = tmp_path / "iters.csv"
        dg.emit_report(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,delta"
        assert len(lines) == 1 + rep.iterations
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == rep.deltas[0]
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert sidecar["converged"] is True
        assert sidecar["certificate"]["ok"] is True

    def test_stability_csv(self, tmp_path):
        from periodic_hyp.ivp_solver import StabilityReport
        rep = StabilityReport(
            phi_samples=[(0.0, 1.0), (0.5, 0.5)],
            dphi_samples=[(0.5, 0.7)],
            fitted_decay=0.5, fitted_derivative_decay=0.6, T0=1.0)
        path = tmp_path / "stab.csv"
        dg.emit_report(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,phi,dphi"
        assert lines[1].startswith("0,1,")
        side = json.loads(path.with_suffix(".json").read_text())
        assert side["fitted_decay"] == 0.5

    def test_json_round_trip(self, tmp_path, e1_fixed_point):
        """The sidecar's keys are lowercase snake case, the nested
        certificate's too, and its reals read back exactly."""
        _, _, _, rep = e1_fixed_point
        path = tmp_path / "iters.csv"
        dg.emit_report(rep, path)
        back = dg.parse_report(path.with_suffix(".json"))
        assert list(back) == ["fitted_beta", "iterations", "converged", "certificate"]
        cert = back["certificate"]
        assert list(cert) == ["theta", "k", "l", "m3", "ok", "margin"]
        want = rep.certificate
        assert (cert["theta"], cert["k"], cert["l"], cert["m3"], cert["margin"]) == (
            want.theta, want.K, want.L, want.M3, want.margin)
        assert cert["ok"] is True

    def test_unwritable_path(self, e1_fixed_point):
        _, _, _, rep = e1_fixed_point
        with pytest.raises(IoError):
            dg.emit_report(rep, "/nonexistent-dir/x.csv")

    def test_csv_for_scalar_record_rejected(self, tmp_path):
        cert = dg.smallness_certificate(0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="series"):
            dg.emit_report(cert, tmp_path / "cert.csv")
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("which", range(4))
def test_a_negative_certificate_input_is_refused(which):
    args = [0.5, 1e-6, 1.0, 1.0]
    args[which] = -1e-3
    with pytest.raises(ValueError, match="certificate inputs must be nonnegative"):
        dg.smallness_certificate(*args)


@pytest.mark.parametrize("which", range(4))
@pytest.mark.parametrize("bad", [True, math.nan, math.inf, "1.0"])
def test_a_certificate_input_that_is_not_a_finite_number_is_refused(which, bad):
    args = [0.5, 1e-6, 1.0, 1.0]
    args[which] = bad
    with pytest.raises(ValueError, match="must be a finite number"):
        dg.smallness_certificate(*args)
