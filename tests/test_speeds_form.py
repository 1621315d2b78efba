"""A spec whose A is diagonal may give its speeds instead of the matrix.

The form is read from one call of A at construction
(``SystemSpec.gives_speeds``). ``eigen_fields``, and an IVP stage
directly, check the speeds as they are (``_check_speeds``), with no
per-call diagonal test, and return their top |speed|, which the IVP step
reads for its CFL check; the origin record, the sampled speeds, the sweep and
``pde_residual`` (through ``SystemSpec.A_times``) read the speeds where
they read diag A. Each built-in is compared here with its matrix-form twin
(A = diag(speeds)): both must give the same bits and raise the same errors
at the same step.
"""
import dataclasses
import struct

import numpy as np
import pytest
from test_ivp_solver import signals_at
from test_ivp_step_kernel import initial_profile, matrix_form
from test_sweep_kernel import e1_problem, euler_problem, reflect_problem

from periodic_hyp import boundary as bd
from periodic_hyp import diagnostics as dg
from periodic_hyp import ivp_solver as ivp
from periodic_hyp import periodic_solver as ps
from periodic_hyp import system_model as sm
from periodic_hyp.errors import (
    DomainError,
    HyperbolicityError,
    SignatureError,
    StepSizeError,
)

BUILTINS = {  # name: (problem, Nx, K)
    "linear_damped_scalar": (e1_problem, 16, None),
    "linear_reflect_2x2": (reflect_problem, 16, 1e-6),
    "quasilinear_euler_damping": (euler_problem, 16, None),
}


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestForm:
    def test_the_form_is_read_at_n_1(self):
        speeds = sm.SystemSpec(n=1, m=0, A=lambda u: np.full(np.shape(u)[:-1] + (1,), 2.0),
                               F=lambda u: -0.5 * np.asarray(u), domain_radius=0.1, L=1.0)
        matrix = sm.SystemSpec(n=1, m=0, A=lambda u: np.full(np.shape(u)[:-1] + (1, 1), 2.0),
                               F=lambda u: -0.5 * np.asarray(u), domain_radius=0.1, L=1.0)
        assert speeds.gives_speeds and not matrix.gives_speeds
        states = np.zeros((3, 1))
        assert speeds.A_at(states).shape == (3, 1)
        assert matrix.A_at(states).shape == (3, 1, 1)
        for spec in (speeds, matrix):
            lam, left, right, top = sm.eigen_fields(spec, states)
            assert np.array_equal(lam, np.full((3, 1), 2.0)) and left is right is None
            assert top == 2.0
            assert spec.origin.a0_diagonal and spec.origin.a0_offdiag_max == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            speeds.gives_speeds = False

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_the_builtins_give_speeds(self, name):
        spec, _ = BUILTINS[name][0]()
        assert spec.gives_speeds
        states = sm.neighborhood_samples(spec, 8)
        assert spec.A_at(states).shape == states.shape
        if spec.AF is not None:
            assert np.array_equal(spec.AF_at(states)[0], spec.A_at(states))

    @pytest.mark.parametrize("to_matrix", [True, False])
    def test_an_AF_of_the_other_form_is_refused(self, to_matrix):
        """An AF whose A has the other form than A is refused by the
        constructor, as one whose values differ is."""
        euler, _ = euler_problem()
        twin = matrix_form(euler)
        with pytest.raises(ValueError, match="SystemSpec.AF returns on one item another shape"):
            (dataclasses.replace(euler, AF=twin.AF) if to_matrix
             else dataclasses.replace(twin, AF=euler.AF))

    def test_an_AF_whose_speeds_differ_is_refused(self):
        euler, _ = euler_problem()
        with pytest.raises(ValueError, match="SystemSpec.AF differs"):
            dataclasses.replace(
                euler, AF=lambda u: (lambda a, f: (a * (1 + 1e-9), f))(*euler.AF(u)))


def origin_fields(spec):
    o = spec.origin
    return (o.g0, o.mu0, o.K_min, o.a0_offdiag_max, o.a0_diagonal)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_both_forms_give_the_same_bits(name):
    make, Nx, K = BUILTINS[name]
    spec, bspec = make()
    twin = matrix_form(spec)
    for a, b in zip(origin_fields(spec), origin_fields(twin)):
        assert np.array_equal(a, b)
    assert np.array_equal(spec.sampled_speeds, twin.sampled_speeds)

    cfg = ps.IterationConfig(Nt=16, Nx=Nx, K=K)
    (fld, rep), (fld2, rep2) = (ps.solve_periodic(s, bspec, cfg) for s in (spec, twin))
    assert np.array_equal(fld.values, fld2.values)
    assert np.array_equal(rep.deltas, rep2.deltas)
    assert np.array_equal(rep.deltas_c1, rep2.deltas_c1)
    assert rep.fitted_beta == rep2.fitted_beta
    assert bits(dg.pde_residual(fld, spec)) == bits(dg.pde_residual(fld, twin))

    u0 = ps.extract_initial_data(fld) + 0.1 * spec.domain_radius * ivp.bump_profile(
        fld.x_nodes, spec.L)[:, None]
    kw = dict(t_end=2.0, record_every=0.5)
    got, want = (ivp.run(u0, s, bspec, **kw) for s in (spec, twin))
    assert got.completed and want.completed and got.steps == want.steps
    assert (got.compat_c0, got.compat_c1) == (want.compat_c0, want.compat_c1)
    for arr in ("times", "profiles", "before", "after"):
        assert np.array_equal(getattr(got, arr), getattr(want, arr))


def failing_problem(kind, thr=0.02):
    """n = 3, m = 1, speeds (-1, 1, 2) nudged by the state, replaced by a
    bad row where some u_0 exceeds thr; a forcing ramp at x = L drives
    u_0 up. ``kind`` names the bad row: a zero, repeated or wrong-signed
    speed, a NaN or an infinite one, a speed of 10 (the CFL cap of a step
    of 0.15 dx), or none (the ramp leaves the ball)."""
    bad = {"zero": [-1.0, 0.0, 2.0], "repeated": [-1.0, 2.0, 2.0],
           "wrong_sign": [-1.0, -1.5, 2.0], "nan": [-1.0, np.nan, 2.0],
           "inf": [-1.0, 1.0, np.inf], "step_size": [-1.0, 1.0, 10.0]}.get(kind)

    def A(u):
        u = np.asarray(u, dtype=float)
        speeds = np.array([-1.0, 1.0, 2.0]) + 0.1 * u[..., ::-1]
        if bad is not None:
            speeds = np.where(u[..., :1] > thr, bad, speeds)
        return speeds

    spec = sm.SystemSpec(n=3, m=1, A=A, F=lambda u: -0.1 * np.asarray(u),
                         domain_radius=0.1, L=1.0)
    ramp = lambda t: 0.1 * np.asarray(t, dtype=float)  # noqa: E731
    bspec = bd.BoundarySpec(
        left_maps=[lambda hv, u: hv + 0.5 * u[..., 0]] * 2,
        right_maps=[lambda hv, u: hv + 0.25 * u[..., 0] + 0.25 * u[..., 1]],
        h=[ramp, np.zeros_like, np.zeros_like], T_star=2.0)
    return spec, bspec


def march_to_failure(spec, bspec, Nx=16, steps=400):
    """(step index, error type, message) of the first failing ``ivp.step``."""
    u, dt, t = 0.1 * initial_profile(spec, Nx), 0.15 * spec.L / Nx, 0.0
    ctx = ivp.StepContext.for_run(spec, bspec, Nx)
    for k in range(steps):
        t += dt
        try:
            u = ivp.step(u, dt, ctx, signals_at(bspec, t))
        except (HyperbolicityError, SignatureError, StepSizeError, DomainError) as exc:
            return k, type(exc), str(exc)
    raise AssertionError("the march did not fail")


@pytest.mark.parametrize("kind, error", [
    ("zero", HyperbolicityError), ("repeated", HyperbolicityError),
    ("wrong_sign", SignatureError), ("nan", HyperbolicityError),
    ("inf", HyperbolicityError), ("step_size", StepSizeError), (None, DomainError)])
def test_both_forms_raise_alike(kind, error):
    spec, bspec = failing_problem(kind)
    got = march_to_failure(spec, bspec)
    assert got == march_to_failure(matrix_form(spec), bspec)
    assert got[0] > 0 and got[1] is error


class TestTopSpeed:
    """``_check_speeds`` returns the top |speed|, the bits of
    ``np.abs(speeds).max()``, which the IVP's CFL check reads."""

    def test_on_the_accept_path(self):
        rng = np.random.default_rng(5)
        for n in range(1, 5):
            for m in range(n + 1):
                for _ in range(20):
                    mag = np.sort(rng.uniform(0.5, 3.0, (7, n)), axis=-1)
                    speeds = mag * np.where(np.arange(n) < m, -1.0, 1.0)
                    top = sm._check_speeds(speeds, m)
                    assert bits(top) == bits(float(np.abs(speeds).max()))

    def test_on_a_diagnosis_that_passes(self):
        # a speed within 1e-10 of zero fails the one accept test (its gap
        # tolerance) but passes the diagnosis (1e-12): the abs max returns
        speeds = np.array([[-5e-11, 1.0], [-0.7, 1.5]])
        s = speeds * np.array([-1.0, 1.0])
        assert s.min() <= sm._GAP_TOL * max(1.0, s.max())
        assert bits(sm._check_speeds(speeds, 1)) == bits(1.5)

    def test_eigen_fields_returns_it_on_every_path(self):
        """Speeds given, a diagonal matrix and the eigenvector path."""
        euler, _ = euler_problem()
        A0 = np.array([[-1.0, 0.3], [0.2, 1.5]])
        coupled = sm.SystemSpec(
            n=2, m=1, A=lambda u: A0 + np.asarray(u)[..., None] * np.eye(2),
            F=lambda u: np.zeros(np.shape(u)), domain_radius=0.1, L=1.0)
        for spec in (euler, matrix_form(euler), coupled):
            states = sm.neighborhood_samples(spec, 16)
            lam, _, _, top = sm.eigen_fields(spec, states)
            assert bits(top) == bits(float(np.abs(lam).max()))

    @pytest.mark.parametrize("twin", [False, True])
    def test_the_step_size_error_text(self, twin):
        spec, bspec = e1_problem()
        spec = matrix_form(spec) if twin else spec
        dx = 1.0 / 64
        dt = 0.9 * dx
        with pytest.raises(StepSizeError) as exc:
            ivp.step(np.zeros((65, 1)), dt, ivp.StepContext.for_run(spec, bspec, 64),
                     signals_at(bspec, dt))
        assert str(exc.value) == (f"dt={dt:.3e} exceeds 0.8 dx / max|lambda| = "
                                  f"{0.8 * dx / 1.0:.3e}")
