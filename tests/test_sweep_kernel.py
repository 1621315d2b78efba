"""The batched sweep kernel against the per-column loop it replaced.

``loop_step`` is the earlier ``linearized_step``: one family, one column
and one RK substep at a time, with its own copies of the periodic cubic row
interpolation, its Lagrange weights and the cubic refinement in x, so a
change to the kernel's stencils cannot move the reference with it. Where
A is diagonal it fills in the identity bases that ``eigen_fields`` leaves
out and computes the (zero) coupling terms the kernel skips. The batched
kernel must reproduce it bit for bit.
"""
import numpy as np
import pytest

from periodic_hyp import characteristics as ch
from periodic_hyp import diagnostics as dg
from periodic_hyp import periodic_solver as ps
from periodic_hyp import systems
from periodic_hyp.boundary import BoundarySpec
from periodic_hyp.characteristics import Field, _phase
from periodic_hyp.system_model import (
    SystemSpec, _coupling_from_left, eigen_fields, g_nonlinear_batch,
    gtilde_matrix, shift_K,
)


def sweep(prev, spec, bspec, K):
    """One ``linearized_step`` with a fresh context for the shift K."""
    return ps.linearized_step(prev, ps.SweepContext.for_solve(spec, bspec, K))


def loop_lagrange4(f):
    """Weights of the nodes -1, 0, 1, 2 at f, each product divided last."""
    a, b, c = f + 1, f - 1, f - 2
    return f * b * c / -6.0, a * b * c / 2.0, a * f * c / -2.0, a * f * b / 6.0


def loop_refine_x(grid, refine):
    """The last axis resampled onto refine x Nx + 1 points, 4-point
    Lagrange with the stencil clamped to cells 1 .. Nx - 2."""
    Nx = grid.shape[-1] - 1
    q = np.arange(refine * Nx + 1) / refine
    k = np.clip(np.floor(q).astype(np.int64), 1, Nx - 2)
    w0, w1, w2, w3 = loop_lagrange4(q - k)
    return (w0 * grid[..., k - 1] + w1 * grid[..., k]
            + w2 * grid[..., k + 1] + w3 * grid[..., k + 2])


def loop_interp(rows, tq, T_star):
    Nt = rows.shape[0]
    j, f = _phase(tq, T_star, Nt)
    j = j % Nt  # _phase gives j = Nt where the phase rounds up to the period
    w0, w1, w2, w3 = loop_lagrange4(f)
    if rows.ndim > 1:
        shape = f.shape + (1,) * (rows.ndim - 1)
        w0, w1, w2, w3 = (w.reshape(shape) for w in (w0, w1, w2, w3))
    return (w0 * rows[(j - 1) % Nt] + w1 * rows[j]
            + w2 * rows[(j + 1) % Nt] + w3 * rows[(j + 2) % Nt])


def loop_source_grid(prev, spec, K, gtilde, mu, B):
    P = prev.values
    gt_off = gtilde.copy()
    np.fill_diagonal(gt_off, 0.0)
    R = np.einsum("tkij,tkj->tki", B, prev.space_derivative_grid())
    R += mu * np.einsum("tkij,tkj->tki", B, prev.time_derivative_grid())
    R += np.einsum("ij,tkj->tki", gt_off, P)
    R += K * spec.origin.mu0 * P
    R += g_nonlinear_batch(spec, P)
    return R


def loop_step(prev, spec, bspec, cfg):
    n, m = spec.n, spec.m
    Nt, Nx = prev.Nt, prev.Nx
    T, L = prev.T_star, prev.L
    dx = prev.dx
    substeps, refine = 4, 8
    hsub = dx / substeps
    t_grid, x_grid = prev.t_nodes, prev.x_nodes
    K = shift_K(spec, cfg.K)
    gtilde = gtilde_matrix(spec, K)
    lam, left, _, _ = eigen_fields(spec, prev.values)
    if left is None:  # diagonal A: component i is family i
        left = np.broadcast_to(np.eye(n), lam.shape + (n,))
    mu = 1.0 / lam
    R = loop_source_grid(prev, spec, K, gtilde, mu, _coupling_from_left(left))
    new_vals = np.empty_like(prev.values)
    for i in range(n):
        gii = gtilde[i, i]
        if i < m:
            out_cols, col_order = prev.values[:, Nx, m:], range(Nx - 1, -1, -1)
            direction, x_inflow = +1.0, L
        else:
            out_cols, col_order = prev.values[:, 0, :m], range(1, Nx + 1)
            direction, x_inflow = -1.0, 0.0
        growth = np.exp(-gii * direction * dx)
        wfac = np.exp(-gii * direction * hsub)
        mu_fine = loop_refine_x(mu[..., i], refine)
        R_fine = loop_refine_x(R[..., i], refine)
        df = int(direction) * 2
        DJ = np.zeros((Nx + 1, Nt, 2))
        for k in col_order:
            fidx = k * refine
            tcur = t_grid.copy()
            qacc = np.zeros(Nt)
            w = 1.0
            Rv = R_fine[:, fidx]
            for _ in range(substeps):
                dstep = direction * hsub
                half = fidx + df // 2
                k1 = loop_interp(mu_fine[:, fidx], tcur, T)
                k2 = loop_interp(mu_fine[:, half], tcur + 0.5 * dstep * k1, T)
                k3 = loop_interp(mu_fine[:, half], tcur + 0.5 * dstep * k2, T)
                k4 = loop_interp(mu_fine[:, fidx + df], tcur + dstep * k3, T)
                tnew = tcur + dstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                fidx += df
                wn = w * wfac
                Rn = loop_interp(R_fine[:, fidx], tnew, T)
                qacc += (-direction) * (hsub / 2.0) * (w * Rv + wn * Rn)
                w, Rv, tcur = wn, Rn, tnew
            dj = loop_interp(DJ[k + int(direction)], tcur, T)
            DJ[k, :, 0] = (t_grid - tcur) + dj[:, 0]
            DJ[k, :, 1] = growth * dj[:, 1] + qacc
        for k in range(Nx + 1):
            feet = t_grid - DJ[k, :, 0]
            bc = bspec.map_values(i, bspec.h_values(i, feet),
                                  loop_interp(out_cols, feet, T))
            carry = np.exp(gii * (x_grid[k] - x_inflow))
            new_vals[:, k, i] = carry * bc + DJ[k, :, 1]
    return Field(values=new_vals, T_star=T, L=L)


T_STAR = 2.0


def three_family(m, T_star=T_STAR):
    """n = 3 with m left-movers: state-dependent A with off-diagonal
    coupling (the general eigen path) and a linear plus quadratic F."""
    base = np.array([-1.3, 1.0, 1.6]) if m == 1 else np.array([-1.5, -0.9, 1.2])
    G = np.array([[-0.4, 0.05, -0.03], [0.04, -0.5, 0.06], [-0.02, 0.03, -0.45]])

    def A(u):
        u = np.asarray(u, dtype=float)
        a = np.zeros(u.shape[:-1] + (3, 3))
        a[..., [0, 1, 2], [0, 1, 2]] = base + 0.4 * u
        a[..., 0, 1] = a[..., 1, 0] = 0.05 + 0.2 * u[..., 2]
        a[..., 1, 2] = a[..., 2, 1] = 0.03 - 0.1 * u[..., 0]
        return a

    def F(u):
        u = np.asarray(u, dtype=float)
        return u @ G.T + 0.3 * u * u[..., [1, 2, 0]]

    spec = SystemSpec(n=3, m=m, A=A, F=F, domain_radius=0.2, L=1.0)
    hs = [systems.harmonic_signal([{"amplitude": 0.01 * (k + 1), "phase": 0.7 * k}], T_star)
          for k in range(3)]
    gains = 0.3 + 0.1 * np.arange(3)

    def gain_map(k, cols):
        return lambda hv, u: hv + gains[k] * u[..., cols].sum(axis=-1)

    bspec = BoundarySpec(
        left_maps=[gain_map(k, slice(None)) for k in range(m, 3)],
        right_maps=[gain_map(k, slice(None)) for k in range(m)],
        h=hs, T_star=T_star)
    return spec, bspec


def smooth_field(Nt, Nx, n, amp, T_star=T_STAR):
    """A field periodic in t with period T_star, nonzero in every component."""
    t = (np.arange(Nt) * T_star / Nt)[:, None, None]
    x = np.linspace(0.0, 1.0, Nx + 1)[None, :, None]
    k = np.arange(1, n + 1)[None, None, :]
    vals = amp * np.sin(2 * np.pi * t / T_star + k * x) * np.cos(k * np.pi * t / T_star - x)
    return Field(values=vals, T_star=T_star, L=1.0)


def e1_problem(T_star=T_STAR):
    spec = systems.linear_damped_scalar()
    h = systems.harmonic_signal([{"amplitude": 0.01}], T_star)
    return spec, systems.scalar_inflow_boundary(h, T_star)


def reflect_problem(T_star=T_STAR):
    spec = systems.linear_reflect_2x2()
    h1 = systems.harmonic_signal([{"amplitude": 0.01}], T_star)
    return spec, systems.reflection_boundary(0.5, h1, systems.zero_signal, T_star)


def euler_problem(T_star=T_STAR):
    spec = systems.quasilinear_euler_damping()
    h1 = systems.harmonic_signal([{"amplitude": 0.01}], T_star)
    h2 = systems.harmonic_signal([{"amplitude": 0.005, "phase": 1.0}], T_star)
    return spec, systems.two_gain_boundary(0.5, 0.5, h1, h2, T_star)


# name: (problem, Nt, Nx, K, T_star). The last four wrap the padded tables
# at a period whose grid times are not dyadic, on odd grids and on the
# smallest Nt a solve accepts.
CASES = {
    "linear_damped_scalar": (e1_problem, 16, 12, None, T_STAR),
    "linear_reflect_2x2": (reflect_problem, 16, 20, 1e-6, T_STAR),
    "quasilinear_euler_damping": (euler_problem, 20, 16, None, T_STAR),
    "three_family_m1": (lambda T: three_family(1, T), 24, 12, None, T_STAR),
    "three_family_m2": (lambda T: three_family(2, T), 12, 20, None, T_STAR),
    "linear_reflect_2x2_T2.7_21x13": (reflect_problem, 21, 13, 1e-6, 2.7),
    "three_family_m2_T2.7_21x13": (lambda T: three_family(2, T), 21, 13, None, 2.7),
    "quasilinear_euler_damping_Nt8": (euler_problem, 8, 11, None, T_STAR),
    "three_family_m1_T2.7_Nt8": (lambda T: three_family(1, T), 8, 9, None, 2.7),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_equals_the_column_loop(name):
    make, Nt, Nx, K, T_star = CASES[name]
    spec, bspec = make(T_star)
    cfg = ps.IterationConfig(Nt=Nt, Nx=Nx, K=K)
    prev = smooth_field(Nt, Nx, spec.n, 0.3 * spec.domain_radius, T_star)
    for _ in range(2):  # from a nonzero field, then from the kernel's own sweep
        got = sweep(prev, spec, bspec, cfg.K)
        want = loop_step(prev, spec, bspec, cfg)
        assert np.array_equal(got.values, want.values)
        assert np.abs(got.values).max() > 0.0
        prev = got


def test_maps_that_read_flat_batches():
    """A map that reads its outgoing trace as u.T[0] is right on one item
    and on the flat (N, n_out) batches its probe checks, but transposes a
    two-axis batch. The sweep must hand it flat batches. Nt = Nx + 1, so a
    transposed batch would broadcast without an error."""
    spec, ref = reflect_problem()
    flat_map = lambda hv, u: hv + 0.5 * u.T[0]  # noqa: E731
    bspec = BoundarySpec(left_maps=[flat_map], right_maps=[flat_map],
                         h=ref.h, T_star=T_STAR)
    cfg = ps.IterationConfig(Nt=16, Nx=15, K=1e-6)
    prev = smooth_field(16, 15, spec.n, 0.3 * spec.domain_radius)
    got = sweep(prev, spec, bspec, cfg.K)
    assert np.array_equal(got.values, sweep(prev, spec, ref, cfg.K).values)
    assert np.array_equal(got.values, loop_step(prev, spec, bspec, cfg).values)


def test_sources_that_read_flat_batches():
    """The Euler source written to read its components as u.T[j] is right on
    one state and on the flat (N, n) batches its probe checks, but
    transposes the (Nt, Nx + 1, n) grid. The sweep must hand it flat
    batches. Nt = Nx + 1, so a transposed grid broadcasts without an error."""
    spec, bspec = euler_problem()

    def F(u):
        v = 0.5 * (u.T[0] + u.T[1])
        return -0.5 * np.stack([v, v], axis=-1)

    flat_spec = SystemSpec(n=2, m=1, A=spec.A, F=F, gradF=spec.gradF,
                           domain_radius=spec.domain_radius, L=spec.L)
    cfg = ps.IterationConfig(Nt=16, Nx=15)
    prev = smooth_field(16, 15, spec.n, 0.3 * spec.domain_radius)
    got = sweep(prev, flat_spec, bspec, cfg.K)
    assert np.array_equal(got.values, sweep(prev, spec, bspec, cfg.K).values)


@pytest.mark.parametrize("name, reuses", [("linear_reflect_2x2", True),
                                          ("quasilinear_euler_damping", False)])
def test_solve_reuses_the_characteristics_while_the_speeds_stay(name, reuses, monkeypatch):
    """The linear system's speeds never change, so its solve marches mu
    once; the Euler speeds change every sweep, so its solve marches every
    sweep. Either way the solve equals standalone sweeps, each with a
    fresh context, bit for bit."""
    make, Nt, Nx, K, _ = CASES[name]
    spec, bspec = make()
    cfg = ps.IterationConfig(Nt=Nt, Nx=Nx, K=K)
    marches = []
    march = ch._march
    monkeypatch.setattr(ch, "_march", lambda *args: marches.append(1) or march(*args))
    got, report = ps.solve_periodic(spec, bspec, cfg)
    assert len(marches) == (1 if reuses else report.iterations)
    assert report.converged and report.iterations > 3

    u = Field.zeros(Nt, Nx, spec.n, T_STAR, spec.L)
    deltas = []
    for _ in range(report.iterations):
        new = sweep(u, spec, bspec, cfg.K)
        deltas.append(dg.norms(Field(values=new.values - u.values, T_star=T_STAR, L=spec.L)).c0)
        u = new
    assert np.array_equal(got.values, u.values)
    assert np.array_equal(report.deltas, deltas)


@pytest.mark.parametrize("name", ["linear_damped_scalar", "linear_reflect_2x2",
                                  "quasilinear_euler_damping", "three_family_m1",
                                  "three_family_m2"])
def test_a_reused_geometry_sweeps_as_a_fresh_context(name):
    """A sweep of the field its context last swept reuses that sweep's
    plan, geometry and reads at the feet, and equals a sweep with a fresh
    context bit for bit; so does the sweep after it. three_family runs the
    general path, with couplings B."""
    make, Nt, Nx, K, T_star = CASES[name]
    spec, bspec = make(T_star)
    prev = smooth_field(Nt, Nx, spec.n, 0.3 * spec.domain_radius, T_star)
    ctx = ps.SweepContext.for_solve(spec, bspec, K)
    first = ps.linearized_step(prev, ctx)
    plan, geometry, reads = ctx.plan(Nx), ctx.geometry, ctx._feet
    again = ps.linearized_step(prev, ctx)
    assert ctx.plan(Nx) is plan
    assert ctx.geometry is geometry and ctx._feet is reads
    fresh = sweep(prev, spec, bspec, K)
    assert np.array_equal(first.values, fresh.values)
    assert np.array_equal(again.values, fresh.values)
    assert np.array_equal(ps.linearized_step(first, ctx).values,
                          sweep(first, spec, bspec, K).values)


@pytest.mark.parametrize("m", [1, 2])
def test_other_speeds_march_again(m, monkeypatch):
    """A sweep whose speeds differ from those of the kept geometry by one
    ULP in one entry marches again, keeps the new geometry and its reads
    at the feet, and equals a fresh context's sweep bit for bit.
    three_family runs the general path, with couplings B."""
    spec, bspec = three_family(m)
    prev = smooth_field(24, 16, spec.n, 0.3 * spec.domain_radius)
    ctx = ps.SweepContext.for_solve(spec, bspec, None)
    ps.linearized_step(prev, ctx)
    kept, reads = ctx.geometry, ctx._feet

    def nudged(*args):
        lam, left, right, top = eigen_fields(*args)
        lam = lam.copy()
        lam[5, 7, 1] = np.nextafter(lam[5, 7, 1], 0.0)
        return lam, left, right, top

    marches = []
    march = ch._march
    monkeypatch.setattr(ch, "_march", lambda *args: marches.append(1) or march(*args))
    monkeypatch.setattr(ps, "eigen_fields", nudged)
    got = ps.linearized_step(prev, ctx)
    assert len(marches) == 1
    assert ctx.geometry is not kept and ctx._feet is not reads
    assert not np.array_equal(ctx.geometry.mu, kept.mu)
    assert np.array_equal(got.values, sweep(prev, spec, bspec, None).values)


def test_another_period_or_length_is_refused():
    """The context's spec and bspec fix L and T_star: a field of another
    period or length raises ValueError, before the sweep changes ctx."""
    spec, bspec = reflect_problem()
    ctx = ps.SweepContext.for_solve(spec, bspec, 1e-6)
    prev = smooth_field(16, 20, spec.n, 0.3 * spec.domain_radius)
    ps.linearized_step(prev, ctx)
    geometry = ctx.geometry
    for T_star, L in ((2.7, spec.L), (T_STAR, 1.3)):
        with pytest.raises(ValueError, match="period"):
            ps.linearized_step(Field(values=prev.values, T_star=T_star, L=L), ctx)
        assert ctx.geometry is geometry


def test_one_context_over_two_grids():
    """A context handed another grid derives its plan again and marches
    again: every sweep equals a fresh context's."""
    spec, bspec = reflect_problem()
    ctx = ps.SweepContext.for_solve(spec, bspec, 1e-6)
    for Nt, Nx in ((16, 20), (21, 13), (21, 13), (16, 20)):
        prev = smooth_field(Nt, Nx, spec.n, 0.3 * spec.domain_radius)
        got = ps.linearized_step(prev, ctx)
        assert ctx.geometry.delay.shape == prev.values.shape
        assert np.array_equal(got.values, sweep(prev, spec, bspec, 1e-6).values)


def test_every_kept_array_is_read_only():
    spec, bspec = three_family(1)
    prev = smooth_field(24, 12, spec.n, 0.3 * spec.domain_radius)
    ctx = ps.SweepContext.for_solve(spec, bspec, None)
    ps.linearized_step(prev, ctx)
    kept = [*ctx.plan(12), ctx.geometry.feet, *ctx._feet]
    assert len(kept) == 8 + 1 + 3
    for a in kept:
        with pytest.raises(ValueError):
            a[...] = 0
