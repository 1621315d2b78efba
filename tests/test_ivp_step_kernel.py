"""The IVP step kernel against the per-stage step it replaced.

``loop_step`` is the earlier ``ivp_solver.step``: it computes the
eigenstructure for the CFL check and again in each stage (3 calls per
step), evaluates A and F separately, projects every family through its
eigenvectors, builds the upwind derivative once per family with its own
copy of the one-sided stencil, and evaluates every forcing signal and
looks up every boundary map again in each stage. The kernel makes one
coefficient call (``SystemSpec.AF_at``) per stage, takes a spec's speeds
as they are when it gives them and diag A when a matrix A is diagonal
(``eigen_fields`` then gives no bases; the loop fills in the identity and
projects through it), reads the CFL bound from the first stage's speed
check, makes one gather of the
upwind derivatives per stage through a cached tap table, each column in
its own family's direction when A is diagonal and in both directions
otherwise, writes the boundary from the maps of
``BoundarySpec.sides`` and, in ``ivp.run``, evaluates each signal once
per recording interval; ``ivp.run`` must reproduce the loop bit for bit.
"""
import dataclasses
import math

import numpy as np
import pytest
from test_sweep_kernel import e1_problem, euler_problem, reflect_problem, three_family

from periodic_hyp import boundary as bd
from periodic_hyp import ivp_solver as ivp
from periodic_hyp import systems
from periodic_hyp.errors import BoundaryMapError, DomainError, StepSizeError
from periodic_hyp.system_model import SystemSpec, eigen_fields


def loop_upwind_dx(u, dx, from_left):
    g = np.empty_like(u)
    if from_left:
        g[2:] = (3 * u[2:] - 4 * u[1:-1] + u[:-2]) / (2 * dx)
        g[1] = (u[2] - u[0]) / (2 * dx)
        g[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * dx)
    else:
        g[:-2] = (-3 * u[:-2] + 4 * u[1:-1] - u[2:]) / (2 * dx)
        g[-2] = (u[-1] - u[-3]) / (2 * dx)
        g[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dx)
    return g


@pytest.mark.parametrize("Nx", [8, 9, 33])
def test_the_tap_table_reads_the_slice_stencil(Nx):
    """Both layouts of ``_upwind_taps`` give the slice stencil bit for bit,
    signed zeros included: direction 0 (and the first m columns of the
    own-direction layout) biased toward larger x, direction 1 (and the
    other columns) toward smaller x."""
    rng = np.random.default_rng(Nx)
    dx = 1.0 / Nx
    for n in range(1, 5):
        u = rng.standard_normal((Nx + 1, n)) * 10.0 ** rng.integers(-8, 3, (Nx + 1, n))
        u[rng.random(u.shape) < 0.1] = -0.0
        want = np.stack([loop_upwind_dx(u, dx, from_left=False),
                         loop_upwind_dx(u, dx, from_left=True)])
        for m in range(n + 1):
            both, own = ivp._upwind_taps(Nx, n, m)
            got = ivp._upwind_dx(u, dx, *both)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            got = ivp._upwind_dx(u, dx, *own)
            assert np.array_equal(got[:, :m], want[0, :, :m])
            assert np.array_equal(got[:, m:], want[1, :, m:])
            assert np.array_equal(np.signbit(got[:, :m]), np.signbit(want[0, :, :m]))
            assert np.array_equal(np.signbit(got[:, m:]), np.signbit(want[1, :, m:]))


def test_the_tap_table_is_built_once_per_grid():
    first = ivp._upwind_taps(16, 3, 1)
    again = ivp._upwind_taps(16, 3, 1)
    assert all(a is b for a, b in zip(first[0] + first[1], again[0] + again[1]))
    for a in first[0] + first[1]:
        assert not a.flags.writeable
    assert ivp._upwind_taps(16, 3, 2)[1][0] is not first[1][0]


def loop_rhs(u, spec, dx):
    lam, left, right, _ = eigen_fields(spec, u)
    if left is None:  # diagonal A: component i is family i
        left = right = np.broadcast_to(np.eye(spec.n), lam.shape + (spec.n,))
    du = spec.F_at(u)
    for i in range(spec.n):
        dxu = loop_upwind_dx(u, dx, from_left=i >= spec.m)
        w = np.einsum("kc,kc->k", left[:, i, :], dxu)
        du = du - (lam[:, i] * w)[:, None] * right[:, :, i]
    return du


def loop_impose(u, t, spec, bspec):
    m = spec.m
    if spec.n - m:
        u[0, m:] = bd.eval_boundary(bspec, "left", t, u[0, :m])
    if m:
        u[-1, :m] = bd.eval_boundary(bspec, "right", t, u[-1, m:])


def loop_step(state, dt, spec, bspec, signals=None):
    # the signal values ``ivp.run`` passes are ignored: the reference
    # evaluates every signal again in each stage
    u = state.u
    lam = eigen_fields(spec, u)[0]
    lam_max = float(np.abs(lam).max())
    if dt > 0.8 * state.dx / lam_max * (1 + 1e-12):
        raise StepSizeError("dt above the CFL cap")
    f1 = loop_rhs(u, spec, state.dx)
    u1 = u + dt * f1
    loop_impose(u1, state.t + dt, spec, bspec)
    f2 = loop_rhs(u1, spec, state.dx)
    u_new = u + 0.5 * dt * (f1 + f2)
    loop_impose(u_new, state.t + dt, spec, bspec)
    if not spec.contains(u_new):
        raise DomainError("profile left the validated neighborhood")
    return ivp.IvpState(t=state.t + dt, u=u_new, dx=state.dx)


def initial_profile(spec, Nx):
    """A smooth profile at 40 % of the neighborhood radius, nonzero at
    both ends so that the corners start incompatible."""
    x = np.linspace(0.0, spec.L, Nx + 1)[:, None]
    k = np.arange(1, spec.n + 1)[None, :]
    return 0.4 * spec.domain_radius * np.cos(k * np.pi * x / spec.L + 0.3 * k) / np.sqrt(spec.n)


def swapping_diagonal(m):
    """Diagonal n = 3 with m left-movers: two speeds of one group cross
    at u_0 = 0.014, so their order changes from node to node. The
    boundary and the source are those of ``three_family(m)``."""
    three, bspec = three_family(m)

    def A(u):
        u = np.asarray(u, dtype=float)
        a, b = 1.0 + 3.0 * u[..., 0], 1.07 - 2.0 * u[..., 0]
        c = 1.3 + 0.2 * u[..., 2]
        d = np.stack([-c, a, b] if m == 1 else [-a, -b, c], axis=-1)
        return d[..., None] * np.eye(3)

    spec = SystemSpec(n=3, m=m, A=A, F=three.F, domain_radius=0.2, L=1.0)
    return spec, bspec


def euler_without_AF():
    """The Euler problem with A and F evaluated one after the other."""
    spec, bspec = euler_problem()
    assert spec.AF is not None
    return dataclasses.replace(spec, AF=None), bspec


def matrix_form(spec):
    """The spec with A (and AF's A) as the matrix diag(speeds) of a spec
    that gives its speeds."""
    assert spec.gives_speeds

    def matrix(speeds):
        out = np.zeros(speeds.shape + (spec.n,))
        out[..., np.arange(spec.n), np.arange(spec.n)] = speeds
        return out

    AF = None if spec.AF is None else (lambda u: (lambda a, f: (matrix(a), f))(*spec.AF(u)))
    twin = dataclasses.replace(spec, A=lambda u: matrix(spec.A(u)), AF=AF)
    assert not twin.gives_speeds
    return twin


def as_matrix(make):
    def problem():
        spec, bspec = make()
        return matrix_form(spec), bspec
    return problem


CASES = {
    "linear_damped_scalar": (e1_problem, 20),
    "linear_damped_scalar_matrix": (as_matrix(e1_problem), 20),
    "quasilinear_euler_damping": (euler_problem, 24),
    "quasilinear_euler_damping_matrix": (as_matrix(euler_problem), 24),
    "quasilinear_euler_damping_without_AF": (euler_without_AF, 24),
    "linear_reflect_2x2": (reflect_problem, 20),
    "linear_reflect_2x2_matrix": (as_matrix(reflect_problem), 20),
    "three_family_m1": (lambda: three_family(1), 16),
    "three_family_m2": (lambda: three_family(2), 16),
    "swapping_diagonal_m1": (lambda: swapping_diagonal(1), 16),
    "swapping_diagonal_m2": (lambda: swapping_diagonal(2), 16),
}
DIAGONAL = {"linear_damped_scalar", "linear_damped_scalar_matrix",
            "quasilinear_euler_damping", "quasilinear_euler_damping_matrix",
            "quasilinear_euler_damping_without_AF", "linear_reflect_2x2",
            "linear_reflect_2x2_matrix", "swapping_diagonal_m1", "swapping_diagonal_m2"}


@pytest.mark.parametrize("m", [1, 2])
def test_the_swapping_speeds_change_order_between_nodes(m):
    spec, _ = swapping_diagonal(m)
    speeds, left, _, _ = eigen_fields(spec, initial_profile(spec, 16))
    assert left is None
    group = slice(1, 3) if m == 1 else slice(0, 2)
    orders = {tuple(np.argsort(d[group])) for d in speeds}
    assert orders == {(0, 1), (1, 0)}


def run_both(name, monkeypatch):
    make, Nx = CASES[name]
    spec, bspec = make()
    u0 = initial_profile(spec, Nx)
    args = (u0, spec, bspec)
    kw = dict(t_end=1.5 * spec.L, record_every=0.25 * spec.L)
    got = ivp.run(*args, **kw)
    with monkeypatch.context() as mp:
        mp.setattr(ivp, "step", loop_step)
        mp.setattr(ivp, "_rhs", lambda u, spec, dx: (loop_rhs(u, spec, dx), None))
        want = ivp.run(*args, **kw)
    return got, want


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_equals_the_per_stage_loop(name, monkeypatch):
    got, want = run_both(name, monkeypatch)
    assert got.completed and want.completed
    assert got.dt_used == want.dt_used
    assert (got.compat_c0, got.compat_c1) == (want.compat_c0, want.compat_c1)
    assert np.array_equal(got.times, want.times)
    assert len(got.profiles) == len(want.profiles) == 7
    assert np.array_equal(got.profiles, want.profiles)
    assert np.abs(got.profiles[-1] - got.profiles[0]).max() > 0.0
    assert len(got.before) == len(want.before) == 5
    assert np.array_equal(got.before, want.before)
    assert np.array_equal(got.after, want.after)


def counting(fn, calls, key):
    def wrapped(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_step_shares_its_eigenstructure_and_signals(name, monkeypatch):
    """Per step: 2 speed evaluations (one per stage), eigenvectors only
    for a non-diagonal A, one stencil gather per stage and one evaluation
    of each forcing signal."""
    make, Nx = CASES[name]
    spec, bspec = make()
    state = ivp.IvpState(t=0.1, u=initial_profile(spec, Nx), dx=spec.L / Nx)
    calls = {"speeds": 0, "bases": 0, "stencil": 0, "h": 0}

    def counted_fields(*args):
        calls["speeds"] += 1
        fields = eigen_fields(*args)
        calls["bases"] += fields[1] is not None
        return fields

    monkeypatch.setattr(ivp, "eigen_fields", counted_fields)
    monkeypatch.setattr(ivp, "_upwind_dx", counting(ivp._upwind_dx, calls, "stencil"))
    monkeypatch.setattr(bd.BoundarySpec, "h_values",
                        counting(bd.BoundarySpec.h_values, calls, "h"))
    ivp.step(state, 0.2 * state.dx, spec, bspec)
    assert calls == {"speeds": 2, "bases": 0 if name in DIAGONAL else 2,
                     "stencil": 2, "h": spec.n}


def test_run_counts_its_work(monkeypatch):
    """Trajectory.steps / rhs_evals against counted rhs and eigen_fields
    calls, on a run that completes and on one that leaves the neighborhood."""
    spec, bspec = euler_problem()
    u0 = initial_profile(spec, 16)
    big = bd.BoundarySpec(left_maps=bspec.left_maps, right_maps=bspec.right_maps,
                          h=[lambda t: 0.2 * np.sin(np.pi * np.asarray(t))] * 2,
                          T_star=bspec.T_star)
    for boundary, completed in ((bspec, True), (big, False)):
        calls = {"speeds": 0, "rhs": 0}
        with monkeypatch.context() as mp:
            # the step-size bound reads spec.sampled_speeds, which
            # system_model computes: the IVP's own calls are counted
            mp.setattr(ivp, "eigen_fields", counting(eigen_fields, calls, "speeds"))
            mp.setattr(ivp, "_rhs", counting(ivp._rhs, calls, "rhs"))
            traj = ivp.run(u0, spec, boundary, t_end=2.0, record_every=0.5)
        assert traj.completed is completed
        failed = 0 if completed else 1
        assert traj.rhs_evals == calls["speeds"] == 1 + 2 * (traj.steps + failed)
        assert traj.rhs_evals == calls["rhs"]
        assert traj.steps > 0


def test_one_coefficient_call_per_stage():
    """With AF, a step calls it once per stage and never A or F; without
    it, A and F once each per stage."""
    euler, bspec = euler_problem()
    for with_AF, want in ((True, {"AF": 2, "A": 0, "F": 0}),
                          (False, {"AF": 0, "A": 2, "F": 2})):
        calls = dict.fromkeys(want, 0)
        fns = {key: counting(getattr(euler, key), calls, key) for key in calls}
        spec = dataclasses.replace(euler, A=fns["A"], F=fns["F"],
                                   AF=fns["AF"] if with_AF else None)
        calls.update(dict.fromkeys(calls, 0))  # the probes at construction
        state = ivp.IvpState(t=0.1, u=initial_profile(spec, 16), dx=spec.L / 16)
        ivp.step(state, 0.2 * state.dx, spec, bspec)
        assert calls == want


def nan_map_problem(after):
    """The Euler problem whose x = 0 map returns NaN from its call number
    ``after`` on, counted from the first call of a step."""
    spec, bspec = euler_problem()
    gain = bspec.left_maps[0]
    count = {"calls": 0}

    def left(hv, u):
        count["calls"] += 1
        out = np.asarray(gain(hv, u), dtype=float)
        return out * np.nan if count["calls"] >= after else out

    nan_bspec = dataclasses.replace(bspec, left_maps=[left])
    nan_bspec.sides  # resolve the maps, whose batching probe calls them too
    count["calls"] = 0
    return spec, nan_bspec


@pytest.mark.parametrize("stage", [1, 2])
def test_a_non_finite_map_value_raises_from_either_stage(stage, monkeypatch):
    spec, bspec = nan_map_problem(after=stage)
    rhs = {"calls": 0}
    monkeypatch.setattr(ivp, "_rhs", counting(ivp._rhs, rhs, "calls"))
    state = ivp.IvpState(t=0.1, u=initial_profile(spec, 16), dx=spec.L / 16)
    with pytest.raises(BoundaryMapError, match="non-finite"):
        ivp.step(state, 0.2 * state.dx, spec, bspec)
    assert rhs["calls"] == stage  # the stage that imposed the boundary


def scalar_only(t):
    """A forcing signal that takes one time at a time (math.sin)."""
    return 0.01 * math.sin(math.pi * float(t)) + 0.004 * math.cos(3 * math.pi * float(t))


def test_a_looped_signal_gives_the_trajectory_of_per_step_evaluation(monkeypatch):
    """A signal that does not broadcast is looped over the interval's step
    times, and the run equals one whose steps each evaluate it."""
    spec, bspec = euler_problem()
    bspec = dataclasses.replace(bspec, h=[scalar_only, bspec.h[1]])
    with pytest.raises(TypeError):
        scalar_only(np.array([0.1, 0.2]))
    u0 = initial_profile(spec, 16)
    kw = dict(t_end=1.5, record_every=0.25)
    got = ivp.run(u0, spec, bspec, **kw)
    step = ivp.step
    with monkeypatch.context() as mp:
        mp.setattr(ivp, "step", lambda state, dt, spec, bspec, signals=None:
                   step(state, dt, spec, bspec))
        want = ivp.run(u0, spec, bspec, **kw)
    assert got.completed and want.completed and got.steps == want.steps
    for a, b in zip(got.profiles, want.profiles):
        assert np.array_equal(a, b)


def test_run_evaluates_each_signal_once_per_interval(monkeypatch):
    spec, bspec = euler_problem()
    calls = {"h": 0}
    monkeypatch.setattr(bd.BoundarySpec, "h_values",
                        counting(bd.BoundarySpec.h_values, calls, "h"))
    traj = ivp.run(initial_profile(spec, 16), spec, bspec, t_end=1.5, record_every=0.25)
    # the compatibility residuals read 3 values of each signal
    assert calls["h"] == spec.n * (3 + len(traj.times) - 1)
    assert traj.steps > len(traj.times) - 1


def test_harmonic_signal_on_an_array_equals_its_scalar_values():
    """``ivp.run`` evaluates the signals on arrays of step times where the
    steps used to evaluate them one time at a time; the trajectories are
    the same only while numpy's vectorized sin gives the bits of its
    scalar sin."""
    signal = systems.harmonic_signal(
        [{"amplitude": 1.0, "harmonic": 1}, {"amplitude": 0.5, "harmonic": 3, "phase": 1.0}],
        2.0, scale=0.01)
    times = np.cumsum(np.full(4099, 2.0 / 97))
    on_array = signal(times)
    one_by_one = np.array([signal(t) for t in times])
    differ = np.flatnonzero(on_array != one_by_one)
    assert differ.size == 0, (
        f"numpy's sin on an array differs from its scalar sin at {differ.size} "
        f"of {times.size} times (first t = {times[differ[0]] if differ.size else None}): "
        "per-interval signal values are not those of per-step evaluation here")


def test_a_step_refuses_a_boundary_of_another_shape():
    spec, _ = euler_problem()
    _, scalar_bspec = e1_problem()
    state = ivp.IvpState(t=0.0, u=initial_profile(spec, 16), dx=spec.L / 16)
    with pytest.raises(ValueError, match="boundary has n = 1"):
        ivp.step(state, 0.01, spec, scalar_bspec)
