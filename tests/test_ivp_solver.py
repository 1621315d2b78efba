import numpy as np
import pytest

from periodic_hyp import boundary as bd
from periodic_hyp import ivp_solver as ivp
from periodic_hyp import periodic_solver as ps
from periodic_hyp import systems
from periodic_hyp.characteristics import Field, _x_difference
from periodic_hyp.errors import BoundaryMapError, DomainError, StepSizeError
from periodic_hyp.system_model import measured_mu_max


def e1_exact(eps=0.01, c=0.5):
    return lambda t, x: eps * np.exp(-c * x) * np.sin(2 * np.pi * (t - x))


def make_e1(eps=0.01):
    spec = systems.linear_damped_scalar()
    h = systems.harmonic_signal([{"amplitude": eps}], 1.0)
    return spec, systems.scalar_inflow_boundary(h, 1.0)


def make_e2(eps=0.01, k=0.5):
    spec = systems.linear_reflect_2x2()
    h1 = systems.harmonic_signal([{"amplitude": eps}], 2.0)
    return spec, systems.reflection_boundary(k, h1, systems.zero_signal, 2.0)


class TestStep:
    def test_equilibrium_preserved(self):
        spec, _ = make_e1()
        bspec = systems.scalar_inflow_boundary(systems.zero_signal, 1.0)
        state = ivp.IvpState(t=0.0, u=np.zeros((65, 1)), dx=1.0 / 64)
        dt = 0.4 * state.dx
        for _ in range(200):
            state = ivp.step(state, dt, spec, bspec)
        assert np.abs(state.u).max() <= 1e-13 * 200

    def test_cfl_violation_raises(self):
        spec, bspec = make_e1()
        state = ivp.IvpState(t=0.0, u=np.zeros((65, 1)), dx=1.0 / 64)
        with pytest.raises(StepSizeError):
            ivp.step(state, 0.9 * state.dx, spec, bspec)

    def test_domain_exit_raises(self):
        spec, bspec = make_e1()
        state = ivp.IvpState(t=0.0, u=np.full((65, 1), 0.0999), dx=1.0 / 64)
        big = systems.harmonic_signal([{"amplitude": 0.2}], 1.0)
        bspec_big = systems.scalar_inflow_boundary(big, 1.0)
        with pytest.raises(DomainError):
            s = state
            for _ in range(50):
                s = ivp.step(s, 0.4 * s.dx, spec, bspec_big)

    def test_non_finite_boundary_value_raises(self):
        spec, _ = make_e2()
        nan_map = lambda hv, u: hv + np.nan * u[..., 0]
        keep = lambda hv, u: hv + 0.5 * u[..., 0]
        state = ivp.IvpState(t=0.0, u=np.zeros((33, 2)), dx=1.0 / 32)
        for left, right in ((nan_map, keep), (keep, nan_map)):
            bspec = bd.BoundarySpec(left_maps=[left], right_maps=[right],
                                    h=[systems.zero_signal] * 2, T_star=2.0)
            with pytest.raises(BoundaryMapError,
                               match="boundary map returned non-finite values"):
                ivp.step(state, 0.4 * state.dx, spec, bspec)

    def test_outgoing_trace_is_not_checked(self):
        # a map that ignores its NaN input writes a finite value; the NaN
        # is caught as a state outside the neighborhood
        spec, _ = make_e2()
        bspec = bd.BoundarySpec(left_maps=[lambda hv, u: hv], right_maps=[lambda hv, u: hv],
                                h=[systems.zero_signal] * 2, T_star=2.0)
        u = np.zeros((33, 2))
        u[0, 0] = np.nan
        with pytest.raises(DomainError):
            ivp.step(ivp.IvpState(t=0.0, u=u, dx=1.0 / 32), 0.01, spec, bspec)

    def test_periodic_profile_advances_one_period(self):
        spec, bspec = make_e1()
        exact = e1_exact()
        Nx = 256
        x = np.linspace(0, 1, Nx + 1)
        state = ivp.IvpState(t=0.0, u=exact(0.0, x)[:, None], dx=1.0 / Nx)
        n_steps = 800  # dt = 1/800 = 0.3125 dx/lam
        dt = 1.0 / n_steps
        for _ in range(n_steps):
            state = ivp.step(state, dt, spec, bspec)
        assert np.abs(state.u[:, 0] - exact(0.0, x)).max() <= 1e-4


class TestRun:
    def test_zero_t_end(self):
        spec, bspec = make_e1()
        u0 = np.zeros((33, 1))
        traj = ivp.run(u0, spec, bspec, t_end=0.0, record_every=0.25)
        assert traj.completed and traj.steps == 0 and traj.dt_used == 0.0
        assert np.array_equal(traj.times, [0.0])
        assert traj.profiles.shape == (1, 33, 1)
        assert np.array_equal(traj.profiles[0], u0)
        assert traj.before.shape == traj.after.shape == (0, 33, 1)

    @pytest.mark.parametrize("t_end, record_every", [
        (1.0, 0.0), (1.0, -0.25), (1.0, np.nan), (1.0, np.inf),
        (-1.0, 0.25), (np.nan, 0.25), (np.inf, 0.25),
        (1.0, 0.3),  # would stop at t = 0.9
        (0.1, 0.3),  # would make no step
    ])
    def test_rejects_a_cadence_it_cannot_honour(self, t_end, record_every):
        spec, bspec = make_e1()
        with pytest.raises(ValueError):
            ivp.run(np.zeros((33, 1)), spec, bspec, t_end=t_end, record_every=record_every)

    def test_accepts_a_multiple_up_to_rounding(self):
        spec, bspec = make_e1()
        assert 3 * 0.1 != 0.3
        traj = ivp.run(np.zeros((33, 1)), spec, bspec, t_end=0.3, record_every=0.1)
        assert traj.completed and len(traj.times) == 4

    @pytest.mark.parametrize("interval, q, samples, centred", [
        (0, 0, 1, 0), (0, -1, 1, 0),  # no sample after the initial one
        (1, 0, 2, 0),  # sample 1 recorded, the step after it failed
        (1, 1, 2, 1), (3, 0, 4, 2), (3, -1, 4, 3)])
    def test_a_run_stopped_mid_interval_keeps_its_completed_samples(
            self, monkeypatch, interval, q, samples, centred):
        """Step q of interval ``interval`` (-1: the last) leaves the
        neighborhood: the record is a prefix of the completed run's, and
        rhs_evals counts the eigen_fields calls, the failed step's two
        stages included."""
        spec, bspec = make_e2()
        x = np.linspace(0.0, 1.0, 33)[:, None]
        u0 = 0.01 * np.cos(np.pi * x + np.array([0.3, 1.1]))
        kw = dict(t_end=1.5, record_every=0.25)
        full = ivp.run(u0, spec, bspec, **kw)
        n_sub = full.steps // 6
        assert n_sub >= 3 and full.steps == 6 * n_sub
        done = interval * n_sub + q % n_sub
        real_step, real_fields = ivp.step, ivp.eigen_fields

        def step(*args):
            new = real_step(*args)  # a step finds the exit after both stages
            if count["steps"] == done:
                raise DomainError("profile left the validated neighborhood")
            count["steps"] += 1
            return new

        def eigen_fields(*args, **kwargs):
            count["speeds"] += 1
            return real_fields(*args, **kwargs)

        count = {"steps": 0, "speeds": 0}
        monkeypatch.setattr(ivp, "step", step)
        monkeypatch.setattr(ivp, "eigen_fields", eigen_fields)
        traj = ivp.run(u0, spec, bspec, **kw)
        assert not traj.completed and traj.steps == done
        assert traj.rhs_evals == count["speeds"] == 1 + 2 * (done + 1)
        assert np.array_equal(traj.times, full.times[:samples])
        assert np.array_equal(traj.profiles, full.profiles[:samples])
        assert len(traj.before) == len(traj.after) == centred
        assert np.array_equal(traj.before, full.before[:centred])
        assert np.array_equal(traj.after, full.after[:centred])
        # one block per run holds every row
        assert traj.profiles.base is traj.before.base is traj.after.base is not None

    def test_a_run_that_leaves_the_neighborhood_keeps_its_completed_samples(self):
        # a forcing ramp pushes the Euler profile out of the ball at
        # t = 1.425, after the first step of the interval from 1.25
        spec = systems.quasilinear_euler_damping()
        ramp = lambda t: 0.03 * np.asarray(t, dtype=float)  # noqa: E731
        bspec = systems.two_gain_boundary(0.5, 0.5, ramp, ramp, 2.0)
        x = np.linspace(0.0, 1.0, 25)[:, None]
        u0 = 0.01 * np.cos(np.pi * x + np.array([0.3, 1.1]))
        traj = ivp.run(u0, spec, bspec, t_end=2.0, record_every=0.25)
        short = ivp.run(u0, spec, bspec, t_end=1.25, record_every=0.25)
        assert not traj.completed and short.completed
        assert np.array_equal(traj.times, short.times)
        assert np.array_equal(traj.profiles, short.profiles)
        assert len(traj.before) == 5 and len(short.before) == 4
        assert np.array_equal(traj.before[:4], short.before)
        assert np.array_equal(traj.after[:4], short.after)
        # the last sample's after is one step from it, at the time the
        # run reached by accumulating its steps
        t = 0.0
        for _ in range(5 * round(0.25 / traj.dt_used)):
            t += traj.dt_used
        last = ivp.IvpState(t=t, u=traj.profiles[5], dx=1.0 / 24)
        assert np.array_equal(ivp.step(last, traj.dt_used, spec, bspec).u, traj.after[4])

    def test_transient_swept_out(self):
        # start from rest; after the transient crosses the domain the
        # closed-form periodic wave is all that remains
        spec, bspec = make_e1()
        exact = e1_exact()
        Nx = 256
        traj = ivp.run(np.zeros((Nx + 1, 1)), spec, bspec,
                       t_end=3.0, record_every=0.5)
        assert traj.completed
        x = traj.x
        err = np.abs(traj.profiles[-1][:, 0] - exact(3.0, x)).max()
        assert err <= 1e-4
        # zero initial data is C0-compatible with sine forcing, C1 is not
        assert traj.compat_c0 <= 1e-12
        assert traj.compat_c1 > 1e-3

    def test_convergence_order(self):
        spec, bspec = make_e1()
        exact = e1_exact()
        errs = []
        for Nx in (64, 128):
            x = np.linspace(0, 1, Nx + 1)
            traj = ivp.run(exact(0.0, x)[:, None], spec, bspec,
                           t_end=1.0, record_every=0.5)
            errs.append(np.abs(traj.profiles[-1][:, 0] - exact(1.0, x)).max())
        order = np.log2(errs[0] / errs[1])
        assert 1.7 <= order <= 2.2

    def test_periodic_solution_invariant(self):
        spec, bspec = make_e1()
        fld, _ = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=128, Nx=128))
        u0 = ps.extract_initial_data(fld)
        traj = ivp.run(u0, spec, bspec, t_end=5.0, record_every=1.0)
        assert traj.completed
        x = traj.x
        for t_s, prof in zip(traj.times, traj.profiles):
            ref = fld.interpolate(np.full_like(x, t_s), x)
            assert np.abs(prof - ref).max() <= 2e-4


def hand_built(x, times, profiles, dt_used):
    """A trajectory of the given samples, without time neighbors."""
    profiles = np.asarray(profiles, dtype=float)
    no_neighbors = np.empty((0,) + profiles.shape[1:])
    return ivp.Trajectory(x=x, times=np.asarray(times, dtype=float), profiles=profiles,
                          before=no_neighbors, after=no_neighbors, dt_used=dt_used,
                          compat_c0=0.0, compat_c1=0.0, completed=True)


def exact_match_case():
    """The scalar periodic field and a hand-built trajectory that repeats
    its first row, without time neighbors."""
    spec, bspec = make_e1()
    fld, _ = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=32, Nx=32))
    traj = hand_built(fld.x_nodes, [0.0, 1.0], [fld.values[0], fld.values[0]], 0.1)
    return spec, fld, traj


class TestStabilityMetrics:
    def test_exact_match_flag(self):
        spec, fld, traj = exact_match_case()
        rep = ivp.stability_metrics(traj, fld, spec)
        assert rep.exact_match and rep.floor_transit is None

    def test_synthetic_exponential(self):
        # Phi(t) = e^{-t} exactly: the fitted per-transit factor must be
        # e^{-T0}; here T0 = L * mu_max = 1
        spec, bspec = make_e1()
        fld = Field.zeros(32, 32, 1, 1.0, 1.0)
        times = [0.25 * s for s in range(41)]
        profiles = [np.full((33, 1), np.exp(-t)) for t in times]
        rep = ivp.stability_metrics(hand_built(fld.x_nodes, times, profiles, 0.25), fld, spec)
        assert rep.T0 == pytest.approx(1.0)
        assert rep.fitted_decay == pytest.approx(np.exp(-1.0), abs=1e-6)

    @pytest.mark.parametrize("cadence, t_end", [(0.25, 4.0), (0.25, 2.0), (0.5, 4.0)])
    def test_a_floor_recorded_at_other_times_is_refused(self, cadence, t_end):
        # the floor gates sample by sample: a shorter floor run at the
        # run's cadence gates the samples it reached, one at another
        # cadence gates nothing and is refused
        spec, bspec = make_e2()
        fld, _ = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=32, Nx=32, K=1e-6))
        base = ps.extract_initial_data(fld)
        pert = 0.005 * ivp.bump_profile(fld.x_nodes, 1.0)[:, None]
        traj = ivp.run(base + pert, spec, bspec, t_end=4.0, record_every=0.25)
        floor = ivp.run(base, spec, bspec, t_end=t_end, record_every=cadence)
        if cadence == 0.25:
            rep = ivp.stability_metrics(traj, fld, spec, floor_traj=floor)
            assert rep.phi_at_T0[0][0] == 0
        else:
            with pytest.raises(ValueError, match="other times"):
                ivp.stability_metrics(traj, fld, spec, floor_traj=floor)

    def test_e2_reflection_decay(self):
        # perturb the periodic solution; every transit reflects once with
        # gain 0.5, so the per-T0 factor is 0.5 down to the floor that the
        # unperturbed run measures
        spec, bspec = make_e2()
        fld, _ = ps.solve_periodic(spec, bspec,
                                   ps.IterationConfig(Nt=128, Nx=128, K=1e-6))
        base = ps.extract_initial_data(fld)
        pert = 0.005 * ivp.bump_profile(fld.x_nodes, 1.0)
        traj = ivp.run(base + pert[:, None], spec, bspec, t_end=10.0, record_every=0.25)
        floor = ivp.run(base, spec, bspec, t_end=10.0, record_every=0.25)
        assert traj.completed and floor.completed
        rep = ivp.stability_metrics(traj, fld, spec, floor_traj=floor)
        assert rep.T0 == pytest.approx(1.0)
        assert abs(rep.fitted_decay - 0.5) <= 0.01
        # monotone envelope after the compatibility transient
        phis = [p for k, t, p in rep.phi_at_T0]
        for k in range(2, len(phis) - 1):
            assert phis[k + 1] <= phis[k] + 1e-12
        # derivative decay tracks the value decay within a factor 2
        assert rep.fitted_derivative_decay is not None
        assert rep.fitted_derivative_decay <= 2 * rep.fitted_decay
        assert rep.fitted_derivative_decay >= rep.fitted_decay / 2


def loop_deviation_curves(traj, periodic):
    """The per-sample deviation curves that the batched ones replaced."""
    x = traj.x
    dx = x[1] - x[0]
    phi_samples = []
    dphi_samples = []
    for idx, (t_s, prof) in enumerate(zip(traj.times.tolist(), traj.profiles)):
        ref = periodic.interpolate(np.full_like(x, t_s), x)
        phi = float(np.abs(prof - ref).max())
        phi_samples.append((t_s, phi))
        if 1 <= idx <= len(traj.before):
            u_before, u_after = traj.before[idx - 1], traj.after[idx - 1]
            dtraj = (u_after - u_before) / (2 * traj.dt_used)
            dref = periodic.interpolate_dt(np.full_like(x, t_s), x)
            xref = periodic.interpolate_dx(np.full_like(x, t_s), x)
            dphi = max(float(np.abs(dtraj - dref).max()),
                       float(np.abs(_x_difference(prof, dx) - xref).max()))
            dphi_samples.append((t_s, dphi))
    return phi_samples, dphi_samples


class TestDeviationCurves:
    """The batched ``_deviation_curves`` equals the per-sample loop."""

    @staticmethod
    def euler_run(h):
        spec = systems.quasilinear_euler_damping()
        bspec = systems.two_gain_boundary(0.5, 0.5, h, h, 2.0)
        x = np.linspace(0.0, 1.0, 25)[:, None]
        u0 = 0.01 * np.cos(np.pi * x + np.array([0.3, 1.1]))
        traj = ivp.run(u0, spec, bspec, t_end=2.0, record_every=0.25)
        # a smooth stand-in for the periodic field, on another grid; on the
        # completed run dPhi comes from the t part at one sample, from the
        # x part at the others
        fld = Field.from_function(
            lambda t, x: 0.01 * np.stack([np.sin(np.pi * t + 5 * x), np.cos(np.pi * t - 2 * x)],
                                         axis=-1), Nt=16, Nx=20, T_star=2.0, L=1.0)
        return traj, fld

    def assert_same(self, traj, fld):
        """Phi at every sample and dPhi at samples 1..C, by index."""
        phi, dphi = ivp._deviation_curves(traj, fld)
        want_phi, want_dphi = loop_deviation_curves(traj, fld)
        assert [t for t, _ in want_phi] == traj.times.tolist()
        assert [t for t, _ in want_dphi] == traj.times[1:len(dphi) + 1].tolist()
        assert phi.dtype == dphi.dtype == np.float64
        assert phi.tolist() == [v for _, v in want_phi]
        assert dphi.tolist() == [v for _, v in want_dphi]
        return phi, dphi

    def test_completed_run(self):
        traj, fld = self.euler_run(systems.harmonic_signal([{"amplitude": 0.01}], 2.0))
        assert traj.completed
        phi, dphi = self.assert_same(traj, fld)
        assert len(phi) == 9 and len(dphi) == 7

    def test_run_that_left_the_neighborhood(self):
        # a forcing ramp pushes the profile out of the ball at t = 1.425
        traj, fld = self.euler_run(lambda t: 0.03 * np.asarray(t, dtype=float))
        assert not traj.completed
        phi, dphi = self.assert_same(traj, fld)
        assert len(phi) == 6 and len(dphi) == 5

    def test_hand_built_trajectory_without_neighbors(self):
        _, fld, traj = exact_match_case()
        phi, dphi = self.assert_same(traj, fld)
        assert len(phi) == 2 and len(dphi) == 0


def loop_fit_log_decay(samples, T0):
    """The fit of a list of (t, value) pairs that the array one replaced."""
    pts = [(t, v) for t, v in samples if v > ivp._NOISE_FLOOR]
    if len(pts) < 2:
        return None
    ts = np.array([t for t, _ in pts]) / T0
    vs = np.log([v for _, v in pts])
    return float(np.exp(np.polyfit(ts, vs, 1)[0]))


def loop_stability_metrics(traj, periodic, spec, floor_traj=None):
    """The list-based ``stability_metrics`` that the by-index one replaced:
    floor curves padded with zeros, dPhi matched to the T0 sequence by
    float time."""
    T0 = spec.L * measured_mu_max(spec)
    phi_samples, dphi_samples = loop_deviation_curves(traj, periodic)
    floor_phi, floor_dphi = [], []
    if floor_traj is not None:
        floor_phi, floor_dphi = loop_deviation_curves(floor_traj, periodic)
    floor_phi = [p for _, p in floor_phi] + [0.0] * len(phi_samples)
    floor_dphi = [p for _, p in floor_dphi] + [0.0] * len(dphi_samples)
    scale = max((p for _, p in phi_samples), default=0.0)
    if scale <= ivp._NOISE_FLOOR:
        return ivp.StabilityReport(phi_samples=phi_samples, dphi_samples=dphi_samples,
                                   fitted_decay=None, fitted_derivative_decay=None,
                                   T0=T0, exact_match=True)
    cadence = phi_samples[1][0] - phi_samples[0][0] if len(phi_samples) > 1 else T0
    phi_at_T0 = []
    k = 0
    for i, (t_s, phi) in enumerate(phi_samples):
        if abs(t_s - k * T0) <= cadence / 2:
            if phi <= 10.0 * floor_phi[i]:
                break
            phi_at_T0.append((k, t_s, phi))
            k += 1
    valid_times = {tt for _, tt, _ in phi_at_T0}
    fit_pts = [(t, p) for kk, t, p in phi_at_T0 if t >= 2 * T0 - 1e-12]
    dfit_pts = [(t, d) for i, (t, d) in enumerate(dphi_samples)
                if t >= 2 * T0 - 1e-12 and t in valid_times
                and d > 10.0 * floor_dphi[i]]
    return ivp.StabilityReport(phi_samples=phi_samples, dphi_samples=dphi_samples,
                               fitted_decay=loop_fit_log_decay(fit_pts, T0),
                               fitted_derivative_decay=loop_fit_log_decay(dfit_pts, T0),
                               T0=T0, phi_at_T0=phi_at_T0)


REPORT_FIELDS = ("phi_samples", "dphi_samples", "phi_at_T0", "fitted_decay",
                 "fitted_derivative_decay", "T0", "exact_match")


def same_with_types(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_with_types, a, b))
    return a == b


def assert_same_report(traj, fld, spec, floor_traj=None):
    """``stability_metrics`` equals the list-based loop, Python types
    included; returns the report."""
    got = ivp.stability_metrics(traj, fld, spec, floor_traj=floor_traj)
    want = loop_stability_metrics(traj, fld, spec, floor_traj=floor_traj)
    for name in REPORT_FIELDS:
        assert same_with_types(getattr(got, name), getattr(want, name)), name
    return got


def make_euler(eps=0.01):
    spec = systems.quasilinear_euler_damping()
    h1 = systems.harmonic_signal([{"amplitude": 1.0}], 2.0, scale=eps)
    h2 = systems.harmonic_signal([{"amplitude": 0.5, "phase": 1.0}], 2.0, scale=eps)
    return spec, systems.two_gain_boundary(0.5, 0.5, h1, h2, 2.0)


@pytest.fixture(scope="module", params=[(make_e2, 32), (make_e2, 64),
                                        (make_euler, 32), (make_euler, 64)],
                ids=["reflect-32", "reflect-64", "euler-32", "euler-64"])
def perturbed_periodic(request):
    """A periodic solve, its unperturbed initial data and a perturbed one."""
    make, N = request.param
    spec, bspec = make()
    fld, _ = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=N, Nx=N, K=1e-6))
    base = ps.extract_initial_data(fld)
    u0 = base + 0.005 * ivp.bump_profile(fld.x_nodes, spec.L)[:, None] * np.array([1.0, 0.6])
    T0 = spec.L * measured_mu_max(spec)
    return spec, bspec, fld, base, u0, T0


class TestStabilityMetricsByIndex:
    """The by-index ``stability_metrics`` reproduces the list-based one."""

    @pytest.mark.parametrize("per_transit", [4, 2])
    def test_floor_runs_of_every_length(self, perturbed_periodic, per_transit):
        # no floor, a full, a half-length and a one-transit floor, and the
        # unperturbed run measured alone
        spec, bspec, fld, base, u0, T0 = perturbed_periodic
        cadence = T0 / per_transit
        traj = ivp.run(u0, spec, bspec, t_end=10 * per_transit * cadence, record_every=cadence)
        assert traj.completed
        assert_same_report(traj, fld, spec)
        for transits in (10, 5, 1):
            floor = ivp.run(base, spec, bspec, t_end=transits * per_transit * cadence,
                            record_every=cadence)
            assert_same_report(traj, fld, spec, floor_traj=floor)
        alone = assert_same_report(floor, fld, spec)
        assert alone.phi_at_T0 == [] and alone.floor_transit == 0

    def test_zero_t_end(self, perturbed_periodic):
        spec, bspec, fld, base, u0, T0 = perturbed_periodic
        traj = ivp.run(u0, spec, bspec, t_end=0.0, record_every=T0 / 4)
        rep = assert_same_report(traj, fld, spec, floor_traj=traj)
        assert rep.dphi_samples == [] and rep.floor_transit == 0

    def test_runs_that_left_the_neighborhood(self):
        # the early-stopped Euler run of TestDeviationCurves, alone and
        # gated by a completed run that is longer than it
        traj, fld = TestDeviationCurves.euler_run(lambda t: 0.03 * np.asarray(t, dtype=float))
        floor, _ = TestDeviationCurves.euler_run(
            systems.harmonic_signal([{"amplitude": 0.01}], 2.0))
        assert not traj.completed and floor.completed
        spec = systems.quasilinear_euler_damping()
        assert assert_same_report(traj, fld, spec).floor_transit is None
        assert_same_report(traj, fld, spec, floor_traj=floor)


class TestFloorTransit:
    """``floor_transit`` is the k at which the T0 sequence stopped on the
    floor, None when it ran out of samples."""

    def test_a_sequence_that_runs_out_of_samples(self):
        # Phi(t) = e^{-t} and no floor run: every transit is kept
        spec, _ = make_e1()
        fld = Field.zeros(32, 32, 1, 1.0, 1.0)
        times = [0.25 * s for s in range(17)]
        traj = hand_built(fld.x_nodes, times, [np.full((33, 1), np.exp(-t)) for t in times], 0.25)
        rep = ivp.stability_metrics(traj, fld, spec)
        assert len(rep.phi_at_T0) == 5 and rep.floor_transit is None

    def test_an_exact_zero_at_t0_without_a_floor_run(self):
        # Phi(0) = 0 is not above 10x a zero floor: the sequence stops at k = 0
        spec, fld, _ = exact_match_case()
        traj = hand_built(fld.x_nodes, [0.0, 0.5, 1.0],
                          [fld.values[0], fld.values[0] + 1e-3, fld.values[0] + 1e-3], 0.1)
        rep = ivp.stability_metrics(traj, fld, spec)
        assert rep.phi_samples[0][1] == 0.0 and not rep.exact_match
        assert rep.floor_transit == 0 and rep.phi_at_T0 == []
        assert rep.fitted_decay is None


class TestBump:
    def test_support_and_peak(self):
        x = np.linspace(0, 1, 101)
        b = ivp.bump_profile(x, 1.0)
        assert b[0] == 0.0 and b[-1] == 0.0
        assert b[50] == pytest.approx(1.0)
        assert np.all(b >= 0)
