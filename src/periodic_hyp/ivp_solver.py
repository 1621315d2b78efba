"""Forward-in-time solution of the initial-boundary value problem and
measurement of convergence toward the periodic solution.

The semi-discrete scheme differentiates in local characteristic variables:
at each node the state gradient is upwinded per family (fully one-sided
2nd-order from the side the family's characteristic arrives from), then
du/dt = -sum_i lambda_i (l_i . d_x u) r_i + F(u). Time stepping is Heun's
2-stage method with the boundary maps imposed after every stage. A von
Neumann check of the one-sided stencil puts the stability margin near
CFL 0.5, so runs default to 0.4; the hard precondition cap is 0.8.

Each stage makes one coefficient call, ``SystemSpec.AF_at``, which gives
its A and F (one call of the spec's ``AF`` when it has one, so shared
intermediates are computed once), and one ``eigen_fields`` call its
checked speeds: a spec's speeds as they are when A gives them, as for
systems in Riemann invariants, diag A for a diagonal matrix A, and the
eigenstructure otherwise. The speeds of a stage pass one accept test,
which implies every hyperbolicity and signature check and gives the top
|speed| for the first stage's CFL check; only speeds that fail it go
through the ordered diagnosis that names the error. Each stage reads its
upwind derivatives in one gather through a tap table built once per grid
(``_upwind_taps``): for a diagonal A each component in its own family's
direction, otherwise both directions for the eigenvector projection. Both stages impose the
boundary at the step's end time: each incoming entry is written straight
from its batched map, resolved once per boundary spec
(``BoundarySpec.sides``), and the entries written on each side are
checked to be finite. ``run``
evaluates every forcing signal once per recording interval, on the step
times of the interval accumulated as the steps accumulate them, and
hands each step its values; it records every sample and neighbor in one
array block per run (``Trajectory``).
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import boundary as bd
from .characteristics import Field, _x_difference
from .errors import BoundaryMapError, DomainError, StepSizeError
from .system_model import SystemSpec, eigen_fields, measured_mu_max

logger = logging.getLogger("periodic_hyp")

_CFL_CAP = 0.8
_RUN_CFL = 0.4
_NOISE_FLOOR = 1e-13


@dataclass
class IvpState:
    """Spatial profile at one instant."""

    t: float
    u: np.ndarray
    dx: float


@dataclass
class Trajectory:
    """Recorded profiles of one run, with neighbors for time derivatives.

    times (S,) and profiles (S, Nx+1, n) hold the samples, the initial
    data first; before and after (C, Nx+1, n) the profiles one step
    dt_used before and after samples 1..C, whose next step completed.
    compat_c0 / compat_c1 are the initial data's corner compatibility
    residuals (reported, not enforced). steps counts the Heun steps done;
    rhs_evals counts the run's rhs calls, each of which makes one
    ``eigen_fields`` call, a step that left the neighborhood and the set-up
    included; the step-size bound reads ``spec.sampled_speeds``.
    """

    x: np.ndarray
    times: np.ndarray
    profiles: np.ndarray
    before: np.ndarray
    after: np.ndarray
    dt_used: float
    compat_c0: float
    compat_c1: float
    completed: bool
    failure: Optional[str] = None
    steps: int = 0
    rhs_evals: int = 0


@dataclass
class StabilityReport:
    """Deviation from the periodic solution and fitted per-transit decay.

    phi_samples holds (t, Phi(t)); dphi_samples the first-derivative
    analogue; phi_at_T0 the (k, t, Phi) sequence at multiples of the
    transit time T0 = L * mu_max used for the envelope and the fits.
    floor_transit is the k at which that sequence stopped because Phi
    fell to 10x the discretization floor; None when it ran out of samples
    (or Phi is zero throughout: exact_match).
    """

    phi_samples: list
    dphi_samples: list
    fitted_decay: Optional[float]
    fitted_derivative_decay: Optional[float]
    T0: float
    phi_at_T0: list = field(default_factory=list)
    exact_match: bool = False
    floor_transit: Optional[int] = None


def bump_profile(x: np.ndarray, L: float) -> np.ndarray:
    """Smooth compactly supported bump on (0, L), max 1 at the center."""
    xi = 2.0 * np.asarray(x, dtype=float) / L - 1.0
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi[inside] ** 2))
    return out


@functools.lru_cache(maxsize=32)
def _upwind_taps(Nx: int, n: int, m: int) -> tuple:
    """Flat taps and coefficients of ``_upwind_dx`` on an (Nx+1, n)
    profile, computed once per grid, read-only, in two layouts.

    ``both`` (taps, coef), each (3, 2, Nx+1, n): direction 0 is biased
    toward larger x (left-moving families), direction 1 toward smaller x.
    ``own`` (taps, coef), each (3, Nx+1, n): column c in the direction of
    family c, the m left-moving ones first. The one-sided stencils read
    (4, -3, -1) at (k+1, k, k+2) and (3, -4, 1) at (k, k-1, k-2); one node
    in from the starved boundary the entry is central, (1, -1, 0), its
    third tap on its first tap's node, and the boundary node takes the
    other side's stencil. Multiplying by -1 or 1 is exact and fl(-3b) is
    -fl(3b), so each entry has the bits of 4a - 3b - c (or 3a - 4b + c,
    a - b) computed left to right; the zero tap reads the node of the
    first, so it makes no finite entry NaN.
    """
    k = np.arange(Nx + 1)
    taps = np.empty((3, 2, Nx + 1), dtype=np.int64)
    coef = np.empty((3, 2, Nx + 1))
    taps[:, 0, :-2], coef[:, 0, :-2] = [k[1:-1], k[:-2], k[2:]], [[4.0], [-3.0], [-1.0]]
    taps[:, 1, 2:], coef[:, 1, 2:] = [k[2:], k[1:-1], k[:-2]], [[3.0], [-4.0], [1.0]]
    taps[:, 1, 1], coef[:, 1, 1] = [2, 0, 2], [1.0, -1.0, 0.0]
    taps[:, 0, -2], coef[:, 0, -2] = [Nx, Nx - 2, Nx], [1.0, -1.0, 0.0]
    taps[:, 1, 0], coef[:, 1, 0] = taps[:, 0, 0], coef[:, 0, 0]
    taps[:, 0, -1], coef[:, 0, -1] = taps[:, 1, -1], coef[:, 1, -1]
    # node k, component c of the profile is flat entry k n + c
    taps = taps[..., None] * n + np.arange(n)
    coef = np.repeat(coef[..., None], n, axis=-1)
    right_moving = np.arange(n) >= m
    own = tuple(np.where(right_moving, a[:, 1], a[:, 0]) for a in (taps, coef))
    for a in (taps, coef) + own:
        a.flags.writeable = False
    return (taps, coef), own


def _upwind_dx(u: np.ndarray, dx: float, taps: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Fully one-sided 2nd-order upwind derivatives of the profile u, in
    one gather through a layout of ``_upwind_taps``: the sum of the three
    taps times their coefficients, in order, over 2 dx. The result has
    the shape of taps without its leading axis."""
    t = u.take(taps)  # the flat profile, node k component c at k n + c
    t *= coef
    g = t[0] + t[1]
    g += t[2]
    g /= 2 * dx
    return g


def _rhs(u: np.ndarray, spec: SystemSpec, dx: float) -> tuple:
    """Semi-discrete du/dt in characteristic variables, and the top
    |lambda| of its checked speeds.

    One ``spec.AF_at`` call gives A and F, and ``eigen_fields`` the
    checked speeds, their top and the bases. One gather gives the upwind
    derivatives (``_upwind_dx``). Without bases (a diagonal A) the components are the
    characteristic variables, each differenced in its own family's
    direction, and du = F - lambda * that derivative; otherwise the
    gather gives both directions and each family is projected through its
    eigenvectors, the m left-moving ones taking the stencil biased to
    larger x.
    """
    A, Fv = spec.AF_at(u)
    lam, left, right, top = eigen_fields(spec, u, A)
    both, own = _upwind_taps(len(u) - 1, spec.n, spec.m)
    du = Fv
    if left is None:
        # the speeds passed their check: the m left-moving families come first
        return du - lam * _upwind_dx(u, dx, *own), top
    dxu = _upwind_dx(u, dx, *both)
    for i in range(spec.n):
        w = np.einsum("kc,kc->k", left[:, i, :], dxu[int(i >= spec.m)])
        du = du - (lam[:, i] * w)[:, None] * right[:, :, i]
    return du, top


def _impose_boundary(u: np.ndarray, signals, bspec: bd.BoundarySpec) -> None:
    """Overwrite incoming components from the feedback maps (in place),
    with signals[i] = h_i(t) for every component i: x = 0 first, then
    x = L. Each component is written straight from its batched map
    (``BoundarySpec.sides``); after each side, raises BoundaryMapError if
    a value it wrote is not finite (the outgoing trace it read is not
    checked)."""
    for row, incoming, maps in bspec.sides:
        for i, fn, cols in maps:
            u[row, i] = fn(signals[i], u[row, cols])
        if not all(map(math.isfinite, u[row, incoming].tolist())):
            raise BoundaryMapError("boundary map returned non-finite values")


def step(state: IvpState, dt: float, spec: SystemSpec,
         bspec: bd.BoundarySpec, signals=None) -> IvpState:
    """One Heun step with per-stage boundary imposition.

    One ``spec.AF_at`` call per stage gives its A and F; the first
    stage's speed check gives the top speed for the CFL check. Both
    stages impose the boundary at t + dt, from signals[i] = h_i(t + dt),
    which are evaluated here when not given. Raises ValueError when spec
    and bspec disagree on n or m, StepSizeError when dt exceeds
    0.8 dx / max |lambda| on the current profile and DomainError when the
    new profile leaves the validated neighborhood (the blow-up proxy).
    """
    if spec.n != bspec.n or spec.m != bspec.m:
        raise ValueError(f"boundary has n = {bspec.n}, m = {bspec.m}; "
                         f"the system n = {spec.n}, m = {spec.m}")
    u = state.u
    f1, lam_max = _rhs(u, spec, state.dx)
    if dt > _CFL_CAP * state.dx / lam_max * (1 + 1e-12):
        raise StepSizeError(
            f"dt={dt:.3e} exceeds {_CFL_CAP} dx / max|lambda| = "
            f"{_CFL_CAP * state.dx / lam_max:.3e}"
        )
    t_new = state.t + dt
    if signals is None:
        signals = [bspec.h_values(i, t_new) for i in range(spec.n)]
    u1 = u + dt * f1
    _impose_boundary(u1, signals, bspec)
    f2, _ = _rhs(u1, spec, state.dx)
    u_new = u + 0.5 * dt * (f1 + f2)
    _impose_boundary(u_new, signals, bspec)
    if not spec.contains(u_new):
        raise DomainError("profile left the validated neighborhood")
    return IvpState(t=t_new, u=u_new, dx=state.dx)


def _compat_residuals(u0: np.ndarray, spec: SystemSpec,
                      bspec: bd.BoundarySpec, dx: float) -> tuple:
    """C0 and C1 corner mismatches of the initial data with the maps.

    C0: incoming trace vs the map of the outgoing trace. C1: time
    derivative of the incoming trace from the PDE vs the chain rule
    through the map (``BoundarySpec.map_gradient``). Each family's row,
    outgoing slice and map are read from ``BoundarySpec.sides``.
    """
    ut, _ = _rhs(u0, spec, dx)
    eps = 1e-7  # step of the signals' central differences
    c0 = c1 = 0.0
    for row, _, maps in bspec.sides:
        for i, fn, cols in maps:
            hv = bspec.h_values(i, 0.0)
            hp = (bspec.h_values(i, eps) - bspec.h_values(i, -eps)) / (2 * eps)
            dgdh, dgdu = bspec.map_gradient(i, hv, u0[row, cols])
            c0 = max(c0, abs(float(u0[row, i] - fn(hv, u0[row, cols]))))
            c1 = max(c1, abs(float(ut[row, i] - dgdh * hp - dgdu @ ut[row, cols])))
    return c0, c1


def run(u0: np.ndarray, spec: SystemSpec, bspec: bd.BoundarySpec,
        t_end: float, record_every: float) -> Trajectory:
    """March the initial profile to t_end, recording at a fixed cadence.

    The time step divides record_every exactly and respects CFL 0.4 times
    the worst-case dx / |lambda| over the whole validated neighborhood, so one
    step size serves the entire run. Returns early (completed=False, with
    the failure message) if the profile leaves the neighborhood.
    Raises ValueError unless record_every is finite and positive and
    t_end is 0 or a whole multiple (at least 1) of record_every, within
    1e-9 relative: no other t_end is reached on the cadence.
    """
    if not (math.isfinite(record_every) and record_every > 0):
        raise ValueError(f"record_every must be finite and positive, got {record_every!r}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and nonnegative, got {t_end!r}")
    ratio = t_end / record_every
    n_samples = round(ratio) if math.isfinite(ratio) else 0
    if t_end > 0 and not (n_samples >= 1
                          and abs(n_samples * record_every - t_end) <= 1e-9 * t_end):
        raise ValueError(f"t_end={t_end!r} is not a whole multiple of "
                         f"record_every={record_every!r}")
    u0 = np.asarray(u0, dtype=float)
    Nx = u0.shape[0] - 1
    dx = spec.L / Nx
    lam_bound = float(np.abs(spec.sampled_speeds).max())
    if t_end > 0:
        n_sub = max(1, int(np.ceil(record_every * lam_bound / (_RUN_CFL * dx))))
        dt = record_every / n_sub
    else:
        n_sub, dt = 1, 0.0

    c0, c1 = _compat_residuals(u0, spec, bspec, dx)
    # the samples and the neighbors of samples 1.. are rows of one block
    # per run: a kept trajectory holds one large allocation
    profiles, before, after = np.split(np.empty((3 * n_samples + 1,) + u0.shape),
                                       [n_samples + 1, 2 * n_samples + 1])
    profiles[0] = u0
    state = IvpState(t=0.0, u=profiles[0], dx=dx)
    steps, failure = 0, None
    step_times = np.empty(n_sub)
    try:
        for s in range(n_samples):
            # the interval's step times, accumulated as the steps do, and
            # every signal on all of them: row q holds step q's values
            t = state.t
            for q in range(n_sub):
                t = t + dt
                step_times[q] = t
            signals = np.stack([bspec.h_values(i, step_times)
                                for i in range(spec.n)], axis=-1)
            for q in range(n_sub):
                u_before = state.u
                state = step(state, dt, spec, bspec, signals[q])
                steps += 1
                if q == 0 and s:
                    after[s - 1] = state.u
            profiles[s + 1] = state.u
            before[s] = u_before
    except DomainError as exc:
        failure = str(exc)
        logger.warning("run stopped early at t=%.4f: %s", state.t, exc)
    # every n_sub steps record a sample, centred once its next step is done;
    # the set-up and each stage of a step tried make one rhs call
    S, C = steps // n_sub + 1, max(steps - 1, 0) // n_sub
    return Trajectory(x=np.arange(Nx + 1) * dx, times=np.arange(S) * record_every,
                      profiles=profiles[:S], before=before[:C], after=after[:C],
                      dt_used=dt, compat_c0=c0, compat_c1=c1,
                      completed=failure is None, failure=failure, steps=steps,
                      rhs_evals=1 + 2 * (steps + (failure is not None)))


def _fit_log_decay(t: np.ndarray, v: np.ndarray, T0: float) -> Optional[float]:
    """exp(slope) of log values against t / T0, None if underdetermined."""
    keep = v > _NOISE_FLOOR
    if keep.sum() < 2:
        return None
    slope = np.polyfit(t[keep] / T0, np.log(v[keep]), 1)[0]
    return float(np.exp(slope))


def _deviation_curves(traj: Trajectory, periodic: Field) -> tuple:
    """Phi (S,) at every sample and dPhi (C,) at samples 1..C, which have
    both time neighbors recorded, of a trajectory against a field; every
    sample is interpolated in one batch."""
    x = traj.x
    dx = x[1] - x[0]
    times = traj.times
    phi = np.abs(traj.profiles - periodic.interpolate(times[:, None], x)).max(axis=(1, 2))
    C = len(traj.before)
    dtraj = (traj.after - traj.before) / (2 * traj.dt_used)
    t_d = times[1:C + 1, None]
    t_err = np.abs(dtraj - periodic.interpolate_dt(t_d, x)).max(axis=(1, 2))
    x_err = np.abs(_x_difference(traj.profiles[1:C + 1], dx)
                   - periodic.interpolate_dx(t_d, x)).max(axis=(1, 2))
    return phi, np.maximum(t_err, x_err)


def stability_metrics(traj: Trajectory, periodic: Field, spec: SystemSpec,
                      floor_traj: Optional[Trajectory] = None) -> StabilityReport:
    """Deviation curve Phi(t), its derivative analogue, and fitted rates.

    Phi(t) = max_i sup_x |u_i(t, x) - periodic_i(t, x)| on the shared
    spatial grid; both rates are least-squares fits of the log samples at
    multiples of T0 = L * mu_max, starting at 2 T0 (the corner transient
    of slightly incompatible data has left the domain by then). The T0
    sequence and the fits select samples by index.

    floor_traj, when given, is an unperturbed reference run at the same
    cadence; its deviation measures the discretization floor between the
    two solvers. The T0 sequence stops at the first transit within 10x of
    that floor (``floor_transit``; below it the decay is unobservable),
    and the derivative fit drops samples within 10x of the floor's dPhi.
    A sample the floor run did not reach is not gated. Raises ValueError
    when the two runs are recorded at other times over their common length.
    """
    T0 = spec.L * measured_mu_max(spec)
    times = traj.times
    phi, dphi = _deviation_curves(traj, periodic)
    # sample i of both runs is at one time; one the floor run missed has floor 0
    floor_phi, floor_dphi = np.zeros_like(phi), np.zeros_like(dphi)
    if floor_traj is not None:
        common = min(len(times), len(floor_traj.times))
        if not np.array_equal(times[:common], floor_traj.times[:common]):
            raise ValueError("floor_traj is recorded at other times than traj")
        for mine, theirs in zip((floor_phi, floor_dphi),
                                _deviation_curves(floor_traj, periodic)):
            mine[:len(theirs)] = theirs[:len(mine)]

    exact_match = bool(phi.max() <= _NOISE_FLOOR)  # then there is no T0 sequence
    seq, floor_transit = [], None
    cadence = times[1] - times[0] if len(times) > 1 else T0
    for i, t_s in enumerate([] if exact_match else times.tolist()):
        if abs(t_s - len(seq) * T0) <= cadence / 2:
            if phi[i] <= 10.0 * floor_phi[i]:
                floor_transit = len(seq)
                break  # the decay has reached the discretization floor
            seq.append(i)
    seq = np.array(seq, dtype=int)
    fit = seq[times[seq] >= 2 * T0 - 1e-12]
    dfit = fit[(fit > 0) & (fit <= len(dphi))] - 1
    dfit = dfit[dphi[dfit] > 10.0 * floor_dphi[dfit]]
    return StabilityReport(
        phi_samples=list(zip(times.tolist(), phi.tolist())),
        dphi_samples=list(zip(times[1:len(dphi) + 1].tolist(), dphi.tolist())),
        fitted_decay=_fit_log_decay(times[fit], phi[fit], T0),
        fitted_derivative_decay=_fit_log_decay(times[dfit + 1], dphi[dfit], T0),
        T0=T0, phi_at_T0=list(zip(range(len(seq)), times[seq].tolist(), phi[seq].tolist())),
        exact_match=exact_match, floor_transit=floor_transit)
