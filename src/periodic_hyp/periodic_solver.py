"""Fixed-point construction of the time-periodic solution.

Each sweep solves n decoupled linear transport problems: component i of
the new iterate is obtained by tracing the family-i characteristic of the
previous iterate from every grid point to its inflow boundary, taking the
boundary value from the feedback maps evaluated on the previous iterate at
the characteristic foot, and integrating the remaining source terms along
the trace with an exact exponential integrating factor for the diagonal
term and trapezoidal quadrature for the rest. Iterating from the zero
field contracts geometrically whenever the boundary is dissipative and the
smallness certificate holds, and the limit is the periodic solution.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import boundary as bd
from . import diagnostics as dg
from .characteristics import (
    Field, TraceGeometry, _padded, _read, _stencil, trace_plan, trace_to_inflow,
)
from .errors import BoundaryMapError, DomainError, NonContractionError, NormalizationError
from .system_model import (
    SystemSpec,
    eigen_fields,
    gtilde_matrix,
    read_number,
    shift_K,
    _coupling_from_left,
    _remainder,
)

logger = logging.getLogger("periodic_hyp")

_NOISE_FLOOR = 100 * np.finfo(float).eps


@dataclass
class IterationConfig:
    """Grid sizes, splitting constant, and stopping control.

    Read by ``read_number``: integers Nt, Nx >= 8 and max_iter >= 1, K >= 0
    and tol > 0. K = None selects the default minimal shift + 1e-6. The
    sup-norm delta between consecutive iterates is the stopping quantity;
    first-derivative deltas are recorded for information only.
    """

    Nt: int
    Nx: int
    K: Optional[float] = None
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        read_number(self.Nt, "Nt", 8, integer=True)
        read_number(self.Nx, "Nx", 8, integer=True)
        if self.K is not None:
            read_number(self.K, "K", 0)
        read_number(self.tol, "tol", 0, strict=True)
        read_number(self.max_iter, "max_iter", 1, integer=True)


@dataclass
class SweepContext:
    """One solve's sweep state: its system spec and boundary bspec, which
    fix every sweep's period and length, the set-up derived once from them,
    and what its sweeps share. For the solve's shift K (``shift_K``), the
    diagonal gii of gtilde, its off-diagonal part gt_off and k_mu0 = K mu0
    are fixed; certificate is the smallness record theta + K L M3 < 1 of
    this set-up, with M3 = max exp(|gii| L), which the solve reports and the
    CLI's ``validate`` prints. geometry is the last sweep's characteristic
    geometry, which the next sweep reuses while its inverse speeds stay the
    same, and _feet the reads at its feet, set and dropped with it
    (``linearized_step``); ``plan`` gives the sweeps' ``trace_plan``, kept
    for the last grid."""

    spec: SystemSpec
    bspec: bd.BoundarySpec
    gii: np.ndarray
    gt_off: np.ndarray
    k_mu0: np.ndarray
    certificate: dg.Certificate
    geometry: Optional[TraceGeometry] = None
    _plan: Optional[tuple] = field(default=None, init=False, repr=False)  # (Nx, plan)
    _feet: Optional[tuple] = field(default=None, init=False, repr=False)

    def plan(self, Nx: int) -> tuple:
        """``trace_plan(gii, m, Nx, L)``, derived again only for another grid."""
        if self._plan is None or self._plan[0] != Nx:
            self._plan = (Nx, trace_plan(self.gii, self.spec.m, Nx, self.spec.L))
        return self._plan[1]

    @classmethod
    def for_solve(cls, spec: SystemSpec, bspec: bd.BoundarySpec,
                  K: Optional[float]) -> "SweepContext":
        """The set-up for the shift K (None: the default, see ``shift_K``).

        Raises ValueError for a boundary of another system, DominanceError
        when gtilde is not dominated, and what ``characterizing_data``
        raises when theta cannot be computed."""
        bspec.check_fits(spec)
        K = shift_K(spec, K)
        gtilde = gtilde_matrix(spec, K)
        gii = np.diag(gtilde)
        theta = bd.characterizing_data(bspec).theta
        # the weighted norm's largest weight: under gtilde's dominance signs the
        # weights exp(gii (L - x)) (i < m) and exp(-gii x) lie in [1, exp(|gii| L)]
        M3 = float(np.exp(np.abs(gii) * spec.L).max())
        gt_off = np.where(np.eye(spec.n, dtype=bool), 0.0, gtilde)
        return cls(spec=spec, bspec=bspec, gii=gii, gt_off=gt_off,
                   k_mu0=K * spec.origin.mu0,
                   certificate=dg.smallness_certificate(theta, K, spec.L, M3))


@dataclass
class IterationReport:
    """Per-iteration sup-norm deltas, the fitted contraction ratio, and the
    boundary/source smallness certificate."""

    deltas: np.ndarray
    deltas_c1: np.ndarray
    fitted_beta: Optional[float]
    iterations: int
    converged: bool
    certificate: dg.Certificate


def _source_grid(prev: Field, ctx: SweepContext, mu: np.ndarray,
                 B: Optional[np.ndarray], Fv: np.ndarray) -> np.ndarray:
    """All lagged source terms of the transport step on the grid.

    R_i = sum_j B_ij (du_j/dx + mu_i du_j/dt) + sum_{j != i} gt_ij u_j
          + K mu_i(0) u_i + superlinear remainder, evaluated on the
    previous iterate, whose inverse speeds mu, couplings B and source
    values Fv are given.
    B is None where A is diagonal: the coupling terms vanish, and neither
    they nor the derivative grids are computed.
    """
    P = prev.values
    R = np.einsum("ij,tkj->tki", ctx.gt_off, P)
    if B is not None:
        R = (np.einsum("tkij,tkj->tki", B, prev.space_derivative_grid())
             + mu * np.einsum("tkij,tkj->tki", B, prev.time_derivative_grid())) + R
    R += ctx.k_mu0 * P
    R += _remainder(ctx.spec, P, mu, B, Fv)
    return R


def linearized_step(prev: Field, ctx: SweepContext) -> Field:
    """One sweep of the lagged linear transport system of ctx's solve
    (``SweepContext.for_solve``).

    For every family and grid point, the characteristic of the previous
    iterate is traced to its inflow boundary (``trace_to_inflow``), the
    boundary value is taken from the feedback map on the previous iterate
    at the foot, and the diagonal term is applied as an exact exponential
    factor. Each family's feet give its outgoing trace and boundary values
    in one call each, through ``BoundarySpec.sides``. Raises ValueError
    when prev's period or length is not the context's.

    The sweep compares the inverse speeds of prev with those of the
    geometry ctx keeps, once: if equal, it reuses that geometry and the
    reads at its feet, bit-identically; if not, it drops both before the
    march (a solve holds one geometry at a time) and keeps the new ones.
    """
    spec, bspec = ctx.spec, ctx.bspec
    Nt, Nx = prev.Nt, prev.Nx
    T, L = prev.T_star, prev.L
    if T != bspec.T_star or L != spec.L:
        raise ValueError(f"prev has period {T} and length {L}, not {bspec.T_star} and {spec.L}")

    A, Fv = spec.AF_at(prev.values)
    lam, left, _, _ = eigen_fields(spec, prev.values, A)
    mu = 1.0 / lam
    if ctx.geometry is not None and not np.array_equal(ctx.geometry.mu, mu):
        ctx.geometry = ctx._feet = None
    R = _source_grid(prev, ctx, mu, _coupling_from_left(left), Fv)
    plan = ctx.plan(Nx)
    delay, integral, ctx.geometry = trace_to_inflow(mu, R, plan, spec.m, T, ctx.geometry)
    if ctx._feet is None:  # the trace marched
        feet = prev.t_nodes[:, None, None] - delay
        hv = np.stack([bspec.h_values(i, feet[..., i]) for i in range(spec.n)], axis=-1)
        ctx._feet = _stencil(feet, T, Nt, 0, 1) + (hv,)
        for a in ctx._feet:
            a.flags.writeable = False
    base, w, hv = ctx._feet
    new_vals = np.empty_like(prev.values)
    for row, _, maps in bspec.sides:
        for i, fn, cols in maps:
            out_tr = _read(_padded(prev.values[:, row, cols]), base[..., i], w[..., i], 1)
            new_vals[:, :, i] = plan[-1][i] * fn(hv[..., i], out_tr) + integral[..., i]

    if not np.all(np.isfinite(new_vals)):
        raise BoundaryMapError("transport sweep produced non-finite values")
    if not spec.contains(new_vals):
        raise DomainError(
            "iterate left the validated neighborhood (forcing amplitude too large)"
        )
    return Field(values=new_vals, T_star=T, L=L)


def fit_contraction_rate(deltas) -> Optional[float]:
    """Geometric ratio of the delta tail by least squares on the logs.

    Drops the first two iterations and everything at the noise floor.
    Returns None when fewer than 4 deltas rise above the floor (too little
    data) and 0.0 when nothing does (converged immediately).
    """
    arr = np.asarray(deltas, dtype=float)
    usable = arr > _NOISE_FLOOR
    if not usable.any():
        return 0.0
    if usable.sum() < 4:
        return None
    idx = np.arange(len(arr))
    mask = usable & (idx >= 2)  # keeps 2 or more: at most 2 usable lie before
    slope = np.polyfit(idx[mask], np.log(arr[mask]), 1)[0]
    return float(np.exp(slope))


def solve_periodic(spec: SystemSpec, bspec: bd.BoundarySpec,
                   cfg: IterationConfig) -> tuple:
    """Drive the lagged transport sweeps from the zero field to a fixed point.

    Returns (field, report). The returned field is periodic in t by
    construction. Raises NonContractionError when max_iter is exhausted
    with the deltas not decreasing over the last five sweeps, and
    NormalizationError when A(0) is not diagonal: the fixed point is the
    periodic solution only when the families are the components at the
    origin (one sweep, ``linearized_step``, runs on any A).
    """
    if not spec.origin.a0_diagonal:
        raise NormalizationError(
            f"A(0) is not diagonal (off-diagonal max {spec.origin.a0_offdiag_max:.2e}); "
            "write the system in the eigenbasis of A(0)")
    ctx = SweepContext.for_solve(spec, bspec, cfg.K)
    if not ctx.certificate.ok:
        logger.warning("smallness certificate fails (margin %.3e); "
                       "contraction is not guaranteed", ctx.certificate.margin)

    u = Field.zeros(cfg.Nt, cfg.Nx, spec.n, bspec.T_star, spec.L)
    deltas, deltas_c1 = [], []
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        new = linearized_step(u, ctx)
        diff = Field(values=new.values - u.values, T_star=bspec.T_star, L=spec.L)
        dn = dg.norms(diff)
        deltas.append(dn.c0)
        deltas_c1.append(dn.c1)
        u = new
        iterations += 1
        logger.info("sweep %d: delta %.3e", iterations, dn.c0)
        if dn.c0 <= cfg.tol:
            converged = True
            break
    if not converged:
        tail = deltas[-6:]
        if len(tail) >= 6 and all(tail[a + 1] >= tail[a] for a in range(5)):
            raise NonContractionError(
                "deltas stopped decreasing; hypotheses likely violated at this amplitude"
            )
    report = IterationReport(
        deltas=np.array(deltas),
        deltas_c1=np.array(deltas_c1),
        fitted_beta=fit_contraction_rate(deltas),
        iterations=iterations,
        converged=converged,
        certificate=ctx.certificate,
    )
    return u, report


def extract_initial_data(fld: Field) -> np.ndarray:
    """The t = 0 row: the initial profile the periodic solution starts from."""
    return fld.values[0].copy()
