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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import boundary as bd
from . import diagnostics as dg
from .characteristics import Field, TraceGeometry, _interp_rows_cubic, trace_to_inflow
from .errors import BoundaryMapError, DomainError, NonContractionError, NormalizationError
from .system_model import (
    _ORIGIN_TOL,
    SystemSpec,
    eigen_fields,
    gtilde_matrix,
    shift_K,
    _coupling_from_left,
    _remainder,
)

logger = logging.getLogger("periodic_hyp")

_NOISE_FLOOR = 100 * np.finfo(float).eps


@dataclass
class IterationConfig:
    """Grid sizes, splitting constant, and stopping control.

    K = None selects the default minimal shift + 1e-6. The sup-norm delta
    between consecutive iterates is the stopping quantity; first-derivative
    deltas are recorded for information only.
    """

    Nt: int
    Nx: int
    K: Optional[float] = None
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if self.Nt < 8 or self.Nx < 8:
            raise ValueError("grid sizes must be at least 8")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class SweepContext:
    """What the sweeps of one solve share.

    The shift K, gtilde, its diagonal gii, its off-diagonal part gt_off and
    k_mu0 = K mu0 are fixed for the solve (from ``spec.origin``); geometry
    is the last sweep's characteristic geometry, which the next sweep reuses
    while its inverse speeds stay the same (see ``trace_to_inflow``).
    """

    K: float
    gtilde: np.ndarray
    gii: np.ndarray
    gt_off: np.ndarray
    k_mu0: np.ndarray
    geometry: Optional[TraceGeometry] = None

    @classmethod
    def for_solve(cls, spec: SystemSpec, K: Optional[float]) -> "SweepContext":
        """The context for the shift K (None: the default, see ``shift_K``)."""
        K = shift_K(spec, K)
        gtilde = gtilde_matrix(spec, K)
        gt_off = np.where(np.eye(spec.n, dtype=bool), 0.0, gtilde)
        return cls(K=K, gtilde=gtilde, gii=np.diag(gtilde), gt_off=gt_off,
                   k_mu0=K * spec.origin.mu0)


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


def _source_grid(prev: Field, spec: SystemSpec, ctx: SweepContext,
                 mu: np.ndarray, B: Optional[np.ndarray]) -> np.ndarray:
    """All lagged source terms of the transport step on the grid.

    R_i = sum_j B_ij (du_j/dx + mu_i du_j/dt) + sum_{j != i} gt_ij u_j
          + K mu_i(0) u_i + superlinear remainder, evaluated on the
    previous iterate, whose inverse speeds mu and couplings B are given.
    B is None where A is diagonal: the coupling terms vanish, and neither
    they nor the derivative grids are computed.
    """
    P = prev.values
    R = np.einsum("ij,tkj->tki", ctx.gt_off, P)
    if B is not None:
        R = (np.einsum("tkij,tkj->tki", B, prev.space_derivative_grid())
             + mu * np.einsum("tkij,tkj->tki", B, prev.time_derivative_grid())) + R
    R += ctx.k_mu0 * P
    R += _remainder(spec, P, mu, B)
    return R


def linearized_step(prev: Field, spec: SystemSpec, bspec: bd.BoundarySpec,
                    cfg: IterationConfig, ctx: Optional[SweepContext] = None) -> Field:
    """One sweep of the lagged linear transport system.

    For every family and grid point, the characteristic of the previous
    iterate is traced to its inflow boundary (``trace_to_inflow``), the
    boundary value is taken from the feedback map on the previous iterate
    at the foot, and the diagonal term is applied as an exact exponential
    factor. Each family's feet give its outgoing trace and boundary values
    in one call each.

    ctx is the solve's ``SweepContext``; without one the sweep builds a
    fresh context from cfg.K. The sweep stores its characteristic geometry
    in ctx, and reuses the stored one when the inverse speeds of prev equal
    those of the previous sweep; the result is the same to the last bit.
    """
    n, m = spec.n, spec.m
    Nx = prev.Nx
    T, L = prev.T_star, prev.L

    if ctx is None:
        ctx = SweepContext.for_solve(spec, cfg.K)
    lam, left, _ = eigen_fields(spec, prev.values)
    mu = 1.0 / lam
    R = _source_grid(prev, spec, ctx, mu, _coupling_from_left(left))
    delay, integral, ctx.geometry = trace_to_inflow(mu, R, ctx.gii, m, T, L, ctx.geometry)

    new_vals = np.empty_like(prev.values)
    for i in range(n):
        row, x_inflow = (Nx, L) if i < m else (0, 0.0)
        feet = prev.t_nodes[:, None] - delay[..., i]
        out_tr = _interp_rows_cubic(prev.values[:, row, bspec.outgoing(i)], feet, T)
        bc = bspec.map_values(i, bspec.h_values(i, feet), out_tr)
        carry = np.exp(ctx.gii[i] * (prev.x_nodes - x_inflow))
        new_vals[:, :, i] = carry * bc + integral[..., i]

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
    mask = usable & (idx >= 2)
    if mask.sum() < 2:
        return None
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
    off = spec.origin.a0_offdiag_max
    if off > _ORIGIN_TOL:
        raise NormalizationError(
            f"A(0) is not diagonal (off-diagonal max {off:.2e}); write the "
            "system in the eigenbasis of A(0)")
    n = spec.n
    ctx = SweepContext.for_solve(spec, cfg.K)
    theta = bd.characterizing_data(bspec).theta
    profile = dg.weights(ctx.gtilde, spec.L, n, spec.m)
    cert = dg.smallness_certificate(theta, ctx.K, spec.L, profile.M3)
    if not cert.ok:
        logger.warning("smallness certificate fails (margin %.3e); "
                       "contraction is not guaranteed", cert.margin)

    u = Field.zeros(cfg.Nt, cfg.Nx, n, bspec.T_star, spec.L)
    deltas, deltas_c1 = [], []
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        new = linearized_step(u, spec, bspec, cfg, ctx)
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
        certificate=cert,
    )
    return u, report


def extract_initial_data(fld: Field) -> np.ndarray:
    """The t = 0 row: the initial profile the periodic solution starts from."""
    return fld.values[0].copy()
