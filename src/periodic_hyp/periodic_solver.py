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
from .characteristics import Field
from .errors import BoundaryMapError, DomainError, NonContractionError
from .system_model import (
    SystemSpec,
    eigen_fields,
    g_nonlinear_batch,
    gtilde_matrix,
    minimal_K,
    _coupling_from_left,
)

logger = logging.getLogger("periodic_hyp")

_SUBSTEPS = 4  # RK substeps per grid cell along a trace
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
class IterationReport:
    """Per-iteration sup-norm deltas, the fitted contraction ratio, and the
    boundary/source smallness certificate."""

    deltas: np.ndarray
    deltas_c1: np.ndarray
    fitted_beta: Optional[float]
    iterations: int
    converged: bool
    certificate: dg.Certificate


def _interp_rows_cubic(rows: np.ndarray, tq: np.ndarray, T_star: float) -> np.ndarray:
    """Periodic 4-point Lagrange interpolation in time (O(dt^4)).

    Used when composing per-column delay and source-integral maps, where
    linear interpolation would accumulate a first-order error over the
    sweep.
    """
    Nt = rows.shape[0]
    u = tq / T_star
    s = (u - np.floor(u)) * Nt
    j = np.floor(s)
    f = s - j
    j = j.astype(np.int64) % Nt
    w0 = -f * (f - 1) * (f - 2) / 6.0
    w1 = (f + 1) * (f - 1) * (f - 2) / 2.0
    w2 = -(f + 1) * f * (f - 2) / 2.0
    w3 = (f + 1) * f * (f - 1) / 6.0
    if rows.ndim > 1:
        shape = f.shape + (1,) * (rows.ndim - 1)
        w0, w1, w2, w3 = (w.reshape(shape) for w in (w0, w1, w2, w3))
    return (w0 * rows[(j - 1) % Nt] + w1 * rows[j]
            + w2 * rows[(j + 1) % Nt] + w3 * rows[(j + 2) % Nt])


_REFINE = 2 * _SUBSTEPS  # fine columns per cell: substep endpoints + halves


def _cubic_refine_x(grid: np.ndarray, refine: int = _REFINE) -> np.ndarray:
    """Resample a (Nt, Nx+1) grid onto refine x Nx + 1 columns.

    4-point Lagrange in x with stencils clamped at the ends. The smooth
    O(dx^4) sampling error keeps the grid-scale roughness of the converged
    fixed point below what the residual stencils can amplify to first
    order, which piecewise-linear sampling does not.
    """
    Nx = grid.shape[1] - 1
    F = refine * Nx + 1
    q = np.arange(F) / refine
    base = np.clip(np.floor(q).astype(np.int64) - 1, 0, Nx - 3)
    s = q - base
    offs = np.arange(4)
    # Lagrange weights on the 4 consecutive nodes base..base+3
    w = np.ones((F, 4))
    for a in range(4):
        for b in range(4):
            if a != b:
                w[:, a] *= (s - offs[b]) / (offs[a] - offs[b])
    cols = base[:, None] + offs[None, :]
    return np.einsum("tfa,fa->tf", grid[:, cols], w)


def _source_grid(prev: Field, spec: SystemSpec, K: float,
                 gtilde: np.ndarray, mu: np.ndarray, B: np.ndarray,
                 mu0: np.ndarray) -> np.ndarray:
    """All lagged source terms of the transport step on the grid.

    R_i = sum_j B_ij (du_j/dx + mu_i du_j/dt) + sum_{j != i} gt_ij u_j
          + K mu_i(0) u_i + superlinear remainder, evaluated on the
    previous iterate.
    """
    P = prev.values
    dudt = prev.time_derivative_grid()
    dudx = prev.space_derivative_grid()
    gNL = g_nonlinear_batch(spec, P)
    gt_off = gtilde.copy()
    np.fill_diagonal(gt_off, 0.0)
    R = np.einsum("tkij,tkj->tki", B, dudx)
    R += mu * np.einsum("tkij,tkj->tki", B, dudt)
    R += np.einsum("ij,tkj->tki", gt_off, P)
    R += K * mu0 * P
    R += gNL
    return R


def linearized_step(prev: Field, spec: SystemSpec, bspec: bd.BoundarySpec,
                    cfg: IterationConfig) -> Field:
    """One sweep of the lagged linear transport system.

    For every family and grid point, the characteristic of the previous
    iterate is traced to its inflow boundary (cell by cell, RK4 with 4
    substeps per cell, composing the per-column delay and weighted source
    integrals with periodic cubic interpolation), the boundary value is
    taken from the feedback map on the previous iterate at the foot, and
    the diagonal term is applied as an exact exponential factor.
    """
    n, m = spec.n, spec.m
    Nt, Nx = prev.Nt, prev.Nx
    T, L = prev.T_star, prev.L
    dx = prev.dx
    hsub = dx / _SUBSTEPS
    t_grid = prev.t_nodes
    x_grid = prev.x_nodes

    K = cfg.K if cfg.K is not None else minimal_K(spec.gradF_at(np.zeros(n))) + 1e-6
    gtilde = gtilde_matrix(spec, K)

    lam, left, _ = eigen_fields(spec, prev.values)
    mu = 1.0 / lam
    B = _coupling_from_left(left)
    lam0, _, _ = eigen_fields(spec, np.zeros((1, n)))
    mu0 = 1.0 / lam0[0]
    R = _source_grid(prev, spec, K, gtilde, mu, B, mu0)

    new_vals = np.empty_like(prev.values)
    for i in range(n):
        mu_i = mu[..., i]
        R_i = R[..., i]
        gii = gtilde[i, i]
        if i < m:
            fn = bspec.right_maps[i]
            out_cols = prev.values[:, Nx, m:]
            col_order = range(Nx - 1, -1, -1)
            direction = +1.0
            x_inflow = L
        else:
            fn = bspec.left_maps[i - m]
            out_cols = prev.values[:, 0, :m]
            col_order = range(1, Nx + 1)
            direction = -1.0
            x_inflow = 0.0
        # direction is the sign of dx when stepping from a column toward
        # the inflow boundary; the quadrature weight exp(gii (x_col - x))
        # therefore grows by exp(-gii * direction * h) per substep
        growth = np.exp(-gii * direction * dx)
        wfac = np.exp(-gii * direction * hsub)
        mu_fine = _cubic_refine_x(mu_i)
        R_fine = _cubic_refine_x(R_i)
        df = int(direction) * 2  # fine columns per RK substep

        delay = np.zeros((Nx + 1, Nt))
        Jacc = np.zeros((Nx + 1, Nt))
        delay_prev = np.zeros(Nt)
        J_prev = np.zeros(Nt)
        for k in col_order:
            fidx = k * _REFINE
            tcur = t_grid.copy()
            qacc = np.zeros(Nt)
            w = 1.0
            Rv = R_fine[:, fidx]
            for _ in range(_SUBSTEPS):
                dstep = direction * hsub
                half = fidx + df // 2
                k1 = _interp_rows_cubic(mu_fine[:, fidx], tcur, T)
                k2 = _interp_rows_cubic(mu_fine[:, half], tcur + 0.5 * dstep * k1, T)
                k3 = _interp_rows_cubic(mu_fine[:, half], tcur + 0.5 * dstep * k2, T)
                k4 = _interp_rows_cubic(mu_fine[:, fidx + df], tcur + dstep * k3, T)
                tnew = tcur + dstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                fidx += df
                wn = w * wfac
                Rn = _interp_rows_cubic(R_fine[:, fidx], tnew, T)
                qacc += (-direction) * (hsub / 2.0) * (w * Rv + wn * Rn)
                w, Rv, tcur = wn, Rn, tnew
            delay_prev = (t_grid - tcur) + _interp_rows_cubic(delay_prev, tcur, T)
            J_prev = growth * _interp_rows_cubic(J_prev, tcur, T) + qacc
            delay[k] = delay_prev
            Jacc[k] = J_prev
        # assemble every column of this family, feet first
        for k in range(Nx + 1):
            feet = t_grid - delay[k]
            u_out = _interp_rows_cubic(out_cols, feet, T)
            h_vals = bspec.h_values(i, feet)
            bc = bd.eval_map_batch(fn, h_vals, u_out)
            carry = np.exp(gii * (x_grid[k] - x_inflow))
            new_vals[:, k, i] = carry * bc + Jacc[k]

    if not np.all(np.isfinite(new_vals)):
        raise BoundaryMapError("transport sweep produced non-finite values")
    out = Field(values=new_vals, T_star=T, L=L)
    r = np.linalg.norm(new_vals.reshape(-1, n), axis=-1)
    if r.max() > spec.domain_radius * (1 + 1e-12):
        raise DomainError(
            "iterate left the validated neighborhood (forcing amplitude too large)"
        )
    return out


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
    with the deltas not decreasing over the last five sweeps.
    """
    n = spec.n
    K = cfg.K if cfg.K is not None else minimal_K(spec.gradF_at(np.zeros(n))) + 1e-6
    cfg = IterationConfig(Nt=cfg.Nt, Nx=cfg.Nx, K=K, tol=cfg.tol,
                          max_iter=cfg.max_iter)
    gtilde = gtilde_matrix(spec, K)
    theta = bd.characterizing_data(bspec).theta
    profile = dg.weights(gtilde, spec.L, n, spec.m)
    cert = dg.smallness_certificate(theta, K, spec.L, profile.M3)
    if not cert.ok:
        logger.warning("smallness certificate fails (margin %.3e); "
                       "contraction is not guaranteed", cert.margin)

    u = Field.zeros(cfg.Nt, cfg.Nx, n, bspec.T_star, spec.L)
    deltas, deltas_c1 = [], []
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        new = linearized_step(u, spec, bspec, cfg)
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
