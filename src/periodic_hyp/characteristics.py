"""Time-periodic grid fields and the characteristic curves through them.

A Field stores one period of a grid function u(t, x) on a uniform
(Nt, Nx+1) grid, with the time axis treated as a circle (no duplicated
seam row). ``trace_to_inflow`` is the one characteristic tracer: with the
inverse speeds mu_i of a frozen field on the grid, it follows the curve
dt/dx = mu_i of every family from every node to the family's inflow
boundary (x = L for left-moving families, x = 0 for right-moving ones)
with fixed-step RK4, and integrates the source terms along it. The part
of a trace that depends on the speeds alone comes back as a
``TraceGeometry``, which a later trace with the same speeds reuses. The
grid stencils the solvers share live here too: the periodic phase, the
4-point Lagrange weights, and the 2nd-order x-difference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .system_model import eigen_fields  # noqa: F401  perfbench's tracer test wraps it here too

_X_FUZZ = 1e-12
_SUBSTEPS = 4  # RK substeps per grid cell along a trace
_REFINE = 2 * _SUBSTEPS  # fine columns per cell: substep endpoints + halves


@dataclass
class Field:
    """u(t, x) on a uniform grid, periodic in t.

    values has shape (Nt, Nx+1, n): rows are times j * T_star / Nt
    (j = 0..Nt-1, the row Nt would coincide with row 0), columns are
    positions k * L / Nx (k = 0..Nx).
    """

    values: np.ndarray
    T_star: float
    L: float
    _dt_grid: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _dx_grid: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError("values must have shape (Nt, Nx+1, n)")

    @property
    def Nt(self) -> int:
        return self.values.shape[0]

    @property
    def Nx(self) -> int:
        return self.values.shape[1] - 1

    @property
    def n(self) -> int:
        return self.values.shape[2]

    @property
    def dt(self) -> float:
        return self.T_star / self.Nt

    @property
    def dx(self) -> float:
        return self.L / self.Nx

    @property
    def t_nodes(self) -> np.ndarray:
        return np.arange(self.Nt) * self.dt

    @property
    def x_nodes(self) -> np.ndarray:
        return np.arange(self.Nx + 1) * self.dx

    @classmethod
    def zeros(cls, Nt: int, Nx: int, n: int, T_star: float, L: float) -> "Field":
        return cls(values=np.zeros((Nt, Nx + 1, n)), T_star=T_star, L=L)

    @classmethod
    def from_function(cls, fn, Nt: int, Nx: int, T_star: float, L: float) -> "Field":
        """Sample fn(t, x) -> state vector on the grid (fn must broadcast)."""
        t = (np.arange(Nt) * (T_star / Nt))[:, None]
        x = (np.arange(Nx + 1) * (L / Nx))[None, :]
        vals = np.asarray(fn(t, x), dtype=float)
        if vals.ndim == 2:
            vals = vals[..., None]
        return cls(values=vals, T_star=T_star, L=L)

    def time_derivative_grid(self) -> np.ndarray:
        """Central differences in t with periodic wrap, cached."""
        if self._dt_grid is None:
            v = self.values
            self._dt_grid = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * self.dt)
        return self._dt_grid

    def space_derivative_grid(self) -> np.ndarray:
        """Central differences in x, one-sided 2nd order at x = 0 and L, cached."""
        if self._dx_grid is None:
            self._dx_grid = _x_difference(self.values, self.dx)
        return self._dx_grid

    def interpolate(self, t, x) -> np.ndarray:
        return interpolate(self, t, x)

    def interpolate_dt(self, t, x) -> np.ndarray:
        return _bilinear(self.time_derivative_grid(), self, t, x)

    def interpolate_dx(self, t, x) -> np.ndarray:
        return _bilinear(self.space_derivative_grid(), self, t, x)


def _x_difference(v: np.ndarray, dx: float) -> np.ndarray:
    """2nd-order d/dx along axis -2: central inside, one-sided at the ends."""
    g = np.empty_like(v)
    g[..., 1:-1, :] = (v[..., 2:, :] - v[..., :-2, :]) / (2 * dx)
    g[..., 0, :] = (-3 * v[..., 0, :] + 4 * v[..., 1, :] - v[..., 2, :]) / (2 * dx)
    g[..., -1, :] = (3 * v[..., -1, :] - 4 * v[..., -2, :] + v[..., -3, :]) / (2 * dx)
    return g


def _phase(t, T_star: float, Nt: int) -> tuple:
    """Periodic row index j in [0, Nt) and fraction f with t = (j + f) T_star / Nt.

    The phase is recovered as frac(t / T_star) * Nt, which reproduces node
    values exactly and keeps t and t + T_star bit-identical for dyadic
    grids.
    """
    u = np.asarray(t, dtype=float) / T_star
    s = (u - np.floor(u)) * Nt
    j = np.floor(s)
    f = s - j
    return j.astype(np.int64) % Nt, f


def _lagrange4(f) -> tuple:
    """Lagrange weights of the nodes -1, 0, 1, 2 at the point f."""
    a, b, c = f + 1, f - 1, f - 2
    return -f * b * c / 6.0, a * b * c / 2.0, -a * f * c / 2.0, a * f * b / 6.0


def _gather_cubic(rows: np.ndarray, j: np.ndarray, f: np.ndarray, cols) -> np.ndarray:
    """Periodic 4-point Lagrange sum of rows at the phases (j, f) of ``_phase``.

    Column cols[c] is read at row j[..., c] plus the fraction f[..., c];
    any axes of rows past the second are carried along.
    """
    Nt = rows.shape[0]
    w0, w1, w2, w3 = (w.reshape(f.shape + (1,) * (rows.ndim - 2)) for w in _lagrange4(f))
    return (w0 * rows[(j - 1) % Nt, cols] + w1 * rows[j, cols]
            + w2 * rows[(j + 1) % Nt, cols] + w3 * rows[(j + 2) % Nt, cols])


def _interp_cols_cubic(rows: np.ndarray, tq: np.ndarray, T_star: float, cols) -> np.ndarray:
    """Periodic 4-point Lagrange interpolation in time (O(dt^4)), column by column.

    rows holds one period of Nt rows; column cols[c] is read at the times
    tq[..., c], and any axes of rows past the second are carried along.
    Used when composing per-column delay and source-integral maps, where
    linear interpolation would accumulate a first-order error over the
    sweep.
    """
    return _gather_cubic(rows, *_phase(tq, T_star, rows.shape[0]), cols)


def _interp_rows_cubic(rows: np.ndarray, tq, T_star: float) -> np.ndarray:
    """_interp_cols_cubic of the one column rows at the times tq of any shape;
    trailing axes of rows are carried along."""
    tq = np.asarray(tq, dtype=float)
    out = _interp_cols_cubic(rows[:, None], tq[..., None], T_star, 0)
    return out.reshape(tq.shape + rows.shape[1:])


def _cubic_refine_x(grid: np.ndarray, refine: int) -> np.ndarray:
    """Resample a (Nt, Nx+1) grid onto refine x Nx + 1 columns.

    4-point Lagrange in x with stencils clamped at the ends. The smooth
    O(dx^4) sampling error keeps the grid-scale roughness of the converged
    fixed point below what the residual stencils can amplify to first
    order, which piecewise-linear sampling does not.
    """
    Nx = grid.shape[1] - 1
    q = np.arange(refine * Nx + 1) / refine
    k = np.clip(np.floor(q).astype(np.int64), 1, Nx - 2)
    w0, w1, w2, w3 = _lagrange4(q - k)
    return (w0 * grid[:, k - 1] + w1 * grid[:, k]
            + w2 * grid[:, k + 1] + w3 * grid[:, k + 2])


def _space_index(fld: Field, x):
    x = np.asarray(x, dtype=float)
    if np.any(x < -_X_FUZZ) or np.any(x > fld.L + _X_FUZZ):
        raise DomainError(f"x outside [0, {fld.L}]")
    q = np.clip(x, 0.0, fld.L) / fld.dx
    k0 = np.minimum(np.floor(q), fld.Nx - 1)
    wx = q - k0
    return k0.astype(np.int64), (k0 + 1).astype(np.int64), wx


def _bilinear(grid: np.ndarray, fld: Field, t, x) -> np.ndarray:
    """Bilinear interpolation of a node grid shaped like fld.values."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    j0, wt = _phase(t, fld.T_star, fld.Nt)
    j1 = (j0 + 1) % fld.Nt
    k0, k1, wx = _space_index(fld, x)
    wt = wt[..., None]
    wx = wx[..., None]
    return ((1 - wt) * (1 - wx) * grid[j0, k0]
            + wt * (1 - wx) * grid[j1, k0]
            + (1 - wt) * wx * grid[j0, k1]
            + wt * wx * grid[j1, k1])


def interpolate(fld: Field, t, x) -> np.ndarray:
    """Field value at (t, x): bilinear, periodic wrap in t, exact at nodes.

    Accepts scalars or broadcastable arrays; x must stay in [0, L] up to
    1e-12 or DomainError is raised.
    """
    return _bilinear(fld.values, fld, t, x)


@dataclass
class TraceGeometry:
    """The part of a characteristic trace that depends on mu alone.

    ``trace_to_inflow`` returns one and takes one back. While the inverse
    speeds mu (and m, T_star and L) stay the same, every curve is the same,
    so a trace handed a geometry that fits redoes only the work that is
    linear in the source, with the same arithmetic: its output is
    bit-identical to a fresh trace. rows and fracs hold the periodic row and
    Lagrange fraction (see ``_phase``) of every RK4 substep end, one
    (Nt, n * Nx) array per substep, whose column i * Nx + s is family i
    crossing the cell s cells from its inflow boundary; the last pair is
    where each cell's trace leaves it. delay is the trace's delay, read-only.
    """

    mu: np.ndarray
    frame: tuple  # (m, T_star, L)
    rows: list
    fracs: list
    delay: np.ndarray

    def fits(self, mu: np.ndarray, frame: tuple) -> bool:
        return self.frame == frame and np.array_equal(self.mu, mu)


def _refine(grid: np.ndarray) -> np.ndarray:
    """(Nt, Nx+1, n) grid refined _REFINE times in x, family i in the fine
    columns i * nf to (i + 1) * nf - 1, nf = _REFINE * Nx + 1."""
    return np.hstack([_cubic_refine_x(grid[..., i], _REFINE) for i in range(grid.shape[-1])])


def _march(mu: np.ndarray, fidx: np.ndarray, dstep: np.ndarray, half: np.ndarray,
           T_star: float) -> tuple:
    """RK4 across every cell at once: _SUBSTEPS steps of dstep along
    dt/dx = mu from the fine columns fidx, half fine columns per half step.

    Returns the times where the traces leave their cells, and the rows and
    fractions of every substep end (see ``TraceGeometry``).
    """
    mu_fine = _refine(mu)
    Nt = mu.shape[0]
    tcur = np.repeat((np.arange(Nt) * (T_star / Nt))[:, None], fidx.size, axis=1)
    rows, fracs = [], []
    for _ in range(_SUBSTEPS):
        k1 = _interp_cols_cubic(mu_fine, tcur, T_star, fidx)
        k2 = _interp_cols_cubic(mu_fine, tcur + 0.5 * dstep * k1, T_star, fidx + half)
        k3 = _interp_cols_cubic(mu_fine, tcur + 0.5 * dstep * k2, T_star, fidx + half)
        k4 = _interp_cols_cubic(mu_fine, tcur + dstep * k3, T_star, fidx + 2 * half)
        tcur = tcur + dstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        fidx = fidx + 2 * half
        j, f = _phase(tcur, T_star, Nt)
        rows.append(j)
        fracs.append(f)
    return tcur, rows, fracs


def trace_to_inflow(mu: np.ndarray, R: np.ndarray, gii: np.ndarray, m: int,
                    T_star: float, L: float,
                    geometry: Optional[TraceGeometry] = None) -> tuple:
    """Delay from every node to the inflow foot of its characteristic, and
    the weighted source integral along the way.

    mu and R are (Nt, Nx+1, n) grids of the inverse speeds 1 / lambda_i
    and the source terms, held frozen; gii holds the n diagonal rates.
    Family i's curve dt/dx = mu_i runs from node (t_j, x_k) to its inflow
    boundary x_in (L for i < m, 0 for the rest). Returns (delay, integral,
    geometry): delay and integral are (Nt, Nx+1, n), the foot lies at time
    t_j - delay, and integral is the integral of exp(gii (x_k - x)) R_i
    from x_in to x_k along the curve. Three batched stages compute them:

    1. March: RK4 with 4 substeps crosses every cell of every family at
       once, on (Nt, n * Nx) arrays whose column i * Nx + s is family i
       crossing the cell s cells from its inflow boundary, with mu
       resampled 8 times finer in x. No cell depends on another.
    2. Integrate: the weighted source across each cell by the trapezoid
       rule on the substep ends, with R resampled the same way.
    3. Compose, in order from the inflow boundary: a column's delay and
       integral are its cell's own plus the previous column's, read by
       periodic cubic interpolation where the cell's trace leaves. One
       step serves every family.

    The march and the delay depend on mu alone, and the returned geometry
    keeps them (see ``TraceGeometry``). Given a geometry that fits mu, the
    trace skips the march and composes the integral alone; the result is
    bit-identical to a fresh trace. Otherwise it traces afresh and returns
    a new geometry.
    """
    Nt, Nx, n = mu.shape[0], mu.shape[1] - 1, mu.shape[2]
    dx = L / Nx
    hsub = dx / _SUBSTEPS

    # direction is the sign of dx when stepping from a column toward the
    # inflow boundary; the quadrature weight exp(gii (x_col - x)) therefore
    # grows by wfac per substep and by growth per cell
    families = np.arange(n)
    left_moving = families < m
    direction = np.where(left_moving, 1.0, -1.0)
    growth = np.exp(-gii * direction * dx)
    fam = np.repeat(families, Nx)
    d, wfac = direction[fam], np.exp(-gii * direction * hsub)[fam]
    half = d.astype(np.int64)  # fine columns per half substep
    # each trace starts on its cell's left edge (i < m) or right edge
    steps = np.tile(np.arange(Nx), n)
    fidx = (fam * (_REFINE * Nx + 1)
            + np.where(left_moving[fam], Nx - 1 - steps, steps + 1) * _REFINE)
    frame = (m, T_star, L)
    march = geometry is None or not geometry.fits(mu, frame)
    if march:
        tend, rows, fracs = _march(mu, fidx, d * hsub, half, T_star)
    else:
        rows, fracs = geometry.rows, geometry.fracs

    R_fine = _refine(R)
    qacc = np.zeros((Nt, n * Nx))
    w = np.ones(n * Nx)
    Rv = R_fine[:, fidx]
    for j, f in zip(rows, fracs):
        fidx = fidx + 2 * half
        wn = w * wfac
        Rn = _gather_cubic(R_fine, j, f, fidx)
        qacc += (-d) * (hsub / 2.0) * (w * Rv + wn * Rn)
        w, Rv = wn, Rn

    # DJ[s, :, i] holds family i's delay (on a march) and integral at s
    # columns from its inflow boundary: column Nx - s for i < m, s else.
    # Step s reads DJ[s], flat over (Nt, n), at the flat rows taps[a][s].
    by_step = (Nt, n, Nx)
    qacc = qacc.reshape(by_step).transpose(2, 0, 1)
    feet = rows[-1].reshape(by_step).transpose(2, 0, 1)
    taps = [np.ascontiguousarray(((feet + o) % Nt) * n + families) for o in (-1, 0, 1, 2)]
    wts = [wt.reshape(by_step).transpose(2, 0, 1)[..., None]
           for wt in _lagrange4(fracs[-1])]
    if march:
        t_grid = np.arange(Nt) * (T_star / Nt)
        tend = tend.reshape(by_step).transpose(2, 0, 1)
    DJ = np.zeros((Nx + 1, Nt, n, 2 if march else 1))
    flat = DJ.reshape(Nx + 1, Nt * n, -1)
    for s in range(Nx):
        prev = flat[s]
        dj = (wts[0][s] * prev.take(taps[0][s], axis=0)
              + wts[1][s] * prev.take(taps[1][s], axis=0)
              + wts[2][s] * prev.take(taps[2][s], axis=0)
              + wts[3][s] * prev.take(taps[3][s], axis=0))
        if march:
            DJ[s + 1, ..., 0] = (t_grid[:, None] - tend[s]) + dj[..., 0]
        DJ[s + 1, ..., -1] = growth * dj[..., -1] + qacc[s]
    # to column order, one contiguous (Nt, Nx+1) block per family
    out = np.empty((DJ.shape[-1], n, Nt, Nx + 1))
    out[:, :m] = DJ[::-1, :, :m].transpose(3, 2, 1, 0)
    out[:, m:] = DJ[:, :, m:].transpose(3, 2, 1, 0)
    if march:
        delay = out[0].transpose(1, 2, 0)
        delay.flags.writeable = False
        geometry = TraceGeometry(mu.copy(), frame, rows, fracs, delay)
    return geometry.delay, out[-1].transpose(1, 2, 0), geometry
