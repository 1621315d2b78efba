"""Time-periodic grid fields and characteristic curves through them.

A Field stores one period of a grid function u(t, x) on a uniform
(Nt, Nx+1) grid, with the time axis treated as a circle (no duplicated
seam row). Characteristic curves t = t_i(x) of family i solve
dt/dx = mu_i(u(t, x)) with the field held frozen; they are traced to the
inflow boundary of the family (x = 0 for right-moving families, x = L for
left-moving ones) with classical fixed-step RK4. The grid stencils the
solvers share live here too: the periodic phase, the 4-point Lagrange
weights, and the 2nd-order x-difference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .system_model import SystemSpec, eigen_fields

_X_FUZZ = 1e-12


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


def _interp_cols_cubic(rows: np.ndarray, tq: np.ndarray, T_star: float, cols) -> np.ndarray:
    """Periodic 4-point Lagrange interpolation in time (O(dt^4)), column by column.

    rows holds one period of Nt rows; column cols[c] is read at the times
    tq[..., c], and any axes of rows past the second are carried along.
    Used when composing per-column delay and source-integral maps, where
    linear interpolation would accumulate a first-order error over the
    sweep.
    """
    Nt = rows.shape[0]
    j, f = _phase(tq, T_star, Nt)
    w0, w1, w2, w3 = (w.reshape(f.shape + (1,) * (rows.ndim - 2)) for w in _lagrange4(f))
    return (w0 * rows[(j - 1) % Nt, cols] + w1 * rows[j, cols]
            + w2 * rows[(j + 1) % Nt, cols] + w3 * rows[(j + 2) % Nt, cols])


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
class CharacteristicTrace:
    """Sampled characteristic curve t_i(x) of one family.

    xs is monotone (decreasing toward x = 0 for right-moving families,
    increasing toward x = L for left-moving ones); ts is stored unwrapped,
    reduced modulo the period only when the field is interpolated.
    """

    family: int
    xs: np.ndarray
    ts: np.ndarray

    @property
    def endpoint(self) -> tuple:
        return float(self.ts[-1]), float(self.xs[-1])


def _mu_of(spec: SystemSpec, fld: Field, i: int, t: float, x: float) -> float:
    u = fld.interpolate(t, x)
    lam, _, _ = eigen_fields(spec, u[None, :])
    return float(1.0 / lam[0, i])


def trace_characteristic(fld: Field, spec: SystemSpec, i: int,
                         t0: float, x0: float,
                         substeps_per_cell: int = 4) -> CharacteristicTrace:
    """Trace the family-i curve dt/dx = mu_i(u(t, x)) to its inflow boundary.

    Families i < m run to x = L, families i >= m to x = 0, with classical
    RK4 at fixed step L / (substeps_per_cell * Nx) and an exact partial
    final step onto the boundary. The family index is 0-based.
    """
    if not 0 <= i < spec.n:
        raise ValueError("family index out of range")
    if x0 < -_X_FUZZ or x0 > fld.L + _X_FUZZ:
        raise DomainError(f"x0 outside [0, {fld.L}]")
    x0 = float(np.clip(x0, 0.0, fld.L))

    # canonicalize the start time so traces launched one period apart are
    # the same trace shifted by exactly one period
    cycles = np.floor(t0 / fld.T_star)
    t_base = t0 - cycles * fld.T_star

    h_nom = fld.L / (substeps_per_cell * fld.Nx)
    target = fld.L if i < spec.m else 0.0
    direction = 1.0 if i < spec.m else -1.0
    dist = abs(target - x0)
    n_full = int(np.floor(dist / h_nom + 1e-12))

    xs = [x0]
    ts = [t_base]
    t, x = t_base, x0
    steps = [h_nom] * n_full
    rem = dist - n_full * h_nom
    if rem > 1e-13 * fld.L:
        steps.append(rem)
    for h in steps:
        dx_step = direction * h
        k1 = _mu_of(spec, fld, i, t, x)
        k2 = _mu_of(spec, fld, i, t + 0.5 * dx_step * k1, x + 0.5 * dx_step)
        k3 = _mu_of(spec, fld, i, t + 0.5 * dx_step * k2, x + 0.5 * dx_step)
        k4 = _mu_of(spec, fld, i, t + dx_step * k3, x + dx_step)
        t = t + dx_step * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        x = x + dx_step
        xs.append(x)
        ts.append(t)
    xs[-1] = target  # land exactly on the boundary
    ts_arr = np.array(ts) + cycles * fld.T_star
    return CharacteristicTrace(family=i, xs=np.array(xs), ts=ts_arr)
