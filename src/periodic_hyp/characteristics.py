"""Time-periodic grid fields and the characteristic curves through them.

A Field stores one period of a grid function u(t, x) on a uniform
(Nt, Nx+1) grid, with the time axis treated as a circle (no duplicated
seam row). ``trace_to_inflow`` is the one characteristic tracer: with the
inverse speeds mu_i of a frozen field on the grid, it follows the curve
dt/dx = mu_i of every family from every node to the family's inflow
boundary (x = L for left-moving families, x = 0 for right-moving ones)
with fixed-step RK4, and integrates the source terms along it. It reads
mu refined 8 times in x (the RK midpoints fall on odd fine columns) and
the sources refined 4 times (the integral reads only substep ends). The
part of a trace that depends on the speeds alone comes back as a
``TraceGeometry``, which a later trace with the same speeds reuses. The
grid stencils the solvers share live here too: the periodic phase, the
4-point Lagrange weights, the 2nd-order x-difference and the one periodic
cubic read in time, of a flat table padded by a row before, three after.
Time wraps in one place, ``_padded``: every read and difference in time
takes its neighbours from a padded copy of the period or of its row index.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .system_model import eigen_fields  # noqa: F401  perfbench's tracer test wraps it here too

_X_FUZZ = 1e-12
_SUBSTEPS = 4  # RK substeps per grid cell along a trace
_REFINE = 2 * _SUBSTEPS  # mu's fine columns per cell: substep endpoints + halves


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
        """Central differences in t with periodic wrap, of the current values."""
        p = _padded(self.values)
        return (p[2:self.Nt + 2] - p[:self.Nt]) / (2 * self.dt)

    def space_derivative_grid(self) -> np.ndarray:
        """Central differences in x, one-sided 2nd order at x = 0 and L, of the current values."""
        return _x_difference(self.values, self.dx)

    def interpolate(self, t, x) -> np.ndarray:
        """Field value at (t, x): bilinear, periodic wrap in t, exact at nodes.

        Accepts scalars or broadcastable arrays; x must stay in [0, L] up
        to 1e-12 or DomainError is raised.
        """
        return _bilinear(self.values, self, t, x)

    def interpolate_dt(self, t, x) -> np.ndarray:
        return _bilinear(self.time_derivative_grid(), self, t, x)

    def interpolate_dx(self, t, x) -> np.ndarray:
        return _bilinear(self.space_derivative_grid(), self, t, x)


def _x_difference(v: np.ndarray, dx: float) -> np.ndarray:
    """2nd-order d/dx along axis -2: central inside, one-sided at the ends.

    Slices, not a gather through a tap table as ``ivp_solver._upwind_dx``:
    on a batch of profiles the gathered (..., 3, Nx+1, n) copy costs more
    than the slices' per-call overhead (a gather version with the same
    bits took 65 against 41 us on (48, 33, 2) and 2.6 against 0.54 ms on
    (256, 257, 2), timeit on a 2-core x86 host). A gather pays off only
    on the IVP's single (Nx+1, n) profile.
    """
    g = np.empty_like(v)
    g[..., 1:-1, :] = (v[..., 2:, :] - v[..., :-2, :]) / (2 * dx)
    g[..., 0, :] = (-3 * v[..., 0, :] + 4 * v[..., 1, :] - v[..., 2, :]) / (2 * dx)
    g[..., -1, :] = (3 * v[..., -1, :] - 4 * v[..., -2, :] + v[..., -3, :]) / (2 * dx)
    return g


def _phase(t, T_star: float, Nt: int) -> tuple:
    """Row index j in [0, Nt] and fraction f with t = (j + f) T_star / Nt
    modulo the period; j = Nt (f = 0) where the phase rounds up to Nt.
    Callers read row j as row j + 1 of ``_padded``, with no wrap of j.

    The phase is recovered as frac(t / T_star) * Nt, which reproduces node
    values exactly and keeps t and t + T_star bit-identical for dyadic
    grids.
    """
    u = np.asarray(t, dtype=float) / T_star
    s = (u - np.floor(u)) * Nt
    j = np.floor(s)
    return j.astype(np.int64), s - j


def _lagrange4(f) -> np.ndarray:
    """Lagrange weights of the nodes -1, 0, 1, 2 at the points f, stacked
    on a new leading axis: -f b c / 6, a b c / 2, -a f c / 2, a f b / 6."""
    f = np.asarray(f)
    a, b, c = f + 1, f - 1, f - 2
    w = np.empty((4,) + f.shape)
    np.multiply(f, b, out=w[0])
    np.multiply(a, b, out=w[1])
    np.multiply(a, f, out=w[2])
    np.multiply(w[2], b, out=w[3])
    w[:3] *= c
    w[0] /= -6.0
    w[1] *= 0.5  # exactly / 2
    w[2] *= -0.5
    w[3] /= 6.0
    return w


def _padded(rows: np.ndarray, axis: int = 0) -> np.ndarray:
    """One period along axis padded periodically: one row before, three after."""
    Nt = rows.shape[axis]
    return rows.take(np.arange(-1, Nt + 3) % Nt, axis=axis)


def _stencil(t, T_star: float, Nt: int, cols, ncols: int) -> tuple:
    """First-tap flat index and stacked weights of the times t in the
    columns cols of a padded table of Nt rows and ncols columns."""
    j, f = _phase(t, T_star, Nt)
    return j * ncols + cols, _lagrange4(f)


def _read(table: np.ndarray, base, weights: np.ndarray, step: int) -> np.ndarray:
    """A flat padded table read at a ``_stencil``: sum over o = 0..3, in order,
    of weights[o] times table[base + o step], trailing axes carried along.
    Each tap is a take at base of the table offset by o steps."""
    w = weights.reshape(weights.shape + (1,) * (table.ndim - 1))
    out = w[0] * table.take(base, axis=0)
    for o in range(1, 4):
        out += w[o] * table[o * step:].take(base, axis=0)
    return out


@functools.lru_cache(maxsize=32)
def _refine_stencil(Nx: int, refine: int) -> tuple:
    """Taps and weights of ``_cubic_refine_x``, computed once, read-only."""
    q = np.arange(refine * Nx + 1) / refine
    k = np.clip(np.floor(q).astype(np.int64), 1, Nx - 2)
    taps, w = np.add.outer(np.arange(-1, 3), k), _lagrange4(q - k)
    taps.flags.writeable = w.flags.writeable = False
    return taps, w


def _cubic_refine_x(grid: np.ndarray, refine: int) -> np.ndarray:
    """Resample the last axis of grid from Nx + 1 points onto refine x Nx + 1
    by 4-point Lagrange clamped at the ends: an O(dx^4) error that, unlike
    linear sampling, the residual stencils do not amplify to first order."""
    taps, w = _refine_stencil(grid.shape[-1] - 1, refine)
    return (w[0] * grid.take(taps[0], axis=-1) + w[1] * grid.take(taps[1], axis=-1)
            + w[2] * grid.take(taps[2], axis=-1) + w[3] * grid.take(taps[3], axis=-1))


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
    j, wt = _phase(t, fld.T_star, fld.Nt)
    j0, j1 = _padded(np.arange(fld.Nt))[np.stack([j + 1, j + 2])]  # no copy of grid
    k0, k1, wx = _space_index(fld, x)
    wt = wt[..., None]
    wx = wx[..., None]
    return ((1 - wt) * (1 - wx) * grid[j0, k0]
            + wt * (1 - wx) * grid[j1, k0]
            + (1 - wt) * wx * grid[j0, k1]
            + wt * wx * grid[j1, k1])


@dataclass
class TraceGeometry:
    """The part of a characteristic trace that depends on mu alone:
    ``trace_to_inflow`` handed it, for this mu (and m, T_star and grid),
    redoes only the work linear in the source, with the same arithmetic.
    bases and weights are the ``_stencil`` of each RK4 substep end, the
    bases in the source table refined _SUBSTEPS times, (Nt, n * Nx) flat
    first-tap indices and (4, Nt, n * Nx) weights; the last pair is where
    each cell's trace leaves it, those weights laid out per compose step
    and padded in time, (Nx, 4, (Nt + 4) n), and feet the compose's first
    taps, (Nx, (Nt + 4) n). All are read-only."""

    mu: np.ndarray
    bases: tuple
    weights: tuple
    feet: np.ndarray
    delay: np.ndarray

    def __post_init__(self):
        for a in (self.mu, self.feet, self.delay) + self.bases + self.weights:
            a.flags.writeable = False


def trace_plan(gii: np.ndarray, m: int, Nx: int, L: float) -> tuple:
    """What a trace takes from the rates gii, m and the grid alone, read-only:
    families, growth, per march column wfac, half (the sign of dx toward the
    inflow), fidx (its start in the source table), dstep and qfac, then the
    boundary values' factors exp(gii_i (x_k - x_in)). ``SweepContext.plan``
    keeps it."""
    n, dx, hsub = len(gii), L / Nx, L / Nx / _SUBSTEPS
    families = np.arange(n)
    direction = np.where(families < m, 1.0, -1.0)
    fam, steps = np.repeat(families, Nx), np.tile(np.arange(Nx), n)
    d, wfac = direction[fam], np.exp(-gii * direction * hsub)[fam]
    fidx = fam * (_SUBSTEPS * Nx + 1) + np.where(fam < m, Nx - 1 - steps, steps + 1) * _SUBSTEPS
    x_in = np.where(families < m, L, 0.0)[:, None]
    plan = (families, np.exp(-gii * direction * dx), wfac, d.astype(np.int64), fidx,
            d * hsub, (-d) * (hsub / 2.0), np.exp(gii[:, None] * (np.arange(Nx + 1) * dx - x_in)))
    for a in plan:
        a.flags.writeable = False
    return plan


def _refine(grid: np.ndarray, refine: int) -> np.ndarray:
    """(Nt, Nx+1, n) grid refined refine times in x into one flat padded
    table, family i in the fine columns i nf .. (i + 1) nf - 1 of a row,
    nf = refine Nx + 1. Column q of the source table (refine _SUBSTEPS) has
    the bits of column 2 q of mu's (_REFINE): the same taps and weights."""
    return _cubic_refine_x(_padded(grid.transpose(0, 2, 1)), refine).reshape(-1)


def _march(mu: np.ndarray, fidx: np.ndarray, dstep: np.ndarray, half: np.ndarray,
           T_star: float) -> tuple:
    """RK4 across every cell at once: _SUBSTEPS steps of dstep along
    dt/dx = mu from the source table's columns fidx, in mu's table refined
    _REFINE times, half a fine column per half step, a first stage reading
    at the last end's stencil. Returns the times the traces leave their
    cells and the ``TraceGeometry`` bases (in the source table) and weights."""
    Nt, n, nf = mu.shape[0], mu.shape[2], _SUBSTEPS * (mu.shape[1] - 1) + 1
    table = _refine(mu, _REFINE)
    ncols, nsrc = table.size // (Nt + 4), n * nf
    cols = 2 * fidx - fidx // nf  # family i's source column c is its column 2 c in mu's
    tcur = np.repeat((np.arange(Nt) * (T_star / Nt))[:, None], fidx.size, axis=1)

    def at(t, cols):
        return _stencil(t, T_star, Nt, cols, ncols)

    end, ends = at(tcur, cols), []
    for _ in range(_SUBSTEPS):
        k1 = _read(table, *end, ncols)
        k2 = _read(table, *at(tcur + 0.5 * dstep * k1, cols + half), ncols)
        k3 = _read(table, *at(tcur + 0.5 * dstep * k2, cols + half), ncols)
        k4 = _read(table, *at(tcur + dstep * k3, cols + 2 * half), ncols)
        tcur = tcur + dstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        cols, fidx = cols + 2 * half, fidx + half
        j, f = _phase(tcur, T_star, Nt)  # one end's stencil in both tables
        end = j * ncols + cols, _lagrange4(f)
        ends.append((j * nsrc + fidx, end[1]))
    return (tcur,) + tuple(zip(*ends))


def trace_to_inflow(mu: np.ndarray, R: np.ndarray, plan: tuple, m: int, T_star: float,
                    geometry: Optional[TraceGeometry] = None) -> tuple:
    """Delay from every node to the inflow foot of its characteristic, and
    the weighted source integral along the way.

    mu and R are (Nt, Nx+1, n) grids of the inverse speeds 1 / lambda_i
    and the source terms, held frozen; plan is ``trace_plan(gii, m, Nx, L)``
    of the n diagonal rates gii. Family i's curve dt/dx = mu_i runs from
    node (t_j, x_k) to its inflow boundary x_in (L for i < m, 0 for the
    rest). Returns (delay, integral, geometry): delay and integral are
    (Nt, Nx+1, n), the foot lies at time t_j - delay, and integral is the
    integral of exp(gii (x_k - x)) R_i from x_in to x_k along the curve.
    Three batched stages compute them, every read a periodic cubic one of
    a table padded in time (``_stencil``):

    1. March: RK4 with 4 substeps crosses every cell of every family at
       once, on (Nt, n * Nx) arrays whose column i * Nx + s is family i
       crossing the cell s cells from its inflow boundary, reading mu
       resampled 8 times finer in x. No cell depends on another.
    2. Integrate: the weighted source across each cell by the trapezoid
       rule on the substep ends, reading R resampled 4 times finer in x,
       one fine column per substep end.
    3. Compose, in order from the inflow boundary: a column's delay and
       integral are its cell's own plus the previous column's, read where
       the cell's trace leaves. A step serves every family: one take, a
       weighted sum over the taps, and one multiply-add with the
       coefficients [1, growth] and the cells' (t - tend, qacc).

    The march, its stencils, the compose's first taps and the delay depend
    on mu alone, and the returned geometry keeps them. A geometry passed in
    must be the one of this mu, m, T_star and grid (the caller checks, see
    ``linearized_step``): the trace then skips the march and the compose's
    set-up, bit-identically. None marches and returns a new geometry.
    """
    Nt, Nx, n = mu.shape[0], mu.shape[1] - 1, mu.shape[2]
    families, growth, wfac, half, fidx, dstep, qfac, _ = plan
    ncols = n * (_SUBSTEPS * Nx + 1)  # of the source table

    # DJ[s, :, i]: family i's delay (on a march) and integral, padded in time,
    # s columns from its inflow boundary (column Nx - s for i < m, s else)
    def by_step(a):  # (..., Nt, n * Nx) to (Nx, ..., Nt+4, n), padded
        return _padded(np.moveaxis(a.reshape(a.shape[:-1] + (n, Nx)), -1, 0), axis=-2)

    march = geometry is None
    if march:
        tend, bases, weights = _march(mu, fidx, dstep, half, T_star)
        weights = weights[:-1] + (by_step(weights[-1]).reshape(Nx, 4, -1),)
        feet = (by_step(bases[-1] // ncols) * n + families).reshape(Nx, -1)
    else:
        bases, weights, feet = geometry.bases, geometry.weights, geometry.feet

    table = _refine(R, _SUBSTEPS)
    qacc = np.zeros((Nt, n * Nx))
    w, Rv = np.ones(n * Nx), table.reshape(Nt + 4, ncols)[1:Nt + 1, fidx]
    # the last substep's weights read through the compose's layout
    last = weights[-1][:, :, n:(Nt + 1) * n].reshape(Nx, 4, Nt, n).transpose(1, 2, 3, 0)
    for base, wts in zip(bases, weights[:-1] + (last,)):
        wn = w * wfac
        Rn = _read(table, base.reshape(wts.shape[1:]), wts, ncols).reshape(Nt, -1)
        qacc += qfac * (w * Rv + wn * Rn)
        w, Rv = wn, Rn

    own, coef = [by_step(qacc)], [growth]
    if march:
        own.insert(0, by_step(np.arange(Nt)[:, None] * (T_star / Nt) - tend))
        coef.insert(0, np.ones(n))
    own, coef = np.stack(own, axis=-1), np.stack(coef, axis=-1)
    k = coef.shape[-1]
    taps = feet[:, None] + np.arange(0, 4 * n, n)[:, None]  # each step's four taps
    DJ = np.zeros((Nx + 1, Nt + 4, n, k))
    rows, wts = DJ.reshape(Nx + 1, -1, k), weights[-1][..., None]
    buf = np.empty(taps.shape[1:] + (k,))  # a step's taps, then its weighted sum
    b0, b1, b2, b3 = buf
    dj = b0.reshape(DJ.shape[1:])
    for s in range(Nx):  # taps in range: "clip" skips the copy "raise" makes
        rows[s].take(taps[s], axis=0, out=buf, mode="clip")
        buf *= wts[s]
        b0 += b1
        b0 += b2
        b0 += b3
        dj *= coef
        np.add(dj, own[s], out=DJ[s + 1])
    # to column order, one contiguous (Nt, Nx+1) block per family
    out = np.empty((k, n, Nt, Nx + 1))
    out[:, :m] = DJ[::-1, 1:Nt + 1, :m].transpose(3, 2, 1, 0)
    out[:, m:] = DJ[:, 1:Nt + 1, m:].transpose(3, 2, 1, 0)
    if march:
        geometry = TraceGeometry(mu.copy(), bases, weights, feet, out[0].transpose(1, 2, 0))
    return geometry.delay, out[-1].transpose(1, 2, 0), geometry
