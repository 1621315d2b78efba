"""Boundary feedback maps, periodic forcing signals, and the dissipation number.

At x = 0 the incoming right-moving components are prescribed through maps
G_s(h_s(t), u_1..u_m) of the outgoing left-moving trace; at x = L the
left-moving components follow G_r(h_r(t), u_{m+1}..u_n). The linearization
of the feedback at the origin forms a block anti-diagonal matrix whose
minimal characterizing number (the infimum over positive diagonal scalings
of the max-row-sum norm) quantifies how much amplitude a reflected wave
can retain; values below 1 make the boundary dissipative.

``BoundarySpec.map_values`` is the one entry point to a single map, for
every derivative and ``eval_boundary``; the periodic sweep and the IVP
write their incoming entries from the same batched maps, resolved once
per spec in ``BoundarySpec.sides``. ``BoundarySpec.map_gradient``
differentiates a map centrally with step 1e-6 in h and in each outgoing
component, and raises BoundaryMapError on a non-finite derivative. Map
values are checked where they are used: on what ``eval_boundary``
returns, on the whole new iterate by the sweep, and by the IVP on the
incoming entries each stage writes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BoundaryMapError, ConvergenceError, PeriodicityError
from .system_model import _probe_points, batched

_FD_STEP = 1e-6
_METHOD_AGREEMENT = 1e-6
_CROSS_CLASS_SCALE = 1e-6
_SAMPLES_PER_PERIOD = 4096
_MAP_PROBE_SCALE = 0.01  # size of the (h, outgoing) pairs maps are probed at


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary maps, their forcing signals, and the common period.

    left_maps : one callable per incoming component at x = 0 (families
        m+1..n), called as f(h_value, outgoing) where outgoing holds the
        m left-moving components; may broadcast over a leading batch axis.
    right_maps : one callable per incoming component at x = L (families
        1..m), receiving the n - m right-moving components.
    h : one T-periodic signal of time per family, indexed like the state;
        may broadcast over arrays of times. Maps and signals that do not
        broadcast are looped (see ``system_model.batched``).
    T_star : common period of the signals.

    ``map_values`` is the one entry point to the maps and ``map_gradient``
    their one derivative (central differences, step 1e-6, BoundaryMapError
    when not finite); ``outgoing(i)`` is the trace map i reads, and
    ``sides`` the batched maps of each endpoint, resolved once.

    A spec is immutable, so the batched forms it keeps of its maps and
    signals stay those of the callables it holds.
    """

    left_maps: Sequence[Callable]
    right_maps: Sequence[Callable]
    h: Sequence[Callable]
    T_star: float
    # filled on first use: validate_forcing rebuilds specs it never evaluates
    _h_batch: dict = field(init=False, repr=False)
    _maps: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.T_star <= 0:
            raise ValueError("T_star must be positive")
        if len(self.h) != self.n:
            raise ValueError("need one forcing signal per family")
        object.__setattr__(self, "_h_batch", {})
        object.__setattr__(self, "_maps", {})

    @property
    def n(self) -> int:
        return len(self.left_maps) + len(self.right_maps)

    @property
    def m(self) -> int:
        return len(self.right_maps)

    def h_values(self, i: int, t) -> np.ndarray:
        """Signal i evaluated on scalar or array times."""
        if i not in self._h_batch:
            times = (self.T_star * np.array([0.3, 0.55]),)
            self._h_batch[i] = batched(self.h[i], times, (), f"h[{i}]")
        return self._h_batch[i](np.asarray(t, dtype=float))

    def outgoing(self, i: int) -> slice:
        """Components that map i reads: component i < m (entering at x = L)
        the n - m right-moving ones, the others (entering at x = 0) the m
        left-moving ones."""
        return slice(self.m, self.n) if i < self.m else slice(0, self.m)

    def _map(self, i: int) -> Callable:
        """Batched map of component i."""
        if i not in self._maps:
            fn = self.right_maps[i] if i < self.m else self.left_maps[i - self.m]
            cols = self.outgoing(i)
            probe = (_probe_points(1, _MAP_PROBE_SCALE)[:, 0],
                     _probe_points(cols.stop - cols.start, _MAP_PROBE_SCALE))
            self._maps[i] = batched(fn, probe, (), f"boundary map {i}")
        return self._maps[i]

    def map_values(self, i: int, hv, u_out: np.ndarray) -> np.ndarray:
        """Map of component i at signal values hv (...,) and the outgoing
        trace u_out (..., n_out), e.g. hv = ``h_values(i, t)``. Raises
        ValueError when u_out is not as wide as the trace map i reads."""
        u_out = np.asarray(u_out, dtype=float)
        cols = self.outgoing(i)
        if u_out.shape[-1:] != (cols.stop - cols.start,):
            raise ValueError(f"outgoing trace of component {i} must have "
                             f"length {cols.stop - cols.start}")
        return self._map(i)(np.asarray(hv, dtype=float), u_out)

    @cached_property
    def sides(self) -> tuple:
        """The endpoints that have incoming components, x = 0 first, each
        as (row, incoming slice, ((i, batched map i, outgoing slice), ...))
        with row 0 or -1 of an (Nx + 1, n) profile (a sweep's outgoing
        column). Writing the incoming entries from these skips the
        per-call look-up and width check of ``map_values``: a row's
        outgoing slice has the width the map reads by construction."""
        m, n = self.m, self.n
        return tuple(
            (row, slice(lo, hi), tuple((i, self._map(i), self.outgoing(i))
                                       for i in range(lo, hi)))
            for row, lo, hi in ((0, m, n), (-1, 0, m)) if lo < hi)

    def map_gradient(self, i: int, hv, u_out: np.ndarray) -> tuple:
        """(dG_i/dh, dG_i/du_out) at one point (hv, u_out), by central
        differences with step 1e-6 from one ``map_values`` call on the
        2 (n_out + 1) stencil points. Raises BoundaryMapError when a
        derivative is not finite."""
        u_out = np.asarray(u_out, dtype=float)
        k = u_out.size + 1
        steps = _FD_STEP * np.eye(k)  # row 0 moves h, row j + 1 moves u_j
        steps = np.concatenate([steps, -steps])
        vals = self.map_values(i, hv + steps[:, 0], u_out + steps[:, 1:])
        grad = (vals[:k] - vals[k:]) / (2 * _FD_STEP)
        if not np.all(np.isfinite(grad)):
            raise BoundaryMapError(f"non-finite derivative of boundary map {i}")
        return float(grad[0]), grad[1:]


@dataclass
class ThetaData:
    """Feedback linearization matrix, its minimal characterizing number,
    and a near-minimizing positive diagonal scaling."""

    theta_matrix: np.ndarray
    theta: float
    optimal_scaling: np.ndarray


@dataclass
class ForcingReport:
    """Measured forcing norms and boundary-gain data.

    When the forcing gain at the origin exceeds 1/2, ``rescaled_spec``
    carries the equivalent spec with signals scaled by 2 * gain and the
    maps reparametrized accordingly; validating it again is a no-op.
    """

    h_c1_norms: np.ndarray
    h_c1_max: float
    periodicity_residual: float
    gain_at_origin: np.ndarray
    max_gain: float
    rescaled: bool
    rescaled_spec: Optional[BoundarySpec]
    h_second_deriv_max: float


def theta_matrix(bspec: BoundarySpec) -> np.ndarray:
    """Feedback linearization at the origin, block anti-diagonal by layout.

    Row i holds dG_i/du_out(0, 0) (``BoundarySpec.map_gradient``) in the
    columns of its outgoing trace (``BoundarySpec.outgoing``).
    """
    zero = np.zeros(bspec.n)
    theta = np.zeros((bspec.n, bspec.n))
    for i in range(bspec.n):
        cols = bspec.outgoing(i)
        theta[i, cols] = bspec.map_gradient(i, 0.0, zero[cols])[1]
    return theta


def _power_root(B: np.ndarray) -> float:
    """Perron root of an irreducible nonnegative B by repeated squaring.

    Block anti-diagonal matrices are 2-periodic, which stalls the plain
    power step, so the iteration squares the matrix (with normalization)
    until the row-sum bracket of the original root, recovered through
    2^-s-th roots, is tight. Irreducibility keeps every row sum of every
    power positive, with a max/min ratio bounded by that of the Perron
    vector, so the bracket closes for periodic classes too.
    """
    log_acc = np.log(B.max())
    M = B / B.max()
    for s in range(60):
        rows = M.sum(axis=1)
        lo, hi = float(rows.min()), float(rows.max())
        inv = 1.0 / 2.0**s
        upper = np.exp((np.log(hi) + log_acc) * inv)
        lower = np.exp((np.log(lo) + log_acc) * inv) if lo > 0 else 0.0
        if upper - lower <= 1e-12 * max(1.0, upper):
            return float(np.sqrt(lower) * np.sqrt(upper))
        M = M @ M
        nm = M.max()
        M /= nm
        log_acc = 2.0 * log_acc + np.log(nm)
    raise ConvergenceError("power iteration did not converge")


def _perron_vector(B: np.ndarray, shift: float) -> np.ndarray:
    """Perron vector of an irreducible nonnegative B, scaled to unit max.

    B + shift I (shift > 0) is primitive with the same Perron vector, so
    the row sums of its normalized repeated squares converge to it. The
    arithmetic is nonnegative, so every entry comes out accurate to
    rounding however many orders of magnitude the entries span; a dense
    eigensolve resolves the vector only relative to its largest entry,
    which breaks the bracket of weakly coupled classes (gains of 1e-12,
    the size of finite-difference truncation, next to gains of 1).
    """
    M = B + shift * np.eye(B.shape[0])
    M /= M.max()
    x = np.zeros(B.shape[0])
    for _ in range(60):
        M = M @ M
        M /= M.max()
        prev, x = x, M.sum(axis=1)
        x /= x.max()
        if np.array_equal(x, prev):
            break
    return x


def _strong_classes(absTheta: np.ndarray) -> tuple:
    """Strongly connected classes of the nonzero graph, and class depths.

    i and j share a class when each reaches the other: the reflexive
    transitive closure R of the adjacency (boolean squaring until paths of
    length n are covered), then R & R.T. Returns one index array per
    class and, per state, the number of other classes that reach it,
    which grows along every edge between classes.
    """
    n = absTheta.shape[0]
    R = (absTheta > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        R = R @ R
    C = R & R.T
    reps = np.unique(C.argmax(axis=1))
    return [np.flatnonzero(C[i]) for i in reps], R[reps].sum(axis=0) - 1


def minimal_characterizing_number(theta: np.ndarray) -> tuple:
    """Infimum over positive diagonal scalings of the max-row-sum norm.

    For the nonnegative |Theta| this is its Perron root, the largest over
    the strongly connected classes. On each class with entries it is
    computed two ways that must agree within 1e-6: the row-sum bracket
    of the class matrix B's repeated squares (power root), and the
    Collatz-Wielandt bracket [min, max] of (B x)_i / x_i at the class's
    Perron vector x. Both brackets enclose the root for any positive x.
    A class with no entries has root exactly 0.
    Returns (value, scaling): the value is the largest bracket top, and
    the scaling is gamma = 1 / x normalized to geometric mean 1, where x
    holds each class vector scaled to unit max (1 on empty classes) times
    1e-6 per class upstream of it. For irreducible matrices gamma attains
    the value. For reducible ones the infimum is in general not attained;
    each edge between classes adds about 1e-6 times its gain.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    absTheta = np.abs(theta)
    value = 0.0
    x = np.ones(absTheta.shape[0])
    classes, depth = _strong_classes(absTheta)
    for idx in classes:
        B = absTheta[np.ix_(idx, idx)]
        if not B.any():
            continue
        rho = _power_root(B)
        xc = _perron_vector(B, rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (B @ xc) / xc  # a zero entry of xc fails the check below
        lo, hi = float(ratios.min()), float(ratios.max())
        if not (hi - lo <= _METHOD_AGREEMENT
                and lo - _METHOD_AGREEMENT <= rho <= hi + _METHOD_AGREEMENT):
            raise ConvergenceError(
                f"scaling methods disagree: power root {rho:.3e} vs "
                f"Collatz-Wielandt bracket [{lo:.3e}, {hi:.3e}]")
        value = max(value, hi)
        x[idx] = xc
    logx = np.log(x) + depth * np.log(_CROSS_CLASS_SCALE)
    return value, np.exp(logx.mean() - logx)


def characterizing_data(bspec: BoundarySpec) -> ThetaData:
    """Convenience wrapper building the full feedback-dissipation record."""
    th = theta_matrix(bspec)
    value, gamma = minimal_characterizing_number(th)
    return ThetaData(theta_matrix=th, theta=value, optimal_scaling=gamma)


def _rescale_forcing(bspec: BoundarySpec, M0: float) -> BoundarySpec:
    """Equivalent spec with signals scaled by 2*M0 and maps compensated."""
    c = 2.0 * M0

    def scale_signal(fn):
        return lambda t: c * np.asarray(fn(t), dtype=float)

    def compensate(fn):
        return lambda hv, u: fn(np.asarray(hv) / c, u)

    return replace(
        bspec,
        left_maps=[compensate(f) for f in bspec.left_maps],
        right_maps=[compensate(f) for f in bspec.right_maps],
        h=[scale_signal(f) for f in bspec.h],
    )


def validate_forcing(bspec: BoundarySpec) -> ForcingReport:
    """Measure forcing norms, periodicity, and the forcing gain at the origin.

    The C1 norm of each signal is max(sup |h|, sup |h'|) on a dense sample
    grid (4096 points per period, central differences). Signals whose maps
    have forcing gain above 1/2 are reported together with the rescaled
    equivalent spec; an already-rescaled spec is returned unchanged.
    Raises BoundaryMapError naming a signal with a non-finite sample and
    PeriodicityError when a signal fails h(t + T) = h(t) beyond 1e-8.
    """
    n = bspec.n
    T = bspec.T_star
    ts = np.arange(_SAMPLES_PER_PERIOD) * (T / _SAMPLES_PER_PERIOD)
    dt = T / _SAMPLES_PER_PERIOD

    c1 = np.empty(n)
    h2max = 0.0
    per_res = 0.0
    for i in range(n):
        vals = bspec.h_values(i, ts)
        res = float(np.abs(bspec.h_values(i, ts + T) - vals).max())
        plus = bspec.h_values(i, ts + dt)
        minus = bspec.h_values(i, ts - dt)
        deriv = (plus - minus) / (2 * dt)
        c1[i] = np.maximum(np.abs(vals).max(), np.abs(deriv).max())
        second = float(np.abs((plus - 2 * vals + minus) / dt**2).max())
        # numpy keeps a NaN through max, Python's max would drop it
        if not math.isfinite(res + c1[i] + second):
            raise BoundaryMapError(f"forcing signal {i} is not finite at some sample")
        per_res = max(per_res, res)
        h2max = max(h2max, second)
    if per_res > 1e-8:
        raise PeriodicityError(f"forcing not {T}-periodic: residual {per_res:.3e}")

    zero = np.zeros(n)
    gains = np.array([bspec.map_gradient(i, 0.0, zero[bspec.outgoing(i)])[0]
                      for i in range(n)])
    max_gain = float(np.abs(gains).max()) if n else 0.0
    rescaled = max_gain > 0.5
    rescaled_spec = _rescale_forcing(bspec, max_gain) if rescaled else None

    return ForcingReport(
        h_c1_norms=c1,
        h_c1_max=float(c1.max()) if n else 0.0,
        periodicity_residual=per_res,
        gain_at_origin=gains,
        max_gain=max_gain,
        rescaled=rescaled,
        rescaled_spec=rescaled_spec,
        h_second_deriv_max=h2max,
    )


def eval_boundary(bspec: BoundarySpec, side: str, t, outgoing: np.ndarray) -> np.ndarray:
    """Incoming components at one endpoint from the outgoing trace.

    side "left" (x = 0) maps the m outgoing components to the n - m
    incoming ones; side "right" (x = L) the reverse. Takes times t (...,)
    and outgoing (..., n_out) and returns (..., n_incoming), each map
    evaluated by ``BoundarySpec.map_values`` at h_i(t). Raises
    BoundaryMapError on a non-finite value.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    comps = range(bspec.m, bspec.n) if side == "left" else range(bspec.m)
    out = np.empty(np.asarray(t).shape + (len(comps),))
    for k, i in enumerate(comps):
        out[..., k] = bspec.map_values(i, bspec.h_values(i, t), outgoing)
    if not np.isfinite(out).all():
        raise BoundaryMapError("boundary map returned non-finite values")
    return out
