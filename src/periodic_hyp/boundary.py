"""Boundary feedback maps, periodic forcing signals, and the dissipation number.

At x = 0 the incoming right-moving components are prescribed through maps
G_s(h_s(t), u_1..u_m) of the outgoing left-moving trace; at x = L the
left-moving components follow G_r(h_r(t), u_{m+1}..u_n). The linearization
of the feedback at the origin forms a block anti-diagonal matrix whose
minimal characterizing number (the infimum over positive diagonal scalings
of the max-row-sum norm) quantifies how much amplitude a reflected wave
can retain; values below 1 make the boundary dissipative. It is the
Perron root of |Theta|, from one balanced eigensolve per strongly connected
class, checked against the Collatz-Wielandt bracket at the class's Perron
vector, which nonnegative repeated squaring gives to every entry's accuracy.

Both solvers read the maps through one table, ``BoundarySpec.incoming``:
the sweep calls ``BoundarySpec.map_values``, the one entry point to a
batch, as every derivative and ``eval_boundary`` do, and the IVP each map
as given on its one item. ``BoundarySpec.map_gradient`` differentiates a
map centrally with step 1e-6 in h and in each outgoing component, and
raises BoundaryMapError on a non-finite derivative; its values at the
origin, kept in ``BoundarySpec.origin``, give ``theta_matrix`` and the
gains of ``validate_forcing``. Map values are checked where they
are used: on what ``eval_boundary`` returns, on the whole new iterate by
the sweep, and by the IVP on each incoming entry as it writes it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BoundaryMapError, ConvergenceError, PeriodicityError
from .system_model import SystemSpec, _probe_points, batched, read_number

_FD_STEP = 1e-6
_METHOD_AGREEMENT = 1e-6
_CROSS_CLASS_SCALE = 1e-6
_SAMPLES_PER_PERIOD = 4096
_MAP_PROBE_SCALE = 0.01  # size of the (h, outgoing) pairs maps are probed at
_SETTLED = 4 * np.finfo(float).eps  # relative move of each Perron entry that ends squaring


@dataclass(frozen=True)
class BoundaryOrigin:
    """The maps linearized at (h, u_out) = (0, 0), read-only: gains (n,) of
    dG_i/dh, and theta (n, n), row i dG_i/du_out on ``outgoing(i)``."""

    gains: np.ndarray
    theta: np.ndarray


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
    T_star : common period of the signals, > 0 (``read_number``).

    ``map_values`` is the one entry point to the maps and ``map_gradient``
    their one derivative (central differences, step 1e-6, BoundaryMapError
    when not finite); ``outgoing(i)`` is the trace map i reads, ``origin``
    the linearization at the origin, computed on first use, and
    ``incoming`` the table (i, row, outgoing(i), map i as given) of the
    incoming components, x = 0 (row 0) first; map i is right_maps[i] for
    i < m, else left_maps[i - m]. Each map and signal is batched once, when
    the spec is built, so construction raises what one of them raises on
    one item, or ValueError when it gives a wrong shape or broadcasts
    wrongly. A spec is immutable, so what it keeps stays that of the
    callables it holds.
    """

    left_maps: Sequence[Callable]
    right_maps: Sequence[Callable]
    h: Sequence[Callable]
    T_star: float
    incoming: tuple = field(init=False, repr=False)
    _batched_h: tuple = field(init=False, repr=False)
    _batched_maps: tuple = field(init=False, repr=False)

    def __post_init__(self):
        read_number(self.T_star, "T_star", 0, strict=True)
        if len(self.h) != self.n:
            raise ValueError("need one forcing signal per family")
        times = (self.T_star * np.array([0.3, 0.55]),)
        object.__setattr__(self, "_batched_h", tuple(
            batched(fn, times, (), f"h[{i}]") for i, fn in enumerate(self.h)))
        hv = _probe_points(1, _MAP_PROBE_SCALE)[:, 0]
        m, n = self.m, self.n
        maps = (*self.right_maps, *self.left_maps)
        object.__setattr__(self, "_batched_maps", tuple(
            batched(fn, (hv, _probe_points(n - m if i < m else m, _MAP_PROBE_SCALE)),
                    (), f"boundary map {i}")
            for i, fn in enumerate(maps)))
        # the outgoing slices have the widths the maps read, so the IVP's
        # writes skip that check
        object.__setattr__(self, "incoming", tuple(
            (i, 0 if i >= m else -1, self.outgoing(i), maps[i])
            for i in (*range(m, n), *range(m))))

    @property
    def n(self) -> int:
        return len(self.left_maps) + len(self.right_maps)

    @property
    def m(self) -> int:
        return len(self.right_maps)

    def h_values(self, i: int, t) -> np.ndarray:
        """Signal i evaluated on scalar or array times."""
        return self._batched_h[i](np.asarray(t, dtype=float))

    def outgoing(self, i: int) -> slice:
        """Components that map i reads: component i < m (entering at x = L)
        the n - m right-moving ones, the others (entering at x = 0) the m
        left-moving ones."""
        return slice(self.m, self.n) if i < self.m else slice(0, self.m)

    def map_values(self, i: int, hv, u_out: np.ndarray) -> np.ndarray:
        """Map of component i at signal values hv (...,) and the outgoing
        trace u_out (..., n_out), e.g. hv = ``h_values(i, t)``. Raises
        ValueError when u_out is not as wide as the trace map i reads."""
        u_out = np.asarray(u_out, dtype=float)
        cols = self.outgoing(i)
        if u_out.shape[-1:] != (cols.stop - cols.start,):
            raise ValueError(f"outgoing trace of component {i} must have "
                             f"length {cols.stop - cols.start}")
        return self._batched_maps[i](np.asarray(hv, dtype=float), u_out)

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

    def check_fits(self, spec: SystemSpec) -> None:
        """Raise ValueError unless spec has this boundary's n and m."""
        if spec.n != self.n or spec.m != self.m:
            raise ValueError(f"boundary has n = {self.n}, m = {self.m}; "
                             f"the system n = {spec.n}, m = {spec.m}")

    @cached_property
    def origin(self) -> BoundaryOrigin:
        """Forcing gains and theta matrix from one ``map_gradient(i, 0, 0)``
        per map; raises what that raises, on every use until it succeeds."""
        zero, gains, theta = np.zeros(self.n), np.zeros(self.n), np.zeros((self.n, self.n))
        for i in range(self.n):
            cols = self.outgoing(i)
            gains[i], theta[i, cols] = self.map_gradient(i, 0.0, zero[cols])
        gains.flags.writeable = theta.flags.writeable = False
        return BoundaryOrigin(gains=gains, theta=theta)


@dataclass
class ThetaData:
    """Feedback linearization matrix, its minimal characterizing number,
    and a near-minimizing positive diagonal scaling."""

    theta_matrix: np.ndarray
    theta: float
    optimal_scaling: np.ndarray


@dataclass
class ForcingReport:
    """Measured forcing norms and boundary-gain data: gain_at_origin is
    ``BoundarySpec.origin.gains`` (read-only), max_gain its largest modulus
    and rescaled whether that exceeds 1/2."""

    h_c1_norms: np.ndarray
    h_c1_max: float
    periodicity_residual: float
    gain_at_origin: np.ndarray
    max_gain: float
    rescaled: bool
    h_second_deriv_max: float


def theta_matrix(bspec: BoundarySpec) -> np.ndarray:
    """Feedback linearization at the origin, block anti-diagonal by layout:
    a writable copy of ``BoundarySpec.origin.theta``, whose row i holds
    dG_i/du_out(0, 0) in the columns of its outgoing trace."""
    return bspec.origin.theta.copy()


def _perron_root(B: np.ndarray) -> float:
    """Spectral radius of B from one dense eigensolve; raises
    ConvergenceError when the eigensolve fails.

    LAPACK's dgeev balances B first (Parlett & Reinsch), after which an
    eigenvalue is backward stable, so the root keeps its relative accuracy
    on classes whose entries span many orders of magnitude.
    """
    try:
        return float(np.abs(np.linalg.eigvals(B)).max())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolve of a theta class failed: {exc}") from exc


def _perron_vector(B: np.ndarray, shift: float) -> np.ndarray:
    """Perron vector of an irreducible nonnegative B, scaled to unit max.

    B + shift I (shift > 0) is primitive with the same Perron vector, so
    the row sums of its normalized repeated squares converge to it. The
    arithmetic is nonnegative, so every entry comes out accurate to
    rounding however many orders of magnitude the entries span; a dense
    eigensolve resolves the vector only relative to its largest entry,
    which breaks the bracket of weakly coupled classes (gains of 1e-12,
    the size of finite-difference truncation, next to gains of 1).
    Squaring stops, at the latest after 60 squares, once every entry
    moved by at most 4 ulps of itself in the last one: relative to each
    entry, so the smallest keep their accuracy, and not on a bitwise
    repeat, which rounding can put off until the cap: x then cycles in
    its last bit or drifts by a few ulps per square.
    """
    M = B + shift * np.eye(B.shape[0])
    M /= M.max()
    x = np.zeros(B.shape[0])
    for _ in range(60):
        M = M @ M
        M /= M.max()
        prev, x = x, M.sum(axis=1)
        x /= x.max()
        if (np.abs(x - prev) <= _SETTLED * x).all():
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
    computed two ways that must agree within 1e-6: the spectral radius of
    the class matrix B from one balanced eigensolve (eigensolve root), and
    the Collatz-Wielandt bracket [min, max] of (B x)_i / x_i at the
    class's Perron vector x, which encloses the root for any positive x.
    The root may come from a dense eigensolve and the vector may not: a
    balanced eigenvalue is backward stable, but an eig vector is accurate
    only relative to its largest entry (see ``_perron_vector``).
    A class with no entries has root exactly 0. Raises ValueError when
    theta is not finite: a NaN gain would read as no edge.
    Returns (value, scaling): the value is the largest bracket top, and
    the scaling is gamma = 1 / x normalized to geometric mean 1, where x
    holds each class vector scaled to unit max (1 on empty classes) times
    1e-6 per class upstream of it. For irreducible matrices gamma attains
    the value. For reducible ones the infimum is in general not attained;
    each edge between classes adds about 1e-6 times its gain.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if not np.isfinite(theta).all():
        raise ValueError("theta matrix must be finite")
    absTheta = np.abs(theta)
    value = 0.0
    x = np.ones(absTheta.shape[0])
    classes, depth = _strong_classes(absTheta)
    for idx in classes:
        B = absTheta[np.ix_(idx, idx)]
        if not B.any():
            continue
        rho = _perron_root(B)
        xc = _perron_vector(B, rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (B @ xc) / xc  # a zero entry of xc fails the check below
        lo, hi = float(ratios.min()), float(ratios.max())
        if not (hi - lo <= _METHOD_AGREEMENT
                and lo - _METHOD_AGREEMENT <= rho <= hi + _METHOD_AGREEMENT):
            raise ConvergenceError(
                f"scaling methods disagree: eigensolve root {rho:.3e} vs "
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


def validate_forcing(bspec: BoundarySpec) -> ForcingReport:
    """Measure forcing norms, periodicity, and the forcing gain at the origin.

    Each signal is evaluated once, on t_k = k dt, k = -1 .. 2N - 1 (N = 4096,
    dt = T / N): the period, its neighbours one sample either side and the
    next period are offset slices of it. The C1 norm is max(sup |h|, sup |h'|)
    on the period, by central differences. The forcing gains dG/dh at the
    origin are read from ``BoundarySpec.origin``, which ``theta_matrix``
    shares, and ``rescaled`` flags one above 1/2. Raises BoundaryMapError
    naming the first signal with a non-finite sample or, from the origin,
    the map with a non-finite derivative, and PeriodicityError when a
    signal fails h(t + T) = h(t) beyond 1e-8.
    """
    n, T, N = bspec.n, bspec.T_star, _SAMPLES_PER_PERIOD
    dt = T / N
    grid = np.arange(-1, 2 * N) * dt

    c1 = np.empty(n)
    h2max = 0.0
    per_res = 0.0
    for i in range(n):
        h = bspec.h_values(i, grid)
        minus, vals, plus = h[:N], h[1:N + 1], h[2:N + 2]
        res = float(np.abs(h[N + 1:] - vals).max())
        # dividing by a positive constant is monotone and correctly
        # rounded, so the maxima may be divided after they are taken
        deriv = np.abs(plus - minus).max() / (2 * dt)
        c1[i] = np.maximum(np.abs(vals).max(), deriv)
        second = float(np.abs(plus - 2 * vals + minus).max() / dt**2)
        # numpy keeps a NaN through max, Python's max would drop it
        if not math.isfinite(res + c1[i] + second):
            raise BoundaryMapError(f"forcing signal {i} is not finite at some sample")
        per_res = max(per_res, res)
        h2max = max(h2max, second)
    if per_res > 1e-8:
        raise PeriodicityError(f"forcing not {T}-periodic: residual {per_res:.3e}")

    gains = bspec.origin.gains
    max_gain = float(np.abs(gains).max()) if n else 0.0
    return ForcingReport(
        h_c1_norms=c1,
        h_c1_max=float(c1.max()) if n else 0.0,
        periodicity_residual=per_res,
        gain_at_origin=gains,
        max_gain=max_gain,
        rescaled=max_gain > 0.5,
        h_second_deriv_max=h2max,
    )


def eval_boundary(bspec: BoundarySpec, side: str, t, outgoing: np.ndarray) -> np.ndarray:
    """Incoming components at one endpoint from the outgoing trace.

    side "left" (x = 0) maps the m outgoing components to the n - m
    incoming ones of its row of ``BoundarySpec.incoming``; side "right"
    (x = L) the reverse. Takes times t (...,)
    and outgoing (..., n_out) and returns (..., n_incoming), each map
    evaluated by ``BoundarySpec.map_values`` at h_i(t). Raises
    BoundaryMapError on a non-finite value.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    row = 0 if side == "left" else -1
    comps = [i for i, r, _, _ in bspec.incoming if r == row]
    out = np.empty(np.asarray(t).shape + (len(comps),))
    for k, i in enumerate(comps):
        out[..., k] = bspec.map_values(i, bspec.h_values(i, t), outgoing)
    if not np.isfinite(out).all():
        raise BoundaryMapError("boundary map returned non-finite values")
    return out
