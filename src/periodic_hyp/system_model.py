"""Quasilinear system description and its derived algebraic objects.

A system is u_t + A(u) u_x = F(u) on x in [0, L], posed near u = 0. The
coefficient matrix must be hyperbolic with a fixed signature: m negative
speeds (families 1..m, moving left) and n - m positive speeds (families
m+1..n, moving right). This module builds the eigenstructure, the
interaction coefficients B_ij, the shifted source linearization, and the
superlinear source remainder used by the periodic solver, and validates
the structural hypotheses on a sampled neighborhood of the origin.
"""
from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateEigenbasisError,
    DomainError,
    DominanceError,
    HyperbolicityError,
    SignatureError,
    SourceOriginError,
)

# Validation tolerances (see HypothesisReport)
_IMAG_TOL = 1e-9
_ZERO_EIG_TOL = 1e-12
_GAP_TOL = 1e-10
_ORIGIN_TOL = 1e-12
_PROBE_RTOL = 1e-12  # batched against looped values of a probed callable

logger = logging.getLogger("periodic_hyp")


def read_number(value, name: str, least=None, strict=False, integer=False):
    """The package's one reader of number arguments and config numbers:
    value as a finite float of at least least (above it when strict), or
    when integer an int that ``operator.index`` takes (numpy integers, not
    16.0); a bool, str or bytes is none. Else ValueError naming name."""
    number = not isinstance(value, (bool, np.bool_, str, bytes))
    try:  # float() takes True, "5" and b"5", and operator.index takes True
        out = (operator.index if integer else float)(value) if number else math.nan
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if integer and not out >= least:
        raise ValueError(f"'{name}' must be an integer of at least {least}, got {value!r}")
    if not (integer or math.isfinite(out)):
        raise ValueError(f"'{name}' must be a finite number, got {value!r}")
    if least is not None and (out < least or strict and out == least):
        bound = (("positive" if strict else "nonnegative") if least == 0
                 else f"{'above' if strict else 'at least'} {least}")
        raise ValueError(f"'{name}' must be {bound}, got {value!r}")
    return out


def _probe_points(n: int, radius: float) -> np.ndarray:
    """Two distinct nonzero points of R^n inside the ball of the radius,
    with distinct entries, for probing how a callable batches."""
    v = np.arange(1.0, n + 1) / np.sqrt(np.sum(np.arange(1.0, n + 1) ** 2))
    return radius * np.stack([0.5 * v, -0.3 * v[::-1]])


def batched(fn: Callable, probe: tuple, out_shape: tuple, name: str) -> Callable:
    """Form of ``fn`` that maps a leading batch shape over every argument.

    probe holds one array per argument, each with a leading axis of two
    distinct inputs; their trailing shapes are the shapes of one item.
    out_shape is the shape of one item's value, or a tuple of such shapes
    when fn returns a tuple of arrays, each batched alike. fn is called
    once per item, then once on the pair. What fn raises on one item
    propagates, and a value of another shape than out_shape raises
    ValueError naming fn. When the pair call raises what one-item code
    raises on a batch (listed below; others propagate) or returns other
    shapes than (2, *out_shape), fn takes one item at a time and the
    batched form loops, logged at debug level, with the same check of
    each item's shape. When the shapes are right but the values differ
    from the one-item ones by more than 1e-12 relative, fn broadcasts
    wrongly: ValueError naming it. Otherwise fn sees at most one leading
    axis, the shape its probe checks: more leading axes of the arrays
    passed to the batched form are merged into one.
    """
    probe = tuple(np.asarray(p, dtype=float) for p in probe)
    item_ndim = [p.ndim - 1 for p in probe]
    multi = bool(out_shape) and isinstance(out_shape[0], tuple)
    shapes = out_shape if multi else (out_shape,)

    def flat(args):
        """Arrays args with their leading axes merged into one, and that shape."""
        lead = args[0].shape[:args[0].ndim - item_ndim[0]]
        size = math.prod(lead)
        return [a.reshape((size,) + a.shape[a.ndim - d:])
                for a, d in zip(args, item_ndim)], lead

    def arrays(vals):
        return [np.asarray(v, dtype=float) for v in (vals if multi else (vals,))]

    def item(vals):  # fn's value on one item
        vals = arrays(vals)
        if [v.shape for v in vals] != list(shapes):
            raise ValueError(f"{name} returns on one item another shape than {out_shape}")
        return vals

    def looped(*args):
        args, lead = flat([np.asarray(a, dtype=float) for a in args])
        outs = [np.empty((len(args[0]),) + s) for s in shapes]
        for k in range(len(outs[0])):
            for out, v in zip(outs, item(fn(*(a[k] for a in args)))):
                out[k] = v
        outs = tuple(out.reshape(lead + s) for out, s in zip(outs, shapes))
        return outs if multi else outs[0]

    items = [item(fn(*(p[k] for p in probe))) for k in range(2)]  # what fn raises propagates
    try:
        together = arrays(fn(*probe))
    except (TypeError, ValueError, IndexError):
        # one-item code on a batch: TypeError (float() or math.* of an array),
        # ValueError (an array's truth value), IndexError (u[2] of a pair)
        together = None
    if together is None or [v.shape for v in together] != [(2,) + s for s in shapes]:
        logger.debug("%s takes one item at a time: its batched form loops", name)
        return looped
    for got, want in zip(together, map(np.array, zip(*items))):
        if np.abs(got - want).max() > _PROBE_RTOL * np.abs(want).max():
            raise ValueError(f"{name} broadcasts wrongly: on a batch it returns "
                             "other values than one item at a time")

    def merged(*args):
        if args[0].ndim - item_ndim[0] > 1:  # more leading axes than fn takes
            args, lead = flat(args)
            vals = fn(*args)
            outs = tuple(np.asarray(v, dtype=float).reshape(lead + s)
                         for v, s in zip(vals if multi else (vals,), shapes))
            return outs if multi else outs[0]
        vals = fn(*args)  # already flat
        if multi:  # a list is built faster than tuple() runs a generator
            return tuple([np.asarray(v, dtype=float) for v in vals])
        return np.asarray(vals, dtype=float)
    return merged


def fd_gradient(F: Callable, u: np.ndarray, n: int) -> np.ndarray:
    """4th-order central finite-difference Jacobian of F at u.

    Step 1e-5 * max(1, |u|), adequate against the 1e-8 validation
    tolerances used elsewhere.
    """
    u = np.asarray(u, dtype=float)
    h = 1e-5 * max(1.0, float(np.linalg.norm(u)))
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        f_m2 = np.asarray(F(u - 2 * h * e), dtype=float)
        f_m1 = np.asarray(F(u - h * e), dtype=float)
        f_p1 = np.asarray(F(u + h * e), dtype=float)
        f_p2 = np.asarray(F(u + 2 * h * e), dtype=float)
        J[:, j] = (f_m2 - 8 * f_m1 + 8 * f_p1 - f_p2) / (12 * h)
    return J


@dataclass(frozen=True)
class Origin:
    """The system at u = 0: g0 = gradF(0), mu0 = 1 / lambda(0), K_min, the
    largest off-diagonal |A(0)| and a0_diagonal, whether it is at most
    1e-12: the one test of a diagonal A(0), for the periodic solve and the
    family labels of ``eigen_fields``."""

    g0: np.ndarray
    mu0: np.ndarray
    K_min: float
    a0_offdiag_max: float
    a0_diagonal: bool


@dataclass(frozen=True)
class SystemSpec:
    """The tuple (n, m, A, F, neighborhood radius, L) defining the system.

    Parameters
    ----------
    n : state dimension, a positive integer (``read_number``: numpy
        integers pass, 2.0 and True raise ValueError).
    m : number of negative speeds, an integer; families 1..m move left.
    A : callable, state (n,) -> (n, n) coefficient matrix, or the (n,)
        speeds of a diagonal A (``gives_speeds``, read from one call at
        construction; component i is then family i; a matrix A has it
        False even where it is diagonal). May accept a leading batch
        axis; if it does not, evaluations fall back to a loop (see
        ``batched`` for the probe that decides, and what it refuses).
    F : callable, state (n,) -> (n,) source term, F(0) = 0, batched like A.
    gradF : optional callable, state -> (n, n) Jacobian of F. Defaults to
        4th-order central finite differences.
    AF : optional callable, state -> (A, F) in one call, for systems
        whose A and F share intermediates, its A in the form of A; batched
        like A (a form that does not batch is looped), is what ``AF_at``
        calls, kept at construction: without it ``A_at`` then ``F_at``.
        Construction raises ValueError naming ``SystemSpec.AF`` when its
        batched form differs from those of A and F on the two probe states,
        in form or by more than 1e-12 relative.
    domain_radius : radius of the validated neighborhood of u = 0, > 0.
    L : spatial interval length, > 0.

    A spec is immutable; ``origin`` and ``sampled_speeds`` are kept.
    """

    n: int
    m: int
    A: Callable
    F: Callable
    domain_radius: float
    L: float
    gradF: Optional[Callable] = None
    AF: Optional[Callable] = None
    gives_speeds: bool = field(init=False)
    _A_batch: Callable = field(init=False, repr=False)
    _F_batch: Callable = field(init=False, repr=False)
    _AF_batch: Callable = field(init=False, repr=False)

    def __post_init__(self):
        n = read_number(self.n, "n", 1, integer=True)
        if read_number(self.m, "m", 0, integer=True) > n:
            raise ValueError("m must lie in [0, n]")
        read_number(self.domain_radius, "domain_radius", 0, strict=True)
        read_number(self.L, "L", 0, strict=True)
        probe = (_probe_points(self.n, self.domain_radius),)
        gives_speeds = np.shape(self.A(probe[0][0])) == (self.n,)
        object.__setattr__(self, "gives_speeds", gives_speeds)
        shapes = ((self.n,) if gives_speeds else (self.n, self.n), (self.n,))
        object.__setattr__(self, "_A_batch",
                           batched(self.A, probe, shapes[0], "SystemSpec.A"))
        object.__setattr__(self, "_F_batch",
                           batched(self.F, probe, shapes[1], "SystemSpec.F"))
        def AF(states):  # A_at and F_at, each traced by name
            return self.A_at(states), self.F_at(states)
        if self.AF is not None:  # its form is checked by batched, its values here
            AF = batched(self.AF, probe, shapes, "SystemSpec.AF")
            for got, want in zip(AF(probe[0]), (self._A_batch(probe[0]),
                                                self._F_batch(probe[0]))):
                if not np.abs(got - want).max() <= _PROBE_RTOL * np.abs(want).max():
                    raise ValueError("SystemSpec.AF differs from SystemSpec.A "
                                     "and SystemSpec.F at a probe state")
        object.__setattr__(self, "_AF_batch", AF)

    # each computed on first use, read-only: a solve needs only the
    # origin and must not sample the neighborhood
    @cached_property
    def origin(self) -> Origin:
        """g0, mu0, K_min and how far A(0) is from diagonal (see ``Origin``)."""
        g0 = np.array(self.gradF_at(np.zeros(self.n)))  # a copy, made read-only
        mu0 = 1.0 / eigen_fields(self, np.zeros((1, self.n)))[0][0]
        g0.flags.writeable = mu0.flags.writeable = False
        off, diagonal, _ = self._a0
        return Origin(g0=g0, mu0=mu0, K_min=minimal_K(g0), a0_offdiag_max=off,
                      a0_diagonal=diagonal)

    @cached_property
    def _a0(self) -> tuple:
        """(largest off-diagonal |A(0)|, A(0) diagonal, family ranks): family
        i has A_ii(0)'s rank on a diagonal A(0), else rank i."""
        A0 = self.A_at(np.zeros((1, self.n)))[0]
        A0 = np.diag(A0) if self.gives_speeds else A0
        off = float(np.abs(A0 - np.diag(np.diag(A0))).max())
        diagonal = off <= _ORIGIN_TOL
        rank = np.argsort(np.argsort(np.diag(A0))) if diagonal else np.arange(self.n)
        rank.flags.writeable = False
        return off, diagonal, rank

    @cached_property
    def sampled_speeds(self) -> np.ndarray:
        """Speeds at the 256 ``neighborhood_samples`` states."""
        lam = eigen_fields(self, neighborhood_samples(self, 256))[0]
        lam.flags.writeable = False
        return lam

    def A_at(self, states: np.ndarray) -> np.ndarray:
        """A on states of shape (..., n): (..., n, n), or speeds (..., n)."""
        return self._A_batch(np.asarray(states, dtype=float))

    def A_times(self, states: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A(states) v for states and vectors v of shape (..., n)."""
        Av = self.A_at(states)
        return Av * v if self.gives_speeds else np.einsum("...ij,...j->...i", Av, v)

    def F_at(self, states: np.ndarray) -> np.ndarray:
        """F evaluated on states of shape (..., n); returns (..., n)."""
        return self._F_batch(np.asarray(states, dtype=float))

    def AF_at(self, states: np.ndarray) -> tuple:
        """(A, F) evaluated on states of shape (..., n), one call of the
        spec's AF when it has one, else ``A_at`` and ``F_at``."""
        return self._AF_batch(np.asarray(states, dtype=float))

    def gradF_at(self, u: np.ndarray) -> np.ndarray:
        if self.gradF is not None:
            return np.asarray(self.gradF(np.asarray(u, dtype=float)), dtype=float)
        return fd_gradient(self.F, u, self.n)

    def contains(self, states: np.ndarray) -> bool:
        """True if every state lies in the closed validated ball."""
        s = np.asarray(states, dtype=float)
        # np.linalg.norm(s, axis=-1) without its argument handling; the
        # square root is monotone, so it is taken once, of the largest;
        # the ufuncs' own reductions give the bits of .max without its dispatch
        r2 = np.maximum.reduce(np.add.reduce(s * s, axis=-1), axis=None, initial=0.0)
        return math.sqrt(r2) <= self.domain_radius * (1 + 1e-12)


@dataclass
class HypothesisReport:
    """Outcome of sampling the structural hypotheses over the neighborhood."""

    samples: int
    signature: tuple
    mu_max: float
    a0_diagonal: bool
    a0_offdiag_max: float
    f0_norm: float
    needs_time_rescaling: bool

    @property
    def ok(self) -> bool:
        return self.a0_diagonal and not self.needs_time_rescaling


def _diagonal(A_vals: np.ndarray) -> Optional[np.ndarray]:
    """diag A (a read-only view) when every matrix of A_vals is diagonal,
    else None.

    A non-finite off-diagonal entry counts as nonzero, so it lands in the
    general path; a non-finite diagonal is caught by ``_check_speeds``.
    """
    d = A_vals.diagonal(0, -2, -1)
    return d if np.count_nonzero(A_vals) == np.count_nonzero(d) else None


def _gaps_at_least(speeds: np.ndarray, gap: float) -> bool:
    """True if the sorted speeds of every row are at least gap apart."""
    return bool(np.diff(np.sort(speeds, axis=-1), axis=-1).min() >= gap)


@lru_cache(maxsize=None)
def _signs(m: int, n: int) -> np.ndarray:
    """-1 on the m left-moving columns, +1 on the others (read-only)."""
    signs = np.where(np.arange(n) < m, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def _check_speeds(speeds: np.ndarray, m: int) -> float:
    """Raise unless every row of speeds is finite, none zero or repeated
    (HyperbolicityError), and in the order given m negative then n - m
    positive (SignatureError); return the top |speed|, the bits of
    ``np.abs(speeds).max()``."""
    n = speeds.shape[-1]
    # one accept test: the speeds turned positive on their side, s, all
    # beyond the gap tolerance of zero and, within a side of two or more,
    # that far apart imply the four tests below; s.max() is then the top
    # speed, and a NaN anywhere makes it NaN. Any other input takes the
    # four tests for its diagnosis; the ufuncs' reductions are s.max() and
    # s.min() without their dispatch
    s = speeds * _signs(m, n)
    top = float(np.maximum.reduce(s, axis=None))
    g = _GAP_TOL * max(1.0, top)
    if (math.isfinite(top) and np.minimum.reduce(s, axis=None) > g
            and (m < 2 or _gaps_at_least(speeds[..., :m], g))
            and (n - m < 2 or _gaps_at_least(speeds[..., m:], g))):
        return top
    abs_lam = np.abs(speeds)
    top = float(abs_lam.max())
    if not math.isfinite(top):
        raise HyperbolicityError("A is not finite at some state")
    scale = max(1.0, top)
    if abs_lam.min() < _ZERO_EIG_TOL * scale:
        raise HyperbolicityError("zero eigenvalue encountered")
    lam = np.sort(speeds, axis=-1)
    if n > 1 and (lam[..., 1:] - lam[..., :-1]).min() < _GAP_TOL * scale:
        raise HyperbolicityError("repeated eigenvalue (not strictly hyperbolic)")
    if (m and speeds[..., :m].max() > 0) or (m < n and speeds[..., m:].min() < 0):
        raise SignatureError(
            f"signature is not ({m}, {n - m}) at every sampled state"
        )
    return top


def eigen_fields(spec: SystemSpec, states: np.ndarray,
                 A_vals: Optional[np.ndarray] = None):
    """Checked speeds and eigenbases at states of shape (..., n), the one
    routine that computes them.

    Returns (lambdas, left, right, top |lambda|). A_vals is
    ``spec.A_at(states)`` when the caller has it; otherwise A is evaluated
    once. For a spec that gives speeds, or a matrix A diagonal at every
    state (tested per call), the characteristic variables are the
    components themselves (component i is family i) and the result is
    (speeds, None, None, top): no bases are built. Otherwise family i has
    at every state the speed rank that A_ii(0) has on the diagonal of a
    diagonal A(0) (``Origin.a0_diagonal``, ranked once per spec), so both
    paths label alike (rank i when A(0) is not diagonal); left has rows
    l_i and right columns r_i of shape (..., n, n), with
    l_i . r_j = delta_ij, |r_i| = 1 and the largest entry of each r_i
    positive. Raises HyperbolicityError / SignatureError if any state
    violates the hypotheses (HyperbolicityError also where A is not finite).
    """
    states = np.asarray(states, dtype=float)
    m = spec.m
    if A_vals is None:
        A_vals = spec.A_at(states)

    d = A_vals if spec.gives_speeds else _diagonal(A_vals)
    if d is not None:
        return d, None, None, _check_speeds(d, m)

    if not np.all(np.isfinite(A_vals)):
        raise HyperbolicityError("A is not finite at some state")
    w, v = np.linalg.eig(A_vals)
    scale = max(1.0, float(np.abs(w).max()))
    if np.abs(w.imag).max() > _IMAG_TOL * scale:
        raise HyperbolicityError("complex eigenvalue encountered")
    lam_raw = w.real
    # strict hyperbolicity on the ball keeps each family's rank at the origin
    order = np.argsort(lam_raw, axis=-1)[..., spec._a0[2]]
    lam = np.take_along_axis(lam_raw, order, axis=-1)
    right = np.take_along_axis(v.real, order[..., None, :], axis=-1)
    right = right / np.linalg.norm(right, axis=-2, keepdims=True)
    idx = np.argmax(np.abs(right), axis=-2)
    vals = np.take_along_axis(right, idx[..., None, :], axis=-2)[..., 0, :]
    right = right * np.where(vals < 0, -1.0, 1.0)[..., None, :]
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError as exc:
        raise HyperbolicityError("defective eigenbasis") from exc
    return lam, left, right, _check_speeds(lam, m)


def _halton(samples: int, d: int) -> np.ndarray:
    """Points 0..samples-1 of the unscrambled Halton sequence in [0, 1)^d.

    Coordinate k is the radical inverse of the point index in the k-th
    prime base, summed from the least significant digit.
    """
    bases = []
    b = 2
    while len(bases) < d:
        if all(b % p for p in bases):
            bases.append(b)
        b += 1
    bases = np.array(bases)
    q = np.repeat(np.arange(samples)[:, None], d, axis=1)
    scale = 1.0 / bases
    pts = np.zeros((samples, d))
    while q.any():
        pts += (q % bases) * scale
        scale /= bases
        q //= bases
    return pts


def neighborhood_samples(spec: SystemSpec, samples: int) -> np.ndarray:
    """Low-discrepancy states covering the validated ball, origin included.

    Halton points mapped to the cube of the ball radius; points outside the
    ball are pulled radially just inside its surface.
    """
    n = spec.n
    r = spec.domain_radius
    pts = _halton(samples, n)
    cube = (2.0 * pts - 1.0) * r
    nrm = np.linalg.norm(cube, axis=1)
    factor = np.minimum(1.0, 0.999999 * r / np.maximum(nrm, 1e-300))
    cube *= factor[:, None]
    cube[0] = 0.0
    return cube


def measured_mu_max(spec: SystemSpec) -> float:
    """max_i sup |1 / lambda_i| over the sampled neighborhood."""
    return float(np.abs(1.0 / spec.sampled_speeds).max())


def validate_hyperbolicity(spec: SystemSpec) -> HypothesisReport:
    """Check the structural hypotheses on the sampled neighborhood of u = 0
    (``SystemSpec.sampled_speeds``).

    Raises SignatureError if the signature flips inside the neighborhood,
    HyperbolicityError on complex/zero/repeated eigenvalues, and
    SourceOriginError if F(0) != 0. A non-diagonal A(0) does not raise
    here; it is reported, and ``solve_periodic`` refuses it with a
    NormalizationError.
    """
    f0 = np.asarray(spec.F_at(np.zeros((1, spec.n)))[0], dtype=float)
    f0_norm = float(np.abs(f0).max()) if f0.size else 0.0
    if f0_norm > _ORIGIN_TOL:
        raise SourceOriginError(f"F(0) = {f0} is nonzero beyond tolerance")

    mu_max = measured_mu_max(spec)
    return HypothesisReport(
        samples=len(spec.sampled_speeds),
        signature=(spec.m, spec.n - spec.m),
        mu_max=mu_max,
        a0_diagonal=spec.origin.a0_diagonal,
        a0_offdiag_max=spec.origin.a0_offdiag_max,
        f0_norm=f0_norm,
        needs_time_rescaling=mu_max > 1.0,
    )


def minimal_K(g0: np.ndarray) -> float:
    """Least nonnegative shift making the source linearization dominated.

    Any K strictly above the returned value satisfies the weak diagonal
    dominance condition (-g_ii) - sum_{j != i} |g_ij| > -K.
    """
    g0 = np.atleast_2d(np.asarray(g0, dtype=float))
    n = g0.shape[0]
    rows = [g0[i, i] + sum(abs(g0[i, j]) for j in range(n) if j != i) for i in range(n)]
    return max(0.0, max(rows))


def coupling_B(spec: SystemSpec, u: np.ndarray) -> np.ndarray:
    """Interaction coefficients B_ij(u) = -l_ij / l_ii off the diagonal;
    all zero where A is diagonal."""
    left = eigen_fields(spec, np.asarray(u, dtype=float)[None, :])[1]
    B = _coupling_from_left(left)
    return np.zeros((spec.n, spec.n)) if B is None else B[0]


def _coupling_from_left(left: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Batched B from left eigenvector rows, zero diagonal by construction;
    None (no coupling) when ``eigen_fields`` gave no bases."""
    if left is None:
        return None
    n = left.shape[-1]
    lii = np.einsum("...ii->...i", left)
    if np.abs(lii).min() < 1e-12:
        raise DegenerateEigenbasisError(
            "vanishing diagonal left-eigenvector entry; state outside the valid neighborhood"
        )
    B = -left / lii[..., :, None]
    B[..., np.arange(n), np.arange(n)] = 0.0
    return B


def shift_K(spec: SystemSpec, K: Optional[float] = None) -> float:
    """K when given, else the default shift: minimal_K(gradF(0)) + 1e-6."""
    if K is not None:
        return K
    return spec.origin.K_min + 1e-6


def gtilde_matrix(spec: SystemSpec, K: float) -> np.ndarray:
    """Speed-scaled, K-shifted source linearization.

    gtilde_ij = mu_i(0) g_ij(0) for j != i and mu_i(0) (g_ii(0) - K) on the
    diagonal, from ``spec.origin``. Raises ValueError unless K >= 0
    (``read_number``), and DominanceError unless the result is strictly
    diagonally dominant with the sign pattern required of the two families
    (positive diagonal for left-moving rows, negative for right-moving).
    """
    read_number(K, "K", 0)
    n, m = spec.n, spec.m
    g0, mu0 = spec.origin.g0, spec.origin.mu0
    gt = mu0[:, None] * g0
    gt[np.arange(n), np.arange(n)] = mu0 * (np.diag(g0) - K)
    for i in range(n):
        off = sum(abs(gt[i, j]) for j in range(n) if j != i)
        diag = gt[i, i] if i < m else -gt[i, i]
        if not diag > off:
            raise DominanceError(
                f"row {i}: need {'' if i < m else '-'}gtilde_ii > {off:.3e}, got {diag:.3e}"
                " (K too small)"
            )
    return gt


def g_nonlinear(spec: SystemSpec, u: np.ndarray) -> np.ndarray:
    """Superlinear source remainder; vanishes with its gradient at u = 0."""
    u = np.asarray(u, dtype=float)
    if not spec.contains(u):
        raise DomainError("state outside the validated neighborhood")
    return g_nonlinear_batch(spec, u[None, :])[0]


def g_nonlinear_batch(spec: SystemSpec, states: np.ndarray) -> np.ndarray:
    """Batched superlinear remainder on states of shape (..., n).

    remainder_i = mu_i(u) f_i(u) - sum_j mu_i(0) g_ij(0) u_j
                  - sum_j B_ij(u) mu_i(u) f_j(u),
    the last sum absent where A is diagonal.
    """
    states = np.asarray(states, dtype=float)
    A, Fv = spec.AF_at(states)
    lam, left, _, _ = eigen_fields(spec, states, A)
    return _remainder(spec, states, 1.0 / lam, _coupling_from_left(left), Fv)


def _remainder(spec: SystemSpec, states: np.ndarray, mu: np.ndarray,
               B: Optional[np.ndarray], Fv: np.ndarray) -> np.ndarray:
    """g_nonlinear_batch from the inverse speeds mu, couplings B and
    source values Fv at the states (B None: no coupling term)."""
    # sum_j mu0_i g0_ij u_j, j in order, as einsum("i,ij,...j") sums it
    G = spec.origin.mu0[:, None] * spec.origin.g0
    linear = states[..., :1] * G[:, 0]
    for j in range(1, spec.n):
        linear += states[..., j:j + 1] * G[:, j]
    out = mu * Fv - linear
    if B is not None:
        out = out - mu * np.einsum("...ij,...j->...i", B, Fv)
    return out
