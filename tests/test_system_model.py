import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_hyp import boundary as bd
from periodic_hyp import cli
from periodic_hyp import ivp_solver as ivp
from periodic_hyp import periodic_solver as ps
from periodic_hyp import system_model as sm
from periodic_hyp import systems
from periodic_hyp.errors import (
    DegenerateEigenbasisError,
    DominanceError,
    HyperbolicityError,
    SignatureError,
    SourceOriginError,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def coupling_at(spec, u):
    """B(u) at one state u: -l_ij / l_ii off the diagonal from the left
    bases of ``eigen_fields``, all zero where it gives none (A diagonal)."""
    B = sm._coupling_from_left(sm.eigen_fields(spec, np.asarray(u, dtype=float)[None])[1])
    return np.zeros((spec.n, spec.n)) if B is None else B[0]


def remainder_at(spec, u):
    """``g_nonlinear_batch`` at the state u, or states (..., n), from one
    coefficient call and ``eigen_fields`` there, as a sweep builds it."""
    states = np.asarray(u, dtype=float)[None]
    A, Fv = spec.AF_at(states)
    lam, left, _, _ = sm.eigen_fields(spec, states, A)
    return sm.g_nonlinear_batch(spec, states, 1.0 / lam, sm._coupling_from_left(left), Fv)[0]


def diagonal_spec(speeds, m, damping=0.0):
    """Constant A = diag(speeds), F = -damping u."""
    D = np.diag(speeds)
    return sm.SystemSpec(
        n=len(speeds), m=m,
        A=lambda u: np.broadcast_to(D, np.shape(u)[:-1] + D.shape).copy(),
        F=lambda u: -damping * np.asarray(u, dtype=float),
        domain_radius=0.1, L=1.0,
    )


def make_scalar_spec(lam=1.0, c=0.5, radius=0.1, L=1.0):
    """u_t + lam u_x = -c u."""
    return sm.SystemSpec(
        n=1, m=0,
        A=lambda u: lam * np.ones(np.shape(u)[:-1] + (1, 1)),
        F=lambda u: -c * np.asarray(u),
        domain_radius=radius, L=L,
    )


def make_2x2_spec(alpha=0.0, radius=0.1):
    """Speeds -1/+1 with off-diagonal coupling alpha * u entering A."""
    def A(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1] + (2, 2))
        out[..., 0, 0] = -1.0
        out[..., 1, 1] = 1.0
        out[..., 0, 1] = alpha * u[..., 0]
        out[..., 1, 0] = alpha * u[..., 1]
        return out

    return sm.SystemSpec(
        n=2, m=1, A=A, F=lambda u: np.zeros(np.shape(u)),
        domain_radius=radius, L=1.0,
    )


def constant_fields(A, m):
    """``eigen_fields`` of the constant coefficient matrix A at one state:
    (speeds, left, right) of that state, the bases None for a diagonal A."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    spec = sm.SystemSpec(n=n, m=m, A=lambda u: A, F=lambda u: np.zeros(n),
                         domain_radius=1.0, L=1.0)
    lam, left, right, _ = sm.eigen_fields(spec, np.zeros((1, n)))
    return lam[0], *(None if b is None else b[0] for b in (left, right))


class TestEigenDecompose:
    def test_diagonal_matrix(self):
        lam, left, right = constant_fields(np.diag([-1.0, 1.0]), m=1)
        assert np.array_equal(lam, [-1.0, 1.0])
        assert left is None and right is None

    def test_symmetric_offdiagonal(self):
        # hand eigen-solve of [[0,1],[1,0]]: lambda = -1 with (1,-1)/sqrt 2,
        # lambda = +1 with (1,1)/sqrt 2; rows of left equal the transposes.
        lam, left, right = constant_fields(np.array([[0.0, 1.0], [1.0, 0.0]]), m=1)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(lam, [-1.0, 1.0])
        assert np.allclose(right[:, 0], [s, -s])
        assert np.allclose(right[:, 1], [s, s])
        assert np.allclose(left, right.T)

    def test_defective_matrix_raises(self):
        with pytest.raises(HyperbolicityError):
            constant_fields(np.array([[0.0, 1.0], [0.0, 0.0]]), m=1)

    def test_a_singular_eigenbasis_raises_hyperbolicity_error(self, monkeypatch):
        """numpy's LinAlgError from inverting the right eigenvectors is a
        HyperbolicityError (CLI exit 3), with numpy's as its cause."""
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(HyperbolicityError, match="^defective eigenbasis$") as exc:
            constant_fields(np.array([[0.0, 1.0], [1.0, 0.0]]), m=1)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_wrong_signature_raises(self):
        with pytest.raises(SignatureError):
            constant_fields(np.diag([-1.0, 1.0]), m=0)

    def test_complex_eigenvalues_raise(self):
        with pytest.raises(HyperbolicityError):
            constant_fields(np.array([[0.0, -1.0], [1.0, 0.0]]), m=1)

    def test_repeated_eigenvalue_raises(self):
        with pytest.raises(HyperbolicityError):
            constant_fields(np.diag([2.0, 2.0]), m=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_biorthonormality_random(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 5)
        lam = np.sort(rng.uniform(0.5, 2.0, n))
        lam[: n // 2] *= -1.0
        lam = np.sort(lam)
        m = int((lam < 0).sum())
        R = rng.normal(size=(n, n)) + 2 * np.eye(n)
        A = R @ np.diag(lam) @ np.linalg.inv(R)
        speeds, left, right = constant_fields(A, m=m)
        assert np.abs(left @ right - np.eye(n)).max() <= 1e-10
        assert np.abs(np.linalg.norm(right, axis=0) - 1).max() <= 1e-10
        assert np.abs(left @ A - speeds[:, None] * left).max() <= 1e-8
        assert np.abs(A @ right - speeds[None, :] * right).max() <= 1e-8


class TestNonFiniteA:
    """An A that is finite on its probe points but NaN at one state of a
    batch raises HyperbolicityError (CLI exit 3), not numpy's LinAlgError."""

    @pytest.mark.parametrize("coupling", [0.0, 0.1])
    def test_nan_at_one_state(self, coupling):
        def A(u):
            u = np.asarray(u, dtype=float)
            out = np.zeros(u.shape[:-1] + (2, 2))
            out[..., 0, 0] = np.where(u[..., 0] > 0.08, np.nan, -1.0)
            out[..., 1, 1] = 1.0
            out[..., 0, 1] = out[..., 1, 0] = coupling
            return out

        spec = sm.SystemSpec(n=2, m=1, A=A, F=lambda u: np.zeros(np.shape(u)),
                             domain_radius=0.1, L=1.0)
        states = np.zeros((4, 3, 2))
        sm.eigen_fields(spec, states)
        states[2, 1, 0] = 0.09
        with pytest.raises(HyperbolicityError) as exc:
            sm.eigen_fields(spec, states)
        assert cli._exit_code(exc.value) == 3


class TestDiagonalPath:
    """Diagonal A: speeds -1, 1, 2 except at states with u_0 > 0.08,
    where the diagonal is ``bad``. One such state in a batch raises the
    error of its fault."""

    BASE = np.array([-1.0, 1.0, 2.0])

    def spec(self, bad):
        def A(u):
            u = np.asarray(u, dtype=float)
            d = np.where(u[..., :1] > 0.08, bad, self.BASE)
            out = np.zeros(d.shape + (3,))  # zero off the diagonal, even for inf
            out[..., [0, 1, 2], [0, 1, 2]] = d
            return out

        return sm.SystemSpec(n=3, m=1, A=A, F=lambda u: np.zeros(np.shape(u)),
                             domain_radius=0.1, L=1.0)

    BAD = pytest.mark.parametrize("bad, error", [
        ([-1.0, -0.5, 2.0], SignatureError),
        ([0.5, 1.0, 2.0], SignatureError),
        ([-1.0, 0.0, 2.0], HyperbolicityError),
        ([-1.0, 2.0, 2.0], HyperbolicityError),
        ([-1.0, np.nan, 2.0], HyperbolicityError),
        ([-1.0, np.inf, 2.0], HyperbolicityError),
    ], ids=["signature_flip", "signature_flip_up", "zero_speed", "equal_speeds",
            "nan_on_diagonal", "inf_on_diagonal"])

    def one_bad_state(self, entry, bad, error):
        spec = self.spec(np.array(bad))
        states = np.zeros((4, 3, 3))
        entry(spec, states)
        states[1, 2, 0] = 0.09
        with pytest.raises(error):
            entry(spec, states)

    @BAD
    def test_one_bad_state_in_a_batch(self, bad, error):
        self.one_bad_state(sm.eigen_fields, bad, error)

    @BAD
    def test_one_bad_state_in_a_batch_of_speeds(self, bad, error):
        """The IVP's right-hand side, on the batch as one profile, raises
        alike before it uses a speed."""
        inflow = bd.BoundarySpec(left_maps=[lambda hv, u: hv] * 2,
                                 right_maps=[lambda hv, u: hv],
                                 h=[systems.zero_signal] * 3, T_star=1.0)
        self.one_bad_state(
            lambda spec, states: ivp._rhs(states.reshape(-1, 3),
                                          ivp.StepContext.for_run(spec, inflow, 11)),
            bad, error)

    def test_speeds_in_component_order(self):
        spec = self.spec(np.array([-1.0, 2.0, 1.5]))
        states = np.zeros((2, 3))
        states[1, 0] = 0.09
        speeds, left, right, _ = sm.eigen_fields(spec, states)
        assert left is None and right is None
        assert np.array_equal(speeds, [[-1.0, 1.0, 2.0], [-1.0, 2.0, 1.5]])

    def test_component_order_and_identity_basis(self):
        """Component i is family i: the identity basis, carried as None."""
        spec = diagonal_spec([-1.0, 2.0, 1.0], m=1)
        lam, left, right, _ = sm.eigen_fields(spec, np.zeros((2, 4, 3)))
        assert np.array_equal(lam, np.broadcast_to([-1.0, 2.0, 1.0], (2, 4, 3)))
        assert left is None and right is None

    def test_outgoing_component_first_is_a_signature_error(self):
        """diag(1, -1) with m = 1: component 0 moves right, so it cannot
        be the left-moving family; no entry point relabels it."""
        spec = diagonal_spec([1.0, -1.0], m=1)
        h = lambda t: 0.01 * np.sin(np.pi * np.asarray(t, dtype=float))
        bspec = systems.two_gain_boundary(0.5, 0.5, h, h, 2.0)
        with pytest.raises(SignatureError):
            sm.eigen_fields(spec, np.zeros((1, 2)))
        with pytest.raises(SignatureError):
            sm.validate_hyperbolicity(spec)
        with pytest.raises(SignatureError):
            ivp.run(np.zeros((17, 2)), spec, bspec, t_end=1.0, record_every=0.5)

    def test_periodic_solve_is_equivariant_under_relabelling(self):
        """diag(-1, 2, 1) solves as diag(-1, 1, 2) with families 1 and 2
        swapped in the maps, the signals and the field. So does the system
        with 0.5 u_0 added at entry (1, 2): its A is diagonal only at the
        origin, and the general path labels its families by their speed
        rank there, as the diagonal path does."""
        def make_spec(speeds, entry):
            if entry is None:
                return diagonal_spec(speeds, m=1, damping=0.5)
            D = np.diag(speeds)

            def A(u):
                u = np.asarray(u, dtype=float)
                out = np.broadcast_to(D, u.shape[:-1] + D.shape).copy()
                out[(...,) + entry] = 0.5 * u[..., 0]
                return out

            return sm.SystemSpec(n=3, m=1, A=A, F=lambda u: -0.5 * np.asarray(u, dtype=float),
                                 domain_radius=0.1, L=1.0)

        def solve(speeds, perm, entry):
            h = [lambda t: 0.01 * np.sin(np.pi * np.asarray(t, dtype=float)),
                 lambda t: 0.005 * np.cos(np.pi * np.asarray(t, dtype=float)),
                 lambda t: 0.004 * np.sin(2 * np.pi * np.asarray(t, dtype=float))]
            gains = [0.4, 0.25]  # x = 0 maps of components 1 and 2
            into_0 = [0.3, 0.2]  # the x = L map's weights of components 1 and 2
            a, b = perm

            def left(g):
                return lambda hv, u: hv + g * u[..., 0]

            bspec = bd.BoundarySpec(
                left_maps=[left(gains[a]), left(gains[b])],
                right_maps=[lambda hv, u: hv + into_0[a] * u[..., 0] + into_0[b] * u[..., 1]],
                h=[h[0], h[1 + a], h[1 + b]], T_star=2.0)
            spec = make_spec(speeds, entry)
            fld, rep = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=16, Nx=16))
            assert rep.converged
            return fld.values

        for entry, swapped_entry in ((None, None), ((1, 2), (2, 1))):
            unsorted = solve([-1.0, 2.0, 1.0], (0, 1), entry)
            swapped = solve([-1.0, 1.0, 2.0], (1, 0), swapped_entry)
            assert np.abs(unsorted).max() > 1e-3
            assert np.abs(unsorted - swapped[..., [0, 2, 1]]).max() <= 1e-12


    def test_a_near_diagonal_origin_labels_as_a_diagonal_one(self):
        """diag(-1, 2, 1) plus 1e-13 at entry (0, 1) passes as diagonal
        (off-diagonal at most 1e-12), so the general path labels its
        families by the diagonal's speed ranks, as the diagonal path does
        for the exact diagonal: the solve takes the same sweeps to the
        same field within 1e-12."""
        def solve(off):
            D = np.diag([-1.0, 2.0, 1.0])
            D[0, 1] = off

            def A(u):
                u = np.asarray(u, dtype=float)
                out = np.broadcast_to(D, u.shape[:-1] + D.shape).copy()
                out[..., [0, 1, 2], [0, 1, 2]] += 0.4 * u
                return out

            spec = sm.SystemSpec(n=3, m=1, A=A, F=lambda u: -0.5 * np.asarray(u, dtype=float),
                                 domain_radius=0.1, L=1.0)
            h = lambda t: 0.01 * np.sin(np.pi * np.asarray(t, dtype=float))  # noqa: E731
            bspec = bd.BoundarySpec(
                left_maps=[lambda hv, u: hv + 0.4 * u[..., 0], lambda hv, u: hv + 0.25 * u[..., 0]],
                right_maps=[lambda hv, u: hv + 0.3 * u[..., 0] + 0.2 * u[..., 1]],
                h=[h, h, h], T_star=2.0)
            assert spec.origin.a0_diagonal and sm.validate_hyperbolicity(spec).a0_diagonal
            assert np.array_equal(spec.origin.mu0, [-1.0, 0.5, 1.0])
            fld, rep = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=16, Nx=16))
            assert rep.converged
            return fld.values, rep.iterations

        exact, near = solve(0.0), solve(1e-13)
        assert near[1] == exact[1]
        assert np.abs(exact[0]).max() > 1e-3
        assert np.abs(near[0] - exact[0]).max() <= 1e-12


class TestValidation:
    @pytest.mark.parametrize("bad", [{"domain_radius": math.nan}, {"domain_radius": math.inf},
                                     {"L": math.nan}, {"L": math.inf}])
    def test_a_non_finite_radius_or_length_is_refused(self, bad):
        kwargs = dict(n=1, m=0, A=lambda u: np.ones_like(u), F=lambda u: -np.asarray(u),
                      domain_radius=0.1, L=1.0)
        with pytest.raises(ValueError, match="must be a finite number"):
            sm.SystemSpec(**{**kwargs, **bad})

    @pytest.mark.parametrize("bad", [{"n": 2.0}, {"m": 1.0}, {"m": True}])
    def test_sizes_that_are_not_integers_are_refused(self, bad):
        kwargs = dict(n=2, m=1, A=lambda u: np.array([-1.0, 1.0]), F=lambda u: -np.asarray(u),
                      domain_radius=0.1, L=1.0)
        with pytest.raises(ValueError, match="must be an integer of at least"):
            sm.SystemSpec(**{**kwargs, **bad})
        assert sm.SystemSpec(**{**kwargs, "n": np.int64(2), "m": np.int32(1)}).gives_speeds

    def test_more_left_moving_families_than_families_are_refused(self):
        kwargs = dict(n=2, m=3, A=lambda u: np.array([-1.0, 1.0]), F=lambda u: -np.asarray(u),
                      domain_radius=0.1, L=1.0)
        with pytest.raises(ValueError, match=r"^m must lie in \[0, n\]$"):
            sm.SystemSpec(**kwargs)

    def test_scalar_damped_valid(self):
        rep = sm.validate_hyperbolicity(make_scalar_spec())
        assert rep.ok
        assert rep.mu_max == pytest.approx(1.0)
        assert rep.a0_diagonal
        assert not rep.needs_time_rescaling

    def test_fast_scalar_no_rescaling(self):
        rep = sm.validate_hyperbolicity(make_scalar_spec(lam=2.0))
        assert rep.mu_max == pytest.approx(0.5)
        assert not rep.needs_time_rescaling

    def test_nondiagonal_origin_reported_not_raised(self):
        spec = sm.SystemSpec(
            n=2, m=1,
            A=lambda u: np.array([[0.0, 1.0], [1.0, 0.0]]),
            F=lambda u: np.zeros(2),
            domain_radius=0.05, L=1.0,
        )
        rep = sm.validate_hyperbolicity(spec)
        assert not rep.a0_diagonal
        assert not rep.ok

    def test_nonzero_source_origin_raises(self):
        spec = make_scalar_spec()
        bad = sm.SystemSpec(
            n=1, m=0, A=spec.A, F=lambda u: np.asarray(u) + 0.001,
            domain_radius=0.1, L=1.0,
        )
        with pytest.raises(SourceOriginError):
            sm.validate_hyperbolicity(bad)

    def test_signature_flip_raises(self):
        # speed crosses zero inside the ball
        spec = sm.SystemSpec(
            n=1, m=0,
            A=lambda u: np.reshape(0.05 + np.asarray(u)[..., 0],
                                   np.shape(u)[:-1] + (1, 1)),
            F=lambda u: np.zeros(np.shape(u)),
            domain_radius=0.1, L=1.0,
        )
        with pytest.raises((SignatureError, HyperbolicityError)):
            sm.validate_hyperbolicity(spec)


class TestNeighborhoodSamples:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("samples", [64, 256, 1000])
    def test_matches_scipy_halton(self, n, samples, monkeypatch):
        qmc = pytest.importorskip("scipy.stats.qmc")
        spec = sm.SystemSpec(n=n, m=0, A=lambda u: np.eye(n),
                             F=lambda u: -np.asarray(u), domain_radius=0.1, L=1.0)
        ours = sm.neighborhood_samples(spec, samples)
        monkeypatch.setattr(sm, "_halton", lambda N, d: qmc.Halton(
            d=d, scramble=False).random(N))
        reference = sm.neighborhood_samples(spec, samples)
        assert ours.tobytes() == reference.tobytes()


class TestMinimalK:
    @pytest.mark.parametrize(
        "g0, expected",
        [
            ([[-1.0, 0.2], [0.0, -1.0]], 0.0),
            ([[0.1, 0.3], [0.0, -1.0]], 0.4),
            ([[0.0, 0.0], [0.0, 0.0]], 0.0),
        ],
    )
    def test_values(self, g0, expected):
        assert sm.minimal_K(np.array(g0)) == pytest.approx(expected)


class TestCouplingB:
    def test_zero_at_origin(self):
        spec = make_2x2_spec(alpha=1.0)
        B = coupling_at(spec, np.zeros(2))
        assert np.abs(B).max() == 0.0

    def test_diagonal_A_gives_zero(self):
        spec = make_scalar_spec()
        B = coupling_at(spec, np.array([0.05]))
        assert B.shape == (1, 1) and B.max() == 0.0
        B = coupling_at(diagonal_spec([-1.0, 2.0, 1.0], m=1), np.array([0.01, 0.0, 0.0]))
        assert np.array_equal(B, np.zeros((3, 3)))

    def test_against_independent_eigensolve(self):
        spec = make_2x2_spec(alpha=1.0)
        u = np.array([0.01, 0.0])
        B = coupling_at(spec, u)
        assert B[0, 0] == 0.0 and B[1, 1] == 0.0
        # independent: rows of inv(V) for the exact matrix at u
        Au = spec.A_at(u[None, :])[0]
        w, V = np.linalg.eig(Au)
        order = np.argsort(w.real)
        V = V[:, order].real
        Lt = np.linalg.inv(V)
        expected = -Lt / np.diag(Lt)[:, None]
        expected[np.arange(2), np.arange(2)] = 0.0
        assert np.allclose(B, expected, atol=1e-12)

    def test_linear_growth_bound(self):
        # |B(u)| <= C |u|: halving |u| at least halves the max entry
        spec = make_2x2_spec(alpha=1.0)
        maxes = []
        for r in (1e-2, 5e-3, 2.5e-3):
            u = np.array([r, 0.5 * r]) / np.linalg.norm([1.0, 0.5])
            maxes.append(np.abs(coupling_at(spec, u)).max())
        assert maxes[0] >= 1.9 * maxes[1]
        assert maxes[1] >= 1.9 * maxes[2]


class TestGtilde:
    @pytest.mark.parametrize("K", [math.inf, math.nan, -1.0])
    def test_a_K_not_finite_and_nonnegative_is_refused(self, K):
        with pytest.raises(ValueError, match="'K' must be"):
            sm.gtilde_matrix(make_scalar_spec(), K)

    def test_scalar_damped(self):
        spec = make_scalar_spec(lam=1.0, c=0.5)
        gt = sm.gtilde_matrix(spec, K=0.0)
        assert gt[0, 0] == pytest.approx(-0.5, abs=1e-9)

    def test_two_family_signs(self):
        spec = sm.SystemSpec(
            n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]),
            F=lambda u: -np.asarray(u), domain_radius=0.05, L=1.0,
        )
        gt = sm.gtilde_matrix(spec, K=0.1)
        assert np.allclose(np.diag(gt), [1.1, -1.1], atol=1e-9)

    def test_too_small_K_raises(self):
        spec = sm.SystemSpec(
            n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]),
            F=lambda u: np.stack([0.1 * u[..., 0] + 0.3 * u[..., 1], -1.0 * u[..., 1]],
                                 axis=-1),
            gradF=lambda u: np.array([[0.1, 0.3], [0.0, -1.0]]),
            domain_radius=0.05, L=1.0,
        )
        batch = np.array([[0.01, 0.02], [0.03, -0.01]])
        assert np.array_equal(spec.F_at(batch), np.stack([spec.F(u) for u in batch]))
        with pytest.raises(DominanceError, match=r"^row 0: need gtilde_ii > 3\.000e-01, "
                           r"got 1\.000e-01 \(K too small\)$"):
            sm.gtilde_matrix(spec, K=0.2)

    def test_dominance_transfer(self):
        # whenever K exceeds the minimal shift strictly, the scaled matrix
        # satisfies the two strict dominance conditions (checked internally)
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, n + 1))
            lam = np.concatenate([
                -np.sort(rng.uniform(0.5, 2.0, m))[::-1],
                np.sort(rng.uniform(0.5, 2.0, n - m)),
            ])
            lam = np.sort(lam)
            g0 = rng.normal(scale=0.5, size=(n, n))
            spec = sm.SystemSpec(
                n=n, m=m, A=lambda u, lam=lam: np.diag(lam),
                F=lambda u, g0=g0: np.asarray(u) @ g0.T,
                gradF=lambda u, g0=g0: g0,
                domain_radius=0.05, L=1.0,
            )
            K = sm.minimal_K(g0) + rng.uniform(1e-6, 0.5)
            sm.gtilde_matrix(spec, K)  # must not raise


class TestGNonlinear:
    def test_zero_at_origin(self):
        spec = make_scalar_spec()
        assert np.abs(remainder_at(spec, np.zeros(1))).max() == 0.0

    def test_linear_system_identically_zero(self):
        spec = sm.SystemSpec(
            n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]),
            F=lambda u: -np.asarray(u), domain_radius=0.05, L=1.0,
        )
        for u in ([0.01, -0.02], [0.03, 0.01]):
            assert np.abs(remainder_at(spec, np.array(u))).max() <= 1e-12

    def test_quadratic_source_scalar(self):
        # f(u) = -u + u^2 with unit speed: remainder is exactly u^2
        spec = sm.SystemSpec(
            n=1, m=0, A=lambda u: np.ones(np.shape(u)[:-1] + (1, 1)),
            F=lambda u: -np.asarray(u) + np.asarray(u) ** 2,
            domain_radius=0.1, L=1.0,
        )
        val = remainder_at(spec, np.array([0.01]))
        assert val[0] == pytest.approx(1e-4, abs=1e-12)

    def test_coupling_term_against_independent_eigensolve(self):
        """A not diagonal away from 0: the remainder's coupling term
        -sum_j B_ij mu_i f_j, from rows of inv(V) of numpy's eigensolve."""
        coupled = make_2x2_spec(alpha=1.0)
        spec = sm.SystemSpec(n=2, m=1, A=coupled.A,
                             F=lambda u: -np.asarray(u) + np.asarray(u) ** 2,
                             gradF=lambda u: -np.eye(2), domain_radius=0.1, L=1.0)
        states = np.array([[0.03, -0.02], [-0.01, 0.04], [0.02, 0.02]])
        for u, got in zip(states, remainder_at(spec, states)):
            w, V = np.linalg.eig(spec.A_at(u[None, :])[0])
            order = np.argsort(w.real)
            mu, Lt = 1.0 / w.real[order], np.linalg.inv(V[:, order].real)
            B = -Lt / np.diag(Lt)[:, None]
            np.fill_diagonal(B, 0.0)
            f = spec.F(u)
            want = mu * f - np.array([-1.0, 1.0]) * -u - mu * (B @ f)
            assert np.abs(mu * (B @ f)).max() > 1e-5
            assert np.allclose(got, want, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_linear_part_is_the_three_operand_einsum_to_the_bit(self, n):
        """The remainder takes sum_j mu0_i g0_ij u_j off column by column,
        j in order; that is einsum("i,ij,...j->...i", mu0, g0, u) exactly."""
        rng = np.random.default_rng(n)
        G = -np.eye(n) + 0.3 * rng.normal(size=(n, n))
        D = np.diag(np.linspace(-1.3, 1.7, n) + 0.1 * (n % 2 == 1))
        spec = sm.SystemSpec(
            n=n, m=int(np.sum(np.diag(D) < 0)),
            A=lambda u: np.broadcast_to(D, np.shape(u)[:-1] + D.shape).copy(),
            F=lambda u: np.asarray(u, dtype=float) @ G.T, gradF=lambda u: G,
            domain_radius=0.1, L=1.0)
        states = 0.05 * rng.uniform(-1.0, 1.0, size=(7, 5, n))
        mu, Fv = rng.uniform(0.5, 2.0, size=(2, 7, 5, n))
        o = spec.origin
        want = mu * Fv - np.einsum("i,ij,...j->...i", o.mu0, o.g0, states)
        assert np.array_equal(sm.g_nonlinear_batch(spec, states, mu, None, Fv), want)

    def test_quadratic_smallness_halving(self):
        # ||remainder(u)|| / |u|^2 stays within a factor 2 across halvings
        def F(u):
            u = np.asarray(u)
            out = -u.copy()
            out[..., 0] += u[..., 0] * u[..., 1]
            out[..., 1] += u[..., 1] ** 2 - 0.5 * u[..., 0] ** 2
            return out

        spec = sm.SystemSpec(
            n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]), F=F,
            domain_radius=0.05, L=1.0,
        )
        direction = np.array([0.6, 0.8])
        ratios = []
        for r in (1e-2, 5e-3, 2.5e-3):
            val = remainder_at(spec, r * direction)
            ratios.append(np.linalg.norm(val) / r**2)
        assert max(ratios) <= 2.0 * min(ratios)

    def test_gradient_vanishes_at_origin(self):
        # central differences with step 1e-5 on each component
        def F(u):
            u = np.asarray(u)
            out = -u.copy()
            out[..., 0] += u[..., 0] * u[..., 1]
            return out

        spec = sm.SystemSpec(
            n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]), F=F,
            domain_radius=0.05, L=1.0,
        )
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            grad = (remainder_at(spec, e) - remainder_at(spec, -e)) / (2 * h)
            assert np.abs(grad).max() <= 1e-8


class TestFdGradient:
    def test_matches_analytic(self):
        def F(u):
            return np.array([u[0] ** 2 - u[1], np.sin(u[0]) + u[1] ** 3])

        u = np.array([0.3, -0.2])
        J = sm.fd_gradient(F, u, 2)
        expected = np.array([[2 * 0.3, -1.0], [np.cos(0.3), 3 * 0.04]])
        assert np.abs(J - expected).max() <= 1e-10


class TestSourceLinearization:
    def test_default_shift_and_fields(self):
        spec = make_scalar_spec(lam=2.0, c=0.5)
        K = sm.shift_K(spec)
        assert spec.origin.g0[0, 0] == pytest.approx(-0.5, abs=1e-9)
        assert K == pytest.approx(1e-6)  # strictly dominant: minimal is 0
        gtilde = sm.gtilde_matrix(spec, K)
        assert gtilde[0, 0] == pytest.approx(0.5 * (-0.5 - 1e-6), abs=1e-9)
        assert sm.measured_mu_max(spec) == pytest.approx(0.5)

    def test_explicit_shift(self):
        spec = sm.SystemSpec(
            n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]),
            F=lambda u: -np.asarray(u), domain_radius=0.05, L=1.0,
        )
        gtilde = sm.gtilde_matrix(spec, sm.shift_K(spec, K=0.1))
        assert np.allclose(np.diag(gtilde), [1.1, -1.1], atol=1e-9)


def count_origin_work(monkeypatch):
    """Count gradF_at calls, and eigen_fields calls at the origin alone and
    on the neighborhood sample, in every module that holds eigen_fields."""
    from periodic_hyp import characteristics, ivp_solver, periodic_solver

    calls = {"gradF": 0, "origin": 0, "neighborhood": 0}
    gradF_at, eigen_fields = sm.SystemSpec.gradF_at, sm.eigen_fields

    def counted_gradF(self, u):
        calls["gradF"] += 1
        return gradF_at(self, u)

    def counted_eigen(spec, states, *args):
        size = np.asarray(states)[..., 0].size
        key = {1: "origin", 256: "neighborhood"}.get(size)
        if key:
            calls[key] += 1
        return eigen_fields(spec, states, *args)

    monkeypatch.setattr(sm.SystemSpec, "gradF_at", counted_gradF)
    for mod in (sm, characteristics, ivp_solver, periodic_solver):
        monkeypatch.setattr(mod, "eigen_fields", counted_eigen)
    return calls


class TestOriginRecord:
    def test_spec_is_frozen(self):
        spec = make_scalar_spec(lam=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.A = lambda u: np.ones(np.shape(u)[:-1] + (1, 1))
        assert spec.A_at(np.zeros((1, 1)))[0, 0, 0] == 2.0

    def test_arrays_are_read_only_copies(self):
        G = np.array([[-0.5, 0.1], [0.0, -0.5]])
        spec = sm.SystemSpec(n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]),
                             F=lambda u: np.asarray(u) @ G.T, gradF=lambda u: G,
                             domain_radius=0.05, L=1.0)
        origin = spec.origin
        assert np.array_equal(origin.g0, G) and origin.g0 is not G
        assert G.flags.writeable  # the user's array is not touched
        assert np.array_equal(origin.mu0, [-1.0, 1.0])
        assert origin.K_min == sm.minimal_K(G)
        for arr in (origin.g0, origin.mu0, spec.sampled_speeds):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            origin.K_min = 0.0

    def test_solves_and_runs_reuse_the_record(self, monkeypatch):
        from test_sweep_kernel import euler_problem

        from periodic_hyp import ivp_solver as ivp
        from periodic_hyp import periodic_solver as ps

        calls = count_origin_work(monkeypatch)
        spec, bspec = euler_problem()
        cfg = ps.IterationConfig(Nt=16, Nx=16)
        fld, _ = ps.solve_periodic(spec, bspec, cfg)
        # a solve needs the origin and never samples the neighborhood
        assert calls == {"gradF": 1, "origin": 1, "neighborhood": 0}
        ps.solve_periodic(spec, bspec, cfg)
        assert calls == {"gradF": 1, "origin": 1, "neighborhood": 0}
        u0 = ps.extract_initial_data(fld)
        for _ in range(2):  # the first run samples the neighborhood, once
            traj = ivp.run(u0, spec, bspec, t_end=1.0, record_every=0.5)
            ivp.stability_metrics(traj, fld, spec)
            assert calls == {"gradF": 1, "origin": 1, "neighborhood": 1}

    def test_cli_stability_computes_the_origin_once(self, tmp_path, monkeypatch):
        data = yaml.safe_load((CONFIGS / "quasilinear_euler_damping.yaml").read_text())
        data["grid"] = {"Nt": 32, "Nx": 32}
        path = tmp_path / "euler.yaml"
        path.write_text(yaml.safe_dump(data))
        calls = count_origin_work(monkeypatch)
        assert cli.run(["stability", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 0
        assert calls == {"gradF": 1, "origin": 1, "neighborhood": 1}

    def test_rescaled_spec_has_its_own_record(self):
        """A spec built from the callables of another, scaled by 2 (time
        rescaled by 2), computes its own origin and sample."""
        spec = make_scalar_spec(lam=0.5, c=1.0)
        assert sm.measured_mu_max(spec) == 2.0
        out = sm.SystemSpec(n=1, m=0, A=lambda u: 2.0 * spec.A(u),
                            F=lambda u: 2.0 * spec.F(u),
                            domain_radius=spec.domain_radius, L=spec.L)
        assert sm.measured_mu_max(out) == 1.0
        assert out.origin.g0[0, 0] == pytest.approx(2.0 * spec.origin.g0[0, 0])


def reference_check_speeds(speeds: np.ndarray, m: int) -> None:
    """``system_model._check_speeds`` before its one-test accept, verbatim."""
    n = speeds.shape[-1]
    abs_lam = np.abs(speeds)
    top = float(abs_lam.max())
    if not math.isfinite(top):
        raise HyperbolicityError("A is not finite at some state")
    scale = max(1.0, top)
    if abs_lam.min() < sm._ZERO_EIG_TOL * scale:
        raise HyperbolicityError("zero eigenvalue encountered")
    lam = np.sort(speeds, axis=-1)
    if n > 1 and (lam[..., 1:] - lam[..., :-1]).min() < sm._GAP_TOL * scale:
        raise HyperbolicityError("repeated eigenvalue (not strictly hyperbolic)")
    if (m and speeds[..., :m].max() > 0) or (m < n and speeds[..., m:].min() < 0):
        raise SignatureError(
            f"signature is not ({m}, {n - m}) at every sampled state"
        )


def check_outcome(fn, speeds, m):
    """None when fn accepts the speeds, else the class and message it raised."""
    try:
        fn(speeds, m)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# (kind, value) edits of one entry, unit = max(1, |top|): set to value * unit
# (scaled), another entry of its row moved by value * unit (near), a
# non-finite value (raw), negated (flip), or the entry of another row (row)
_EDITS = st.one_of(
    st.tuples(st.just("scaled"), st.sampled_from(
        [0.0, -0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-10, -1e-10,
         1.000001e-10, -1.000001e-10, 0.999999e-10, -0.999999e-10])),
    st.tuples(st.just("near"), st.sampled_from(
        [0.0, 1e-11, -1e-11, 0.999999e-10, 1e-10, 1.000001e-10, 3e-10])),
    st.tuples(st.just("raw"), st.sampled_from([np.nan, np.inf, -np.inf])),
    st.tuples(st.just("flip"), st.just(0.0)),
    st.tuples(st.just("row"), st.just(0.0)),
)


@st.composite
def speed_rows(draw):
    """(speeds, m): k rows of n speeds, valid apart from a few edits, as an
    array or as the diagonal view of a stack of matrices."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, n))
    k = draw(st.integers(1, 4))
    size = draw(st.sampled_from([1e-3, 1.0, 40.0]))
    mags = draw(st.lists(st.floats(0.05, 3.0), min_size=k * n, max_size=k * n))
    speeds = size * np.array(mags).reshape(k, n)
    speeds[:, :m] *= -1.0
    unit = max(1.0, float(np.abs(speeds).max()))
    for kind, value in draw(st.lists(_EDITS, max_size=3)):
        r, c = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
        if kind == "scaled":
            speeds[r, c] = value * unit
        elif kind == "near":
            speeds[r, c] = speeds[r, draw(st.integers(0, n - 1))] + value * unit
        elif kind == "raw":
            speeds[r, c] = value
        elif kind == "flip":
            speeds[r, c] = -speeds[r, c]
        else:  # a repeat across rows
            speeds[r, c] = speeds[draw(st.integers(0, k - 1)), c]
    if draw(st.booleans()):
        stack = np.zeros((k, n, n))
        stack[:, np.arange(n), np.arange(n)] = speeds
        speeds = np.einsum("...ii->...i", stack)
    return speeds, m


class TestCheckSpeeds:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(speed_rows())
    @example((np.array([[-1.0, 1.0]]), 1))
    @example((np.array([[-1.0, 0.0]]), 1))
    @example((np.array([[-1.0, -1.0 + 1e-11, 2.0]]), 2))
    @example((np.array([[1.0, -1.0]]), 1))
    @example((np.array([[-1.0, np.nan]]), 1))
    @example((np.array([[-1.0, 1e-11]]), 1))
    @example((np.array([[-1e-10, 1.0]]), 1))
    @example((np.array([[-1e-13, 1.0]]), 1))
    @example((np.array([[-1.0, 1e-13]]), 1))
    def test_same_outcome_as_the_four_tests(self, case):
        speeds, m = case
        want = check_outcome(reference_check_speeds, speeds, m)
        assert check_outcome(sm._check_speeds, speeds, m) == want


def norm_predicate(spec, states):
    """``SystemSpec.contains`` by ``np.linalg.norm``, as it was written."""
    r = np.linalg.norm(np.asarray(states, dtype=float), axis=-1)
    return bool(r.max(initial=0.0) <= spec.domain_radius * (1 + 1e-12))


class TestContains:
    @pytest.mark.parametrize("states", [
        np.zeros((0, 2)), np.zeros((3, 0, 2)), np.array([0.03, 0.04]),
        np.array([[0.0, np.nan]]), np.array([[np.inf, 0.0], [0.0, 0.0]]),
        np.array([[0.0, -np.inf]]), np.full((4, 5, 2), 0.01),
    ] + [np.array([[0.0, 0.0], [0.06, 0.08]]) * f
         for f in (1 - 1e-12, 1.0, 1 + 1e-12, 1 + 2e-12, 1 + 1e-11)])
    def test_matches_the_norm_predicate(self, states):
        spec = diagonal_spec([-1.0, 1.0], 1)
        assert spec.contains(states) is norm_predicate(spec, states)

    def test_radius_edge_is_inside(self):
        spec = diagonal_spec([-1.0, 1.0], 1)
        edge = np.array([spec.domain_radius, 0.0])
        assert spec.contains(edge * (1 + 1e-12))
        assert not spec.contains(edge * (1 + 1e-11))



class TestFusedCoefficients:
    EULER = systems.quasilinear_euler_damping()
    STATES = [np.array([0.01, -0.02]), 0.01 * np.arange(10.0).reshape(5, 2) / 5,
              0.01 * np.sin(np.arange(24.0)).reshape(3, 4, 2)]

    def make(self, AF):
        return dataclasses.replace(self.EULER, AF=AF)

    @pytest.mark.parametrize("with_AF", [True, False])
    def test_AF_at_is_A_at_and_F_at(self, with_AF):
        spec = self.make(self.EULER.AF if with_AF else None)
        assert (spec.AF is not None) is with_AF
        for states in self.STATES:
            A, F = spec.AF_at(states)
            assert np.array_equal(A, spec.A_at(states))
            assert np.array_equal(F, spec.F_at(states))
            assert A.shape == F.shape == states.shape  # the speeds of a diagonal A

    def test_an_AF_that_takes_one_state_is_looped(self):
        def one_at_a_time(u):
            if np.ndim(u) != 1:
                raise TypeError("one state only")
            return self.EULER.AF(u)

        spec = self.make(one_at_a_time)
        for states in self.STATES:
            A, F = spec.AF_at(states)
            assert np.array_equal(A, spec.A_at(states))
            assert np.array_equal(F, spec.F_at(states))

    @pytest.mark.parametrize("which", [0, 1])
    def test_an_AF_that_differs_from_A_and_F_is_refused(self, which):
        def off(u):
            out = list(self.EULER.AF(u))
            out[which] = out[which] * (1 + 1e-9)
            return tuple(out)

        with pytest.raises(ValueError, match="SystemSpec.AF differs"):
            self.make(off)

    def test_an_AF_that_broadcasts_wrongly_is_refused(self):
        def reversed_batch(u):  # right on one state, wrong on a batch
            u = np.asarray(u, dtype=float)
            return self.EULER.AF(u if u.ndim == 1 else u[::-1])

        with pytest.raises(ValueError, match="SystemSpec.AF broadcasts wrongly"):
            self.make(reversed_batch)

    def test_a_spec_without_AF_gives_the_same_outputs(self):
        plain = self.make(None)
        bspec = systems.two_gain_boundary(
            0.5, 0.5, systems.harmonic_signal([{"amplitude": 0.01}], 2.0),
            systems.harmonic_signal([{"amplitude": 0.005, "phase": 1.0}], 2.0), 2.0)
        cfg = ps.IterationConfig(Nt=16, Nx=16, tol=1e-10)
        (fa, ra), (fb, rb) = (ps.solve_periodic(s, bspec, cfg) for s in (self.EULER, plain))
        assert np.array_equal(fa.values, fb.values)
        assert np.array_equal(ra.deltas, rb.deltas) and ra.fitted_beta == rb.fitted_beta
        u0 = ps.extract_initial_data(fa) + 0.01 * ivp.bump_profile(fa.x_nodes, 1.0)[:, None]
        ta, tb = (ivp.run(u0, s, bspec, t_end=2.0, record_every=0.25)
                  for s in (self.EULER, plain))
        assert ta.steps == tb.steps > 0 and ta.dt_used == tb.dt_used
        for a, b in ((ta.profiles, tb.profiles), (ta.before, tb.before), (ta.after, tb.after)):
            assert np.array_equal(a, b)


class TestReadNumber:
    """The one reader of numbers, for the library and the CLI's config."""

    @pytest.mark.parametrize("value, kwargs, want", [
        (2.5, {}, 2.5),
        (-3, {}, -3.0),
        (np.float64(0.1), {"least": 0, "strict": True}, 0.1),
        (0.0, {"least": 0}, 0.0),
        (np.int64(16), {"least": 8, "integer": True}, 16),
        (np.int32(1), {"least": 1, "integer": True}, 1),
    ])
    def test_a_number_in_range_is_read(self, value, kwargs, want):
        out = sm.read_number(value, "x", **kwargs)
        assert out == want and type(out) is type(want)

    @pytest.mark.parametrize("value, kwargs, message", [
        (True, {}, "'x' must be a finite number, got True"),
        (np.True_, {}, "'x' must be a finite number, got np.True_"),
        ("1.0", {}, "'x' must be a finite number, got '1.0'"),
        (b"5", {}, "'x' must be a finite number, got b'5'"),
        (None, {}, "'x' must be a finite number, got None"),
        (math.nan, {}, "'x' must be a finite number, got nan"),
        (-math.inf, {"least": 0}, "'x' must be a finite number, got -inf"),
        (0.0, {"least": 0, "strict": True}, "'x' must be positive, got 0.0"),
        (-1e-3, {"least": 0}, "'x' must be nonnegative, got -0.001"),
        (1.0, {"least": 1, "strict": True}, "'x' must be above 1, got 1.0"),
        (16.0, {"least": 8, "integer": True}, "'x' must be an integer of at least 8, got 16.0"),
        (True, {"least": 1, "integer": True}, "'x' must be an integer of at least 1, got True"),
        ("32", {"least": 8, "integer": True}, "'x' must be an integer of at least 8, got '32'"),
        (7, {"least": 8, "integer": True}, "'x' must be an integer of at least 8, got 7"),
    ])
    def test_anything_else_is_refused_naming_it(self, value, kwargs, message):
        with pytest.raises(ValueError) as info:
            sm.read_number(value, "x", **kwargs)
        assert str(info.value) == message


def make_pair_spec(**kwargs):
    return sm.SystemSpec(**{**dict(n=2, m=1, A=lambda u: np.array([-1.0, 1.0]),
                                   F=lambda u: -np.asarray(u), domain_radius=0.1, L=1.0),
                            **kwargs})


def run_scalar(t_end, record_every):
    ivp.run(np.zeros((17, 1)), systems.linear_damped_scalar(),
            systems.scalar_inflow_boundary(systems.zero_signal, 1.0),
            t_end=t_end, record_every=record_every)


ZERO = systems.zero_signal
REFUSED = [
    ("max_iter", lambda: ps.IterationConfig(Nt=16, Nx=16, max_iter=True)),
    ("max_iter", lambda: ps.IterationConfig(Nt=16, Nx=16, max_iter=0)),
    ("Nt", lambda: ps.IterationConfig(Nt=4, Nx=16)),
    ("Nx", lambda: ps.IterationConfig(Nt=16, Nx=np.True_)),
    ("K", lambda: ps.IterationConfig(Nt=16, Nx=16, K=True)),
    ("K", lambda: ps.IterationConfig(Nt=16, Nx=16, K=-1.0)),
    ("tol", lambda: ps.IterationConfig(Nt=16, Nx=16, tol="1e-10")),
    ("T_star", lambda: systems.reflection_boundary(0.5, ZERO, ZERO, True)),
    ("T_star", lambda: systems.reflection_boundary(0.5, ZERO, ZERO, "2")),
    ("n", lambda: make_pair_spec(n=True)),
    ("L", lambda: make_pair_spec(L=True)),
    ("domain_radius", lambda: make_pair_spec(domain_radius="0.1")),
    ("K", lambda: sm.gtilde_matrix(systems.linear_reflect_2x2(), True)),
    ("t_end", lambda: run_scalar(True, 0.25)),
    ("record_every", lambda: run_scalar(1.0, True)),
    ("lam", lambda: systems.linear_damped_scalar(lam=True)),
    ("c", lambda: systems.linear_damped_scalar(c="0.5")),
    ("speed", lambda: systems.linear_reflect_2x2(speed=True)),
    ("gamma", lambda: systems.quasilinear_euler_damping(gamma=1.0)),
    ("a", lambda: systems.quasilinear_euler_damping(a=True)),
    ("base_c", lambda: systems.quasilinear_euler_damping(base_c="1.25")),
    ("k_left", lambda: systems.two_gain_boundary(True, 0.5, ZERO, ZERO, 2.0)),
    ("k_right", lambda: systems.two_gain_boundary(0.5, math.nan, ZERO, ZERO, 2.0)),
    ("amplitude", lambda: systems.harmonic_signal([{"amplitude": True}], 1.0)),
    ("harmonic", lambda: systems.harmonic_signal([{"amplitude": 1.0, "harmonic": "2"}], 1.0)),
    ("phase", lambda: systems.harmonic_signal([{"amplitude": 1.0, "phase": np.True_}], 1.0)),
    ("T_star", lambda: systems.harmonic_signal([], 0.0)),
    ("scale", lambda: systems.harmonic_signal([], 1.0, scale=math.inf)),
]


@pytest.mark.parametrize("name, call", REFUSED, ids=[f"{k}-{name}" for k, (name, _) in
                                                    enumerate(REFUSED)])
def test_every_number_argument_is_read_by_the_reader(name, call):
    """The constructors, ``run`` and the builders refuse a bool, a string
    or a number out of range with the reader's ValueError, naming the
    parameter as the CLI names a config key."""
    with pytest.raises(ValueError, match=f"^'{name}' must be "):
        call()


@pytest.mark.parametrize("harmonic, message", [
    (0.01, "'forcing harmonic' must be a mapping"),
    ([("amplitude", 0.01)], "'forcing harmonic' must be a mapping"),
    ({"amplitude": 0.01, "phse": 1.0}, "unknown keys in 'forcing harmonic': ['phse']"),
    ({"harmonic": 2, "phase": 1.0}, "each harmonic needs an amplitude"),
], ids=["number", "pairs", "misspelt_phase", "no_amplitude"])
def test_harmonic_signal_refuses_a_harmonic_the_cli_refuses(harmonic, message):
    """A misspelt key would otherwise be ignored (a phase-0 signal), and a
    missing amplitude raise KeyError: each raises the CLI's ValueError."""
    with pytest.raises(ValueError) as exc:
        systems.harmonic_signal([{"amplitude": 0.02}, harmonic], 2.0)
    assert str(exc.value) == message


def test_coupling_at_a_vanishing_diagonal_left_entry_is_refused():
    """A = [[1, 0], [0.3, -1]]: the left eigenvector of speed 1, family 2
    in rank order, is (1, 0) up to scale, so its diagonal entry is 0."""
    spec = sm.SystemSpec(n=2, m=1, A=lambda u: np.array([[1.0, 0.0], [0.3, -1.0]]),
                         F=lambda u: np.zeros(2), domain_radius=0.1, L=1.0)
    with pytest.raises(DegenerateEigenbasisError, match="vanishing diagonal"):
        coupling_at(spec, np.zeros(2))
