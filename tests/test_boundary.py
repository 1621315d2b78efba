import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import math
from pathlib import Path

from periodic_hyp import boundary as bd
from periodic_hyp import cli, systems
from periodic_hyp.errors import BoundaryMapError, PeriodicityError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_reflect_spec(k=0.5, T_star=2.0, amp1=0.01, amp2=0.0):
    """Two-family reflection boundary: gain k at both ends, sine forcing."""
    h1 = lambda t: amp1 * np.sin(np.pi * np.asarray(t, dtype=float))
    h2 = lambda t: amp2 * np.sin(np.pi * np.asarray(t, dtype=float))
    return bd.BoundarySpec(
        left_maps=[lambda hv, u: hv + k * u[..., 0]],
        right_maps=[lambda hv, u: hv + k * u[..., 0]],
        h=[h1, h2],
        T_star=T_star,
    )


def attained(th, gamma):
    """Max row sum of diag(gamma) |th| diag(1 / gamma)."""
    return float(np.max(gamma * (np.abs(th) @ (1.0 / gamma))))


def collatz_wielandt(th, gamma):
    """[min, max] of (|th| x)_i / x_i at x = 1 / gamma."""
    ratios = gamma * (np.abs(th) @ (1.0 / gamma))
    return float(ratios.min()), float(ratios.max())


def perron_root(th):
    return float(np.abs(np.linalg.eigvals(np.abs(th))).max())


def sparse_irreducible(seed):
    """Gains in [0.05, 1) on n = 4..6 states, 30 % zeros, redrawn until
    the graph of the nonzero entries is strongly connected."""
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(4, 7))
        th = rng.uniform(0.05, 1.0, (n, n))
        th[rng.random((n, n)) < 0.3] = 0.0
        # (I + adjacency)^(n-1) > 0 iff every state reaches every other
        reach = np.linalg.matrix_power(np.eye(n) + (th > 0), n - 1)
        if np.all(reach > 0):
            return th


# exact zeros (absent feedback paths) or gains down to finite-difference
# noise
gains = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1.0))


def gain_matrices(min_n=1, max_n=6):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(gains, min_size=n * n, max_size=n * n).map(
            lambda vals: np.array(vals).reshape(n, n)))


def make_scalar_spec(amp=0.01, T_star=1.0):
    """Scalar inflow at x=0, no feedback."""
    return bd.BoundarySpec(
        left_maps=[lambda hv, u: hv],
        right_maps=[],
        h=[lambda t: amp * np.sin(2 * np.pi * np.asarray(t, dtype=float))],
        T_star=T_star,
    )


class TestThetaMatrix:
    def test_decoupled_is_zero(self):
        spec = make_reflect_spec(k=0.0)
        th = bd.theta_matrix(spec)
        assert np.abs(th).max() <= 1e-9

    def test_reflection_gain(self):
        spec = make_reflect_spec(k=0.5)
        th = bd.theta_matrix(spec)
        assert np.allclose(th, [[0.0, 0.5], [0.5, 0.0]], atol=1e-9)

    def test_quadratic_feedback_zero_linearization(self):
        spec = bd.BoundarySpec(
            left_maps=[lambda hv, u: hv + u[..., 0] ** 2],
            right_maps=[lambda hv, u: hv],
            h=[lambda t: np.zeros_like(np.asarray(t, dtype=float))] * 2,
            T_star=1.0,
        )
        th = bd.theta_matrix(spec)
        assert np.abs(th).max() <= 1e-6

    def test_scalar_system_zero_matrix(self):
        spec = make_scalar_spec()
        th = bd.theta_matrix(spec)
        assert th.shape == (1, 1) and th[0, 0] == 0.0


class TestMapGradient:
    @staticmethod
    def closed_form(hv, u):
        # G(h, u) = h (1 + u0) + u1^2
        return 1.0 + u[0], np.array([hv, 2.0 * u[1]])

    @pytest.mark.parametrize("one_at_a_time", [False, True])
    def test_nonlinear_map_matches_closed_form(self, one_at_a_time):
        # float(hv) fails on a batch, so that map is looped item by item
        fn = ((lambda hv, u: float(hv) * (1 + u[0]) + u[1] ** 2) if one_at_a_time
              else (lambda hv, u: hv * (1 + u[..., 0]) + u[..., 1] ** 2))
        # n = 3, m = 1: the map at x = L reads the two right-moving components
        spec = bd.BoundarySpec(left_maps=[lambda hv, u: hv] * 2, right_maps=[fn],
                               h=[np.sin] * 3, T_star=2 * np.pi)
        hv, u = 0.3, np.array([0.2, -0.4])
        dgdh, dgdu = spec.map_gradient(0, hv, u)
        want_h, want_u = self.closed_form(hv, u)
        assert dgdh == pytest.approx(want_h, abs=1e-8)
        assert np.allclose(dgdu, want_u, rtol=0, atol=1e-8)

    def test_nan_near_origin_raises_from_theta_and_forcing(self):
        nan_near_0 = lambda hv, u: hv + 0.5 * u[..., 0] + np.where(
            np.abs(u[..., 0]) < 1e-3, np.nan, 0.0)
        spec = bd.BoundarySpec(left_maps=[nan_near_0], right_maps=[lambda hv, u: hv],
                               h=[np.sin, np.cos], T_star=2 * np.pi)
        with pytest.raises(BoundaryMapError, match="boundary map 1"):
            bd.characterizing_data(spec)
        with pytest.raises(BoundaryMapError, match="boundary map 1"):
            bd.validate_forcing(spec)

    def test_wrongly_broadcasting_map_fails_in_theta(self):
        # u[0] is the first outgoing value of one item, the first row of a batch
        spec = bd.BoundarySpec(left_maps=[lambda hv, u: hv + 0.5 * u[0]],
                               right_maps=[lambda hv, u: hv + 0.5 * u[..., 0]],
                               h=[np.sin, np.cos], T_star=2 * np.pi)
        with pytest.raises(ValueError, match="boundary map 1 broadcasts wrongly"):
            bd.characterizing_data(spec)


class TestMinimalCharacterizingNumber:
    def test_zero_matrix(self):
        value, gamma = bd.minimal_characterizing_number(np.zeros((2, 2)))
        assert value == pytest.approx(0.0, abs=1e-9)
        assert np.all(gamma > 0)

    def test_asymmetric_block(self):
        # brute-force oracle: grid over gamma1/gamma2 plus hand spectral
        # radius sqrt(a*b) of [[0,a],[b,0]]
        a, b = 0.3, 0.12
        th = np.array([[0.0, a], [b, 0.0]])
        ratios = np.exp(np.linspace(-5, 5, 20001))
        grid_val = np.min(np.maximum(a * ratios, b / ratios))
        assert grid_val == pytest.approx(np.sqrt(a * b), rel=1e-3)
        value, gamma = bd.minimal_characterizing_number(th)
        assert value == pytest.approx(np.sqrt(0.036), abs=1e-8)
        # returned scaling is feasible: value <= its achieved row sum
        achieved = np.max(gamma * (np.abs(th) @ (1.0 / gamma)))
        assert value <= achieved + 1e-9

    def test_symmetric_block(self):
        value, _ = bd.minimal_characterizing_number(np.array([[0, 0.5], [0.5, 0]]))
        assert value == pytest.approx(0.5, abs=1e-8)

    def test_supercritical_gain(self):
        value, _ = bd.minimal_characterizing_number(np.array([[0, 1.2], [1.2, 0]]))
        assert value == pytest.approx(1.2, abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_methods_agree_and_match_eigensolve(self, seed):
        # oracle: dense eigensolve of |Theta|
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        th = np.zeros((n, n))
        th[:m, m:] = rng.uniform(0.05, 1.0, (m, n - m))
        th[m:, :m] = rng.uniform(0.05, 1.0, (n - m, m))
        value, gamma = bd.minimal_characterizing_number(th)
        rho = np.abs(np.linalg.eigvals(np.abs(th))).max()
        assert value == pytest.approx(rho, abs=1e-6)
        achieved = np.max(gamma * (np.abs(th) @ (1.0 / gamma)))
        assert value <= achieved + 1e-9

    def test_scaling_invariance(self):
        th = np.array([[0.0, 0.3], [0.12, 0.0]])
        D = np.diag([3.0, 0.25])
        conj = D @ th @ np.linalg.inv(D)
        v1, _ = bd.minimal_characterizing_number(th)
        v2, _ = bd.minimal_characterizing_number(conj)
        assert abs(v1 - v2) <= 1e-8

    def test_upper_bounded_by_row_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            th = np.zeros((4, 4))
            th[:2, 2:] = rng.uniform(0, 1, (2, 2))
            th[2:, :2] = rng.uniform(0, 1, (2, 2))
            value, _ = bd.minimal_characterizing_number(th)
            assert value >= -1e-12
            assert value <= np.abs(th).sum(axis=1).max() + 1e-9

    def test_absorbing_design_is_zero(self):
        # one end absorbs: nilpotent, no class has entries
        th = np.array([[0, 0, .5, .5], [0, 0, .5, .5], [0, 0, 0, 0], [0, 0, 0, 0]])
        value, gamma = bd.minimal_characterizing_number(th)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.all(gamma > 0)
        # the infimum 0 is not attained, but approached
        assert attained(th, gamma) <= 1e-6

    @pytest.mark.parametrize("seed", range(15))
    def test_sparse_irreducible_attains_perron_root(self, seed):
        th = sparse_irreducible(seed)
        value, gamma = bd.minimal_characterizing_number(th)
        rho = perron_root(th)
        assert value == pytest.approx(rho, abs=1e-9)
        assert attained(th, gamma) == pytest.approx(rho, abs=1e-9)

    def test_reducible_takes_largest_class(self):
        # classes {0, 1} (root 0.5) and {2, 3} (root sqrt(0.18)) joined
        # one way only
        th = np.array([[0, .5, .3, 0], [.5, 0, 0, .1],
                       [0, 0, 0, .9], [0, 0, .2, 0]])
        value, gamma = bd.minimal_characterizing_number(th)
        assert value == pytest.approx(0.5, abs=1e-12)
        assert 0.5 <= attained(th, gamma) <= 0.5 + 1e-5

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(gain_matrices(min_n=2), st.lists(
        st.floats(min_value=-2.0, max_value=2.0), min_size=6, max_size=6))
    def test_invariant_under_diagonal_similarity(self, th, logd):
        d = np.exp(np.array(logd[:th.shape[0]]))
        v1, _ = bd.minimal_characterizing_number(th)
        v2, _ = bd.minimal_characterizing_number(d[:, None] * th / d[None, :])
        assert v2 == pytest.approx(v1, abs=1e-9)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(gain_matrices())
    def test_value_in_bracket_of_scaling(self, th):
        value, gamma = bd.minimal_characterizing_number(th)
        lo, hi = collatz_wielandt(th, gamma)
        assert lo - 1e-9 <= value <= hi + 1e-9
        assert value == pytest.approx(perron_root(th), abs=1e-9)


class TestCharacterizingData:
    def test_full_record(self):
        spec = make_reflect_spec(k=0.5)
        data = bd.characterizing_data(spec)
        assert np.allclose(data.theta_matrix, [[0, 0.5], [0.5, 0]], atol=1e-9)
        assert data.theta == pytest.approx(0.5, abs=1e-8)
        assert np.all(data.optimal_scaling > 0)
        # zero diagonal blocks by construction
        assert data.theta_matrix[0, 0] == 0.0 and data.theta_matrix[1, 1] == 0.0


class TestFrozenSpec:
    """A spec keeps the batched forms of its maps and signals, so it must
    not let them change: assigning a gain-0.9 map after one evaluation
    would leave the gain-0.5 form in use."""

    def test_assignment_raises(self):
        spec = systems.reflection_boundary(0.5, systems.zero_signal,
                                           systems.zero_signal, 2.0)
        assert spec.map_values(1, 0.0, [1.0]) == 0.5
        for name, value in (("left_maps", [lambda hv, u: hv + 0.9 * u[..., 0]]),
                            ("h", [systems.zero_signal] * 2), ("T_star", 1.0),
                            ("_maps", {})):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
        assert spec.map_values(1, 0.0, [1.0]) == 0.5
        assert bd.characterizing_data(spec).theta == pytest.approx(0.5, abs=1e-8)


def loop_validate_forcing(bspec):
    """``validate_forcing`` as it was, the oracle of the one-grid form: each
    signal evaluated on four grids of one period, ts, ts + T and ts -+ dt."""
    n, T = bspec.n, bspec.T_star
    ts = np.arange(4096) * (T / 4096)
    dt = T / 4096
    c1, h2max, per_res = np.empty(n), 0.0, 0.0
    for i in range(n):
        vals = bspec.h_values(i, ts)
        res = float(np.abs(bspec.h_values(i, ts + T) - vals).max())
        plus = bspec.h_values(i, ts + dt)
        minus = bspec.h_values(i, ts - dt)
        deriv = (plus - minus) / (2 * dt)
        c1[i] = np.maximum(np.abs(vals).max(), np.abs(deriv).max())
        second = float(np.abs((plus - 2 * vals + minus) / dt**2).max())
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
    return bd.ForcingReport(
        h_c1_norms=c1, h_c1_max=float(c1.max()) if n else 0.0,
        periodicity_residual=per_res, gain_at_origin=gains, max_gain=max_gain,
        rescaled=max_gain > 0.5,
        rescaled_spec=bd._rescale_forcing(bspec, max_gain) if max_gain > 0.5 else None,
        h_second_deriv_max=h2max)


def linear_design(seed, n, T_star):
    """Seeded linear maps G_i(h, u) = c_i h + gains_i . u on n families,
    m = n // 2, each signal one harmonic of the period."""
    rng = np.random.default_rng(seed)
    m = n // 2
    gains = rng.uniform(0.05, 1.0, (n, n))
    c = rng.uniform(0.2, 1.0, n)

    def linear(i, cols):
        return lambda hv, u: c[i] * hv + np.asarray(u, dtype=float) @ gains[i, cols]

    h = [systems.harmonic_signal(
        [{"amplitude": a, "harmonic": k, "phase": p}], T_star)
        for a, k, p in zip(rng.uniform(0.005, 0.02, n), rng.integers(1, 4, n),
                           rng.uniform(0.0, 2 * np.pi, n))]
    return bd.BoundarySpec(left_maps=[linear(i, slice(0, m)) for i in range(m, n)],
                           right_maps=[linear(i, slice(m, n)) for i in range(m)],
                           h=h, T_star=T_star)


def shipped_boundaries():
    for path in sorted(CONFIGS.glob("*.yaml")):
        cfg = cli.load_config(path)
        for eps in cfg.eps:
            yield cli._build(cfg, eps)[1]


def designs(T_star):
    return [linear_design(seed, n, T_star) for seed in (1, 2, 3) for n in range(2, 7)]


def forcing_fields(rep):
    """The report's fields, rescaled_spec as its signals on a grid."""
    out = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    spec = out.pop("rescaled_spec")
    out["rescaled_signals"] = None if spec is None else np.array(
        [spec.h_values(i, np.linspace(-1.0, 3.0, 17)) for i in range(spec.n)])
    return out


class TestOneGridForcing:
    """``validate_forcing`` reads each signal from one grid: the same report
    as four grids of one period, bit for bit where every node k dt is exact
    (T* = 1 and 2)."""

    @pytest.mark.parametrize("T_star", [1.0, 2.0])
    def test_bit_identical_to_four_grids(self, T_star):
        specs = designs(T_star) + [make_scalar_spec(T_star=T_star)]
        if T_star == 2.0:
            specs += [make_reflect_spec(amp2=0.02)] + list(shipped_boundaries())
        for spec in specs:
            got, want = (forcing_fields(f(spec))
                         for f in (bd.validate_forcing, loop_validate_forcing))
            assert got.keys() == want.keys()
            for name in got:
                assert np.array_equal(got[name], want[name]), name

    def test_same_periodicity_error(self):
        spec = make_reflect_spec(T_star=1.0, amp2=0.02)  # 2-periodic signals
        with pytest.raises(PeriodicityError) as got:
            bd.validate_forcing(spec)
        with pytest.raises(PeriodicityError) as want:
            loop_validate_forcing(spec)
        assert str(got.value) == str(want.value)

    def test_inexact_step_within_rounding(self):
        """Where k dt rounds, it and (k - 1) dt + dt or (k - N) dt + T differ
        by at most 3 eps T. A difference over 2 dt turns that into a relative
        change of at most 3 N eps of a C1 norm (N = 4096), and one over dt^2
        into at most 6 eps N^2 / (2 pi) of a single harmonic's second
        derivative; the decisions are the same."""
        T_star, N, eps = 2 * np.pi / 3, 4096, np.finfo(float).eps
        for spec in designs(T_star):
            got, want = bd.validate_forcing(spec), loop_validate_forcing(spec)
            assert got.rescaled == want.rescaled
            assert np.array_equal(got.gain_at_origin, want.gain_at_origin)
            for name in ("h_c1_norms", "h_c1_max"):
                assert np.allclose(getattr(got, name), getattr(want, name),
                                   rtol=3 * N * eps, atol=0.0), name
            assert np.isclose(got.h_second_deriv_max, want.h_second_deriv_max,
                              rtol=6 * eps * N**2 / (2 * np.pi), atol=0.0)
            assert max(got.periodicity_residual, want.periodicity_residual) <= 1e-13

    def test_one_signal_call_per_family(self, monkeypatch):
        calls = []
        real = bd.BoundarySpec.h_values

        def counted(self, i, t):
            calls.append(i)
            return real(self, i, t)

        monkeypatch.setattr(bd.BoundarySpec, "h_values", counted)
        for n in range(2, 7):
            calls.clear()
            bd.validate_forcing(linear_design(1, n, 2.0))
            assert calls == list(range(n))

    @pytest.mark.parametrize("bad", [
        lambda t, T: t < 0,  # only the sample before the period
        lambda t, T: (t >= T) & (t < 2 * T),  # only the next period
        lambda t, T: t > T + 0.5 * T / 4096,  # past every neighbour of [0, T)
    ])
    def test_non_finite_outside_the_period_names_the_signal(self, bad):
        T_star = 2.0

        def corrupt(fn, value):
            return lambda t: np.where(bad(np.asarray(t, dtype=float), T_star),
                                      value, fn(t))

        base = linear_design(2, 3, T_star)
        for value in (np.nan, np.inf):
            h = list(base.h)
            h[1] = corrupt(h[1], value)
            spec = dataclasses.replace(base, h=h)
            with pytest.raises(BoundaryMapError, match="forcing signal 1 "):
                bd.validate_forcing(spec)
            with pytest.raises(BoundaryMapError, match="forcing signal 1 "):
                loop_validate_forcing(spec)
            h[2] = corrupt(h[2], value)  # two bad signals: the first is named
            with pytest.raises(BoundaryMapError, match="forcing signal 1 "):
                bd.validate_forcing(dataclasses.replace(base, h=h))


class TestValidateForcing:
    def test_sine_norms(self):
        # C1 norm of 0.01 sin(2 pi t) is the derivative sup 0.02 pi
        spec = make_scalar_spec(amp=0.01, T_star=1.0)
        rep = bd.validate_forcing(spec)
        assert rep.h_c1_max == pytest.approx(0.01 * 2 * np.pi, rel=1e-4)
        assert rep.periodicity_residual <= 1e-10
        # second derivative sup is amp * (2 pi)^2
        assert rep.h_second_deriv_max == pytest.approx(0.01 * (2 * np.pi) ** 2, rel=1e-3)
        # the pass-through map has forcing gain 1 > 1/2: normalization kicks
        # in, scaling the signal by 2 * gain without changing boundary values
        assert rep.rescaled and rep.max_gain == pytest.approx(1.0, rel=1e-6)
        assert rep.rescaled_spec.h_values(0, 0.25) == pytest.approx(0.02, rel=1e-9)

    def test_half_gain_not_rescaled(self):
        spec = bd.BoundarySpec(
            left_maps=[lambda hv, u: 0.5 * hv],
            right_maps=[],
            h=[lambda t: 0.01 * np.sin(2 * np.pi * np.asarray(t, dtype=float))],
            T_star=1.0,
        )
        rep = bd.validate_forcing(spec)
        assert not rep.rescaled
        assert rep.rescaled_spec is None

    def test_aperiodic_raises(self):
        spec = bd.BoundarySpec(
            left_maps=[lambda hv, u: hv],
            right_maps=[],
            h=[lambda t: np.asarray(t, dtype=float)],
            T_star=1.0,
        )
        with pytest.raises(PeriodicityError):
            bd.validate_forcing(spec)

    def test_non_finite_signal_raises_naming_it(self):
        # NaN on part of the period: Python's max would drop it from the
        # periodicity residual
        def nan_late(t):
            t = np.asarray(t, dtype=float)
            return np.where(t % 1.0 > 0.5, np.nan, np.sin(2 * np.pi * t))

        spec = bd.BoundarySpec(left_maps=[lambda hv, u: hv + 0.5 * u[..., 0]],
                               right_maps=[lambda hv, u: hv + 0.5 * u[..., 0]],
                               h=[lambda t: np.sin(2 * np.pi * np.asarray(t)), nan_late],
                               T_star=1.0)
        with pytest.raises(BoundaryMapError, match="forcing signal 1"):
            bd.validate_forcing(spec)

    def test_large_gain_rescaled(self):
        spec = bd.BoundarySpec(
            left_maps=[lambda hv, u: 2.0 * hv],
            right_maps=[],
            h=[lambda t: 0.01 * np.sin(2 * np.pi * np.asarray(t, dtype=float))],
            T_star=1.0,
        )
        rep = bd.validate_forcing(spec)
        assert rep.max_gain == pytest.approx(2.0, rel=1e-6)
        assert rep.rescaled
        # rescaled signals are 2 * M0 * h = 4 h, boundary values unchanged
        t = 0.25
        assert rep.rescaled_spec.h_values(0, t) == pytest.approx(4 * 0.01, rel=1e-9)
        orig = bd.eval_boundary(spec, "left", t, np.zeros(0))
        new = bd.eval_boundary(rep.rescaled_spec, "left", t, np.zeros(0))
        assert new[0] == pytest.approx(orig[0], rel=1e-9)

    def test_rescaling_idempotent(self):
        spec = bd.BoundarySpec(
            left_maps=[lambda hv, u: 2.0 * hv],
            right_maps=[],
            h=[lambda t: 0.01 * np.sin(2 * np.pi * np.asarray(t, dtype=float))],
            T_star=1.0,
        )
        rep = bd.validate_forcing(spec)
        rep2 = bd.validate_forcing(rep.rescaled_spec)
        assert not rep2.rescaled
        assert rep2.max_gain <= 0.5 + 1e-6


class TestEvalBoundary:
    def test_zero_inputs_zero_output(self):
        spec = make_reflect_spec(k=0.5, amp1=0.0, amp2=0.0)
        out = bd.eval_boundary(spec, "left", 0.3, np.zeros(1))
        assert out[0] == 0.0
        out = bd.eval_boundary(spec, "right", 0.3, np.zeros(1))
        assert out[0] == 0.0

    def test_linear_reflection(self):
        spec = make_reflect_spec(k=0.5, amp1=0.0, amp2=0.0)
        out = bd.eval_boundary(spec, "left", 0.0, np.array([0.02]))
        assert out[0] == pytest.approx(0.01)
        # a signal value given as a plain float
        assert spec.map_values(1, 0.3, np.array([0.02])) == pytest.approx(0.31)

    def test_scalar_sine_quarter_period(self):
        spec = make_scalar_spec(amp=0.01, T_star=1.0)
        out = bd.eval_boundary(spec, "left", 0.25, np.zeros(0))
        assert out[0] == pytest.approx(0.01)

    def test_nonfinite_raises(self):
        spec = bd.BoundarySpec(
            left_maps=[lambda hv, u: np.nan],
            right_maps=[],
            h=[lambda t: np.zeros_like(np.asarray(t, dtype=float))],
            T_star=1.0,
        )
        with pytest.raises(BoundaryMapError):
            bd.eval_boundary(spec, "left", 0.0, np.zeros(0))

    def test_batch_matches_scalar(self):
        spec = make_reflect_spec(k=0.5)
        ts = np.linspace(0, 2, 7)
        outs = np.linspace(-0.01, 0.01, 7)[:, None]
        batch = bd.eval_boundary(spec, "left", ts, outs)
        for a, t in enumerate(ts):
            single = bd.eval_boundary(spec, "left", t, outs[a])
            assert batch[a, 0] == pytest.approx(single[0], abs=1e-15)


def reference_harmonic_signal(harmonics, T_star, scale=1.0):
    """``systems.harmonic_signal`` as it was, summing from a zeros array."""
    terms = [(float(h["amplitude"]), float(h.get("harmonic", 1)),
              float(h.get("phase", 0.0))) for h in harmonics]

    def signal(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for amp, harm, phase in terms:
            out = out + scale * amp * np.sin(2 * np.pi * harm * t / T_star + phase)
        return out

    return signal


class TestBuiltinCallables:
    TIMES = [0.37, np.linspace(-1.0, 3.0, 12).reshape(3, 4)]

    @pytest.mark.parametrize("t", TIMES)
    def test_no_terms_give_zeros_shaped_like_t(self, t):
        out = systems.harmonic_signal([], 2.0)(t)
        assert isinstance(out, np.ndarray) and out.shape == np.shape(t)
        assert not out.any()

    @pytest.mark.parametrize("t", TIMES)
    def test_terms_sum_as_before(self, t):
        harmonics = [{"amplitude": 1.0}, {"amplitude": 0.5, "harmonic": 3, "phase": 1.0},
                     {"amplitude": 0.25, "harmonic": 2, "phase": -0.4}]
        for k in (1, 3):
            got = systems.harmonic_signal(harmonics[:k], 2.0, scale=0.01)(t)
            want = reference_harmonic_signal(harmonics[:k], 2.0, scale=0.01)(t)
            assert type(got) is type(want) and np.array_equal(got, want)

    def test_euler_source_is_the_drag_in_both_components(self):
        a = 0.5
        spec = systems.quasilinear_euler_damping(a=a)
        u = np.linspace(-0.03, 0.03, 14).reshape(7, 2)
        v = 0.5 * (u[..., 0] + u[..., 1])
        assert np.array_equal(spec.F(u), -a * np.stack([v, v], axis=-1))
        assert np.array_equal(spec.F(u[3]), -a * np.stack([v[3], v[3]], axis=-1))
