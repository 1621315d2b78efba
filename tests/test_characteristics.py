import numpy as np
import pytest

from periodic_hyp import characteristics as ch
from periodic_hyp.diagnostics import RegularityReport, regularity_measurements
from periodic_hyp.errors import DomainError

NTS = [8, 9, 32, 33, 256]


def modulo_bilinear(grid, fld, t, x):
    """``_bilinear`` as it was, wrapping the rows by modulo: the reference
    of the read through ``_padded``."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    j0, wt = ch._phase(t, fld.T_star, fld.Nt)
    j0 %= fld.Nt
    j1 = (j0 + 1) % fld.Nt
    k0, k1, wx = ch._space_index(fld, x)
    wt = wt[..., None]
    wx = wx[..., None]
    return ((1 - wt) * (1 - wx) * grid[j0, k0]
            + wt * (1 - wx) * grid[j1, k0]
            + (1 - wt) * wx * grid[j0, k1]
            + wt * wx * grid[j1, k1])


def rolled_regularity(fld):
    """``regularity_measurements`` with its time neighbours from np.roll."""
    v, dt, dx = fld.values, fld.dt, fld.dx
    d2t = (np.roll(v, -1, axis=0) - 2 * v + np.roll(v, 1, axis=0)) / dt**2
    ut = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * dt)
    return RegularityReport(
        d2t=float(np.abs(d2t[:, 1:-1]).max()),
        dtdx=float(np.abs((ut[:, 2:] - ut[:, :-2]) / (2 * dx)).max()),
        d2x=float(np.abs((v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2]) / dx**2).max()))


def random_field(Nt, T_star):
    vals = np.random.default_rng(Nt).normal(size=(Nt, 9, 2))
    return ch.Field(values=vals, T_star=T_star, L=1.0)


class TestPaddedWrap:
    """Every neighbour in time is a row of ``_padded``: the same bits as the
    np.roll and modulo forms, at odd and even Nt."""

    @pytest.mark.parametrize("Nt", NTS)
    def test_time_difference(self, Nt):
        fld = random_field(Nt, 2 * np.pi / 3)
        v = fld.values
        want = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * fld.dt)
        assert np.array_equal(fld.time_derivative_grid(), want)

    @pytest.mark.parametrize("Nt", NTS)
    def test_regularity(self, Nt):
        fld = random_field(Nt, 2 * np.pi / 3)
        assert regularity_measurements(fld) == rolled_regularity(fld)

    @pytest.mark.parametrize("T_star", [1.0, 2 * np.pi / 3])
    @pytest.mark.parametrize("Nt", NTS)
    def test_interpolate(self, Nt, T_star):
        fld = random_field(Nt, T_star)
        # a hair below T, or below 0: the phase may round up to Nt
        below = [np.nextafter(T_star, 0.0), -1e-20, -5e-324, 3 * T_star - 1e-16]
        t = np.concatenate([fld.t_nodes, below, [-below[0], T_star],
                            -fld.t_nodes[1:], fld.t_nodes + 0.37 * fld.dt,
                            np.linspace(-3 * T_star, 3 * T_star, 29)])
        x = np.linspace(0.0, fld.L, t.size)
        x[::4] = fld.x_nodes[np.arange(0, t.size, 4) % 9]
        assert (ch._phase(t, T_star, Nt)[0] == Nt).any()
        for method, grid in ((fld.interpolate, fld.values),
                             (fld.interpolate_dt, fld.time_derivative_grid()),
                             (fld.interpolate_dx, fld.space_derivative_grid())):
            assert np.array_equal(method(t, x), modulo_bilinear(grid, fld, t, x))
            assert np.array_equal(method(t[:, None], x), modulo_bilinear(grid, fld, t[:, None], x))


class TestInterpolate:
    def test_nodes_reproduced(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(16, 9, 2))
        fld = ch.Field(values=vals, T_star=1.0, L=1.0)
        for j in (0, 3, 15):
            for k in (0, 4, 8):
                got = fld.interpolate(j * fld.dt, k * fld.dx)
                assert np.array_equal(got, vals[j, k])

    def test_constant_field(self):
        fld = ch.Field(values=np.full((8, 9, 1), 0.7), T_star=2.0, L=1.0)
        for t, x in [(0.13, 0.4), (-3.7, 0.0), (11.2, 1.0)]:
            assert fld.interpolate(t, x)[0] == pytest.approx(0.7, abs=1e-15)

    def test_closed_form_accuracy(self):
        fld = ch.Field.from_function(
            lambda t, x: np.sin(2 * np.pi * t) * x, 256, 256, 1.0, 1.0)
        got = fld.interpolate(0.3, 0.5)[0]
        assert got == pytest.approx(np.sin(0.6 * np.pi) * 0.5, abs=1e-3)

    def test_periodic_wrap_exact_on_dyadic_queries(self):
        rng = np.random.default_rng(1)
        fld = ch.Field(values=rng.normal(size=(32, 17, 1)), T_star=1.0, L=1.0)
        t = 5 * fld.dt + 0.25 * fld.dt  # dyadic offset
        for x in (0.0, 0.3125, 1.0):
            a = fld.interpolate(t, x)
            b = fld.interpolate(t + fld.T_star, x)
            c = fld.interpolate(t - 3 * fld.T_star, x)
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_out_of_domain_raises(self):
        fld = ch.Field.zeros(8, 8, 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            fld.interpolate(0.0, 1.5)
        with pytest.raises(DomainError):
            fld.interpolate(0.0, -0.1)

    def test_derivative_grids(self):
        fld = ch.Field.from_function(
            lambda t, x: np.sin(2 * np.pi * t) * np.cos(x), 128, 128, 1.0, 1.0)
        t, x = 0.37, 0.41
        dt_val = fld.interpolate_dt(t, x)[0]
        dx_val = fld.interpolate_dx(t, x)[0]
        # truncation of the grid stencil is (dt^2/6) |u_ttt| ~ 2.5e-3 here
        assert dt_val == pytest.approx(2 * np.pi * np.cos(2 * np.pi * t) * np.cos(x), abs=5e-3)
        assert dx_val == pytest.approx(-np.sin(2 * np.pi * t) * np.sin(x), abs=5e-3)


def inverse_speeds(mu_fn, Nt, Nx):
    """(Nt, Nx+1, 1) grid of mu_fn(t, x) for one family, T* = L = 1."""
    t = (np.arange(Nt) / Nt)[:, None]
    x = (np.arange(Nx + 1) / Nx)[None, :]
    return np.broadcast_to(mu_fn(t, x), (Nt, Nx + 1))[..., None].astype(float)


def inflow(mu, R, gii, m, T_star, L, geometry=None):
    """``trace_to_inflow`` with the plan of the rates gii on mu's grid."""
    plan = ch.trace_plan(gii, m, mu.shape[1] - 1, L)
    return ch.trace_to_inflow(mu, R, plan, m, T_star, geometry)


def trace(mu, m=0, R=None):
    """Delay and source integral of one family with gii = 0 and source R
    (zero by default)."""
    R = np.zeros_like(mu) if R is None else R
    delay, integral, _ = inflow(mu, R, np.zeros(1), m, 1.0, 1.0)
    return delay[..., 0], integral[..., 0]


X32 = np.arange(33) / 32


class TestTrace:
    def test_straight_line_unit_speed(self):
        delay, integral = trace(inverse_speeds(lambda t, x: 1.0, 32, 32))
        assert np.abs(delay - X32).max() == 0.0
        assert not integral.any()

    def test_left_moving_family(self):
        # lambda = -1: the curve runs to x = L, a delay of L - x
        delay, _ = trace(inverse_speeds(lambda t, x: -1.0, 32, 32), m=1)
        assert np.abs(delay - (1.0 - X32)).max() == 0.0

    def test_frozen_constant_state(self):
        # constant state 0.01 with speed 1 + u: dt/dx = 1 / 1.01 exactly
        delay, _ = trace(inverse_speeds(lambda t, x: 1.0 / 1.01, 32, 32))
        assert np.abs(delay - X32 / 1.01).max() <= 1e-14

    def test_quadrature_against_closed_form(self):
        # u = c x with speed 1 + u: the delay is
        # int_0^x ds / (1 + c s) = log(1 + c x) / c
        c = 0.15
        delay, _ = trace(inverse_speeds(lambda t, x: 1.0 / (1.0 + c * x), 16, 64))
        x = np.arange(65) / 64
        assert np.abs(delay - np.log1p(c * x) / c).max() <= 1e-10

    def test_rk4_order(self):
        # halving dx cuts the delay error at x = 1 by at least 8x (12.6x measured)
        c = 0.15
        errs = []
        for Nx in (16, 32):
            delay, _ = trace(inverse_speeds(lambda t, x: 1.0 / (1.0 + c * x), 16, Nx))
            errs.append(np.abs(delay[:, -1] - np.log1p(c) / c).max())
        assert errs[0] >= 8 * errs[1]

    def test_unit_source_integral(self):
        # R = 1 and gii = 0: the integral from the inflow x = 0 is x
        mu = inverse_speeds(lambda t, x: 1.0 + 0.05 * np.sin(2 * np.pi * t), 32, 32)
        _, integral = trace(mu, R=np.ones_like(mu))
        assert np.abs(integral - X32).max() <= 1e-14

    def test_periodicity_equivariance(self):
        # rolling mu by 5 rows rolls the delays by the same 5 rows
        mu = inverse_speeds(lambda t, x: 1.0 / (1.0 + 0.05 * np.sin(2 * np.pi * t + x)), 32, 32)
        delay, _ = trace(mu)
        rolled, _ = trace(np.roll(mu, 5, axis=0))
        assert np.abs(rolled - np.roll(delay, 5, axis=0)).max() <= 1e-14

    def test_speed_bound_invariant(self):
        # speed 1 + u >= 0.95 on u = 0.05 sin(2 pi t): |d delay| <= mu_max dx
        mu = inverse_speeds(lambda t, x: 1.0 / (1.0 + 0.05 * np.sin(2 * np.pi * t)), 32, 32)
        delay, _ = trace(mu)
        mu_max = 1.0 / 0.95
        assert np.abs(delay[:, 0]).max() == 0.0
        assert np.all(np.abs(np.diff(delay, axis=1)) <= mu_max / 32 + 1e-12)


class TestGeometryReuse:
    """A stored geometry reused with another source and other rates gives
    the fresh trace to the last bit. Whether a geometry fits the speeds is
    the sweep's to decide (``tests/test_sweep_kernel.py``)."""

    @staticmethod
    def three_families(m, Nt=24, Nx=16):
        t = (np.arange(Nt) / Nt)[:, None, None]
        x = (np.arange(Nx + 1) / Nx)[None, :, None]
        speeds = np.array([-1.3, 1.0, 1.6]) if m == 1 else np.array([-1.5, -0.9, 1.2])
        return 1.0 / (speeds * (1.0 + 0.05 * np.sin(2 * np.pi * t + x + np.arange(3))))

    @pytest.mark.parametrize("m", [1, 2])
    def test_reuse_is_exact(self, m):
        mu = self.three_families(m)
        rng = np.random.default_rng(m)
        R1, R2 = rng.normal(size=(2,) + mu.shape)
        gii1, gii2 = np.array([0.3, -0.2, -0.4]), np.array([0.5, 0.1, -0.7])
        _, _, geometry = inflow(mu, R1, gii1, m, 1.0, 1.0)
        delay, integral, kept = inflow(mu.copy(), R2, gii2, m, 1.0, 1.0, geometry)
        fresh_delay, fresh_integral, _ = inflow(mu, R2, gii2, m, 1.0, 1.0)
        assert kept is geometry
        assert np.array_equal(delay, fresh_delay)
        assert np.array_equal(integral, fresh_integral)
        assert np.abs(integral).max() > 0.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_reuse_is_exact_at_a_non_dyadic_period(self, m):
        # odd grids and grid times t_j = 2.7 j / 21 that are not dyadic: the
        # padded tables wrap in every column
        mu = self.three_families(m, Nt=21, Nx=13)
        R1, R2 = np.random.default_rng(10 + m).normal(size=(2,) + mu.shape)
        gii = np.array([0.3, -0.2, -0.4])
        _, _, geometry = inflow(mu, R1, gii, m, 2.7, 1.3)
        delay, integral, kept = inflow(mu.copy(), R2, -gii, m, 2.7, 1.3, geometry)
        fresh_delay, fresh_integral, _ = inflow(mu, R2, -gii, m, 2.7, 1.3)
        assert kept is geometry
        assert np.array_equal(delay, fresh_delay)
        assert np.array_equal(integral, fresh_integral)
        assert np.abs(integral).max() > 0.0

    def test_stored_arrays_are_read_only_and_kept_by_reuse(self):
        mu = self.three_families(1, Nt=21, Nx=13)
        R = np.random.default_rng(7).normal(size=mu.shape)
        gii = np.array([0.3, -0.2, -0.4])
        _, _, geometry = inflow(mu, R, gii, 1, 2.7, 1.3)
        stored = [geometry.mu, geometry.delay, *geometry.bases, *geometry.weights]
        assert len(geometry.bases) == len(geometry.weights) == ch._SUBSTEPS
        before = [a.copy() for a in stored]
        inflow(mu, 2.0 * R, -gii, 1, 2.7, 1.3, geometry)
        for a, b in zip(stored, before):
            assert np.array_equal(a, b)
            with pytest.raises(ValueError):
                a[...] = 0
        for a in ch._refine_stencil(13, ch._REFINE):
            with pytest.raises(ValueError):
                a[...] = 0
