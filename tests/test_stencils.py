"""The shared stencils and the batching probe behind A, F, signals and maps."""
import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_sweep_kernel import loop_lagrange4, loop_refine_x

from periodic_hyp import boundary as bd
from periodic_hyp import characteristics as ch
from periodic_hyp import ivp_solver as ivp
from periodic_hyp import periodic_solver as ps
from periodic_hyp import systems
from periodic_hyp.system_model import SystemSpec, batched

T_STAR = 2.0


def interp_rows_cubic(rows, tq, T_star):
    """Periodic 4-point Lagrange interpolation in time (O(dt^4)) of one
    period of rows at the times tq, read as the sweep reads its outgoing
    traces: a ``_stencil`` of the ``_padded`` rows."""
    return ch._read(ch._padded(rows), *ch._stencil(tq, T_star, len(rows), 0, 1), 1)


class TestStencils:
    def test_periodic_cubic_exact_at_nodes_and_under_period_shift(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(16, 3))
        nodes = np.arange(16) * (T_STAR / 16)
        assert np.array_equal(interp_rows_cubic(rows, nodes, T_STAR), rows)
        assert np.array_equal(interp_rows_cubic(rows[:, 1], nodes, T_STAR), rows[:, 1])
        tq = rng.integers(0, 2**20, size=64) / 2**19  # dyadic times in [0, T*)
        base = interp_rows_cubic(rows, tq, T_STAR)
        for shift in (T_STAR, -T_STAR, 3 * T_STAR):
            assert np.array_equal(interp_rows_cubic(rows, tq + shift, T_STAR), base)

    @pytest.mark.parametrize("Nt", [16, 21])
    def test_a_phase_that_rounds_up_to_the_period_reads_row_0(self, Nt):
        # frac(t / T) is 1.0 just below a multiple of the period: the row
        # index is Nt, which the padding reads as row 0, with no wrap
        rows = np.random.default_rng(Nt).normal(size=(Nt, 3))
        t = np.array([-1e-300, -T_STAR * 2.0**-60, -T_STAR * 2.0**-55])
        j, f = ch._phase(t, T_STAR, Nt)
        assert j.tolist() == [Nt, Nt, Nt] and not f.any()
        got = interp_rows_cubic(rows, t, T_STAR)
        assert np.array_equal(got, np.repeat(rows[:1], 3, axis=0))
        assert np.array_equal(interp_rows_cubic(rows[:, 1], t, T_STAR), rows[[0, 0, 0], 1])
        fld = ch.Field(values=np.stack([rows, 2 * rows], axis=1), T_star=T_STAR, L=1.0)
        assert np.array_equal(fld.interpolate(t, 0.0), got)  # the bilinear read wraps

    def test_column_gather_is_the_row_form_per_column(self):
        def read_cols(rows, tq, cols):
            """Column cols[c] of rows at the times tq[..., c], read from the
            flat padded table as the march reads its tables."""
            table = ch._padded(rows).reshape((-1,) + rows.shape[2:])
            ncols = rows.shape[1]
            return ch._read(table, *ch._stencil(tq, T_STAR, len(rows), cols, ncols), ncols)

        rng = np.random.default_rng(5)
        rows = rng.normal(size=(16, 9))
        cols = np.array([4, 0, 8, 4, 2])
        nodes = np.arange(16) * (T_STAR / 16)
        at_nodes = np.repeat(nodes[:, None], cols.size, axis=1)
        assert np.array_equal(read_cols(rows, at_nodes, cols), rows[:, cols])
        tq = rng.integers(0, 2**20, size=(24, cols.size)) / 2**19  # dyadic times
        got = read_cols(rows, tq, cols)
        for shift in (T_STAR, -T_STAR, 3 * T_STAR):
            assert np.array_equal(read_cols(rows, tq + shift, cols), got)
        for c, col in enumerate(cols):
            assert np.array_equal(got[:, c], interp_rows_cubic(rows[:, col], tq[:, c], T_STAR))
        # trailing axes ride along: columns of (value, 2 * value) pairs
        pairs = np.stack([rows, 2 * rows], axis=-1)
        both = read_cols(pairs, tq, cols)
        assert np.array_equal(both[..., 0], got)
        assert np.array_equal(both[..., 1], read_cols(2 * rows, tq, cols))

    def test_x_refinement_reproduces_cubics_up_to_the_ends(self):
        Nx, refine = 10, 8

        def p(x):
            return 0.3 - 1.2 * x + 2.0 * x**2 - 0.7 * x**3

        x = np.arange(Nx + 1) / Nx
        fine = ch._cubic_refine_x(np.stack([p(x), -2.0 * p(x)]), refine)
        xf = np.arange(refine * Nx + 1) / (refine * Nx)
        assert fine.shape == (2, refine * Nx + 1)
        assert np.abs(fine - np.stack([p(xf), -2.0 * p(xf)])).max() <= 1e-13

    def test_x_difference_on_profiles_and_fields(self):
        x = np.linspace(0.0, 1.0, 9)
        prof = np.stack([x**2, 1.0 - x], axis=-1)
        want = np.stack([2 * x, -np.ones_like(x)], axis=-1)
        assert np.abs(ch._x_difference(prof, x[1]) - want).max() <= 1e-13
        fld = ch.Field(values=np.stack([prof, 2 * prof]), T_star=1.0, L=1.0)
        assert np.array_equal(fld.space_derivative_grid()[1],
                              ch._x_difference(2 * prof, x[1]))


# values whose products and sums stay finite; subnormals and -0.0 included
VALUES = st.floats(min_value=-1e6, max_value=1e6)
FRACTIONS = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


class TestPrimitives:
    """Each primitive equals its formula written out term by term, in the
    same order. Values, not bytes: a -0.0 against a +0.0 (a reduction such
    as ``.sum(axis=0)`` starts from +0.0) is the same value."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=6), elements=FRACTIONS))
    def test_lagrange_weights(self, f):
        assert np.array_equal(ch._lagrange4(f), np.stack(loop_lagrange4(f)))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.data(), st.integers(1, 5), st.integers(0, 3))
    def test_read_of_flat_and_2d_tables(self, data, step, width):
        """A flat table (width 0) or one of rows of width columns."""
        rows = 3 * step + data.draw(st.integers(1, 12))
        table = data.draw(hnp.arrays(np.float64, (rows, width) if width else rows,
                                     elements=VALUES))
        shape = data.draw(hnp.array_shapes(max_dims=2, max_side=5))
        base = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, rows - 3 * step - 1)))
        w = data.draw(hnp.arrays(np.float64, (4,) + shape, elements=VALUES))
        trail = (slice(None),) * base.ndim + (None,) * (table.ndim - 1)
        want = (w[0][trail] * table[base] + w[1][trail] * table[base + step]
                + w[2][trail] * table[base + 2 * step] + w[3][trail] * table[base + 3 * step])
        assert np.array_equal(ch._read(table, base, w, step), want)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.data(), st.integers(3, 9), st.sampled_from([4, 8]))
    def test_x_refinement(self, data, Nx, refine):
        grid = data.draw(hnp.arrays(np.float64, (3, 2, Nx + 1), elements=VALUES))
        assert np.array_equal(ch._cubic_refine_x(grid, refine), loop_refine_x(grid, refine))

    @pytest.mark.parametrize("Nx", [8, 13, 32])
    def test_the_source_table_is_the_even_columns_of_the_mu_table(self, Nx):
        """Column q of the refinement by _SUBSTEPS has the bits of column 2 q
        of the one by _REFINE, the clamped end cells included."""
        Nt, n = 12, 3
        grid = np.random.default_rng(Nx).normal(size=(Nt, Nx + 1, n))
        src = ch._refine(grid, ch._SUBSTEPS).reshape(Nt + 4, n, -1)
        fine = ch._refine(grid, ch._REFINE).reshape(Nt + 4, n, -1)
        assert src.shape[-1] == ch._SUBSTEPS * Nx + 1
        assert src.tobytes() == np.ascontiguousarray(fine[..., ::2]).tobytes()


def one_at_a_time(fn, *item_ndim):
    """fn restricted to single items: raises on anything batched."""

    def single(*args):
        if [np.ndim(a) for a in args] != list(item_ndim):
            raise TypeError("one item at a time")
        return fn(*args)

    return single


def euler_problem(shift=0.0):
    spec = systems.quasilinear_euler_damping()
    h1 = systems.harmonic_signal([{"amplitude": 0.01}], T_STAR)
    h2 = systems.harmonic_signal([{"amplitude": 0.005, "phase": 1.0}], T_STAR)
    hs = [lambda t, h=h: h(np.asarray(t, dtype=float) - shift) for h in (h1, h2)]
    return spec, systems.two_gain_boundary(0.5, 0.5, hs[0], hs[1], T_STAR)


class TestLoopPath:
    def test_scalar_only_callables_match_the_broadcasting_builtins(self):
        spec, bspec = euler_problem()
        slow_spec = SystemSpec(n=2, m=1, A=one_at_a_time(spec.A, 1),
                               F=one_at_a_time(spec.F, 1), gradF=spec.gradF,
                               domain_radius=spec.domain_radius, L=spec.L)
        slow_bspec = bd.BoundarySpec(
            left_maps=[one_at_a_time(f, 0, 1) for f in bspec.left_maps],
            right_maps=[one_at_a_time(f, 0, 1) for f in bspec.right_maps],
            h=[one_at_a_time(h, 0) for h in bspec.h], T_star=T_STAR)
        cfg = ps.IterationConfig(Nt=16, Nx=16)
        fast, fast_rep = ps.solve_periodic(spec, bspec, cfg)
        slow, slow_rep = ps.solve_periodic(slow_spec, slow_bspec, cfg)
        assert slow_rep.iterations == fast_rep.iterations
        assert np.abs(slow.values - fast.values).max() <= 1e-15

        u0 = fast.values[0] + 0.002 * ivp.bump_profile(fast.x_nodes, spec.L)[:, None]
        runs = [ivp.run(u0, s, b, t_end=1.0, record_every=0.25)
                for s, b in ((spec, bspec), (slow_spec, slow_bspec))]
        assert len(runs[0].profiles) == len(runs[1].profiles) == 5
        for a, b in zip(runs[0].profiles, runs[1].profiles):
            assert np.abs(a - b).max() <= 1e-15

    def test_zero_width_outgoing_trace(self):
        # the scalar inflow map sees m = 0 outgoing components
        b = bd.BoundarySpec(left_maps=[one_at_a_time(lambda hv, u: 2.0 * hv, 0, 1)],
                            right_maps=[], h=[np.sin], T_star=2 * np.pi)
        ts = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = bd.eval_boundary(b, "left", ts, np.zeros((2, 2, 0)))
        assert np.array_equal(out[..., 0], 2.0 * np.sin(ts))


class TestProbe:
    @pytest.mark.parametrize("F", [
        lambda u: np.array([-0.5 * math.sin(u[0]), -0.5 * math.sin(u[1]), 0.0]),  # TypeError
        lambda u: -0.5 * u if u[0] > 0 else -0.25 * u,  # ValueError
        lambda u: -0.5 * np.array([u[2], u[1], u[0]]),  # IndexError: u[2] of a pair
    ])
    def test_a_callable_that_takes_one_item_is_looped_and_logged(self, F, caplog):
        probe = np.array([[0.01, 0.02, 0.03], [-0.03, 0.01, 0.02]])
        with caplog.at_level(logging.DEBUG, logger="periodic_hyp"):
            fn = batched(F, (probe,), (3,), "the source")
        assert "the source takes one item at a time" in caplog.text
        states = 0.01 * np.sin(np.arange(18.0)).reshape(3, 2, 3)
        want = np.array([F(u) for u in states.reshape(-1, 3)]).reshape(3, 2, 3)
        assert np.array_equal(fn(states), want)

    def test_another_error_of_the_batch_call_propagates(self):
        def F(u):
            if np.ndim(u) > 1:
                raise ZeroDivisionError("a fault in the batch path")
            return -0.5 * np.asarray(u)

        with pytest.raises(ZeroDivisionError, match="batch path"):
            SystemSpec(n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]), F=F,
                       domain_radius=0.1, L=1.0)

    @staticmethod
    def raises(exc):
        def fn(*args):
            raise exc("fails on every input")
        return fn

    def test_a_source_that_raises_on_every_input_is_refused(self):
        with pytest.raises(ValueError, match="fails on every input"):
            SystemSpec(n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]), F=self.raises(ValueError),
                       domain_radius=0.1, L=1.0)

    @pytest.mark.parametrize("exc", [TypeError, ValueError, IndexError])
    def test_a_map_or_signal_that_raises_on_every_input_is_refused(self, exc):
        with pytest.raises(exc, match="fails on every input"):
            systems.reflection_boundary(0.5, np.sin, self.raises(exc), 2 * np.pi)
        with pytest.raises(exc, match="fails on every input"):
            bd.BoundarySpec(left_maps=[self.raises(exc)], right_maps=[lambda hv, u: hv],
                            h=[np.sin, np.cos], T_star=2 * np.pi)

    def test_a_value_of_the_wrong_shape_on_one_item_is_refused(self):
        with pytest.raises(ValueError, match=r"SystemSpec.F returns on one item "
                                             r"another shape than \(2,\)"):
            SystemSpec(n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]), F=lambda u: np.zeros(3),
                       domain_radius=0.1, L=1.0)

    def test_a_looped_value_of_the_wrong_shape_on_any_item_is_refused(self):
        """The probe states lie inside |u_0| < 0.02; the loop checks every
        other state's value too, instead of broadcasting a scalar."""
        spec = SystemSpec(n=2, m=1, A=lambda u: np.array([-1.0, 1.0]),
                          F=lambda u: -0.5 * u if abs(u[0]) < 0.02 else -1.0,
                          domain_radius=0.03, L=1.0)
        assert np.array_equal(spec.F_at([[0.01, 0.02]]), [[-0.005, -0.01]])
        with pytest.raises(ValueError, match=r"SystemSpec.F returns on one item "
                                             r"another shape than \(2,\)"):
            spec.F_at([[0.025, 0.01]])

    def test_a_one_item_math_signal_is_looped(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="periodic_hyp"):
            b = systems.reflection_boundary(0.5, math.sin, math.cos, 2 * np.pi)
        assert "h[0] takes one item at a time" in caplog.text
        ts = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(b.h_values(0, ts), [math.sin(t) for t in ts])

    def test_a_wrongly_broadcasting_source_is_refused(self):
        with pytest.raises(ValueError, match="SystemSpec.F broadcasts wrongly"):
            SystemSpec(n=2, m=1, A=lambda u: np.diag([-1.0, 1.0]),
                       F=lambda u: -0.5 * u * u[0], domain_radius=0.1, L=1.0)

    def test_a_wrongly_broadcasting_map_or_signal_is_refused(self):
        # u[0] is the first outgoing value of one item, the first row of a batch
        with pytest.raises(ValueError, match="boundary map 1 broadcasts wrongly"):
            bd.BoundarySpec(left_maps=[lambda hv, u: hv + 0.5 * u[0]],
                            right_maps=[lambda hv, u: hv + 0.5 * u[..., 0]],
                            h=[np.sin, np.cos], T_star=2 * np.pi)
        with pytest.raises(ValueError, match=r"h\[1\] broadcasts wrongly"):
            systems.reflection_boundary(
                0.5, np.sin, lambda t: np.sin(t) * np.atleast_1d(t)[0], 2 * np.pi)

    def test_batched_path_checks_side_and_width(self):
        b = systems.reflection_boundary(0.5, np.sin, np.cos, 2 * np.pi)
        ts = np.zeros(3)
        with pytest.raises(ValueError, match="side"):
            bd.eval_boundary(b, "middle", ts, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="length 1"):
            bd.eval_boundary(b, "left", ts, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="length 1"):
            b.map_values(0, b.h_values(0, ts), np.zeros((3, 0)))


@functools.lru_cache(maxsize=None)
def _solved(steps: int) -> np.ndarray:
    Nt = 16
    spec, bspec = euler_problem(shift=steps * T_STAR / Nt)
    fld, rep = ps.solve_periodic(spec, bspec, ps.IterationConfig(Nt=Nt, Nx=Nt))
    assert rep.converged
    return fld.values


@settings(derandomize=True, max_examples=5, deadline=None)
@given(j=st.integers(min_value=1, max_value=15))
def test_forcing_shift_rolls_the_field(j):
    assert np.abs(_solved(j) - np.roll(_solved(0), j, axis=0)).max() <= 1e-13
