"""Source-field evaluators: analytic recipes, discrete fields, field file I/O."""
import warnings

import numpy as np
import pytest

from stgp import (AnalyticField, DiscreteField, MeshFormatError, PointLocator,
                  PointOutsideDomainError, SourceField, TemporalGrid, bind_field,
                  build_edge_table, generate_structured_mesh, read_field, sample_field,
                  write_field)
import stgp.fields
from stgp.fields import edge_circulations, locate_points, located_rows

from conftest import jittered_mesh, malformed_tables


def count_circular_maxima(series: np.ndarray) -> int:
    n = len(series)
    return sum(1 for i in range(n)
               if series[i] > series[i - 1] and series[i] > series[(i + 1) % n])


class TestAnalyticRecipes:
    def test_constant(self):
        f = AnalyticField("constant", vector=(1.0, 0.0))
        assert np.allclose(f.eval(np.array([0.3, 0.9]), 2.0), [1.0, 0.0])
        assert np.allclose(f.eval(np.array([-5.0, 7.0]), -1.0), [1.0, 0.0])

    def test_linear(self):
        f = AnalyticField("linear", matrix=[[1.0, 2.0], [0.0, -1.0]], offset=(0.5, 0.0))
        assert np.allclose(f.eval(np.array([1.0, 1.0]), 0.0), [3.5, -1.0])

    def test_poly_time_quadratic(self):
        f = AnalyticField("poly-time", vector=(2.0, 0.0), coeffs=(0.0, 0.0, 1.0))
        assert np.allclose(f.eval(np.array([0.1, 0.1]), 3.0), [18.0, 0.0])  # 9 x pattern

    def test_sinusoid(self):
        f = AnalyticField("sinusoid", wavenumber=np.pi, amplitude=2.0)
        value = f.eval(np.array([0.5, 0.25]), 0.0)
        assert np.allclose(value, [2.0 * np.sin(np.pi * 0.25), 2.0 * np.sin(np.pi * 0.5)])

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError, match="unknown analytic field"):
            AnalyticField("vortex", strength=1.0)

    def test_batch_matches_scalar_eval(self):
        f = AnalyticField("rotating-multipole", pole_pairs=3, amplitude=1.5, omega=2.0,
                          center=(0.2, 0.1), modulation=0.25)
        x = np.array([0.8, 0.7])
        ts = np.linspace(0.0, 3.0, 17)
        batch, inside = f.eval_time_batch(x, ts)
        assert inside
        for t, row in zip(ts, batch):
            assert np.allclose(row, f.eval(x, float(t)))


class TestAnalyticParameters:
    """Each kind checks its parameters when built; a ValueError names the parameter."""

    @pytest.mark.parametrize("kind, dim, params, name", [
        ("constant", 2, dict(), "vector"),
        ("constant", 2, dict(vector=(1.0, 0.0, 0.0)), "vector"),
        ("constant", 3, dict(vector=(1.0, np.nan, 0.0)), "vector"),
        ("linear", 2, dict(matrix=[1.0, 2.0, 3.0]), "matrix"),
        ("linear", 2, dict(matrix=[[1.0, 0.0], [0.0, np.inf]]), "matrix"),
        ("linear", 2, dict(matrix=np.eye(2), offset=(0.5,)), "offset"),
        ("linear", 3, dict(matrix=np.eye(3), offset=(0.5, 0.5)), "offset"),
        ("poly-time", 2, dict(vector=(1.0, 0.0), coeffs=()), "coeffs"),
        ("poly-time", 2, dict(vector=(1.0, 0.0), coeffs=(1.0, -np.inf)), "coeffs"),
        ("poly-time", 2, dict(vector=(1.0,), coeffs=(1.0,)), "vector"),
        ("sinusoid", 2, dict(wavenumber=np.nan), "wavenumber"),
        ("sinusoid", 2, dict(wavenumber=1.0, amplitude=(1.0, 2.0)), "amplitude"),
        ("rotating-multipole", 2, dict(pole_pairs=2, omega=1.0, center=(0.0, 0.0, 1.0)), "center"),
        ("rotating-multipole", 2, dict(pole_pairs=0, omega=1.0), "pole_pairs"),
        ("rotating-multipole", 2, dict(pole_pairs=2.5, omega=1.0), "pole_pairs"),
        ("rotating-multipole", 2, dict(pole_pairs=2, omega=np.inf), "omega"),
        ("rotating-multipole", 2, dict(pole_pairs=2, omega=1.0, modulation=np.nan), "modulation"),
        ("rotating-multipole", 2, dict(pole_pairs=2, omega=1.0, amplitude="loud"), "amplitude"),
        ("rotating-multipole", 2, dict(pole_pairs=2), "omega"),
    ])
    def test_bad_parameter_named(self, kind, dim, params, name):
        with pytest.raises(ValueError, match=f"'{name}'"):
            AnalyticField(kind, dim=dim, **params)

    @pytest.mark.parametrize("dim", [0, 1, 4, -2])
    @pytest.mark.parametrize("kind, params", [
        ("constant", dict(vector=(1.0,))),
        ("linear", dict(matrix=[1.0])),
        ("sinusoid", dict(wavenumber=1.0)),
        ("unknown", dict()),
    ])
    def test_dim_outside_two_three_rejected_first(self, kind, params, dim):
        with pytest.raises(ValueError, match=f"^dim must be 2 or 3, got {dim}$"):
            AnalyticField(kind, dim=dim, **params)

    def test_flat_and_nested_matrix_agree(self):
        x = np.array([0.3, -0.7])
        nested = AnalyticField("linear", matrix=[[1.0, 2.0], [0.5, -1.0]], offset=(0.5, 0.25))
        flat = AnalyticField("linear", matrix=[1.0, 2.0, 0.5, -1.0], offset=(0.5, 0.25))
        assert np.array_equal(nested.eval(x, 0.0), flat.eval(x, 0.0))


ANALYTIC_KINDS = {
    "constant": dict(vector=(1.0, -0.5)),
    "linear": dict(matrix=[[1.0, 2.0], [0.5, -1.0]], offset=(0.5, 0.25)),
    "poly-time": dict(vector=(2.0, 1.0), coeffs=(0.5, -1.0, 3.0)),
    "sinusoid": dict(wavenumber=np.pi, amplitude=2.0),
    "rotating-multipole": dict(pole_pairs=3, amplitude=1.5, omega=2.0, center=(0.2, 0.1),
                               modulation=0.25),
}


class TestEvalPoints:
    @pytest.mark.parametrize("kind", sorted(ANALYTIC_KINDS))
    def test_analytic_matches_per_point(self, kind, jitter_rng):
        f = AnalyticField(kind, **ANALYTIC_KINDS[kind])
        points = jitter_rng.uniform(-1.0, 2.0, size=(13, 2))
        ts = np.linspace(-0.5, 3.0, 11)
        values, inside = f.eval_points(points, ts)
        assert values.shape == (13, 11, 2)
        assert inside.dtype == bool and inside.all()
        stacked = np.array([f.eval_time_batch(x, ts)[0] for x in points])
        np.testing.assert_allclose(values, stacked, rtol=1e-14, atol=1e-15)

    def _field(self, rng):
        mesh = jittered_mesh("unit-square-tri", 3, rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 0.3, 0.45, 1.0]))
        return DiscreteField(mesh, table, grid, rng.standard_normal((table.edge_count, 4)))

    def test_discrete_matches_per_point(self, jitter_rng):
        field = self._field(jitter_rng)
        snapped = [[1.0 + 1e-12, 0.4], [0.3, -1e-12]]   # within the snap distance of the boundary
        points = np.concatenate([jitter_rng.uniform(0.0, 1.0, size=(9, 2)), snapped,
                                 [[3.0, 3.0], [-0.5, 0.5]]])
        ts = np.array([0.0, 0.2, 0.3, 0.7, 1.0])
        for x, status in zip(points[-4:], ("snapped", "snapped", "outside", "outside")):
            assert field.locator.locate(x).status == status
        values, inside = field.eval_points(points, ts)
        assert values.shape == (13, 5, 2)
        assert np.array_equal(inside, [True] * 11 + [False] * 2)
        assert np.all(values[~inside] == 0.0)
        stacked = [field.eval_time_batch(x, ts) for x in points]
        np.testing.assert_allclose(values, np.array([v for v, _ in stacked]), rtol=1e-14, atol=1e-15)
        assert [flag for _, flag in stacked] == inside.tolist()

        strict, strict_inside = field.eval_points(points[:11], ts, policy="strict")
        assert strict_inside.all()
        assert np.array_equal(strict, values[:11])

    def test_discrete_strict_raises_for_first_outside_point(self, jitter_rng):
        field = self._field(jitter_rng)
        points = np.array([[0.5, 0.5], [-0.5, 0.5], [0.2, 0.2], [3.0, 3.0]])
        with pytest.raises(PointOutsideDomainError) as info:
            field.eval_points(points, np.array([0.5]), policy="strict")
        assert np.array_equal(info.value.point, [-0.5, 0.5])

    def test_discrete_non_finite_points_are_outside(self, jitter_rng):
        field = self._field(jitter_rng)
        points = np.array([[0.5, 0.5], [np.nan, 0.5], [0.5, np.inf], [-np.inf, np.nan], [0.2, 0.2]])
        ts = np.array([0.1, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside, _, _ = locate_points(field.locator, points)
            values, flags = field.eval_points(points, ts)
            with pytest.raises(PointOutsideDomainError) as info:
                field.eval_points(points, ts, policy="strict")
        assert inside.tolist() == [True, False, False, False, True]
        assert flags.tolist() == inside.tolist()
        assert np.all(values[~inside] == 0.0) and np.all(np.isfinite(values))
        assert np.array_equal(values[inside], field.eval_points(points[inside], ts)[0])
        assert np.array_equal(info.value.point, [np.nan, 0.5], equal_nan=True)

    def test_discrete_is_located_rows_times_time_factors(self, jitter_rng):
        field = self._field(jitter_rng)
        snapped = [[1.0 + 1e-12, 0.4], [0.3, -1e-12]]
        outside = [[3.0, 3.0], [-0.5, 0.5]]
        points = np.concatenate([jitter_rng.uniform(0.0, 1.0, size=(6, 2)), snapped, outside])
        ts = np.concatenate([field.grid.times, jitter_rng.uniform(*field.grid.span, size=7)])
        inside, elements, lam = locate_points(field.locator, points)
        assert inside.tolist() == [True] * 8 + [False] * 2
        with pytest.raises(PointOutsideDomainError) as info:
            locate_points(field.locator, points, policy="strict")
        assert np.array_equal(info.value.point, outside[0])
        rows, outside_count = located_rows(field, inside, elements, lam, slice(None))  # (P*d, N_s)
        assert rows.shape == (len(points) * 2, field.grid.n_steps) and outside_count == 2
        assert np.all(rows[16:] == 0.0)
        hats = field.time_factors(ts)
        assert hats.shape == (field.grid.n_steps, len(ts))
        product = np.swapaxes((rows @ hats).reshape(len(points), 2, len(ts)), 1, 2)
        for policy, count in (("zero", len(points)), ("strict", 8)):
            values, flags = field.eval_points(points[:count], ts, policy=policy)
            assert np.array_equal(flags, inside[:count])
            assert np.array_equal(values, product[:count])
            stacked = [field.eval_time_batch(x, ts, policy=policy) for x in points[:count]]
            assert np.array_equal(values, np.array([v for v, _ in stacked]))
            assert [flag for _, flag in stacked] == flags.tolist()
        # A slice of the points gives the same rows as slicing all of them, and counts its own
        # points outside.
        for points_slice, count in ((slice(3, 8), 0), (slice(3, 9), 1), (slice(7, 10), 2)):
            sliced, sliced_count = located_rows(field, inside, elements, lam, points_slice)
            assert np.array_equal(sliced, rows[2 * points_slice.start:2 * points_slice.stop])
            assert sliced_count == count

    def test_base_class_without_an_implementation_raises(self):
        with pytest.raises(NotImplementedError):
            SourceField().eval_points(np.array([[0.5, 0.5]]), np.array([0.5]))

    @pytest.mark.parametrize("discrete", [False, True])
    def test_unknown_policy_rejected(self, discrete, jitter_rng):
        field = self._field(jitter_rng) if discrete else AnalyticField("constant", vector=(1.0, 0.0))
        with pytest.raises(ValueError, match="'stirct'"):
            field.eval_points(np.array([[0.5, 0.5]]), np.array([0.5]), policy="stirct")
        with pytest.raises(ValueError, match="'stirct'"):
            field.eval(np.array([0.5, 0.5]), 0.5, policy="stirct")


class TestRotatingMultipole:
    """Desk-scale analog of a 12-pole machine: p = 6 pole pairs."""

    def test_probe_series_has_12_peaks_per_revolution(self):
        # one mechanical revolution = 2*pi/omega; a 6-pole-pair pattern sweeps
        # 12 poles past a fixed probe, so |H|^2 pulses 12 times
        omega = 2 * np.pi
        f = AnalyticField("rotating-multipole", pole_pairs=6, amplitude=1.0,
                          omega=omega, center=(0.0, 0.0), modulation=0.3)
        probe = np.array([0.8, 0.15])
        ts = np.linspace(0.0, 1.0, 241)[:-1]  # one revolution, open interval
        values, _ = f.eval_time_batch(probe, ts)
        s = np.einsum("td,td->t", values, values)
        assert count_circular_maxima(s) == 12

    def test_probe_series_fundamental_period_is_one_revolution(self):
        # with modulation on, |H|^2 repeats only after a full revolution
        omega = 2 * np.pi
        f = AnalyticField("rotating-multipole", pole_pairs=6, amplitude=1.0,
                          omega=omega, center=(0.0, 0.0), modulation=0.3)
        probe = np.array([0.5, 0.4])
        ts = np.linspace(0.0, 1.0, 600, endpoint=False)
        values, _ = f.eval_time_batch(probe, ts)
        s = np.einsum("td,td->t", values, values)
        spectrum = np.abs(np.fft.rfft(s))
        nonzero = np.nonzero(spectrum[1:] > 1e-9 * len(ts))[0] + 1
        assert nonzero[0] == 1  # fundamental at 1 cycle per revolution

    def test_field_is_radial_about_center(self):
        f = AnalyticField("rotating-multipole", pole_pairs=2, amplitude=1.0, omega=1.0)
        x = np.array([0.6, 0.8])
        value = f.eval(x, 0.37)
        r_hat = x / np.linalg.norm(x)
        assert abs(value[0] * r_hat[1] - value[1] * r_hat[0]) < 1e-14


class TestDiscreteField:
    def test_constant_reproduction_anywhere(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 0.4, 1.0]))
        c = np.array([0.7, -0.3])
        circ = edge_circulations(mesh, table, lambda p: c)
        field = DiscreteField(mesh, table, grid, np.tile(circ[:, None], (1, 3)))
        for _ in range(20):
            x = jitter_rng.uniform(0.05, 0.95, size=2)
            t = jitter_rng.uniform(0.0, 1.0)
            assert np.allclose(field.eval(x, t), c, atol=1e-12)

    def test_temporal_linear_interpolation_factor(self, square_mesh_2):
        # dof value j at every edge for step j: halfway between steps 1 and 2
        # the temporal factor is 1.5 times the unit-dof spatial interpolation
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0, 2.0, 3.0]))
        dofs = np.tile(np.arange(4.0), (table.edge_count, 1))
        field = DiscreteField(square_mesh_2, table, grid, dofs)
        ones = DiscreteField(square_mesh_2, table, grid,
                             np.ones((table.edge_count, 4)))
        x = np.array([0.3, 0.6])
        assert np.allclose(field.eval(x, 1.5), 1.5 * ones.eval(x, 1.5), atol=1e-13)

    def test_zero_dofs_zero_everywhere(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        field = DiscreteField(square_mesh_2, table, grid,
                              np.zeros((table.edge_count, 2)))
        assert np.allclose(field.eval(np.array([0.2, 0.8]), 0.5), 0.0)

    def test_linearity_in_dofs(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 1.0, 2.5]))
        d1 = jitter_rng.standard_normal((table.edge_count, 3))
        d2 = jitter_rng.standard_normal((table.edge_count, 3))
        alpha, beta = 1.7, -0.4
        f1 = DiscreteField(mesh, table, grid, d1)
        f2 = DiscreteField(mesh, table, grid, d2)
        f12 = DiscreteField(mesh, table, grid, alpha * d1 + beta * d2)
        for _ in range(10):
            x = jitter_rng.uniform(0.1, 0.9, size=2)
            t = jitter_rng.uniform(0.0, 2.5)
            assert np.allclose(f12.eval(x, t),
                               alpha * f1.eval(x, t) + beta * f2.eval(x, t), atol=1e-12)

    def test_nodal_exactness_uses_single_step(self, square_mesh_2, jitter_rng):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0, 2.0]))
        dofs = jitter_rng.standard_normal((table.edge_count, 3))
        field = DiscreteField(square_mesh_2, table, grid, dofs)
        x = np.array([0.4, 0.3])
        for j in (0, 1, 2):
            only_j = np.zeros_like(dofs)
            only_j[:, j] = dofs[:, j]
            partial = DiscreteField(square_mesh_2, table, grid, only_j)
            assert np.allclose(field.eval(x, float(j)), partial.eval(x, float(j)), atol=1e-14)

    def test_tangential_continuity_across_shared_edge(self, two_triangle_square, jitter_rng):
        table = build_edge_table(two_triangle_square)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        dofs = jitter_rng.standard_normal((table.edge_count, 2))
        field = DiscreteField(two_triangle_square, table, grid, dofs)
        # points on the shared diagonal from (0,0) to (1,1); evaluate each side
        from stgp.basis import whitney_local
        grads = two_triangle_square.grads
        tangent = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for s in (0.25, 0.5, 0.75):
            values = []
            for e in (0, 1):
                verts = two_triangle_square.nodes[two_triangle_square.elements[e]]
                origin, inv_edges = verts[0], np.linalg.inv((verts[1:] - verts[0]).T)
                p = np.array([s, s])
                lam1 = inv_edges @ (p - origin)
                lam = np.concatenate([[1 - lam1.sum()], lam1])
                w = whitney_local(2, grads[e], table.element_signs[e], lam[None])[0]
                values.append(dofs[table.element_edges[e], 0] @ w)
            assert abs((values[0] - values[1]) @ tangent) < 1e-10

    def test_outside_policy_zero_counts(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        field = DiscreteField(square_mesh_2, table, grid,
                              np.ones((table.edge_count, 2)))
        values, inside = field.eval_time_batch(np.array([3.0, 3.0]), np.array([0.5]))
        assert not inside
        assert np.allclose(values, 0.0)

    def test_outside_policy_strict_raises(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        field = DiscreteField(square_mesh_2, table, grid,
                              np.ones((table.edge_count, 2)))
        with pytest.raises(PointOutsideDomainError, match="3.0"):
            field.eval(np.array([3.0, 3.0]), 0.5, policy="strict")

    def test_time_outside_span_always_rejected(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        field = DiscreteField(square_mesh_2, table, grid,
                              np.ones((table.edge_count, 2)))
        with pytest.raises(ValueError, match="source span"):
            field.eval(np.array([0.5, 0.5]), 1.5)

    def test_leaves_the_callers_array_writeable(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        dofs = np.ones((table.edge_count, 2))
        field = DiscreteField(square_mesh_2, table, grid, dofs)
        assert dofs.flags.writeable and not field.dofs.flags.writeable
        assert np.shares_memory(field.dofs, dofs)  # read without copying
        dofs[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            field.dofs[0, 0] = 3.0

    def test_dof_shape_mismatch_rejected(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="does not match"):
            DiscreteField(square_mesh_2, table, grid, np.ones((3, 2)))

    def test_rejects_locator_of_another_mesh(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        other = generate_structured_mesh("unit-square-tri", 3, 1.0)
        with pytest.raises(ValueError, match="different mesh"):
            DiscreteField(square_mesh_2, table, grid, np.ones((table.edge_count, 2)),
                          locator=PointLocator(other))

    def test_sample_field_matches_circulations_per_time(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.0, 0.4, 5))
        analytic = AnalyticField("rotating-multipole", pole_pairs=2, omega=2 * np.pi,
                                 center=(0.5, 0.5), modulation=0.3)
        field = sample_field(analytic, mesh, table, grid)
        for j, t in enumerate(grid.times):
            circ = edge_circulations(mesh, table, lambda p: analytic.eval(p, float(t)))
            assert np.max(np.abs(field.dofs[:, j] - circ)) < 1e-14 * np.max(np.abs(circ))

    def test_circulations_reject_an_edge_table_of_another_mesh(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 4, jitter_rng)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        analytic = AnalyticField("constant", vector=(1.0, 0.5))
        calls = []

        def func(p):
            calls.append(p)
            return analytic.eval(p, 0.0)

        coarser = generate_structured_mesh("unit-square-tri", 3, 1.0)
        # Each mesh with the other's table: too few edges one way, too many the other.
        cases = [(mesh, build_edge_table(coarser)), (coarser, build_edge_table(mesh))]
        cases += [(mesh, table) for table in malformed_tables(mesh, jitter_rng).values()]
        for target, table in cases:
            with pytest.raises(ValueError, match="the edge table was built for another mesh"):
                edge_circulations(target, table, func)
            with pytest.raises(ValueError, match="the edge table was built for another mesh"):
                sample_field(analytic, target, table, grid)
        assert not calls  # checked before any circulation is evaluated

    def test_sample_field_checks_the_edge_table_once(self, jitter_rng, monkeypatch):
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.0, 0.4, 3))
        calls = []
        original = stgp.fields.check_edge_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(stgp.fields, "check_edge_table", counting)
        field = sample_field(AnalyticField("constant", vector=(1.0, 0.5)), mesh, table, grid)
        assert len(calls) == 1
        assert field.dofs.shape == (table.edge_count, 3) and not field.dofs.flags.writeable

        class NotFinite(SourceField):
            dim = 2

            def eval_points(self, points, ts, policy="zero"):
                return np.full((len(points), len(ts), 2), np.nan), np.ones(len(points), dtype=bool)

        with pytest.raises(ValueError, match="dofs must be finite"):
            sample_field(NotFinite(), mesh, table, grid)

    def test_sample_field_reproduces_analytic_at_nodes(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 0.5, 1.0]))
        analytic = AnalyticField("poly-time", vector=(1.0, 2.0), coeffs=(1.0, 1.0))
        field = sample_field(analytic, square_mesh_2, table, grid)
        x = np.array([0.3, 0.7])
        for t in grid.times:
            assert np.allclose(field.eval(x, float(t)), analytic.eval(x, float(t)), atol=1e-12)


CANONICAL_FIELD = """stgp-field 1
mesh demo.stgp
edges 3 steps 2
times 0.0 1.0
1.0 2.0
3.0 4.0
5.0 6.0
"""


class TestFieldIO:
    def test_read_canonical(self):
        ff = read_field(CANONICAL_FIELD)
        assert ff.mesh_name == "demo.stgp"
        assert ff.dofs.shape == (3, 2)
        assert ff.dofs.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_write_read_round_trip_byte_identical(self):
        ff = read_field(CANONICAL_FIELD)
        assert write_field(ff.mesh_name, ff.times, ff.dofs) == CANONICAL_FIELD

    @pytest.mark.parametrize("name", ["", "a b.stgp", "a\tb", "m.stgp\n", "a\u2028b", "a#b.stgp"],
                             ids=["empty", "space", "tab", "newline", "line-separator", "hash"])
    def test_mesh_name_that_would_not_read_back_rejected(self, name):
        ff = read_field(CANONICAL_FIELD)
        with pytest.raises(ValueError, match="would not read back"):
            write_field(name, ff.times, ff.dofs)

    @pytest.mark.parametrize("name", ["m.stgp", "dir/m.stgp", "mesh", "\u00e9t\u00e9.stgp"])
    def test_mesh_name_reads_back_as_itself(self, name):
        ff = read_field(CANONICAL_FIELD)
        assert read_field(write_field(name, ff.times, ff.dofs)).mesh_name == name

    def test_non_monotone_times_rejected(self):
        text = CANONICAL_FIELD.replace("times 0.0 1.0", "times 0 0")
        with pytest.raises(MeshFormatError, match="strictly increasing"):
            read_field(text)

    def test_short_row_names_line(self):
        text = CANONICAL_FIELD.replace("3.0 4.0", "3.0")
        with pytest.raises(MeshFormatError, match="line 6"):
            read_field(text)

    @pytest.mark.parametrize("old, new, line", [
        ("times 0.0 1.0", "times nan 1.0", 4),
        ("times 0.0 1.0", "times 0.0 inf", 4),
        ("3.0 4.0", "3.0 nan", 6),
        ("5.0 6.0", "-inf 6.0", 7),
    ], ids=["nan-time", "inf-time", "nan-dof", "inf-dof"])
    def test_non_finite_value_names_line(self, old, new, line):
        with pytest.raises(MeshFormatError, match="finite") as err:
            read_field(CANONICAL_FIELD.replace(old, new))
        assert err.value.line == line

    def test_bind_checks_edge_count(self):
        mesh = generate_structured_mesh("unit-square-tri", 1, 1.0)
        table = build_edge_table(mesh)  # 5 edges
        ff = read_field(CANONICAL_FIELD)  # 3 rows
        with pytest.raises(ValueError, match="3 edge rows"):
            bind_field(ff, mesh, table)

    def test_bind_and_eval(self, jitter_rng):
        mesh = generate_structured_mesh("unit-square-tri", 2, 1.0)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 2.0]))
        dofs = jitter_rng.standard_normal((table.edge_count, 2))
        text = write_field("m.stgp", grid.times, dofs)
        field = bind_field(read_field(text), mesh, table)
        direct = DiscreteField(mesh, table, grid, dofs)
        x = np.array([0.6, 0.2])
        assert np.allclose(field.eval(x, 1.3), direct.eval(x, 1.3), atol=1e-15)


class TestSourceTimeSpan:
    def test_nan_time_rejected(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        field = DiscreteField(square_mesh_2, table, TemporalGrid(np.array([0.0, 1.0])),
                              np.ones((table.edge_count, 2)))
        with pytest.raises(ValueError, match="outside the source span"):
            field.eval_points(np.array([[0.5, 0.5]]), np.array([0.5, np.nan]))

    def test_time_factors_reject_a_time_outside_the_grid(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        field = DiscreteField(square_mesh_2, table, TemporalGrid(np.linspace(0.0, 1.0, 5)),
                              np.ones((table.edge_count, 5)))
        for bad in (2.0, -0.5, 1.0 + 1e-9, np.nan):
            with pytest.raises(ValueError, match="outside the source span"):
                field.time_factors([0.5, bad])
        # Round-off beyond either end is inside the span.
        assert field.time_factors([-1e-13, 1.0 + 1e-13]).shape == (5, 2)
        # A bad time is reported before an outside point.
        with pytest.raises(ValueError, match="outside the source span"):
            field.eval_points(np.array([[3.0, 3.0]]), np.array([2.0]), policy="strict")
