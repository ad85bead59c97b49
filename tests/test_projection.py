"""End-to-end projection: identities, error norm, field evaluation, probes."""
import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest

from stgp import (AnalyticField, DiscreteField, Mesh, PointLocator, ProjectionProblem,
                  SolverConfig, TemporalGrid, apply_operator, assemble_spatial_mass,
                  assemble_temporal_gram, build_edge_table, error_norm, eval_projected,
                  generate_structured_mesh, probe_timeseries, project, sample_field,
                  simplex_quadrature)
from stgp import assembly
from stgp.fields import edge_circulations, locate_points
from stgp.solver import SolverNonConvergence

from conftest import jittered_mesh


def make_problem(mesh, grid, source, **kwargs):
    return ProjectionProblem(mesh=mesh, edge_table=build_edge_table(mesh),
                             grid=grid, source=source, **kwargs)


class TestProjectIdentities:
    def test_self_projection_recovers_source_dofs(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 5))
        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        source = DiscreteField(mesh, table, grid, dofs)
        result = project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid,
                                           source=source))
        assert np.linalg.norm(result.dofs - dofs) / np.linalg.norm(dofs) <= 1e-8
        assert result.relative_error <= 1e-8

    @pytest.mark.parametrize("jitter", [False, True], ids=["plain", "jittered"])
    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 3), ("unit-cube-tet", 2)])
    def test_self_projection_error_at_round_off(self, kind, n, jitter, jitter_rng):
        # The error squares the local difference at each sample. The expanded
        # form, |X|^2 - 2 <X, Y> + |Y|^2, would cancel and floor the relative
        # error near 1e-8, which the 1e-8 bounds above cannot tell apart.
        mesh = (jittered_mesh(kind, n, jitter_rng) if jitter
                else generate_structured_mesh(kind, n, 1.0))
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 4))
        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        result = project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid,
                                           source=DiscreteField(mesh, table, grid, dofs)))
        assert result.relative_error <= 1e-13

    def test_constant_source_reproduced_on_any_target(self, jitter_rng):
        source = AnalyticField("constant", vector=(1.0, 0.0))
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        grid = TemporalGrid(np.array([0.0, 0.5, 1.0]))
        result = project(make_problem(mesh, grid, source))
        table = build_edge_table(mesh)
        locator = PointLocator(mesh)
        for _ in range(25):
            x = jitter_rng.uniform(0.05, 0.95, size=2)
            t = jitter_rng.uniform(0.0, 1.0)
            value = eval_projected(result.dofs, mesh, table, locator, grid, x, float(t))
            assert np.max(np.abs(value - [1.0, 0.0])) <= 1e-8

    def test_zero_source_gives_zero(self, square_mesh_2):
        source = AnalyticField("constant", vector=(0.0, 0.0))
        grid = TemporalGrid(np.array([0.0, 1.0]))
        result = project(make_problem(square_mesh_2, grid, source))
        assert np.all(result.dofs == 0.0)
        assert result.error == 0.0
        assert result.relative_error == 0.0
        assert result.report.iterations == 0

    def test_projection_linear_in_source(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 4))
        d1 = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        d2 = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        alpha, beta = 2.0, -0.5
        results = []
        for d in (d1, d2, alpha * d1 + beta * d2):
            source = DiscreteField(mesh, table, grid, d)
            results.append(project(ProjectionProblem(mesh=mesh, edge_table=table,
                                                     grid=grid, source=source)).dofs)
        combo = alpha * results[0] + beta * results[1]
        scale = np.linalg.norm(results[2])
        assert np.linalg.norm(results[2] - combo) <= 1e-9 * max(scale, 1.0)

    def test_global_mu_scaling_leaves_dofs_unchanged(self, jitter_rng):
        base = jittered_mesh("unit-square-tri", 2, jitter_rng)
        scaled = Mesh(dim=2, nodes=base.nodes, elements=base.elements, mu=37.0 * base.mu)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 3))
        source = AnalyticField("sinusoid", wavenumber=np.pi)
        x1 = project(make_problem(base, grid, source)).dofs
        x2 = project(make_problem(scaled, grid, source)).dofs
        assert np.linalg.norm(x1 - x2) / np.linalg.norm(x1) <= 1e-9

    def test_galerkin_residual_bound(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 4))
        source = AnalyticField("rotating-multipole", pole_pairs=2, amplitude=1.0,
                               omega=2 * np.pi, center=(0.5, 0.5), modulation=0.2)
        tol = 1e-10
        result = project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid,
                                           source=source, solver=SolverConfig(tol=tol)))
        from stgp import assemble_source_matrix
        a = assemble_spatial_mass(mesh, table)
        b = assemble_temporal_gram(grid)
        c, _ = assemble_source_matrix(mesh, table, grid, source)
        residual = np.linalg.norm(apply_operator(a, b, result.dofs) - c)
        assert residual <= 10 * tol * np.linalg.norm(c)

    def test_best_approximation_under_nested_refinement(self):
        source = AnalyticField("sinusoid", wavenumber=np.pi)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        errors = []
        for n in (2, 4, 8):  # nested: each triangle splits into four
            mesh = generate_structured_mesh("unit-square-tri", n, 1.0)
            errors.append(project(make_problem(mesh, grid, source)).error)
        assert errors[1] <= errors[0] * (1 + 1e-10)
        assert errors[2] <= errors[1] * (1 + 1e-10)

    def test_best_approximation_under_nested_time_refinement(self):
        source = AnalyticField("poly-time", vector=(1.0, 0.0), coeffs=(0.0, 0.0, 1.0))
        mesh = generate_structured_mesh("unit-square-tri", 2, 1.0)
        errors = []
        for n in (3, 5, 9):  # midpoint insertion keeps grids nested
            grid = TemporalGrid(np.linspace(0.0, 1.0, n))
            errors.append(project(make_problem(mesh, grid, source,
                                               time_quad_points=3)).error)
        assert errors[1] <= errors[0] * (1 + 1e-10)
        assert errors[2] <= errors[1] * (1 + 1e-10)

    def test_energy_bound(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 3))
        source = AnalyticField("sinusoid", wavenumber=2 * np.pi)
        result = project(make_problem(mesh, grid, source))
        assert 0.0 <= result.error <= result.source_energy

    def test_span_violation_rejected(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        src_grid = TemporalGrid(np.array([0.0, 0.5]))
        source = DiscreteField(square_mesh_2, table, src_grid,
                               np.ones((table.edge_count, 2)))
        grid = TemporalGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="source span"):
            project(ProjectionProblem(mesh=square_mesh_2, edge_table=table,
                                      grid=grid, source=source))

    def test_nonconvergence_fatal_by_default(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 3))
        source = AnalyticField("sinusoid", wavenumber=np.pi)
        with pytest.raises(SolverNonConvergence):
            project(make_problem(mesh, grid, source,
                                 solver=SolverConfig(tol=1e-20, max_iterations=1)))
        result = project(make_problem(mesh, grid, source,
                                      solver=SolverConfig(tol=1e-20, max_iterations=1),
                                      allow_nonconverged=True))
        assert not result.report.converged


class TestErrorNorm:
    def test_exact_representation_scores_zero(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        vec = np.array([0.4, 0.9])
        circ = edge_circulations(mesh, table, lambda p: vec)
        dofs = np.tile(circ[:, None], (1, 2))
        source = DiscreteField(mesh, table, grid, dofs)
        err, energy = error_norm(mesh, table, grid, source, dofs)
        assert energy > 0.0
        assert err <= 1e-12 * energy

    def test_zero_trial_scores_source_energy(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = AnalyticField("constant", vector=(2.0, 0.0))
        zero = np.zeros((table.edge_count, 2))
        err, energy = error_norm(mesh, table, grid, source, zero)
        assert abs(err - energy) <= 1e-13 * energy
        # analytic check: energy = mu/2 |H|^2 * area * span = 0.5 * 4 * 1 * 1,
        # with jittered mu averaging differently; use uniform mesh for the value
        uniform = generate_structured_mesh("unit-square-tri", 2, 1.0)
        t2 = build_edge_table(uniform)
        _, e2 = error_norm(uniform, t2, grid, source, np.zeros((t2.edge_count, 2)))
        assert abs(e2 - 2.0) < 1e-12

    def test_minimality_of_converged_solution(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 3))
        source = AnalyticField("sinusoid", wavenumber=np.pi)
        result = project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid,
                                           source=source))
        base_err, _ = error_norm(mesh, table, grid, source, result.dofs)
        for _ in range(10):
            i = int(jitter_rng.integers(table.edge_count))
            j = int(jitter_rng.integers(grid.n_steps))
            perturbed = result.dofs.copy()
            perturbed[i, j] += 1e-3
            err, _ = error_norm(mesh, table, grid, source, perturbed)
            assert err > base_err


class TestEvalProjected:
    def test_nodal_time_uses_single_column(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 1.0, 2.0]))
        locator = PointLocator(mesh)
        dofs = jitter_rng.standard_normal((table.edge_count, 3))
        x = np.array([0.4, 0.6])
        for j in (0, 1, 2):
            masked = np.zeros_like(dofs)
            masked[:, j] = dofs[:, j]
            full = eval_projected(dofs, mesh, table, locator, grid, x, float(j))
            only = eval_projected(masked, mesh, table, locator, grid, x, float(j))
            assert np.allclose(full, only, atol=1e-14)

    def test_zero_dofs_zero_value(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        locator = PointLocator(square_mesh_2)
        value = eval_projected(np.zeros((table.edge_count, 2)), square_mesh_2, table,
                               locator, grid, np.array([0.3, 0.3]), 0.5)
        assert np.all(value == 0.0)

    def test_outside_point_rejected(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        locator = PointLocator(square_mesh_2)
        with pytest.raises(ValueError, match="outside the target mesh"):
            eval_projected(np.zeros((table.edge_count, 2)), square_mesh_2, table,
                           locator, grid, np.array([5.0, 5.0]), 0.5)

    @pytest.mark.parametrize("x", [[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]])
    def test_non_finite_point_rejected(self, square_mesh_2, x):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        locator = PointLocator(square_mesh_2)
        dofs = np.ones((table.edge_count, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the target mesh"):
                eval_projected(dofs, square_mesh_2, table, locator, grid, np.array(x), 0.5)
            with pytest.raises(ValueError, match="outside the target mesh"):
                probe_timeseries(dofs, square_mesh_2, table, locator, grid, np.array(x), 4)

    def test_time_outside_span_rejected(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        locator = PointLocator(square_mesh_2)
        with pytest.raises(ValueError, match="span"):
            eval_projected(np.zeros((table.edge_count, 2)), square_mesh_2, table,
                           locator, grid, np.array([0.5, 0.5]), 2.0)


class TestProbeTimeseries:
    def test_constant_field_gives_flat_series(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 4))
        source = AnalyticField("constant", vector=(0.3, 0.7))
        result = project(make_problem(mesh, grid, source))
        table = build_edge_table(mesh)
        locator = PointLocator(mesh)
        ts, values = probe_timeseries(result.dofs, mesh, table, locator, grid,
                                      np.array([0.41, 0.33]), 50)
        assert len(ts) == 50
        assert np.max(np.abs(values - [0.3, 0.7])) < 1e-9
        assert np.max(np.abs(values - values[0])) < 1e-9

    def test_two_samples_are_span_endpoints(self, square_mesh_2, jitter_rng):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.25, 1.75]))
        locator = PointLocator(square_mesh_2)
        dofs = jitter_rng.standard_normal((table.edge_count, 2))
        ts, values = probe_timeseries(dofs, square_mesh_2, table, locator, grid,
                                      np.array([0.5, 0.25]), 2)
        assert ts.tolist() == [0.25, 1.75]
        for t, v in zip(ts, values):
            direct = eval_projected(dofs, square_mesh_2, table, locator, grid,
                                    np.array([0.5, 0.25]), float(t))
            assert np.allclose(v, direct, atol=1e-15)

    def test_sample_count_validated(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        locator = PointLocator(square_mesh_2)
        with pytest.raises(ValueError, match="samples"):
            probe_timeseries(np.zeros((table.edge_count, 2)), square_mesh_2, table,
                             locator, grid, np.array([0.5, 0.5]), 1)
        # A count that is not a whole number is named, like every other count setting.
        for samples in (2.5, np.float64(3.0), "5", True):
            with pytest.raises(ValueError, match=re.escape(f"samples must be a whole number, got {samples!r}")):
                probe_timeseries(np.zeros((table.edge_count, 2)), square_mesh_2, table,
                                 locator, grid, np.array([0.5, 0.5]), samples)
        times, values = probe_timeseries(np.zeros((table.edge_count, 2)), square_mesh_2, table,
                                         locator, grid, np.array([0.5, 0.5]), np.int64(3))
        assert times.shape == (3,) and values.shape == (3, 2)


class TestOutsidePolicyFlow:
    def test_outside_points_reported(self):
        src_nodes = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
        src_mesh = Mesh(dim=2, nodes=src_nodes,
                        elements=np.array([[0, 1, 2], [0, 2, 3]]), mu=np.array([1.0, 1.0]))
        src_table = build_edge_table(src_mesh)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = DiscreteField(src_mesh, src_table, grid,
                               np.ones((src_table.edge_count, 2)))
        target = generate_structured_mesh("unit-square-tri", 2, 1.0)
        result = project(make_problem(target, grid, source))
        assert result.outside_points > 0

    def test_strict_policy_fatal(self):
        src_nodes = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
        src_mesh = Mesh(dim=2, nodes=src_nodes,
                        elements=np.array([[0, 1, 2], [0, 2, 3]]), mu=np.array([1.0, 1.0]))
        src_table = build_edge_table(src_mesh)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = DiscreteField(src_mesh, src_table, grid,
                               np.ones((src_table.edge_count, 2)))
        target = generate_structured_mesh("unit-square-tri", 2, 1.0)
        with pytest.raises(Exception, match="outside"):
            project(make_problem(target, grid, source, outside_policy="strict"))


    @pytest.mark.parametrize("discrete", [False, True])
    def test_unknown_policy_rejected_at_construction(self, discrete, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = (DiscreteField(square_mesh_2, table, grid, np.ones((table.edge_count, 2)))
                  if discrete else AnalyticField("constant", vector=(1.0, 0.0)))
        with pytest.raises(ValueError, match="'stirct'"):
            make_problem(square_mesh_2, grid, source, outside_policy="stirct")


class Test3DProjection:
    def test_constant_reproduction_in_3d(self, jitter_rng):
        mesh = jittered_mesh("unit-cube-tet", 1, jitter_rng)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = AnalyticField("constant", dim=3, vector=(1.0, -2.0, 0.5))
        result = project(make_problem(mesh, grid, source))
        table = build_edge_table(mesh)
        locator = PointLocator(mesh)
        for _ in range(10):
            x = jitter_rng.uniform(0.1, 0.9, size=3)
            value = eval_projected(result.dofs, mesh, table, locator, grid, x, 0.5)
            assert np.max(np.abs(value - [1.0, -2.0, 0.5])) < 1e-8


class TestEvalThroughDiscreteField:
    """eval_projected and probe_timeseries evaluate the result as a DiscreteField on the target."""

    def test_same_values_as_discrete_field(self, jitter_rng, monkeypatch):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 0.4, 1.0]))
        locator = PointLocator(mesh)
        dofs = jitter_rng.standard_normal((table.edge_count, 3))
        reference = DiscreteField(mesh, table, grid, dofs.copy(), locator)
        original = DiscreteField.eval_points
        policies = []

        def spy(self, points, ts, policy="zero"):
            policies.append(policy)
            return original(self, points, ts, policy)

        monkeypatch.setattr(DiscreteField, "eval_points", spy)
        snapped = np.array([1.0 + 1e-12, 0.4])  # within the snap distance of the boundary
        assert locator.locate(snapped).status == "snapped"
        for x in (np.array([0.31, 0.57]), snapped, mesh.nodes[4]):
            for t in (0.0, 0.4, 0.7, 1.0):
                expected = original(reference, x[None, :], np.array([t]), "strict")[0][0, 0]
                assert np.array_equal(eval_projected(dofs, mesh, table, locator, grid, x, t), expected)
            times, values = probe_timeseries(dofs, mesh, table, locator, grid, x, 7)
            assert np.array_equal(values, original(reference, x[None, :], times, "strict")[0][0])
        assert policies == ["strict"] * 15
        assert dofs.flags.writeable  # the field locks a view, not the caller's array
        dofs[0, 0] = 1.0

    def test_time_within_round_off_of_span_end_accepted(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 0.7999999999999999]))
        locator = PointLocator(square_mesh_2)
        dofs = np.ones((table.edge_count, 2))
        x = np.array([0.3, 0.6])
        at_end = eval_projected(dofs, square_mesh_2, table, locator, grid, x, 0.7999999999999999)
        for t in (0.8, -1e-17):
            value = eval_projected(dofs, square_mesh_2, table, locator, grid, x, t)
            assert np.allclose(value, at_end, rtol=1e-14, atol=0.0)
        with pytest.raises(ValueError, match=r"t=0.81 outside the grid span"):
            eval_projected(dofs, square_mesh_2, table, locator, grid, x, 0.81)


class TestEvalReadsOnlyTheLocatedRows:
    """eval_projected and probe_timeseries read the located element's DOF rows and no others,
    so a call costs nothing per DOF of the field."""

    def test_rows_of_other_elements_are_not_read(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 5))
        locator = PointLocator(mesh)
        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        x = np.array([0.4, 0.6])
        rows = table.element_edges[locator.locate(x).element]
        poisoned = np.full_like(dofs, np.nan)
        poisoned[rows] = dofs[rows]
        for t in (0.0, 0.3, 1.0):
            assert np.array_equal(eval_projected(poisoned, mesh, table, locator, grid, x, t),
                                  eval_projected(dofs, mesh, table, locator, grid, x, t))
        times, values = probe_timeseries(dofs, mesh, table, locator, grid, x, 9)
        poisoned_times, poisoned_values = probe_timeseries(poisoned, mesh, table, locator, grid, x, 9)
        assert np.array_equal(poisoned_times, times)
        assert np.array_equal(poisoned_values, values)


class TestProblemSettings:
    @pytest.mark.parametrize("settings, message", [
        (dict(space_quad_order=0), "space_quad_order must be in 2..6, got 0"),
        (dict(space_quad_order=1), "space_quad_order must be in 2..6, got 1"),
        (dict(space_quad_order=9), "space_quad_order must be in 2..6, got 9"),
        (dict(time_quad_points=0), "time_quad_points must be in 1..6, got 0"),
        (dict(time_quad_points=9), "time_quad_points must be in 1..6, got 9"),
    ])
    def test_quadrature_out_of_range_rejected_at_construction(self, settings, message,
                                                              square_mesh_2):
        grid = TemporalGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=message):
            make_problem(square_mesh_2, grid, AnalyticField("constant", vector=(1.0, 0.0)),
                         **settings)

    @pytest.mark.parametrize("name", ["space_quad_order", "time_quad_points"])
    @pytest.mark.parametrize("value", [4.5, 2.5, 4.0, True, "4"])
    def test_quadrature_settings_must_be_whole_numbers(self, name, value, square_mesh_2):
        grid = TemporalGrid(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got {value!r}"):
            make_problem(square_mesh_2, grid, AnalyticField("constant", vector=(1.0, 0.0)),
                         **{name: value})

    def test_numpy_integer_settings_accepted(self, square_mesh_2):
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = AnalyticField("constant", vector=(1.0, 0.0))
        result = project(make_problem(square_mesh_2, grid, source, space_quad_order=np.int64(4),
                                      time_quad_points=np.int32(2)))
        assert result.relative_error <= 1e-8

    def test_quadrature_range_ends_accepted(self, square_mesh_2):
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = AnalyticField("constant", vector=(1.0, 0.0))
        for order, points in ((2, 1), (6, 6)):
            result = project(make_problem(square_mesh_2, grid, source, space_quad_order=order,
                                          time_quad_points=points))
            assert result.relative_error <= 1e-8

    def test_defaults_are_the_module_constants(self, square_mesh_2):
        """Every entry point that defaults a projection setting takes it from one constant."""
        defaults = {"space_quad_order": assembly.DEFAULT_SPACE_QUAD_ORDER,
                    "time_quad_points": assembly.DEFAULT_TIME_QUAD_POINTS,
                    "policy": assembly.DEFAULT_OUTSIDE_POLICY,
                    "outside_policy": assembly.DEFAULT_OUTSIDE_POLICY}
        fields = {f.name: f.default for f in dataclasses.fields(ProjectionProblem)}
        assert {name: fields[name] for name in ("space_quad_order", "time_quad_points", "outside_policy")} \
            == {name: defaults[name] for name in ("space_quad_order", "time_quad_points", "outside_policy")}
        for function, names in ((assembly.sample_source, ("time_quad_points", "policy")),
                                (assembly.assemble_source_matrix, ("time_quad_points", "policy")),
                                (assembly.energy_error, ("time_quad_points", "policy")),
                                (error_norm, ("space_quad_order", "time_quad_points", "policy"))):
            parameters = inspect.signature(function).parameters
            assert {name: parameters[name].default for name in names} \
                == {name: defaults[name] for name in names}, function.__name__
        rule, own = assembly._fitted_rule(square_mesh_2, None), simplex_quadrature(2, defaults["space_quad_order"])
        assert np.array_equal(rule.points, own.points) and np.array_equal(rule.weights, own.weights)


class TestPointDimension:
    """A point with another number of coordinates than the mesh or field is named, not
    evaluated: each entry that takes a point checks it."""

    @pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5]], ids=["1-D", "3-D"])
    def test_wrong_dimension_named(self, point, square_mesh_2):
        mesh = square_mesh_2
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        locator = PointLocator(mesh)
        dofs = np.ones((table.edge_count, 2))
        field = DiscreteField(mesh, table, grid, dofs)
        constant = AnalyticField("constant", vector=(1.0, 0.0))
        x, points = np.array(point), np.array([point])
        calls = {
            "eval_projected": lambda: eval_projected(dofs, mesh, table, locator, grid, x, 0.5),
            "probe_timeseries": lambda: probe_timeseries(dofs, mesh, table, locator, grid, x, 3),
            "PointLocator.locate": lambda: locator.locate(x),
            "locate_points": lambda: locate_points(locator, points),
            "DiscreteField.eval_points": lambda: field.eval_points(points, np.array([0.5])),
            "DiscreteField.eval": lambda: field.eval(x, 0.5),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=f"a {len(point)}-D point does not fit a 2-D mesh"):
                call()
        for call in (lambda: constant.eval_points(points, np.array([0.5])),
                     lambda: constant.space_factors(points)):
            with pytest.raises(ValueError, match=f"a {len(point)}-D point does not fit a 2-D field"):
                call()

    def test_a_stack_of_points_is_not_one_point(self, square_mesh_2):
        with pytest.raises(ValueError, match=r"expected points of shape \(2,\), got \(1, 2\)"):
            PointLocator(square_mesh_2).locate(np.array([[0.5, 0.5]]))
