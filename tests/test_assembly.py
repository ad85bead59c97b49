"""Assembly of the spatial mass, temporal Gram, and source matrices."""
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from stgp import (AnalyticField, DiscreteField, Mesh, MeshFormatError, PointLocator,
                  PointOutsideDomainError, ProjectionProblem, SourceField, TemporalGrid,
                  assemble_source_matrix, assemble_spatial_mass, assemble_temporal_gram,
                  bind_field, build_edge_table, energy_error, generate_structured_mesh, project,
                  read_field, read_matrix, simplex_quadrature, write_field, write_matrix)
import stgp.assembly
from stgp.assembly import (SWEEP_SAMPLES, SourceSamples, TriDiagMatrix, build_time_table,
                           sample_source)
from stgp.basis import QuadratureRule, _collapsed_simplex, hat_matrix, whitney_local
from stgp.fields import edge_circulations, locate_points

from conftest import jittered_mesh, malformed_tables, random_grid


def dense_mass_oracle(mesh, table, order=6):
    """Independent A oracle: per-pair quadrature with explicit global basis evaluation."""
    rule = simplex_quadrature(mesh.dim, order)
    grads = mesh.grads
    vols = np.abs(mesh.volumes)
    m = table.edge_count
    a = np.zeros((m, m))
    for e in range(mesh.n_elements):
        w = whitney_local(mesh.dim, grads[e], table.element_signs[e], rule.points)
        jac = vols[e] / rule.weights.sum()
        ge = table.element_edges[e]
        for i_local, gi in enumerate(ge):
            for j_local, gj in enumerate(ge):
                val = np.sum(rule.weights * np.sum(w[:, i_local] * w[:, j_local], axis=1))
                a[gi, gj] += mesh.mu[e] * jac * val
    return a


def gram_oracle(grid, n_gauss=3):
    """Independent B oracle: hat products integrated with Gauss points per interval."""
    xg, wg = leggauss(n_gauss)
    xg, wg = (xg + 1) / 2, wg / 2
    n = grid.n_steps
    times = grid.times
    b = np.zeros((n, n))
    for k in range(n - 1):
        h = times[k + 1] - times[k]
        for x0, w0 in zip(xg, wg):
            t = times[k] + x0 * h
            left = (times[k + 1] - t) / h
            right = (t - times[k]) / h
            hats = np.zeros(n)
            hats[k], hats[k + 1] = left, right
            b += w0 * h * np.outer(hats, hats)
    return b


class TestSpatialMass:
    def test_reference_triangle_diagonal(self, reference_triangle):
        # symbolic: integral of |l0 grad(l1) - l1 grad(l0)|^2 over the
        # reference triangle is 1/4 + 1/12 = 1/3
        table = build_edge_table(reference_triangle)
        a = assemble_spatial_mass(reference_triangle, table).toarray()
        assert abs(a[0, 0] - 1.0 / 3.0) < 1e-15

    def test_linearity_in_mu(self, two_triangle_square):
        table = build_edge_table(two_triangle_square)
        a1 = assemble_spatial_mass(two_triangle_square, table).toarray()
        doubled = Mesh(dim=2, nodes=two_triangle_square.nodes,
                       elements=two_triangle_square.elements,
                       mu=2.0 * two_triangle_square.mu)
        a2 = assemble_spatial_mass(doubled, table).toarray()
        assert np.array_equal(a2, 2.0 * a1)

    def test_matches_dense_oracle_two_triangles(self, jitter_rng):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = Mesh(dim=2, nodes=nodes, elements=np.array([[0, 1, 2], [0, 2, 3]]),
                    mu=jitter_rng.uniform(0.5, 3.0, size=2))
        table = build_edge_table(mesh)
        a = assemble_spatial_mass(mesh, table).toarray()
        oracle = dense_mass_oracle(mesh, table)
        assert np.max(np.abs(a - oracle)) < 1e-13

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 2), ("unit-cube-tet", 1)])
    def test_matches_dense_oracle_random_mesh(self, kind, n, jitter_rng):
        mesh = jittered_mesh(kind, n, jitter_rng)
        table = build_edge_table(mesh)
        a = assemble_spatial_mass(mesh, table).toarray()
        oracle = dense_mass_oracle(mesh, table)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(a - oracle)) < 1e-13 * scale

    def test_exactly_symmetric(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        table = build_edge_table(mesh)
        a = assemble_spatial_mass(mesh, table)
        assert (a != a.T).nnz == 0

    def test_spd_smallest_eigenvalue_positive(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        a = assemble_spatial_mass(mesh, table).toarray()
        assert np.linalg.eigvalsh(a).min() > 0.0

    def test_independent_of_element_ordering(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        perm = jitter_rng.permutation(mesh.n_elements)
        shuffled = Mesh(dim=2, nodes=mesh.nodes, elements=mesh.elements[perm],
                        mu=mesh.mu[perm])
        a1 = assemble_spatial_mass(mesh, build_edge_table(mesh)).toarray()
        a2 = assemble_spatial_mass(shuffled, build_edge_table(shuffled)).toarray()
        assert np.max(np.abs(a1 - a2)) < 1e-15

    def test_rejects_low_order_rule(self, reference_triangle):
        table = build_edge_table(reference_triangle)
        with pytest.raises(ValueError, match="order >= 2"):
            assemble_spatial_mass(reference_triangle, table,
                                  quad=simplex_quadrature(2, 1))

    def test_bitwise_deterministic_across_threads(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 4, jitter_rng)
        table = build_edge_table(mesh)
        a1 = assemble_spatial_mass(mesh, table)
        a4 = assemble_spatial_mass(mesh, table)
        assert np.array_equal(a1.indices, a4.indices)
        assert np.array_equal(a1.data, a4.data)


class TestTemporalGram:
    def test_uniform_three_node_grid(self):
        grid = TemporalGrid(np.array([0.0, 1.0, 2.0]))
        b = assemble_temporal_gram(grid).to_dense()
        expected = np.array([[1 / 3, 1 / 6, 0.0],
                             [1 / 6, 2 / 3, 1 / 6],
                             [0.0, 1 / 6, 1 / 3]])
        assert np.max(np.abs(b - expected)) < 1e-15

    def test_two_node_grid(self):
        h = 0.7
        grid = TemporalGrid(np.array([0.0, h]))
        b = assemble_temporal_gram(grid).to_dense()
        expected = np.array([[h / 3, h / 6], [h / 6, h / 3]])
        assert np.max(np.abs(b - expected)) < 1e-15

    def test_matches_gauss_oracle_nonuniform(self, jitter_rng):
        grid = random_grid(jitter_rng, 7)
        b = assemble_temporal_gram(grid).to_dense()
        assert np.max(np.abs(b - gram_oracle(grid))) < 1e-14

    def test_row_sums_equal_hat_integrals(self, jitter_rng):
        grid = random_grid(jitter_rng, 6)
        b = assemble_temporal_gram(grid).to_dense()
        h = grid.intervals()
        expected = np.zeros(grid.n_steps)
        expected[:-1] += h / 2
        expected[1:] += h / 2
        assert np.allclose(b.sum(axis=1), expected, atol=1e-15)

    def test_spd(self, jitter_rng):
        grid = random_grid(jitter_rng, 9)
        b = assemble_temporal_gram(grid).to_dense()
        assert np.linalg.eigvalsh(b).min() > 0.0


class TestSourceMatrix:
    def test_zero_source_gives_zero(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = AnalyticField("constant", vector=(0.0, 0.0))
        c, outside = assemble_source_matrix(square_mesh_2, table, grid, source)
        assert np.all(c == 0.0)
        assert outside == 0

    def test_galerkin_consistency_constant_source(self, jitter_rng):
        # exact representation X_c of a constant in the tensor space satisfies
        # C = A Xc B when source and target coincide
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 0.6, 1.0]))
        vec = np.array([0.8, -0.2])
        circ = edge_circulations(mesh, table, lambda p: vec)
        x_exact = np.tile(circ[:, None], (1, grid.n_steps))
        source = DiscreteField(mesh, table, grid, x_exact)
        a = assemble_spatial_mass(mesh, table)
        b = assemble_temporal_gram(grid)
        c, _ = assemble_source_matrix(mesh, table, grid, source)
        rhs = b.right_multiply(a @ x_exact)
        assert np.max(np.abs(c - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_galerkin_consistency_random_discrete_source(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 0.3, 0.7, 1.0]))
        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        source = DiscreteField(mesh, table, grid, dofs)
        a = assemble_spatial_mass(mesh, table)
        b = assemble_temporal_gram(grid)
        c, _ = assemble_source_matrix(mesh, table, grid, source)
        rhs = b.right_multiply(a @ dofs)
        assert np.max(np.abs(c - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_linearity_in_source(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        f1 = AnalyticField("sinusoid", wavenumber=np.pi)
        f3 = AnalyticField("sinusoid", wavenumber=np.pi, amplitude=3.0)
        c1, _ = assemble_source_matrix(square_mesh_2, table, grid, f1)
        c3, _ = assemble_source_matrix(square_mesh_2, table, grid, f3)
        assert np.max(np.abs(c3 - 3.0 * c1)) < 1e-14 * np.max(np.abs(c1))

    def test_mu_scaling_scales_a_and_c_not_b(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        scaled = Mesh(dim=2, nodes=mesh.nodes, elements=mesh.elements, mu=4.0 * mesh.mu)
        grid = TemporalGrid(np.array([0.0, 0.5, 1.0]))
        source = AnalyticField("sinusoid", wavenumber=np.pi)
        for m1, m2 in ((mesh, scaled),):
            t1, t2 = build_edge_table(m1), build_edge_table(m2)
            a1 = assemble_spatial_mass(m1, t1).toarray()
            a2 = assemble_spatial_mass(m2, t2).toarray()
            c1, _ = assemble_source_matrix(m1, t1, grid, source)
            c2, _ = assemble_source_matrix(m2, t2, grid, source)
            assert np.allclose(a2, 4.0 * a1, rtol=1e-15, atol=0)
            assert np.allclose(c2, 4.0 * c1, rtol=1e-14)
            b1 = assemble_temporal_gram(grid).to_dense()
            assert np.array_equal(b1, assemble_temporal_gram(grid).to_dense())

    def test_span_violation_rejected(self, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        src_grid = TemporalGrid(np.array([0.0, 1.0]))
        source = DiscreteField(square_mesh_2, table, src_grid,
                               np.ones((table.edge_count, 2)))
        wide = TemporalGrid(np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="not inside the source span"):
            assemble_source_matrix(square_mesh_2, table, wide, source)

    def test_outside_points_counted_for_smaller_source_mesh(self, jitter_rng):
        # target square is larger than the source half-square: the far
        # quadrature points miss the source and are counted under zero policy
        src_nodes = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
        src_mesh = Mesh(dim=2, nodes=src_nodes, elements=np.array([[0, 1, 2], [0, 2, 3]]),
                        mu=np.array([1.0, 1.0]))
        src_table = build_edge_table(src_mesh)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = DiscreteField(src_mesh, src_table, grid,
                               np.ones((src_table.edge_count, 2)))
        target = generate_structured_mesh("unit-square-tri", 2, 1.0)
        table = build_edge_table(target)
        c, outside = assemble_source_matrix(target, table, grid, source)
        assert outside > 0
        with pytest.raises(Exception, match="outside"):
            assemble_source_matrix(target, table, grid, source, policy="strict")

    def test_temporal_splitting_integrates_coarse_source_exactly(self, jitter_rng):
        # source nodes falling inside target intervals must not cost accuracy:
        # the oracle forms the grid intersection itself and uses 10-point Gauss
        # per piece, far above the quadratic integrand's needs
        mesh = jittered_mesh("unit-square-tri", 1, jitter_rng)
        table = build_edge_table(mesh)
        src_grid = TemporalGrid(np.array([0.0, 0.21, 0.5, 0.77, 1.0]))
        dofs = jitter_rng.standard_normal((table.edge_count, 5))
        source = DiscreteField(mesh, table, src_grid, dofs)
        grid = TemporalGrid(np.array([0.0, 0.4, 1.0]))  # source kinks sit inside
        c, _ = assemble_source_matrix(mesh, table, grid, source)

        xg, wg = leggauss(10)
        xg, wg = (xg + 1) / 2, wg / 2
        rule = simplex_quadrature(2, 4)
        grads = mesh.grads
        vols = np.abs(mesh.volumes)
        oracle = np.zeros_like(c)
        for e in range(mesh.n_elements):
            w = whitney_local(2, grads[e], table.element_signs[e], rule.points)
            verts = mesh.nodes[mesh.elements[e]]
            xq = rule.points @ verts
            jac = vols[e] / rule.weights.sum()
            for j in range(grid.n_steps - 1):
                t0, t1 = grid.times[j], grid.times[j + 1]
                inner = src_grid.times[(src_grid.times > t0) & (src_grid.times < t1)]
                knots = np.concatenate([[t0], inner, [t1]])
                for lo, hi in zip(knots[:-1], knots[1:]):
                    for x0, w0 in zip(xg, wg):
                        t = lo + x0 * (hi - lo)
                        wt = w0 * (hi - lo)
                        hl = (t1 - t) / (t1 - t0)
                        for q in range(len(rule.points)):
                            hs = source.eval(xq[q], float(t))
                            scale = mesh.mu[e] * jac * rule.weights[q] * wt
                            oracle[table.element_edges[e], j] += scale * hl * (w[q] @ hs)
                            oracle[table.element_edges[e], j + 1] += scale * (1 - hl) * (w[q] @ hs)
        assert np.max(np.abs(c - oracle)) < 1e-13 * np.max(np.abs(oracle))

    def test_all_temporal_point_counts_accepted(self, square_mesh_2):
        # cubic-in-time integrand: exact from 2 Gauss points per subinterval on
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 3))
        source = AnalyticField("poly-time", vector=(1.0, 0.0), coeffs=(0.0, 0.0, 1.0))
        values = []
        for k in range(1, 7):
            c, _ = assemble_source_matrix(square_mesh_2, table, grid, source,
                                          time_quad_points=k)
            values.append(c)
        for k in (1, 2, 3, 4, 5):  # index 1.. are the 2..6-point runs
            assert np.allclose(values[k], values[1], atol=1e-15)
        with pytest.raises(ValueError, match="1..6"):
            assemble_source_matrix(square_mesh_2, table, grid, source, time_quad_points=7)

    def test_bitwise_deterministic_across_threads_and_runs(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 4))
        source = AnalyticField("rotating-multipole", pole_pairs=2, amplitude=1.0,
                               omega=2 * np.pi, center=(0.5, 0.5), modulation=0.1)
        c1, _ = assemble_source_matrix(mesh, table, grid, source)
        c2, _ = assemble_source_matrix(mesh, table, grid, source)
        c3, _ = assemble_source_matrix(mesh, table, grid, source)
        assert np.array_equal(c1, c2)
        assert np.array_equal(c1, c3)

    def test_independent_of_element_ordering_across_sweep_blocks(self, jitter_rng):
        # a non-nested discrete source whose time nodes fall inside target intervals
        src_mesh = jittered_mesh("unit-square-tri", 5, jitter_rng)
        src_table = build_edge_table(src_mesh)
        src_grid = TemporalGrid(np.linspace(0.0, 1.0, 7))
        source = DiscreteField(src_mesh, src_table, src_grid,
                               jitter_rng.standard_normal((src_table.edge_count, 7)))
        grid = TemporalGrid(np.linspace(0.05, 0.9, 9))
        mesh = jittered_mesh("unit-square-tri", 10, jitter_rng)
        quad = simplex_quadrature(2, 4)
        n_times = len(build_time_table(grid, source, 2).points)
        block = max(1, SWEEP_SAMPLES // (len(quad.points) * n_times * mesh.dim))
        assert mesh.n_elements > 2 * block

        perm = jitter_rng.permutation(mesh.n_elements)
        shuffled = Mesh(dim=2, nodes=mesh.nodes, elements=mesh.elements[perm], mu=mesh.mu[perm])
        table, shuffled_table = build_edge_table(mesh), build_edge_table(shuffled)
        assert np.array_equal(table.edges, shuffled_table.edges)
        c1, out1 = assemble_source_matrix(mesh, table, grid, source)
        c2, out2 = assemble_source_matrix(shuffled, shuffled_table, grid, source)
        assert out1 == out2
        assert np.max(np.abs(c1 - c2)) < 1e-14 * np.max(np.abs(c1))

        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        e1 = energy_error(mesh, table, grid, source, dofs)
        e2 = energy_error(shuffled, shuffled_table, grid, source, dofs)
        assert e1[2] == e2[2]
        assert abs(e1[0] - e2[0]) < 1e-13 * e1[0]
        assert abs(e1[1] - e2[1]) < 1e-13 * e1[1]


class PerPointSource:
    """A discrete field behind only the per-point source protocol: no eval_points."""

    def __init__(self, field):
        self._field = field

    def time_span(self):
        return self._field.time_span()

    def interior_time_nodes(self):
        return self._field.interior_time_nodes()

    def eval_time_batch(self, x, ts, policy="zero"):
        return self._field.eval_time_batch(x, ts, policy=policy)


class PerPointSubclass(PerPointSource, SourceField):
    """The same, as a SourceField subclass that inherits the base eval_points."""


class TestPerPointSources:
    @pytest.mark.parametrize("wrapper", [PerPointSource, PerPointSubclass])
    @pytest.mark.parametrize("kind,n_source,n_target", [("unit-square-tri", 5, 8),
                                                        ("unit-cube-tet", 2, 2)])
    def test_per_point_source_matches_batched(self, kind, n_source, n_target, wrapper,
                                              jitter_rng):
        # non-nested meshes, source time nodes inside target intervals, and a
        # target that overhangs the source, so some points are outside
        src_mesh = jittered_mesh(kind, n_source, jitter_rng)
        src_table = build_edge_table(src_mesh)
        src_grid = TemporalGrid(np.linspace(0.0, 1.0, 6))
        field = DiscreteField(src_mesh, src_table, src_grid,
                              jitter_rng.standard_normal((src_table.edge_count, 6)))
        target = jittered_mesh(kind, n_target, jitter_rng)
        stretch = np.ones(target.dim)
        stretch[-1] = 1.3
        mesh = Mesh(dim=target.dim, nodes=target.nodes * stretch, elements=target.elements,
                    mu=target.mu)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 0.15, 0.55, 0.9]))
        c, outside = assemble_source_matrix(mesh, table, grid, field)
        c_ref, outside_ref = assemble_source_matrix(mesh, table, grid, wrapper(field))
        assert outside == outside_ref > 0
        assert np.max(np.abs(c - c_ref)) <= 1e-13 * np.max(np.abs(c_ref))

        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        err, src, out = energy_error(mesh, table, grid, field, dofs)
        err_ref, src_ref, out_ref = energy_error(mesh, table, grid, wrapper(field), dofs)
        assert out == out_ref == outside
        assert abs(err - err_ref) <= 1e-13 * err_ref
        assert abs(src - src_ref) <= 1e-13 * src_ref

    @pytest.mark.parametrize("discrete", [False, True])
    def test_unknown_policy_rejected(self, discrete, square_mesh_2):
        table = build_edge_table(square_mesh_2)
        grid = TemporalGrid(np.array([0.0, 1.0]))
        source = (DiscreteField(square_mesh_2, table, grid, np.ones((table.edge_count, 2)))
                  if discrete else AnalyticField("constant", vector=(1.0, 0.0)))
        with pytest.raises(ValueError, match="'stirct'"):
            assemble_source_matrix(square_mesh_2, table, grid, source, policy="stirct")
        with pytest.raises(ValueError, match="'stirct'"):
            energy_error(square_mesh_2, table, grid, source, np.zeros((table.edge_count, 2)),
                         policy="stirct")


class ReshapedSource:
    """A discrete field behind an eval_points whose result `bend` reshapes or retypes."""

    def __init__(self, field, bend):
        self._field, self._bend = field, bend

    def time_span(self):
        return self._field.time_span()

    def interior_time_nodes(self):
        return self._field.interior_time_nodes()

    def eval_points(self, points, ts, policy="zero"):
        return self._bend(*self._field.eval_points(points, ts, policy=policy))


MALFORMED_EVALUATIONS = {
    "inside-too-long": lambda values, inside: (values, np.concatenate([inside, [True, False, True]])),
    "inside-float": lambda values, inside: (values, inside.astype(float)),
    "inside-column": lambda values, inside: (values, inside[:, None]),
    "values-one-time": lambda values, inside: (values[:, 0], inside),
    "values-extra-component": lambda values, inside: (np.concatenate([values, values[..., :1]], axis=2),
                                                      inside),
    "values-point-short": lambda values, inside: (values[1:], inside),
}


class TestForeignEvaluation:
    """What a source of neither stgp type returns is checked where it is read: values (P, T, d) and
    inside (P,) bool, else a ValueError naming both shapes."""

    def _case(self, rng):
        src_mesh = jittered_mesh("unit-square-tri", 3, rng)
        src_table = build_edge_table(src_mesh)
        field = DiscreteField(src_mesh, src_table, TemporalGrid(np.linspace(0.0, 1.0, 4)),
                              rng.standard_normal((src_table.edge_count, 4)))
        mesh = target_past_source("unit-square-tri", 3, rng, "overhang")
        return field, mesh, build_edge_table(mesh), TemporalGrid(np.array([0.0, 0.4, 0.9]))

    @pytest.mark.parametrize("name", sorted(MALFORMED_EVALUATIONS))
    def test_malformed_result_is_named(self, name, jitter_rng):
        field, mesh, table, grid = self._case(jitter_rng)
        source = ReshapedSource(field, MALFORMED_EVALUATIONS[name])
        named = (r"a source's evaluation must give values of shape \(\d+, \d+, 2\) and inside of"
                 r" shape \(\d+,\), bool; got \(.*\) and \(.*\), \w+")
        with pytest.raises(ValueError, match=named):
            assemble_source_matrix(mesh, table, grid, source)
        with pytest.raises(ValueError, match=named):
            energy_error(mesh, table, grid, source, np.zeros((table.edge_count, grid.n_steps)))

    # eval_points_per_point's output passes too: TestPerPointSources runs it.
    @pytest.mark.parametrize("wrapper", ["as-given", "lists"])
    def test_well_formed_results_pass(self, wrapper, jitter_rng):
        field, mesh, table, grid = self._case(jitter_rng)
        source = ReshapedSource(field, {"as-given": lambda values, inside: (values, inside),
                                        "lists": lambda values, inside: (values.tolist(),
                                                                         inside.tolist())}[wrapper])
        c, outside = assemble_source_matrix(mesh, table, grid, field)
        c_ref, outside_ref = assemble_source_matrix(mesh, table, grid, source)
        assert outside == outside_ref > 0
        assert np.max(np.abs(c - c_ref)) <= 1e-13 * np.max(np.abs(c))


class TravellingWave:
    """A smooth, non-polynomial source behind the batched protocol: component k is
    sin(pi x_{k+1} + 2 pi t + phase_k), the coordinate index taken cyclically."""

    def __init__(self, phase):
        self._phase = np.asarray(phase)

    def time_span(self):
        return None

    def interior_time_nodes(self):
        return np.empty(0)

    def eval_points(self, points, ts, policy="zero"):
        values = np.sin(np.pi * np.roll(points, -1, axis=1)[:, None, :]
                        + 2 * np.pi * np.asarray(ts)[None, :, None] + self._phase)
        return values, np.ones(len(points), dtype=bool)


def composite_rule(dim, k):
    """The order-6 rule on each of the k^dim sub-simplices of Freudenthal's subdivision of the
    reference simplex, as one rule."""
    base = simplex_quadrature(dim, 6)
    points, weights = [], []
    for corner in itertools.product(range(k), repeat=dim):
        for axes in itertools.permutations(range(dim)):
            # vertices in y_i = lambda_i + ... + lambda_dim, where the simplex is 1 >= y_1 >= ... >= 0
            y = np.cumsum(np.vstack([corner, np.eye(dim)[list(axes)]]), axis=0) / k
            if np.all(np.diff(y, axis=1) <= 0) and y.max() <= 1:
                lam = np.column_stack([1 - y[:, 0], -np.diff(y, axis=1), y[:, -1]])
                points.append(base.points @ lam)
                weights.append(base.weights * abs(np.linalg.det(lam)))
    assert len(points) == k ** dim
    return QuadratureRule(dim=dim, points=np.vstack(points), weights=np.concatenate(weights), order=7)


class TestSpatialRuleAccuracy:
    """The symmetric degree-5 rule of orders 4 and 5 against the 3^d collapsed Gauss rule of the
    same degree: the distance of each one's C from a composite order-6 reference, max and rms
    over C's entries. The source is smooth, so the rule's degree decides the error: a degree-3
    rule, or the symmetric points with their weights reversed, is over 100 times farther off.
    Across 40 seeds of this case the max distance read 0.52-1.2 times the collapsed rule's, the
    rms 0.71-1.01 times. Across non-nested discrete meshes both rules are about as far off as
    a degree-2 rule, as the source's kinks decide the error there, so such a case tells no rule
    from another."""

    @pytest.mark.parametrize("kind,n,k", [("unit-square-tri", 4, 16), ("unit-cube-tet", 2, 4)])
    def test_no_less_accurate_than_the_collapsed_rule(self, kind, n, k, jitter_rng):
        mesh = jittered_mesh(kind, n, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.array([0.0, 0.15, 0.55, 0.9]))
        source = TravellingWave(jitter_rng.uniform(0.0, 2 * np.pi, mesh.dim))
        ref, _ = assemble_source_matrix(mesh, table, grid, source, space_quad=composite_rule(mesh.dim, k))

        def distance(rule):
            c, _ = assemble_source_matrix(mesh, table, grid, source, space_quad=rule)
            return np.abs(c - ref).max(), np.sqrt(np.mean((c - ref) ** 2))

        new = distance(simplex_quadrature(mesh.dim, 4))
        collapsed = distance(QuadratureRule(mesh.dim, *_collapsed_simplex(mesh.dim, 3), order=5))
        assert new[0] <= 1.5 * collapsed[0]
        assert new[1] <= 1.1 * collapsed[1]


class TestErrorAgainstMassAndGram:
    """The error's target side against an independent reference: for a source Y on the target's
    own mesh and grid, the energy error of X is 1/2 <E, A E B> with E = X - Y, where A and B
    come from their own assemblers (the rule and the time table integrate both exactly)."""

    @pytest.mark.parametrize("wrapper", [None, PerPointSource], ids=["discrete", "generic"])
    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 4), ("unit-cube-tet", 2)])
    def test_error_is_the_quadratic_form(self, kind, n, wrapper, jitter_rng):
        mesh = jittered_mesh(kind, n, jitter_rng)
        table = build_edge_table(mesh)
        grid = random_grid(jitter_rng, 6)
        y = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        x = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        source = DiscreteField(mesh, table, grid, y)
        err, src, outside = energy_error(mesh, table, grid, wrapper(source) if wrapper else source, x)
        a = assemble_spatial_mass(mesh, table).toarray()
        b = assemble_temporal_gram(grid).to_dense()
        e = x - y
        assert outside == 0
        assert abs(err - 0.5 * np.sum(e * (a @ e @ b))) <= 1e-12 * err
        assert abs(src - 0.5 * np.sum(y * (a @ y @ b))) <= 1e-12 * src


def per_sample_energy_error(samples, dofs):
    """The energy error by per-sample arithmetic: each field's samples at every space-time
    point, their difference, squared, then weighted by mu |J| w_q and w_t, block by block."""
    _, table, *_ = samples.args
    times, source_time, hats = samples.table, samples.source_time, samples.target_hats
    n_t, n_r = len(times.points), source_time.shape[0]
    err = src = 0.0
    outside = 0
    for el, w, scale, rows, out in stgp.assembly._sweep(samples, max(n_t, n_r)):
        hs = (rows.reshape(-1, n_r) @ source_time).reshape(*rows.shape[:2], n_t)      # (B, P, T)
        coeff = dofs[table.element_edges[el]]                                          # (B, nl, N)
        series = (coeff.reshape(-1, dofs.shape[1]) @ hats).reshape(*coeff.shape[:2], n_t)
        diff = np.swapaxes(w, 1, 2) @ series - hs
        err += 0.5 * float(np.sum(scale * ((diff * diff) @ times.weights)))
        src += 0.5 * float(np.sum(scale * ((hs * hs) @ times.weights)))
        outside += out
    return err, src, outside


def sweep_blocks(samples) -> int:
    """The number of blocks the energy error's sweep takes over the samples' target mesh."""
    mesh, _, _, _, quad, *_ = samples.args
    width = max(len(samples.table.points), samples.source_time.shape[0])
    block = max(1, SWEEP_SAMPLES // width // (len(quad.points) * mesh.dim))
    return -(-mesh.n_elements // block)


class TestErrorKernel:
    """The energy error folds the square roots of the weights into the separable factors; it must
    give the numbers of the per-sample arithmetic, and still square the local difference."""

    def _case(self, name, rng):
        mesh = jittered_mesh("unit-square-tri", 10, rng)
        if name == "multipole":
            return (AnalyticField("rotating-multipole", pole_pairs=3, amplitude=1.2, omega=2 * np.pi,
                                  center=(0.4, -1.0), modulation=0.3),
                    mesh, TemporalGrid(np.linspace(0.05, 0.9, 33)))
        grid = TemporalGrid(np.linspace(0.05, 0.9, 9))
        # non-nested, with source time nodes inside the target intervals
        src_mesh = jittered_mesh("unit-square-tri", 5, rng)
        src_table = build_edge_table(src_mesh)
        field = DiscreteField(src_mesh, src_table, TemporalGrid(np.linspace(0.0, 1.0, 7)),
                              rng.standard_normal((src_table.edge_count, 7)))
        return (field if name == "discrete" else PerPointSource(field)), mesh, grid

    @pytest.mark.parametrize("name", ["multipole", "discrete", "per-point"])
    def test_matches_per_sample_arithmetic(self, name, jitter_rng):
        source, mesh, grid = self._case(name, jitter_rng)
        table = build_edge_table(mesh)
        samples = sample_source(mesh, table, grid, source)
        assert sweep_blocks(samples) >= 3
        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        err, src, outside = energy_error(mesh, table, grid, source, dofs, samples=samples)
        err_ref, src_ref, outside_ref = per_sample_energy_error(samples, dofs)
        assert outside == outside_ref
        assert abs(err - err_ref) <= 1e-13 * err_ref
        assert abs(src - src_ref) <= 1e-13 * src_ref

    def test_peak_memory_no_higher_than_per_sample_arithmetic(self, jitter_rng):
        # The size of one multipole-windows-2d window: 512 triangles, 256 time steps.
        mesh = jittered_mesh("unit-square-tri", 16, jitter_rng)
        table = build_edge_table(mesh)
        grid = TemporalGrid(np.linspace(0.2, 0.5, 256))
        source = AnalyticField("rotating-multipole", pole_pairs=3, amplitude=1.0, omega=2 * np.pi,
                               center=(0.5, -1.0), modulation=0.3)
        samples = sample_source(mesh, table, grid, source)
        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        peaks = []
        for run in (lambda: energy_error(mesh, table, grid, source, dofs, samples=samples),
                    lambda: per_sample_energy_error(samples, dofs)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


class TestTimeTable:
    def test_matches_interval_loop(self, jitter_rng):
        # reference: split every target interval at the source nodes inside it
        grid = random_grid(jitter_rng, 6)
        src_times = np.union1d(jitter_rng.uniform(grid.times[0] - 0.5, grid.times[-1] + 0.5, 9),
                               grid.times[2:3])  # one source node lines up with a target node
        mesh = generate_structured_mesh("unit-square-tri", 1, 1.0)
        table = build_edge_table(mesh)
        source = DiscreteField(mesh, table, TemporalGrid(src_times),
                               np.zeros((table.edge_count, len(src_times))))
        gp, gw = leggauss(3)
        gp, gw = (gp + 1) / 2, gw / 2
        pts, wts, cols, left = [], [], [], []  # each time's target interval, and 1 - theta
        for j in range(grid.n_steps - 1):
            a, b = grid.times[j], grid.times[j + 1]
            inner = src_times[(src_times > a) & (src_times < b)]
            knots = np.concatenate([[a], inner, [b]])
            for lo, hi in zip(knots[:-1], knots[1:]):
                t = lo + gp * (hi - lo)
                pts.append(t)
                wts.append(gw * (hi - lo))
                cols.append(np.full(len(t), j))
                left.append((b - t) / (b - a))
        table = build_time_table(grid, source, 3)
        assert np.array_equal(table.points, np.concatenate(pts))
        assert np.max(np.abs(table.weights - np.concatenate(wts))) < 1e-15
        # The target hats at the points: 1 - theta on the interval's left hat, theta on its right.
        hats = hat_matrix(grid, table.points).toarray()
        cols, left, i = np.concatenate(cols), np.concatenate(left), np.arange(len(table.points))
        expected = np.zeros_like(hats)
        expected[cols, i] = left
        expected[cols + 1, i] = 1.0 - left
        assert np.max(np.abs(hats - expected)) < 1e-14
        assert np.max(np.abs(hats.sum(axis=0) - 1.0)) < 1e-15

    @pytest.mark.parametrize("n_points", [2.5, 2.0, True, "2"])
    def test_point_count_must_be_a_whole_number(self, n_points):
        grid = TemporalGrid(np.linspace(0.0, 1.0, 3))
        source = AnalyticField("constant", vector=(1.0, 0.0))
        with pytest.raises(ValueError, match=f"time_quad_points must be a whole number, got {n_points!r}"):
            build_time_table(grid, source, n_points)

    def test_holds_linear_memory(self):
        grid = TemporalGrid(np.linspace(0.0, 1.0, 2048))
        source = AnalyticField("constant", vector=(1.0, 0.0))
        table = build_time_table(grid, source, 2)
        n_points = len(table.points)
        assert n_points == 2 * 2047
        held = sum(getattr(table, f.name).nbytes for f in dataclasses.fields(table))
        assert held <= 5 * 8 * n_points  # a dense (T, N) table would hold 2048 x more


class TestMatrixDump:
    def test_tridiag_round_trip(self):
        b = TriDiagMatrix(diag=np.array([1.0, 2.0, 3.0]), off=np.array([0.5, 0.25]))
        back = read_matrix(write_matrix(b))
        assert np.array_equal(back.to_dense(), b.to_dense())

    def test_sparse_sym_round_trip(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 2, jitter_rng)
        table = build_edge_table(mesh)
        a = assemble_spatial_mass(mesh, table)
        back = read_matrix(write_matrix(a))
        assert np.array_equal(back.toarray(), a.toarray())

    def test_dense_round_trip(self, jitter_rng):
        c = jitter_rng.standard_normal((4, 3))
        back = read_matrix(write_matrix(c))
        assert np.array_equal(back, c)

    @pytest.mark.parametrize("text, line", [
        ("stgp-matrix 1\ntridiag\ndiag 1.0\noff\n", 2),
        ("stgp-matrix 1\ntridiag 2\nfoo 1.0 2.0\noff 0.5\n", 3),
        ("stgp-matrix 1\ntridiag 2\ndiag 1.0 2.0\nbar 0.5\n", 4),
        ("stgp-matrix 1\ntridiag 3\ndiag 1.0 2.0 3.0\noff 0.5\n", 4),
        ("stgp-matrix 1\nsparse-sym 2 2\n0 0 1.0\n0 1\n", 4),
        ("stgp-matrix 1\nsparse-sym 2 2\n0 0 1.0\n1 2 0.5\n", 4),
        ("stgp-matrix 1\nsparse-sym 2 1\n-1 0 0.5\n", 3),
    ], ids=["tridiag-no-size", "diag-mislabelled", "off-mislabelled", "off-count",
            "short-triplet", "col-past-dimension", "negative-row"])
    def test_malformed_dump_names_line(self, text, line):
        with pytest.raises(MeshFormatError) as err:
            read_matrix(text)
        assert err.value.line == line

    def test_header_is_stable(self):
        b = TriDiagMatrix(diag=np.array([1.0, 2.0]), off=np.array([0.5]))
        text = write_matrix(b)
        assert text.startswith("stgp-matrix 1\ntridiag 2\n")


class TestMatrixDumpRoundTrips:
    def test_dense_without_columns_or_rows(self):
        for shape in ((2, 0), (0, 3), (0, 0)):
            text = write_matrix(np.zeros(shape))
            assert text == f"stgp-matrix 1\ndense {shape[0]} {shape[1]}\n"
            back = read_matrix(text)
            assert back.shape == shape
            assert write_matrix(back) == text

    @pytest.mark.parametrize("entries, message", [
        ("0 1 1.0\n1 0 1.0\n", "entry \\(1, 0\\) lies below the diagonal"),
        ("0 1 1.0\n0 1 1.0\n", "repeated entry \\(0, 1\\)"),
        ("1 1 1.0\n1 1 1.0\n", "repeated entry \\(1, 1\\)"),
    ])
    def test_sparse_sym_holds_each_upper_entry_once(self, entries, message):
        with pytest.raises(MeshFormatError, match=message) as err:
            read_matrix("stgp-matrix 1\nsparse-sym 2 2\n" + entries)
        assert err.value.line == 4
        # A matrix that holds an entry twice is dumped with the sum, once.
        doubled = sp.coo_matrix((np.array([1.0, 2.0]), (np.array([0, 0]), np.array([1, 1]))), shape=(2, 2))
        assert np.array_equal(read_matrix(write_matrix(doubled)).toarray(), [[0.0, 3.0], [3.0, 0.0]])


class TestMatrixDumpRejectsNonSymmetricSparse:
    @pytest.mark.parametrize("dense", [[[0.0, 1.0], [2.0, 0.0]], [[1.0, 0.0], [4.0, 1.0]],
                                       [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
                             ids=["unequal-triangles", "lower-only", "not-square"])
    def test_rejected(self, dense):
        for matrix in (sp.csr_matrix(np.array(dense)), sp.coo_matrix(np.array(dense))):
            with pytest.raises(ValueError, match="sparse dump"):
                write_matrix(matrix)

    def test_symmetric_round_trips_from_any_storage(self, jitter_rng):
        values = jitter_rng.standard_normal((5, 5))
        symmetric = values + values.T
        symmetric[symmetric < 0.0] = 0.0
        rows, cols = np.nonzero(symmetric)
        # The same matrix as a coo holding some entries in two parts, as csc and as lil.
        split = sp.coo_matrix((np.concatenate([symmetric[rows, cols] / 2, symmetric[rows, cols] / 2]),
                               (np.concatenate([rows, rows]), np.concatenate([cols, cols]))),
                              shape=(5, 5))
        for matrix in (split, sp.csc_matrix(symmetric), sp.lil_matrix(symmetric)):
            back = read_matrix(write_matrix(matrix))
            assert np.array_equal(back.toarray(), matrix.toarray())


def target_past_source(kind, n, rng, past):
    """A jittered target mesh over the unit box, reaching past it along the last axis.

    "overhang" stretches that axis by 1.3, so some quadrature points miss a
    unit-box source. "sliver" moves the next-to-last node layer onto the
    box's face and the last one 1e-9 beyond it, so the points of the last
    layer of cells lie within the snap distance of the source boundary.
    """
    mesh = jittered_mesh(kind, n, rng)
    nodes = mesh.nodes.copy()
    if past == "overhang":
        nodes[:, -1] *= 1.3
    else:
        layer = np.rint(generate_structured_mesh(kind, n, 1.0).nodes[:, -1] * n)
        nodes[:, -1] = np.where(layer == n, 1.0 + 1e-9,
                                np.where(layer == n - 1, 1.0, nodes[:, -1] * n / (n - 1)))
    return Mesh(dim=mesh.dim, nodes=nodes, elements=mesh.elements, mu=mesh.mu)


class TestLinearPath:
    """A DiscreteField source takes the separable form, C = K D_s G; a per-point wrapper of
    the same field takes the generic sweep. Both must give the same numbers."""

    def _case(self, kind, n_source, n_target, past, rng):
        src_mesh = jittered_mesh(kind, n_source, rng)
        src_table = build_edge_table(src_mesh)
        src_grid = TemporalGrid(np.linspace(0.0, 1.0, 6))
        field = DiscreteField(src_mesh, src_table, src_grid,
                              rng.standard_normal((src_table.edge_count, 6)))
        mesh = target_past_source(kind, n_target, rng, past)
        grid = TemporalGrid(np.array([0.0, 0.15, 0.55, 0.9]))  # source nodes fall inside
        return field, mesh, build_edge_table(mesh), grid

    @pytest.mark.parametrize("past", ["overhang", "sliver"])
    @pytest.mark.parametrize("kind,n_source,n_target", [("unit-square-tri", 5, 8),
                                                        ("unit-cube-tet", 2, 2)])
    def test_matches_generic_sweep(self, kind, n_source, n_target, past, jitter_rng, monkeypatch):
        field, mesh, table, grid = self._case(kind, n_source, n_target, past, jitter_rng)
        statuses = []
        original = PointLocator.locate

        def recording(locator, x, tol=1e-12):
            found = original(locator, x, tol)
            statuses.append(found.status)
            return found

        monkeypatch.setattr(PointLocator, "locate", recording)
        c, outside = assemble_source_matrix(mesh, table, grid, field)
        assert ("outside" if past == "overhang" else "snapped") in statuses
        assert outside == statuses.count("outside")
        c_ref, outside_ref = assemble_source_matrix(mesh, table, grid, PerPointSource(field))
        assert outside == outside_ref
        assert np.max(np.abs(c - c_ref)) <= 1e-13 * np.max(np.abs(c_ref))

        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        err, src, out = energy_error(mesh, table, grid, field, dofs)
        err_ref, src_ref, out_ref = energy_error(mesh, table, grid, PerPointSource(field), dofs)
        assert out == out_ref == outside
        assert abs(err - err_ref) <= 1e-13 * err_ref
        assert abs(src - src_ref) <= 1e-13 * src_ref

    @pytest.mark.parametrize("kind,n_source,n_target", [("unit-square-tri", 5, 8),
                                                        ("unit-cube-tet", 2, 2)])
    def test_strict_raises_for_the_same_point(self, kind, n_source, n_target, jitter_rng):
        field, mesh, table, grid = self._case(kind, n_source, n_target, "overhang", jitter_rng)
        dofs = np.zeros((table.edge_count, grid.n_steps))
        points = []
        for source in (field, PerPointSource(field)):
            with pytest.raises(PointOutsideDomainError) as exc:
                assemble_source_matrix(mesh, table, grid, source, policy="strict")
            points.append(exc.value.point)
            with pytest.raises(PointOutsideDomainError) as exc:
                energy_error(mesh, table, grid, source, dofs, policy="strict")
            points.append(exc.value.point)
        assert all(np.array_equal(p, points[0]) for p in points)

    @pytest.mark.parametrize("kind,n_source,n_target", [("unit-square-tri", 5, 4),
                                                        ("unit-cube-tet", 2, 2)])
    def test_locates_each_point_once(self, kind, n_source, n_target, jitter_rng, monkeypatch):
        field, mesh, table, grid = self._case(kind, n_source, n_target, "overhang", jitter_rng)
        quad = simplex_quadrature(mesh.dim, 4)
        calls = []
        original = PointLocator.locate

        def counting(locator, x, tol=1e-12):
            calls.append(locator)
            return original(locator, x, tol)

        monkeypatch.setattr(PointLocator, "locate", counting)
        expected = mesh.n_elements * len(quad.points)
        project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid, source=field))
        assert len(calls) == expected
        assert all(locator is field.locator for locator in calls)
        calls.clear()
        assemble_source_matrix(mesh, table, grid, field)
        assert len(calls) == expected
        calls.clear()
        energy_error(mesh, table, grid, field, np.zeros((table.edge_count, grid.n_steps)))
        assert len(calls) == expected

    @pytest.mark.parametrize("wrapper", [None, PerPointSource], ids=["discrete", "per-point"])
    @pytest.mark.parametrize("kind,n_source,n_target", [("unit-square-tri", 5, 8),
                                                        ("unit-cube-tet", 2, 2)])
    def test_outside_counted_across_blocks(self, kind, n_source, n_target, wrapper, jitter_rng,
                                           monkeypatch):
        # Each block counts its own points outside the source; both sweeps must count every
        # point that location finds outside.
        field, mesh, table, grid = self._case(kind, n_source, n_target, "overhang", jitter_rng)
        source = wrapper(field) if wrapper else field
        inside, _, _ = locate_points(field.locator, stgp.assembly._quadrature_points(
            mesh, simplex_quadrature(mesh.dim, 4)))
        expected = int(np.count_nonzero(~inside))
        assert expected > 0
        # Blocks of one element, the least a block holds, whatever the sweep's width.
        monkeypatch.setattr(stgp.assembly, "SWEEP_SAMPLES", 1)
        counts = []
        original = stgp.assembly._sweep

        def recording(samples, width):
            counts.append([])
            for block in original(samples, width):
                counts[-1].append(block[-1])
                yield block

        monkeypatch.setattr(stgp.assembly, "_sweep", recording)
        _, c_outside = assemble_source_matrix(mesh, table, grid, source)
        *_, e_outside = energy_error(mesh, table, grid, source,
                                     np.zeros((table.edge_count, grid.n_steps)))
        assert c_outside == e_outside == expected
        assert len(counts) == 2
        for blocks in counts:
            assert len(blocks) >= 3 and sum(blocks) == expected
            assert sum(1 for count in blocks if count) >= 2  # the outside points span blocks

    def test_samples_are_shared_and_checked(self, jitter_rng, monkeypatch):
        field, mesh, table, grid = self._case("unit-square-tri", 5, 4, "overhang", jitter_rng)
        quad = simplex_quadrature(2, 4)
        samples = sample_source(mesh, table, grid, field, quad)
        # A source of neither stgp type is evaluated by its `space`, with identity time factors:
        # its rows are its values, and it counts the points outside as the located rows do.
        generic = sample_source(mesh, table, grid, PerPointSource(field))
        n_t = len(generic.table.points)
        assert generic.source_time.shape == (n_t, n_t)
        assert np.array_equal(generic.source_time.toarray(), np.eye(n_t))
        rows, located_outside = samples.space(slice(None))
        generic_rows, generic_outside = generic.space(slice(None))
        assert generic_outside == located_outside > 0
        np.testing.assert_allclose(generic_rows, rows @ samples.source_time, rtol=0,
                                   atol=1e-13 * np.max(np.abs(generic_rows)))
        c, outside = assemble_source_matrix(mesh, table, grid, field)
        monkeypatch.setattr(PointLocator, "locate", None)  # the samples need no location
        shared, shared_outside = assemble_source_matrix(mesh, table, grid, field, space_quad=quad,
                                                        samples=samples)
        assert np.array_equal(shared, c) and shared_outside == outside
        with pytest.raises(ValueError, match="samples were taken for other arguments"):
            assemble_source_matrix(mesh, table, grid, field, space_quad=quad, time_quad_points=3,
                                   samples=samples)
        with pytest.raises(ValueError, match="samples were taken for other arguments"):
            energy_error(mesh, table, grid, field, np.zeros((table.edge_count, grid.n_steps)),
                         space_quad=simplex_quadrature(2, 6), samples=samples)


FACTORED_CASES = {
    "constant-2d": ("constant", 2, dict(vector=(0.8, -0.3))),
    "linear-2d": ("linear", 2, dict(matrix=[[1.0, 2.0], [0.5, -1.0]], offset=(0.5, 0.25))),
    "poly-time-2d": ("poly-time", 2, dict(vector=(2.0, 1.0), coeffs=(0.5, -1.0, 3.0))),
    "sinusoid-2d": ("sinusoid", 2, dict(wavenumber=np.pi, amplitude=2.0)),
    "rotating-multipole-2d": ("rotating-multipole", 2,
                              dict(pole_pairs=3, amplitude=1.5, omega=2 * np.pi,
                                   center=(0.4, -0.6), modulation=0.25)),
    "constant-3d": ("constant", 3, dict(vector=(0.8, -0.3, 0.5))),
    "linear-3d": ("linear", 3, dict(matrix=np.arange(9.0).reshape(3, 3) - 4.0,
                                    offset=(0.5, 0.25, -1.0))),
    "poly-time-3d": ("poly-time", 3, dict(vector=(2.0, 1.0, -0.5), coeffs=(0.5, -1.0, 3.0))),
}


def closed_form(kind, params, x, t):
    """The documented formula of each analytic kind at one point and time, written out directly."""
    if kind == "constant":
        return np.asarray(params["vector"], dtype=float)
    if kind == "linear":
        return np.asarray(params["matrix"], dtype=float) @ x + np.asarray(params["offset"])
    if kind == "poly-time":
        return np.asarray(params["vector"]) * sum(c * t**k for k, c in enumerate(params["coeffs"]))
    if kind == "sinusoid":
        return params["amplitude"] * np.sin(params["wavenumber"] * x[::-1])
    rel = x - np.asarray(params["center"])
    theta = np.arctan2(rel[1], rel[0])
    w, p, m = params["omega"], params["pole_pairs"], params["modulation"]
    return (params["amplitude"] * (1.0 + m * np.cos(w * t)) * np.cos(p * (theta - w * t))
            * np.array([np.cos(theta), np.sin(theta)]))


class TestAnalyticFactors:
    """An AnalyticField source takes the separable form, C = (S_t^T diag(scale) G)(H_f diag(w) H_t^T);
    a per-point wrapper of the same field takes the generic sweep. Both must give the same numbers."""

    def _case(self, name, rng):
        kind, dim, params = FACTORED_CASES[name]
        mesh = jittered_mesh("unit-square-tri" if dim == 2 else "unit-cube-tet", 4 if dim == 2 else 2, rng)
        grid = TemporalGrid(np.array([0.0, 0.15, 0.55, 0.9, 1.3]))
        return AnalyticField(kind, dim=dim, **params), mesh, build_edge_table(mesh), grid

    @pytest.mark.parametrize("name", sorted(FACTORED_CASES))
    def test_matches_generic_sweep(self, name, jitter_rng):
        field, mesh, table, grid = self._case(name, jitter_rng)
        c, outside = assemble_source_matrix(mesh, table, grid, field)
        c_ref, outside_ref = assemble_source_matrix(mesh, table, grid, PerPointSource(field))
        assert outside == outside_ref == 0
        assert np.max(np.abs(c - c_ref)) <= 1e-13 * np.max(np.abs(c_ref))

        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        err, src, out = energy_error(mesh, table, grid, field, dofs)
        err_ref, src_ref, out_ref = energy_error(mesh, table, grid, PerPointSource(field), dofs)
        assert out == out_ref == 0
        assert abs(err - err_ref) <= 1e-13 * err_ref
        assert abs(src - src_ref) <= 1e-13 * src_ref

    @pytest.mark.parametrize("name", sorted(FACTORED_CASES))
    def test_eval_points_is_the_product_of_the_factors(self, name, jitter_rng):
        field, mesh, _, _ = self._case(name, jitter_rng)
        kind, dim, params = FACTORED_CASES[name]
        points = jitter_rng.uniform(-0.5, 1.5, size=(7, dim))
        ts = np.linspace(-0.3, 2.1, 9)
        values, inside = field.eval_points(points, ts)
        assert values.shape == (7, 9, dim) and inside.all()
        g, h = field.space_factors(points), field.time_factors(ts)
        assert g.shape[:2] == (7, dim) and h.shape == (g.shape[2], 9) and h.shape[0] <= 2
        stacked = np.array([field.eval_time_batch(x, ts)[0] for x in points])
        np.testing.assert_allclose(values, stacked, rtol=1e-14, atol=1e-15)
        direct = np.array([[closed_form(kind, params, x, t) for t in ts] for x in points])
        np.testing.assert_allclose(values, direct, rtol=0, atol=1e-13 * np.max(np.abs(direct)))

    def test_samples_are_shared_and_checked(self, jitter_rng, monkeypatch):
        field, mesh, table, grid = self._case("rotating-multipole-2d", jitter_rng)
        quad = simplex_quadrature(2, 4)
        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        samples = sample_source(mesh, table, grid, field, quad)
        assert type(samples) is SourceSamples
        rows, no_outside = samples.space(slice(None))
        assert rows.shape == (mesh.n_elements * len(quad.points) * 2, 2) and no_outside == 0
        assert samples.source_time.shape == (2, len(samples.table.points))
        c, _ = assemble_source_matrix(mesh, table, grid, field)
        error = energy_error(mesh, table, grid, field, dofs)
        for name in ("space_factors", "time_factors", "eval_points"):
            monkeypatch.setattr(AnalyticField, name, None)  # the samples need no evaluation
        shared, outside = assemble_source_matrix(mesh, table, grid, field, space_quad=quad,
                                                 samples=samples)
        assert np.array_equal(shared, c) and outside == 0
        assert energy_error(mesh, table, grid, field, dofs, space_quad=quad, samples=samples) == error
        other = AnalyticField("rotating-multipole", **FACTORED_CASES["rotating-multipole-2d"][2])
        for kwargs in (dict(time_quad_points=3), dict(policy="strict")):
            with pytest.raises(ValueError, match="samples were taken for other arguments"):
                assemble_source_matrix(mesh, table, grid, field, space_quad=quad, samples=samples,
                                       **kwargs)
        with pytest.raises(ValueError, match="samples were taken for other arguments"):
            energy_error(mesh, table, grid, other, dofs, space_quad=quad, samples=samples)

    def test_project_evaluates_the_factors_once(self, jitter_rng, monkeypatch):
        field, mesh, table, grid = self._case("rotating-multipole-2d", jitter_rng)
        calls = []
        for name in ("space_factors", "time_factors"):
            original = getattr(AnalyticField, name)

            def counting(self, arg, original=original, name=name):
                calls.append(name)
                return original(self, arg)

            monkeypatch.setattr(AnalyticField, name, counting)
        monkeypatch.setattr(AnalyticField, "eval_points", None)
        project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid, source=field))
        assert sorted(calls) == ["space_factors", "time_factors"]

    def test_bitwise_repeatable(self, jitter_rng):
        field, mesh, table, grid = self._case("rotating-multipole-2d", jitter_rng)
        problem = ProjectionProblem(mesh=mesh, edge_table=table, grid=grid, source=field)
        first, second = project(problem), project(problem)
        assert np.array_equal(first.dofs, second.dofs)
        assert (first.error, first.source_energy) == (second.error, second.source_energy)
        c1, _ = assemble_source_matrix(mesh, table, grid, field)
        c2, _ = assemble_source_matrix(mesh, table, grid, field)
        assert np.array_equal(c1, c2)

    def test_rejects_a_field_of_another_dimension(self, jitter_rng):
        _, mesh, table, grid = self._case("constant-3d", jitter_rng)
        with pytest.raises(ValueError, match="2-D source does not fit a 3-D target mesh"):
            assemble_source_matrix(mesh, table, grid, AnalyticField("constant", vector=(1.0, 0.0)))


class TestSamplingEntry:
    """`sample_source` prepares every source, of each kind, and checks that the inputs fit."""

    def _case(self, kind, rng, source_steps=6):
        src_mesh = jittered_mesh("unit-square-tri", 3, rng)
        src_table = build_edge_table(src_mesh)
        field = DiscreteField(src_mesh, src_table, TemporalGrid(np.linspace(0.0, 1.0, source_steps)),
                              rng.standard_normal((src_table.edge_count, source_steps)))
        source = {"discrete": field, "generic": PerPointSource(field),
                  "analytic": AnalyticField("rotating-multipole", pole_pairs=2, amplitude=1.0,
                                            omega=2 * np.pi, center=(0.4, 0.6), modulation=0.2)}[kind]
        mesh = jittered_mesh("unit-square-tri", 4, rng)
        return source, mesh, build_edge_table(mesh), TemporalGrid(np.array([0.0, 0.15, 0.55, 0.9]))

    @pytest.mark.parametrize("kind", ["discrete", "analytic", "generic"])
    def test_samples_taken_under_the_default_rule_are_accepted(self, kind, jitter_rng):
        source, mesh, table, grid = self._case(kind, jitter_rng)
        dofs = jitter_rng.standard_normal((table.edge_count, grid.n_steps))
        c, outside = assemble_source_matrix(mesh, table, grid, source)
        error = energy_error(mesh, table, grid, source, dofs)
        samples = sample_source(mesh, table, grid, source)
        # The default rule, and an equal rule built again, are the rule the samples were taken with.
        for rule in ({}, dict(space_quad=simplex_quadrature(2, 4))):
            shared, shared_outside = assemble_source_matrix(mesh, table, grid, source, samples=samples,
                                                            **rule)
            assert np.array_equal(shared, c) and shared_outside == outside
            assert energy_error(mesh, table, grid, source, dofs, samples=samples, **rule) == error
        with pytest.raises(ValueError, match="samples were taken for other arguments"):
            assemble_source_matrix(mesh, table, grid, source, space_quad=simplex_quadrature(2, 6),
                                   samples=samples)

    @pytest.mark.parametrize("kind", ["discrete", "analytic", "generic"])
    def test_project_builds_the_time_table_once(self, kind, jitter_rng, monkeypatch):
        source, mesh, table, grid = self._case(kind, jitter_rng)
        calls = []
        original = stgp.assembly.build_time_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(stgp.assembly, "build_time_table", counting)
        project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid, source=source))
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["discrete", "analytic", "generic"])
    def test_project_checks_the_edge_table_twice(self, kind, jitter_rng, monkeypatch):
        # For A and for the samples; C and the energy error take the samples of the same objects.
        source, mesh, table, grid = self._case(kind, jitter_rng)
        calls = []
        original = stgp.assembly.check_edge_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(stgp.assembly, "check_edge_table", counting)
        project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid, source=source))
        assert len(calls) == 2

    def test_discrete_samples_hold_no_dense_rows(self, jitter_rng):
        # The spatial rows times D_s (P d x N_s) are formed per block: the samples hold each
        # point's element, barycentric row and inside flag, the two hat matrices and the table.
        field, mesh, table, grid = self._case("discrete", jitter_rng, source_steps=33)
        quad = simplex_quadrature(2, 4)
        n_points = mesh.n_elements * len(quad.points)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            samples = sample_source(mesh, table, grid, field, quad)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        hats = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                   for m in (samples.target_hats, samples.source_time))
        times = sum(getattr(samples.table, f.name).nbytes for f in dataclasses.fields(samples.table))
        located = n_points * ((mesh.dim + 2) * 8 + 1)
        dense_rows = n_points * mesh.dim * field.grid.n_steps * 8
        assert held <= located + hats + times + 16 * 1024 < dense_rows

    @pytest.mark.parametrize("kind", ["discrete", "analytic", "generic"])
    def test_edge_table_of_another_mesh_is_named(self, kind, jitter_rng):
        source, mesh, _, grid = self._case(kind, jitter_rng)
        larger = build_edge_table(generate_structured_mesh("unit-square-tri", 5, 1.0))
        # As many elements, numbered in another order: its edge table fits by size alone.
        shuffled = build_edge_table(Mesh(dim=2, nodes=mesh.nodes, mu=mesh.mu,
                                         elements=mesh.elements[jitter_rng.permutation(mesh.n_elements)]))
        for table in (larger, shuffled):
            with pytest.raises(ValueError, match="the edge table was built for another mesh"):
                assemble_source_matrix(mesh, table, grid, source)
            with pytest.raises(ValueError, match="the edge table was built for another mesh"):
                energy_error(mesh, table, grid, source, np.zeros((table.edge_count, grid.n_steps)))
            with pytest.raises(ValueError, match="the edge table was built for another mesh"):
                assemble_spatial_mass(mesh, table)
            with pytest.raises(ValueError, match="the edge table was built for another mesh"):
                project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid, source=source))

    @pytest.mark.parametrize("kind", ["discrete", "analytic", "generic"])
    def test_rule_of_another_dimension_is_named(self, kind, jitter_rng):
        source, mesh, table, grid = self._case(kind, jitter_rng)
        rule = simplex_quadrature(3, 4)
        with pytest.raises(ValueError, match="a 3-D quadrature rule does not fit a 2-D mesh"):
            assemble_source_matrix(mesh, table, grid, source, space_quad=rule)
        with pytest.raises(ValueError, match="a 3-D quadrature rule does not fit a 2-D mesh"):
            energy_error(mesh, table, grid, source, np.zeros((table.edge_count, grid.n_steps)),
                         space_quad=rule)

    def test_generic_source_of_another_dimension_is_named(self, jitter_rng):
        field, _, _, grid = self._case("discrete", jitter_rng)
        source = PerPointSource(field)
        source.dim = field.dim  # a generic-route source may declare its dimension
        mesh = jittered_mesh("unit-cube-tet", 1, jitter_rng)
        with pytest.raises(ValueError, match="a 2-D source does not fit a 3-D target mesh"):
            assemble_source_matrix(mesh, build_edge_table(mesh), grid, source)


class TestMalformedEdgeTables:
    """Every entry point that takes an edge table rejects one that is not the mesh's own."""

    # TestSamplingEntry tries a table with the elements permuted on the assembly entry points.
    ASSEMBLY_CASES = ("flipped sign", "extra unused edge", "edge index out of range",
                      "negative edge index")

    @pytest.fixture
    def case(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 4, jitter_rng)
        source = AnalyticField("rotating-multipole", pole_pairs=2, amplitude=1.0, omega=2 * np.pi,
                               center=(0.4, 0.6), modulation=0.2)
        grid = TemporalGrid(np.array([0.0, 0.15, 0.55, 0.9]))
        return mesh, source, grid, malformed_tables(mesh, jitter_rng)

    ENTRY_POINTS = {
        "assemble_spatial_mass": lambda mesh, table, grid, source: assemble_spatial_mass(mesh, table),
        "assemble_source_matrix": assemble_source_matrix,
        "energy_error": lambda mesh, table, grid, source: energy_error(
            mesh, table, grid, source, np.zeros((table.edge_count, grid.n_steps))),
        "project": lambda mesh, table, grid, source: project(
            ProjectionProblem(mesh=mesh, edge_table=table, grid=grid, source=source)),
    }
    SOURCE_ENTRY_POINTS = {
        "DiscreteField": lambda mesh, table, grid, dofs: DiscreteField(mesh, table, grid, dofs),
        "bind_field": lambda mesh, table, grid, dofs: bind_field(
            read_field(write_field("m.stgp", grid.times, dofs)), mesh, table),
    }

    @pytest.mark.parametrize("name", ASSEMBLY_CASES)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_assembly_entry_points(self, entry, name, case):
        mesh, source, grid, tables = case
        with pytest.raises(ValueError, match="the edge table was built for another mesh"):
            self.ENTRY_POINTS[entry](mesh, tables[name], grid, source)

    @pytest.mark.parametrize("name", ASSEMBLY_CASES + ("elements permuted",))
    @pytest.mark.parametrize("entry", sorted(SOURCE_ENTRY_POINTS))
    def test_source_side(self, entry, name, case, jitter_rng):
        mesh, _, grid, tables = case
        dofs = jitter_rng.standard_normal((tables[name].edge_count, grid.n_steps))
        with pytest.raises(ValueError, match="the edge table was built for another mesh"):
            self.SOURCE_ENTRY_POINTS[entry](mesh, tables[name], grid, dofs)
