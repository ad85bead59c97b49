"""Whitney basis values, hat functions, quadrature exactness."""
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from stgp import (TemporalGrid, build_edge_table, generate_structured_mesh, hat_eval,
                  simplex_quadrature, whitney_edge_eval)
from stgp.basis import hat_matrix, whitney_local
from stgp.fields import edge_circulations
from stgp.mesh import LOCAL_EDGE_VERTICES

from conftest import jittered_mesh, malformed_tables


def monomial_integral(dim: int, exponents) -> float:
    """Exact integral of prod(x_i^a_i) over the reference simplex (unit interval for dim=1).

    Dirichlet integral: a_1! ... a_d! / (a_1 + ... + a_d + d)!.
    """
    if dim == 1:
        return 1.0 / (exponents[0] + 1)
    num = 1.0
    for a in exponents:
        num *= math.factorial(a)
    return num / math.factorial(sum(exponents) + dim)


def quad_integrate_monomial(rule, exponents) -> float:
    if rule.dim == 1:
        x = rule.points
        return float(np.sum(rule.weights * x ** exponents[0]))
    # cartesian coordinates of the reference simplex from barycentric points
    coords = rule.points[:, 1:]
    values = np.ones(len(coords))
    for k, a in enumerate(exponents):
        values *= coords[:, k] ** a
    return float(np.sum(rule.weights * values))


class TestTemporalGrid:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TemporalGrid(np.array([0.0, 0.0, 1.0]))

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="two time nodes"):
            TemporalGrid(np.array([0.0]))

    def test_span_and_intervals(self):
        grid = TemporalGrid(np.array([0.0, 0.5, 2.0]))
        assert grid.span == (0.0, 2.0)
        assert grid.intervals().tolist() == [0.5, 1.5]


class TestHatFunctions:
    def test_nodal_interpolation(self):
        grid = TemporalGrid(np.array([0.0, 1.0, 2.0]))
        assert hat_eval(grid, 0, 0.0) == 1.0
        assert hat_eval(grid, 1, 0.0) == 0.0
        assert hat_eval(grid, 2, 2.0) == 1.0

    def test_midpoint_linearity(self):
        grid = TemporalGrid(np.array([0.0, 1.0, 2.0]))
        assert hat_eval(grid, 1, 0.5) == 0.5
        assert hat_eval(grid, 0, 0.5) == 0.5

    def test_partition_of_unity(self):
        grid = TemporalGrid(np.array([0.0, 0.3, 0.9, 1.4, 2.0]))
        t = 0.73
        total = sum(hat_eval(grid, j, t) for j in range(grid.n_steps))
        assert abs(total - 1.0) <= 1e-15

    def test_partition_of_unity_and_nonnegativity_random_times(self):
        rng = np.random.default_rng(1)
        grid = TemporalGrid(np.sort(rng.uniform(-1.0, 3.0, size=7)))
        for t in rng.uniform(*grid.span, size=25):
            values = [hat_eval(grid, j, float(t)) for j in range(grid.n_steps)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert abs(sum(values) - 1.0) <= 1e-14

    def test_local_support(self):
        grid = TemporalGrid(np.array([0.0, 1.0, 2.0, 3.0]))
        assert hat_eval(grid, 0, 2.5) == 0.0
        assert hat_eval(grid, 3, 0.5) == 0.0

    def test_rejects_time_outside_span(self):
        grid = TemporalGrid(np.array([0.0, 1.0]))
        for t in (-0.1, np.nan):
            with pytest.raises(ValueError, match="outside"):
                hat_eval(grid, 0, t)

    def test_index_must_be_an_integer_in_range(self):
        grid = TemporalGrid(np.array([0.0, 1.0, 2.0]))
        assert hat_eval(grid, np.int64(1), 1.0) == 1.0
        assert hat_eval(grid, np.uint8(2), 1.5) == 0.5
        for j in (1.5, np.float64(1.0), "1", None):
            with pytest.raises(TypeError):
                hat_eval(grid, j, 0.5)
        for j in (-1, 3, np.int64(7)):
            with pytest.raises(ValueError, match=f"hat index {j} out of range 0..2"):
                hat_eval(grid, j, 0.5)

    def test_hat_matrix_matches_hat_eval(self):
        rng = np.random.default_rng(5)
        grid = TemporalGrid(np.sort(rng.uniform(-1.0, 3.0, size=6)))
        ts = np.concatenate([grid.times, rng.uniform(*grid.span, size=20)])
        hats = hat_matrix(grid, ts)
        assert sp.issparse(hats) and hats.format == "csr"
        assert hats.shape == (grid.n_steps, len(ts))
        expected = np.array([[hat_eval(grid, j, float(t)) for t in ts] for j in range(grid.n_steps)])
        np.testing.assert_allclose(hats.toarray(), expected, rtol=0.0, atol=1e-15)
        assert np.array_equal(hats[:, :grid.n_steps].toarray(), np.eye(grid.n_steps))


class TestQuadrature:
    def test_triangle_order1_is_centroid(self):
        rule = simplex_quadrature(2, 1)
        assert rule.weights.tolist() == [0.5]
        assert np.allclose(rule.points, 1.0 / 3.0)

    def test_interval_order3_is_two_point_gauss(self):
        rule = simplex_quadrature(1, 3)
        assert len(rule.points) == 2
        assert np.allclose(rule.weights, 0.5)
        assert np.allclose(np.sort(rule.points), (1 + np.array([-1, 1]) / np.sqrt(3)) / 2)

    def test_triangle_order4_integrates_x2y2(self):
        rule = simplex_quadrature(2, 4)
        value = quad_integrate_monomial(rule, (2, 2))
        assert abs(value - 1.0 / 180.0) < 1e-15  # oracle: 2!2!/(4+2)! = 1/180

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_exactness_for_all_monomials(self, dim, order):
        rule = simplex_quadrature(dim, order)
        assert np.all(rule.weights > 0)
        from stgp.basis import REFERENCE_MEASURE
        assert abs(rule.weights.sum() - REFERENCE_MEASURE[dim]) < 1e-14
        assert rule.order >= order
        exponent_sets = []
        if dim == 1:
            exponent_sets = [(a,) for a in range(order + 1)]
        elif dim == 2:
            exponent_sets = [(a, b) for a in range(order + 1) for b in range(order + 1 - a)]
        else:
            exponent_sets = [(a, b, c) for a in range(order + 1)
                             for b in range(order + 1 - a) for c in range(order + 1 - a - b)]
        for exps in exponent_sets:
            exact = monomial_integral(dim, exps)
            value = quad_integrate_monomial(rule, exps)
            assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact)), (exps, value, exact)

    def test_random_polynomials_integrate_exactly(self):
        rng = np.random.default_rng(9)
        for dim in (2, 3):
            order = 5
            rule = simplex_quadrature(dim, order)
            if dim == 2:
                exps = [(a, b) for a in range(order + 1) for b in range(order + 1 - a)]
            else:
                exps = [(a, b, c) for a in range(order + 1)
                        for b in range(order + 1 - a) for c in range(order + 1 - a - b)]
            coeff = rng.standard_normal(len(exps))
            exact = sum(c * monomial_integral(dim, e) for c, e in zip(coeff, exps))
            value = sum(c * quad_integrate_monomial(rule, e) for c, e in zip(coeff, exps))
            assert abs(value - exact) <= 1e-12

    @pytest.mark.parametrize("dim,count", [(2, 7), (3, 14)])
    @pytest.mark.parametrize("order", [4, 5])
    def test_orders_4_and_5_are_the_symmetric_degree5_rules(self, dim, count, order):
        rule = simplex_quadrature(dim, order)
        assert len(rule.points) == len(rule.weights) == count
        assert rule.order == 5
        assert np.all((rule.points > 0.0) & (rule.points < 1.0))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_symmetric_rules_are_invariant_under_permutations(self, dim):
        # every permutation of the barycentric coordinates maps the rule onto itself,
        # each point onto a point of equal weight
        rule = simplex_quadrature(dim, 5)

        def rows(points):
            table = np.column_stack([points, rule.weights])
            return table[np.lexsort(table.T[::-1])]

        for perm in itertools.permutations(range(dim + 1)):
            assert np.array_equal(rows(rule.points[:, list(perm)]), rows(rule.points))

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            simplex_quadrature(2, 7)
        with pytest.raises(ValueError):
            simplex_quadrature(2, 0)

    @pytest.mark.parametrize("dim,order,name", [(2, 4.5, "order"), (3, 2.0, "order"),
                                                (2, True, "order"), (2.0, 4, "dim"),
                                                (True, 1, "dim")])
    def test_rejects_settings_that_are_not_whole_numbers(self, dim, order, name):
        value = order if name == "order" else dim
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got {value!r}"):
            simplex_quadrature(dim, order)

    def test_accepts_numpy_integers(self):
        assert simplex_quadrature(np.int64(2), np.int32(4)) == simplex_quadrature(2, 4)

    def test_rule_validation(self):
        from stgp.basis import QuadratureRule
        with pytest.raises(ValueError, match="positive"):
            QuadratureRule(dim=2, points=np.full((2, 3), 1 / 3),
                           weights=np.array([0.75, -0.25]), order=1)
        with pytest.raises(ValueError, match="reference measure"):
            QuadratureRule(dim=2, points=np.full((1, 3), 1 / 3),
                           weights=np.array([0.75]), order=1)


    @pytest.mark.parametrize("points,weights,message", [
        ([[1 / 3] * 3, [np.nan, 0.5, 0.5]], [0.5, np.nan], "points must be finite"),
        ([[1 / 3] * 3, [0.0, 0.5, 0.5]], [0.5, np.nan], "weights must be finite"),
        ([[1 / 3] * 3, [0.0, 0.5, 0.5]], [np.inf, 0.25], "weights must be finite"),
        ([[np.inf, 0.0, 0.0]], [0.5], "points must be finite"),
    ])
    def test_rejects_non_finite_rules(self, points, weights, message):
        # NaN passes both the positivity and the sum test.
        from stgp.basis import QuadratureRule
        with pytest.raises(ValueError, match=message):
            QuadratureRule(dim=2, points=points, weights=weights, order=1)

class TestWhitneyBasis:
    def test_hand_value_at_barycenter(self, reference_triangle):
        table = build_edge_table(reference_triangle)
        w = whitney_edge_eval(reference_triangle, table, 0, np.array([1, 1, 1]) / 3.0)
        # edge (0,1): lambda_0 grad(lambda_1) - lambda_1 grad(lambda_0) at the barycenter
        assert np.allclose(w[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_rejects_bad_barycentric(self, reference_triangle):
        table = build_edge_table(reference_triangle)
        with pytest.raises(ValueError, match="sum to 1"):
            whitney_edge_eval(reference_triangle, table, 0, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            whitney_edge_eval(reference_triangle, table, 0, np.array([np.nan, 0.5, 0.5]))

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 2), ("unit-cube-tet", 1)])
    def test_element_index_checked(self, kind, n, jitter_rng):
        mesh = jittered_mesh(kind, n, jitter_rng)
        table = build_edge_table(mesh)
        grads = mesh.grads
        lam = np.full(mesh.dim + 1, 1.0 / (mesh.dim + 1))
        last = mesh.n_elements - 1
        for element in (-1, mesh.n_elements):
            with pytest.raises(ValueError, match=f"element {element} .*valid range is 0..{last}"):
                whitney_edge_eval(mesh, table, element, lam)
        for element in (0.0, 1.5):
            with pytest.raises(TypeError):
                whitney_edge_eval(mesh, table, element, lam)
        for element in (0, np.int64(last), True):
            expected = whitney_local(mesh.dim, grads[int(element)], table.element_signs[int(element)],
                                     lam[None, :])[0]
            assert np.array_equal(whitney_edge_eval(mesh, table, element, lam), expected)

    def test_rejects_an_edge_table_of_another_mesh(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 4, jitter_rng)
        lam = np.full(3, 1.0 / 3.0)
        coarser = build_edge_table(generate_structured_mesh("unit-square-tri", 3, 1.0))
        for table in (coarser, *malformed_tables(mesh, jitter_rng).values()):
            with pytest.raises(ValueError, match="the edge table was built for another mesh"):
                whitney_edge_eval(mesh, table, 1, lam)

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 2), ("unit-cube-tet", 1)])
    def test_circulation_duality(self, kind, n, jitter_rng):
        # 5-point Gauss line quadrature oracle for the edge line integrals
        mesh = jittered_mesh(kind, n, jitter_rng)
        table = build_edge_table(mesh)
        grads = mesh.grads
        xg, wg = leggauss(5)
        xg, wg = (xg + 1) / 2, wg / 2
        pairs = np.array(LOCAL_EDGE_VERTICES[mesh.dim])
        for e in range(mesh.n_elements):
            verts = mesh.nodes[mesh.elements[e]]
            origin, inv_edges = verts[0], np.linalg.inv((verts[1:] - verts[0]).T)
            for k, edge_idx in enumerate(table.element_edges[e]):
                a, b = mesh.nodes[table.edges[edge_idx]]
                circ = np.zeros(len(pairs))
                for x0, w0 in zip(xg, wg):
                    p = a + x0 * (b - a)
                    lam1 = inv_edges @ (p - origin)
                    lam = np.concatenate([[1 - lam1.sum()], lam1])
                    wv = whitney_local(mesh.dim, grads[e], table.element_signs[e], lam[None])[0]
                    circ += w0 * wv @ (b - a)
                expected = np.zeros(len(pairs))
                expected[k] = 1.0
                assert np.allclose(circ, expected, atol=1e-12)

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 2), ("unit-cube-tet", 1)])
    def test_constant_field_reproduction(self, kind, n, jitter_rng):
        mesh = jittered_mesh(kind, n, jitter_rng)
        table = build_edge_table(mesh)
        c = jitter_rng.standard_normal(mesh.dim)
        dofs = edge_circulations(mesh, table, lambda p: c)
        grads = mesh.grads
        verts = mesh.nodes[mesh.elements]
        for _ in range(10):
            e = int(jitter_rng.integers(mesh.n_elements))
            lam = jitter_rng.dirichlet(np.ones(mesh.dim + 1))
            wv = whitney_local(mesh.dim, grads[e], table.element_signs[e], lam[None])[0]
            value = dofs[table.element_edges[e]] @ wv
            assert np.allclose(value, c, atol=1e-12)

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 2), ("unit-cube-tet", 1)])
    def test_batched_matches_single_element(self, kind, n, jitter_rng):
        mesh = jittered_mesh(kind, n, jitter_rng)
        table = build_edge_table(mesh)
        grads = mesh.grads
        lam = jitter_rng.dirichlet(np.ones(mesh.dim + 1), size=(mesh.n_elements, 4))
        shared = whitney_local(mesh.dim, grads, table.element_signs, lam[0])
        per_point = whitney_local(mesh.dim, grads, table.element_signs, lam)
        n_local = len(LOCAL_EDGE_VERTICES[mesh.dim])
        assert per_point.shape == (mesh.n_elements, 4, n_local, mesh.dim)
        for e in range(mesh.n_elements):
            one = whitney_local(mesh.dim, grads[e], table.element_signs[e], lam[0])
            assert np.array_equal(shared[e], one)
            one = whitney_local(mesh.dim, grads[e], table.element_signs[e], lam[e])
            assert np.array_equal(per_point[e], one)

    def test_degenerate_gradients_rejected_at_mesh_construction(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]])
        with pytest.raises(ValueError, match="degenerate"):
            from stgp import Mesh
            Mesh(dim=2, nodes=nodes, elements=np.array([[0, 1, 2]]), mu=np.array([1.0]))
