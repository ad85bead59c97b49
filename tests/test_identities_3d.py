"""The paper's identities on tetrahedra, with the bounds of their 2D twins in `stgp verify`."""
import numpy as np
import pytest

from stgp import (AnalyticField, DiscreteField, Mesh, ProjectionProblem, TemporalGrid,
                  build_edge_table, error_norm, generate_structured_mesh, project)

from conftest import jittered_mesh

# Symmetric, so the field lies outside the Whitney space and its best
# approximation converges at first order.
LINEAR = AnalyticField("linear", dim=3, matrix=[[1.0, 0.5, 0.2], [0.5, -1.0, 0.3], [0.2, 0.3, 0.7]])


def project_dofs(mesh, grid, source, **options) -> np.ndarray:
    table = build_edge_table(mesh)
    return project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid, source=source,
                                     **options)).dofs


def slope(errors, steps) -> float:
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


@pytest.mark.parametrize("jitter", [False, True], ids=["plain", "jittered"])
def test_self_projection_recovers_random_dofs(jitter):
    rng = np.random.default_rng(7)
    mesh = generate_structured_mesh("unit-cube-tet", 2, 1.0)
    if jitter:
        mesh = jittered_mesh("unit-cube-tet", 2, rng)
    table = build_edge_table(mesh)
    grid = TemporalGrid(np.linspace(0.0, 1.0, 4))
    dofs = rng.standard_normal((table.edge_count, grid.n_steps))
    x = project_dofs(mesh, grid, DiscreteField(mesh, table, grid, dofs))
    assert np.linalg.norm(x - dofs) / np.linalg.norm(dofs) <= 1e-8


def test_mu_scaling_leaves_the_dofs():
    rng = np.random.default_rng(11)
    base = generate_structured_mesh("unit-cube-tet", 2, 1.0)
    mu = rng.uniform(0.5, 2.0, size=base.n_elements)
    grid = TemporalGrid(np.linspace(0.0, 1.0, 3))
    xs = [project_dofs(Mesh(dim=3, nodes=base.nodes, elements=base.elements, mu=scale * mu),
                       grid, LINEAR)
          for scale in (1.0, 7.5)]
    assert np.linalg.norm(xs[0] - xs[1]) / np.linalg.norm(xs[0]) <= 1e-8


def test_spatial_slope_is_one():
    grid = TemporalGrid(np.array([0.0, 1.0]))
    errors, steps = [], []
    for n in (4, 6, 8):
        mesh = generate_structured_mesh("unit-cube-tet", n, 1.0)
        x = project_dofs(mesh, grid, LINEAR)
        err, _ = error_norm(mesh, build_edge_table(mesh), grid, LINEAR, x)
        errors.append(np.sqrt(err))
        steps.append(1.0 / n)
    assert 0.8 <= slope(errors, steps) <= 1.2


def test_temporal_slope_is_two():
    source = AnalyticField("poly-time", dim=3, vector=(1.0, 0.5, -0.25), coeffs=(0.0, 0.0, 1.0))
    mesh = generate_structured_mesh("unit-cube-tet", 1, 1.0)
    table = build_edge_table(mesh)
    errors, steps = [], []
    for n in (5, 9, 17):
        grid = TemporalGrid(np.linspace(0.0, 1.0, n))
        # 3 Gauss points: the 2-point nodes are zeros of a quadratic's hat-projection error.
        x = project_dofs(mesh, grid, source, time_quad_points=3)
        err, _ = error_norm(mesh, table, grid, source, x, time_quad_points=3)
        errors.append(np.sqrt(err))
        steps.append(1.0 / (n - 1))
    assert 1.7 <= slope(errors, steps) <= 2.3
