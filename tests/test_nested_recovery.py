"""Exact recovery across nested meshes: a field that lies in the target space comes back.

The source is a random DiscreteField on a jittered coarse mesh. The target
is the structured refinement of the coarse mesh, mapped through the coarse
mesh's piecewise-affine jitter, so every target element lies inside one
source element, and its time grid holds the source's nodes plus their
midpoints. The target space then holds the source, and `project` must
return it at round-off. The reference DOFs below are exact Whitney
circulations computed from the construction, with no stgp point location.
"""
import numpy as np
import pytest

from stgp import DiscreteField, Mesh, ProjectionProblem, TemporalGrid, build_edge_table, project
from stgp import generate_structured_mesh
from stgp.mesh import LOCAL_EDGE_VERTICES

from conftest import random_grid

KINDS = {2: "unit-square-tri", 3: "unit-cube-tet"}


def barycentric(verts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of points (P, d) in the simplices verts (P, d+1, d): (P, d+1)."""
    edges = np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2)
    tail = np.linalg.solve(edges, (points - verts[:, 0])[..., None])[..., 0]
    return np.concatenate([1.0 - tail.sum(axis=1, keepdims=True), tail], axis=1)


def containing(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """For each point, an element of `mesh` that holds it, by testing every element."""
    verts = mesh.nodes[mesh.elements]
    lam = np.stack([barycentric(verts, np.broadcast_to(p, (mesh.n_elements, mesh.dim)))
                    for p in points])                                        # (P, E, d+1)
    inside = lam.min(axis=2) >= -1e-12
    assert inside.any(axis=1).all()
    return inside.argmax(axis=1)


def nested_case(dim: int, n: int, refine: int, rng: np.random.Generator):
    """The jittered coarse source and its mapped refinement, with the coarse element of
    every target element and the structured meshes they come from."""
    plain_coarse = generate_structured_mesh(KINDS[dim], n, 1.0)
    plain_fine = generate_structured_mesh(KINDS[dim], n * refine, 1.0)
    # Every coarse element lists its vertices in a random order, so that local
    # edges run both ways against the global orientation in 3D as in 2D.
    order = rng.permuted(np.tile(np.arange(dim + 1), (plain_coarse.n_elements, 1)), axis=1)
    plain_coarse = Mesh(dim=dim, nodes=plain_coarse.nodes, mu=plain_coarse.mu,
                        elements=np.take_along_axis(plain_coarse.elements, order, axis=1))
    nodes = plain_coarse.nodes.copy()
    interior = np.all((nodes > 1e-12) & (nodes < 1 - 1e-12), axis=1)
    nodes[interior] += rng.uniform(-0.2 / n, 0.2 / n, size=nodes[interior].shape)
    coarse = Mesh(dim=dim, nodes=nodes, elements=plain_coarse.elements,
                  mu=rng.uniform(0.5, 2.0, size=plain_coarse.n_elements))

    # Each fine node moves with the coarse element holding it: the same barycentric
    # coordinates in the jittered element. Nodes on shared faces agree, as the map
    # is continuous.
    at = containing(plain_coarse, plain_fine.nodes)
    lam = barycentric(plain_coarse.nodes[plain_coarse.elements[at]], plain_fine.nodes)
    mapped = np.einsum("pa,pad->pd", lam, coarse.nodes[coarse.elements[at]])
    fine = Mesh(dim=dim, nodes=mapped, elements=plain_fine.elements,
                mu=rng.uniform(0.5, 2.0, size=plain_fine.n_elements))
    parent = containing(plain_coarse, plain_fine.nodes[plain_fine.elements].mean(axis=1))
    return coarse, fine, parent, plain_coarse, plain_fine


def reference_dofs(coarse, fine, parent, plain_coarse, plain_fine, source_dofs):
    """The circulation of the coarse Whitney field along every fine edge p -> q: the sum over
    the parent element's edges ab of sign x D_ab x (lam_a(p) lam_b(q) - lam_a(q) lam_b(p))."""
    coarse_table, fine_table = build_edge_table(coarse), build_edge_table(fine)
    pairs = LOCAL_EDGE_VERTICES[coarse.dim]
    holder = np.empty(fine_table.edge_count, dtype=np.int64)
    holder[fine_table.element_edges.ravel()] = np.repeat(np.arange(fine.n_elements), len(pairs))
    k = parent[holder]                                                       # (M,) coarse element
    verts = plain_coarse.nodes[plain_coarse.elements[k]]
    # Barycentric coordinates are kept by the affine map of each element, so the
    # structured meshes give them exactly as the mapped ones would.
    lp, lq = (barycentric(verts, plain_fine.nodes[fine_table.edges[:, end]]) for end in (0, 1))
    dofs = np.zeros((fine_table.edge_count, source_dofs.shape[1]))
    for local, (a, b) in enumerate(pairs):
        weight = coarse_table.element_signs[k, local] * (lp[:, a] * lq[:, b] - lq[:, a] * lp[:, b])
        dofs += weight[:, None] * source_dofs[coarse_table.element_edges[k, local]]
    return dofs


@pytest.mark.parametrize("dim, n, refine", [(2, 4, 2), (2, 4, 3), (3, 2, 2), (3, 2, 3)],
                         ids=["2d-4-8", "2d-4-12", "3d-2-4", "3d-2-6"])
def test_nested_recovery(dim, n, refine):
    rng = np.random.default_rng(1000 * dim + 10 * n + refine)
    coarse, fine, parent, plain_coarse, plain_fine = nested_case(dim, n, refine, rng)
    source_grid = random_grid(rng, 5)
    times = source_grid.times
    target_grid = TemporalGrid(np.sort(np.concatenate([times, (times[1:] + times[:-1]) / 2])))
    source_dofs = rng.standard_normal((build_edge_table(coarse).edge_count, len(times)))
    source = DiscreteField(coarse, build_edge_table(coarse), source_grid, source_dofs)

    # The source is linear in time between its nodes, so at the midpoints it is
    # the mean of its two neighbouring columns.
    in_time = np.empty((source_dofs.shape[0], target_grid.n_steps))
    in_time[:, 0::2] = source_dofs
    in_time[:, 1::2] = (source_dofs[:, 1:] + source_dofs[:, :-1]) / 2
    expected = reference_dofs(coarse, fine, parent, plain_coarse, plain_fine, in_time)

    result = project(ProjectionProblem(mesh=fine, edge_table=build_edge_table(fine),
                                       grid=target_grid, source=source))
    assert result.outside_points == 0
    assert result.relative_error <= 1e-13
    scale = np.abs(expected).max()
    assert np.abs(result.dofs - expected).max() <= 1e-13 * scale
