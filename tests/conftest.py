import os
from pathlib import Path

import numpy as np
import pytest

import stgp
from stgp import EdgeTable, Mesh, TemporalGrid, build_edge_table, generate_structured_mesh


def cli_env(**extra: str) -> dict[str, str]:
    """Environment for a `python -m stgp` child that runs the stgp this process imported.

    The child may start in another working directory, where a relative
    PYTHONPATH entry such as `src` would name a different folder. So the
    directory holding the imported package goes first, and every other
    entry is made absolute; `extra` is added last.
    """
    env = os.environ.copy()
    package_root = str(Path(stgp.__file__).resolve().parents[1])
    entries = [os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys([package_root, *entries]))
    env.update(extra)
    return env


@pytest.fixture
def reference_triangle():
    """Single reference triangle (0,0), (1,0), (0,1) with mu = 1."""
    return Mesh(dim=2,
                nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                elements=np.array([[0, 1, 2]]),
                mu=np.array([1.0]))


@pytest.fixture
def two_triangle_square():
    """Unit square split along the diagonal, distinct mu per triangle."""
    return Mesh(dim=2,
                nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                elements=np.array([[0, 1, 2], [0, 2, 3]]),
                mu=np.array([1.0, 1.0]))


@pytest.fixture
def square_mesh_2():
    return generate_structured_mesh("unit-square-tri", 2, 1.0)


def jittered_mesh(kind: str, n: int, rng: np.random.Generator, mu_range=(0.5, 2.0)) -> Mesh:
    """Structured mesh with perturbed interior nodes and random per-element mu."""
    mesh = generate_structured_mesh(kind, n, 1.0)
    nodes = mesh.nodes.copy()
    interior = np.all((nodes > 1e-12) & (nodes < 1 - 1e-12), axis=1)
    nodes[interior] += rng.uniform(-0.15 / n, 0.15 / n, size=nodes[interior].shape)
    mu = rng.uniform(*mu_range, size=mesh.n_elements)
    return Mesh(dim=mesh.dim, nodes=nodes, elements=mesh.elements, mu=mu)


def malformed_tables(mesh, rng):
    """Edge tables that are not the mesh's own, by name."""
    own = build_edge_table(mesh)
    m = own.edge_count

    def changed(edges=own.edges, element_edges=own.element_edges, element_signs=own.element_signs):
        return EdgeTable(edges=edges, element_edges=element_edges, element_signs=element_signs)

    signs = own.element_signs.copy()
    signs[1, 2] *= -1
    spare = np.array([[0, mesh.n_nodes - 1]])  # a node pair that no element uses
    shifted = {}
    for name, shift in (("edge index out of range", m), ("negative edge index", -m)):
        # edges[j - m] is edges[j]: a wrapped negative index names the right node pair.
        element_edges = own.element_edges.copy()
        element_edges[1, 2] += shift
        shifted[name] = changed(element_edges=element_edges)
    order = rng.permutation(mesh.n_elements)
    return {
        "flipped sign": changed(element_signs=signs),
        "extra unused edge": changed(edges=np.concatenate([own.edges, spare])),
        **shifted,
        "elements permuted": build_edge_table(Mesh(dim=mesh.dim, nodes=mesh.nodes,
                                                   elements=mesh.elements[order], mu=mesh.mu[order])),
    }


def random_grid(rng: np.random.Generator, n: int, start: float = 0.0) -> TemporalGrid:
    return TemporalGrid(start + np.cumsum(rng.uniform(0.2, 1.0, size=n)))


@pytest.fixture
def jitter_rng():
    return np.random.default_rng(421)
