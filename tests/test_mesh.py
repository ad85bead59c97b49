"""Mesh construction, edge tables, point location, structured generation, file I/O."""
import itertools
import math
import warnings

import numpy as np
import pytest

from stgp import (Mesh, MeshFormatError, PointLocator, build_edge_table,
                  generate_structured_mesh, read_mesh, write_mesh)
from stgp.mesh import LOCAL_EDGE_VERTICES, SNAP_REL_TOL, check_edge_table

from conftest import jittered_mesh, malformed_tables


def structured_mesh_by_loops(kind, n):
    """Oracle: structured nodes and elements built one cell at a time."""
    side = n + 1
    grid = np.linspace(0.0, 1.0, side)
    if kind == "unit-square-tri":
        nodes = np.array([(x, y) for x in grid for y in grid])
        nid = lambda i, j: i * side + j
        tris = []
        for i in range(n):
            for j in range(n):
                v00, v10 = nid(i, j), nid(i + 1, j)
                v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
        return nodes, np.array(tris, dtype=np.int64)
    nodes = np.array([(x, y, z) for x in grid for y in grid for z in grid])
    nid = lambda i, j, k: (i * side + j) * side + k
    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for perm in itertools.permutations(range(3)):
                    corner = [i, j, k]
                    chain = [nid(*corner)]
                    for axis in perm:
                        corner[axis] += 1
                        chain.append(nid(*corner))
                    tets.append(tuple(chain))
    return nodes, np.array(tets, dtype=np.int64)


def brute_force_edges(mesh):
    """Oracle: distinct node pairs over all element edges, lexicographically sorted."""
    pairs = set()
    for elem in mesh.elements:
        for a, b in itertools.combinations(elem.tolist(), 2):
            pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


def row_sorted_edge_table(mesh):
    """Reference: the (lo, hi) rows sorted by np.unique(axis=0), the build the int64 key replaced."""
    pairs = LOCAL_EDGE_VERTICES[mesh.dim]
    elems = mesh.elements
    a = np.stack([elems[:, p] for p, q in pairs], axis=1)
    b = np.stack([elems[:, q] for p, q in pairs], axis=1)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    signs = np.where(a < b, 1, -1).astype(np.int8)
    all_pairs = np.stack([lo.ravel(), hi.ravel()], axis=1)
    edges, inverse = np.unique(all_pairs, axis=0, return_inverse=True)
    return edges, inverse.reshape(lo.shape).astype(np.int64), signs


def relabelled(mesh, rng, extra_nodes=0):
    """The mesh with its nodes and elements renumbered at random, plus `extra_nodes` unused nodes."""
    nodes = np.concatenate([mesh.nodes, rng.uniform(2.0, 3.0, size=(extra_nodes, mesh.dim))])
    new_id = rng.permutation(len(nodes))
    moved = np.empty_like(nodes)
    moved[new_id] = nodes
    order = rng.permutation(mesh.n_elements)
    return Mesh(dim=mesh.dim, nodes=moved, elements=new_id[mesh.elements][order], mu=mesh.mu[order])


def keyed_build_cases():
    rng = np.random.default_rng(2024)
    square = jittered_mesh("unit-square-tri", 5, rng)
    cube = jittered_mesh("unit-cube-tet", 2, rng)
    triangle = Mesh(dim=2, nodes=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], elements=[[2, 0, 1]], mu=[1.0])
    tet = Mesh(dim=3, nodes=np.vstack([np.zeros(3), np.eye(3)]), elements=[[3, 1, 0, 2]], mu=[1.0])
    return {
        "jittered 2D": square,
        "jittered 3D": cube,
        "renumbered 2D": relabelled(square, rng),
        "renumbered 3D": relabelled(cube, rng),
        "unused nodes 2D": relabelled(square, rng, extra_nodes=7),
        "unused nodes 3D": relabelled(cube, rng, extra_nodes=4),
        "one triangle": triangle,
        "one tetrahedron": tet,
        "no triangles": Mesh(dim=2, nodes=triangle.nodes, elements=np.zeros((0, 3)), mu=[]),
        "no tetrahedra": Mesh(dim=3, nodes=tet.nodes, elements=np.zeros((0, 4)), mu=[]),
    }


KEYED_BUILD_CASES = keyed_build_cases()


class TestMeshValidation:
    def test_rejects_degenerate_element(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear
        with pytest.raises(ValueError, match="element 0"):
            Mesh(dim=2, nodes=nodes, elements=np.array([[0, 1, 2]]), mu=np.array([1.0]))

    def test_rejects_bad_node_index(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="invalid node index"):
            Mesh(dim=2, nodes=nodes, elements=np.array([[0, 1, 9]]), mu=np.array([1.0]))

    def test_rejects_nonpositive_mu(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="mu of element 0"):
            Mesh(dim=2, nodes=nodes, elements=np.array([[0, 1, 2]]), mu=np.array([0.0]))

    def test_rejects_nonfinite_nodes(self):
        nodes = np.array([[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            Mesh(dim=2, nodes=nodes, elements=np.array([[0, 1, 2]]), mu=np.array([1.0]))

    def test_arrays_are_immutable(self, reference_triangle):
        with pytest.raises(ValueError):
            reference_triangle.nodes[0, 0] = 5.0


def scrambled_mesh(kind, n, rng):
    """A jittered mesh whose elements list their vertices in random order, so some volumes are negative."""
    mesh = jittered_mesh(kind, n, rng)
    return Mesh(dim=mesh.dim, nodes=mesh.nodes, elements=rng.permuted(mesh.elements, axis=1), mu=mesh.mu)


class TestElementGeometry:
    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 4), ("unit-cube-tet", 2)])
    def test_volumes_match_an_independent_formula(self, kind, n, jitter_rng):
        mesh = scrambled_mesh(kind, n, jitter_rng)
        v = mesh.nodes[mesh.elements]
        a, b = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        if mesh.dim == 2:  # shoelace
            expected = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        else:  # scalar triple product
            expected = np.einsum("ed,ed->e", a, np.cross(b, v[:, 3] - v[:, 0])) / 6.0
        assert mesh.volumes.shape == (mesh.n_elements,)
        assert np.any(mesh.volumes < 0.0) and np.any(mesh.volumes > 0.0)
        assert np.allclose(mesh.volumes, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 4), ("unit-cube-tet", 2)])
    def test_grads_give_barycentric_coordinates_at_the_vertices(self, kind, n, jitter_rng):
        mesh = scrambled_mesh(kind, n, jitter_rng)
        v = mesh.nodes[mesh.elements]
        assert mesh.grads.shape == (mesh.n_elements, mesh.dim + 1, mesh.dim)
        # lambda(v_j) = lambda(v_0) + grads @ (v_j - v_0), with lambda(v_0) the first unit vector.
        lam = np.einsum("eid,ejd->eij", mesh.grads, v - v[:, :1])
        lam[:, 0, :] += 1.0
        assert np.allclose(lam, np.eye(mesh.dim + 1), rtol=0.0, atol=1e-12)

    def test_geometry_is_read_only_and_built_once(self, jitter_rng):
        mesh = scrambled_mesh("unit-square-tri", 3, jitter_rng)
        assert mesh.volumes is mesh.volumes and mesh.grads is mesh.grads
        for arr in (mesh.volumes, mesh.grads):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_equality_and_repr_leave_the_geometry_out(self, jitter_rng):
        mesh = scrambled_mesh("unit-cube-tet", 1, jitter_rng)
        twin = Mesh(dim=mesh.dim, nodes=mesh.nodes, elements=mesh.elements, mu=mesh.mu)
        assert mesh.volumes.size and mesh.grads.size  # built on one mesh only
        assert mesh == twin and "volumes" not in vars(twin) and "grads" not in vars(twin)
        assert repr(mesh) == repr(twin) == (f"Mesh(dim=3, nodes={mesh.nodes!r}, elements={mesh.elements!r},"
                                            f" mu={mesh.mu!r})")

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_mesh_with_no_elements(self, dim):
        mesh = Mesh(dim=dim, nodes=np.eye(dim + 1, dim), elements=np.zeros((0, dim + 1)), mu=[])
        assert mesh.volumes.shape == (0,) and mesh.grads.shape == (0, dim + 1, dim)


class TestEdgeTable:
    def test_single_reference_triangle(self, reference_triangle):
        table = build_edge_table(reference_triangle)
        assert table.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert table.edge_count == 3

    def test_two_triangles_share_one_edge(self, two_triangle_square):
        table = build_edge_table(two_triangle_square)
        assert table.edge_count == 5  # 6 local edges, 1 shared
        shared = table.edges.tolist().index([0, 2])
        assert shared in table.element_edges[0]
        assert shared in table.element_edges[1]

    def test_structured_2x2_edge_count_matches_brute_force(self):
        mesh = generate_structured_mesh("unit-square-tri", 2, 1.0)
        table = build_edge_table(mesh)
        oracle = brute_force_edges(mesh)
        assert table.edges.tolist() == [list(p) for p in oracle]
        assert table.edge_count == 16

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 3), ("unit-cube-tet", 2)])
    def test_edge_count_matches_brute_force(self, kind, n):
        mesh = generate_structured_mesh(kind, n, 1.0)
        table = build_edge_table(mesh)
        assert table.edges.tolist() == [list(p) for p in brute_force_edges(mesh)]

    def test_deterministic_rebuild(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 3, jitter_rng)
        t1 = build_edge_table(mesh)
        t2 = build_edge_table(mesh)
        assert np.array_equal(t1.edges, t2.edges)
        assert np.array_equal(t1.element_edges, t2.element_edges)
        assert np.array_equal(t1.element_signs, t2.element_signs)

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 3), ("unit-cube-tet", 1)])
    def test_orientation_consistency(self, kind, n):
        # sign * local direction must always reproduce the stored low->high edge
        mesh = generate_structured_mesh(kind, n, 1.0)
        table = build_edge_table(mesh)
        pairs = LOCAL_EDGE_VERTICES[mesh.dim]
        for e, elem in enumerate(mesh.elements):
            for k, (p, q) in enumerate(pairs):
                a, b = int(elem[p]), int(elem[q])
                if table.element_signs[e, k] < 0:
                    a, b = b, a
                assert [a, b] == table.edges[table.element_edges[e, k]].tolist()

    def test_shared_edges_map_to_same_index(self, jitter_rng):
        mesh = jittered_mesh("unit-cube-tet", 1, jitter_rng)
        table = build_edge_table(mesh)
        seen = {}
        pairs = LOCAL_EDGE_VERTICES[3]
        for e, elem in enumerate(mesh.elements):
            for k, (p, q) in enumerate(pairs):
                key = tuple(sorted((int(elem[p]), int(elem[q]))))
                idx = int(table.element_edges[e, k])
                assert seen.setdefault(key, idx) == idx


class TestKeyedEdgeTable:
    """The int64-key build against the np.unique(axis=0) row sort it replaced, bit for bit."""

    @pytest.mark.parametrize("case", sorted(KEYED_BUILD_CASES))
    def test_bitwise_equal_to_row_sort(self, case):
        mesh = KEYED_BUILD_CASES[case]
        table = build_edge_table(mesh)
        for got, want in zip((table.edges, table.element_edges, table.element_signs),
                             row_sorted_edge_table(mesh)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(KEYED_BUILD_CASES))
    def test_shapes_dtypes_and_read_only(self, case):
        mesh = KEYED_BUILD_CASES[case]
        table = build_edge_table(mesh)
        n_local = len(LOCAL_EDGE_VERTICES[mesh.dim])
        assert table.edges.shape == (table.edge_count, 2) and table.edges.dtype == np.int64
        assert table.element_edges.shape == (mesh.n_elements, n_local)
        assert table.element_edges.dtype == np.int64
        assert table.element_signs.shape == (mesh.n_elements, n_local)
        assert table.element_signs.dtype == np.int8
        for arr in (table.edges, table.element_edges, table.element_signs):
            assert not arr.flags.writeable

    def test_unused_nodes_hold_no_edge(self):
        mesh = KEYED_BUILD_CASES["unused nodes 2D"]
        used = np.unique(mesh.elements)
        assert np.array_equal(np.unique(build_edge_table(mesh).edges), used)
        assert len(used) < mesh.n_nodes


class TestCheckEdgeTable:
    @pytest.mark.parametrize("case", sorted(KEYED_BUILD_CASES))
    def test_accepts_the_mesh_own_table(self, case):
        mesh = KEYED_BUILD_CASES[case]
        check_edge_table(mesh, build_edge_table(mesh))

    @pytest.mark.parametrize("kind", ["unit-square-tri", "unit-cube-tet"])
    def test_rejects_every_malformed_table(self, kind, jitter_rng):
        mesh = jittered_mesh(kind, 2, jitter_rng)
        for table in malformed_tables(mesh, jitter_rng).values():
            with pytest.raises(ValueError, match="the edge table was built for another mesh"):
                check_edge_table(mesh, table)


class TestPointLocation:
    def test_interior_point(self):
        mesh = generate_structured_mesh("unit-square-tri", 2, 1.0)
        loc = PointLocator(mesh).locate(np.array([0.25, 0.25]))
        assert loc.status == "inside"
        assert abs(loc.barycentric.sum() - 1.0) < 1e-12

    def test_point_on_shared_edge_takes_lowest_element(self, two_triangle_square):
        locator = PointLocator(two_triangle_square)
        loc = locator.locate(np.array([0.5, 0.5]))  # on the diagonal, inside both
        assert loc.status == "inside"
        assert loc.element == 0

    def test_far_outside(self):
        mesh = generate_structured_mesh("unit-square-tri", 2, 1.0)
        loc = PointLocator(mesh).locate(np.array([2.0, 2.0]))
        assert loc.status == "outside"
        assert loc.element == 0
        assert loc.barycentric.shape == (mesh.dim + 1,)
        assert np.all(np.isnan(loc.barycentric))

    def test_snap_just_outside_boundary(self):
        mesh = generate_structured_mesh("unit-square-tri", 2, 1.0)
        locator = PointLocator(mesh)
        loc = locator.locate(np.array([0.5, -1e-12]), tol=0.0)
        assert loc.status == "snapped"
        assert loc.barycentric.min() >= 0.0
        assert abs(loc.barycentric.sum() - 1.0) < 1e-12

    def test_every_centroid_locates_to_its_element(self, jitter_rng):
        mesh = jittered_mesh("unit-square-tri", 4, jitter_rng)
        locator = PointLocator(mesh)
        centroids = mesh.nodes[mesh.elements].mean(axis=1)
        for e, c in enumerate(centroids):
            loc = locator.locate(c)
            assert loc.status == "inside"
            assert loc.element == e

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 3), ("unit-cube-tet", 2)])
    def test_matches_linear_scan(self, kind, n, jitter_rng):
        # bins are an acceleration only; answers must agree with brute force for
        # inside points, points just off the boundary (snapped) and outside points
        mesh = jittered_mesh(kind, n, jitter_rng)
        locator = PointLocator(mesh)
        origins, inv_edges, grads = (locator._origins, locator._inv_edges, mesh.grads)
        snap = SNAP_REL_TOL * mesh.bbox_diagonal()
        lo, hi = mesh.bounding_box()
        points = jitter_rng.uniform(-0.1, 1.1, size=(60, mesh.dim))
        near = jitter_rng.uniform(0.0, 1.0, size=(20, mesh.dim))
        near[np.arange(20), np.arange(20) % mesh.dim] = np.where(np.arange(20) < 10, -1e-10, 1 + 1e-10)
        # Points on bin boundaries, on the box's max faces and within the snap
        # distance outside the box, one coordinate moved per point.
        on_bins = jitter_rng.uniform(0.0, 1.0, size=(30, mesh.dim))
        for i in range(30):
            start, size, count = locator._axes[i % mesh.dim]
            on_bins[i, i % mesh.dim] = start + int(jitter_rng.integers(count + 1)) * size
        rows, axes = np.arange(10), np.arange(10) % mesh.dim
        faces = jitter_rng.uniform(0.0, 1.0, size=(10, mesh.dim))
        faces[rows, axes] = hi[axes]
        beyond = jitter_rng.uniform(0.0, 1.0, size=(10, mesh.dim))
        beyond[rows, axes] = np.where(rows < 5, lo[axes] - 0.5 * snap, hi[axes] + 0.5 * snap)
        clouds = [points, near, on_bins, faces, beyond]
        if mesh.dim == 3:
            # The overhang-3d target: the box reaches past the mesh up to z = 1.25.
            clouds.append(jitter_rng.uniform(0.0, 1.0, size=(40, 3)) * [1.0, 1.0, 1.25])
        statuses = set()
        for p in np.concatenate(clouds):
            loc = locator.locate(p)
            hits, dists, lams = [], [], []
            for e in range(mesh.n_elements):
                lam1 = inv_edges[e] @ (p - origins[e])
                lam = np.concatenate([[1 - lam1.sum()], lam1])
                if lam.min() >= -1e-12:
                    hits.append(e)
                lams.append(lam)
                dists.append(max(max(-l / np.linalg.norm(g), 0.0) for l, g in zip(lam, grads[e])))
            if hits:
                assert (loc.status, loc.element) == ("inside", min(hits))
                assert np.abs(loc.barycentric - lams[min(hits)]).max() <= 1e-14
            else:
                # outside a boundary face, elements that share its plane tie up to round-off
                nearest = np.flatnonzero(np.array(dists) <= min(dists) + 1e-12)
                assert loc.status == ("snapped" if min(dists) <= snap else "outside")
                if loc.status == "snapped":
                    assert loc.element in nearest
                else:
                    assert loc.element == 0 and np.all(np.isnan(loc.barycentric))
            statuses.add(loc.status)
        assert statuses == {"inside", "snapped", "outside"}

    @pytest.mark.parametrize("kind", ["unit-square-tri", "unit-cube-tet"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_outside(self, kind, value):
        mesh = generate_structured_mesh(kind, 2, 1.0)
        locator = PointLocator(mesh)
        for axis in range(mesh.dim):
            p = np.full(mesh.dim, 0.5)
            p[axis] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loc = locator.locate(p)
            assert loc.status == "outside"
            assert loc.barycentric.shape == (mesh.dim + 1,)
            assert np.all(np.isnan(loc.barycentric))

    def test_random_barycentric_points_are_inside(self, jitter_rng):
        mesh = jittered_mesh("unit-cube-tet", 1, jitter_rng)
        locator = PointLocator(mesh)
        verts = mesh.nodes[mesh.elements]
        for _ in range(30):
            e = int(jitter_rng.integers(mesh.n_elements))
            lam = jitter_rng.dirichlet(np.ones(4))
            p = lam @ verts[e]
            loc = locator.locate(p)
            assert loc.status == "inside"
            assert abs(loc.barycentric.sum() - 1.0) < 1e-12

    def test_rejects_negative_tol(self):
        mesh = generate_structured_mesh("unit-square-tri", 1, 1.0)
        with pytest.raises(ValueError):
            PointLocator(mesh).locate(np.array([0.5, 0.5]), tol=-1.0)

    @pytest.mark.parametrize("tol", [2e-12, 1e-6, np.nan])
    def test_rejects_tol_beyond_bin_padding(self, tol):
        # Only up to 1e-12 does the snap-padded bin provably list every element holding x.
        locator = PointLocator(generate_structured_mesh("unit-square-tri", 1, 1.0))
        assert locator.locate(np.array([0.5, 0.5]), tol=1e-12).status == "inside"
        with pytest.raises(ValueError, match="tol must be in"):
            locator.locate(np.array([0.5, 0.5]), tol=tol)

    @pytest.mark.parametrize("kind", ["unit-square-tri", "unit-cube-tet"])
    def test_beyond_padded_box_is_outside_without_arithmetic(self, kind, jitter_rng):
        mesh = jittered_mesh(kind, 2, jitter_rng)
        locator = PointLocator(mesh)
        lo, hi = mesh.bounding_box()
        snap = SNAP_REL_TOL * mesh.bbox_diagonal()
        for axis in range(mesh.dim):
            for c in (lo[axis] - 4 * snap, hi[axis] + 4 * snap, 1e300, -1e300):
                p = np.full(mesh.dim, 0.5)
                p[axis] = c
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    loc = locator.locate(p)
                assert (loc.status, loc.element) == ("outside", 0)
                assert np.all(np.isnan(loc.barycentric))


class TestLocatorBins:
    """The locator's CSR bins: offsets (n_bins + 1,) and element ids, both int64."""

    @staticmethod
    def bins(locator, b):
        return locator._ids[locator._offsets[b]:locator._offsets[b + 1]]

    @staticmethod
    def box_entries(locator, mesh):
        """(bin, element) for every bin that an element's box, padded by the snap distance,
        touches, in element order."""
        snap = SNAP_REL_TOL * mesh.bbox_diagonal()
        counts = [count for _, _, count in locator._axes]
        for e, verts in enumerate(mesh.nodes[mesh.elements]):
            ranges = []
            for (start, size, count), a, b in zip(locator._axes, verts.min(axis=0) - snap,
                                                  verts.max(axis=0) + snap):
                first, last = (min(max(math.floor((c - start) / size), 0), count - 1) for c in (a, b))
                ranges.append(range(first, last + 1))
            for key in itertools.product(*ranges):
                yield int(np.ravel_multi_index(key, counts)), e

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 1), ("unit-square-tri", 5),
                                        ("unit-cube-tet", 1), ("unit-cube-tet", 3)])
    def test_element_listed_in_every_bin_its_box_touches(self, kind, n, jitter_rng):
        mesh = jittered_mesh(kind, n, jitter_rng)
        locator = PointLocator(mesh)
        counts = [count for _, _, count in locator._axes]
        expected = {}
        for b, e in self.box_entries(locator, mesh):
            expected.setdefault(b, []).append(e)
        assert len(locator._offsets) == math.prod(counts) + 1
        for b in range(math.prod(counts)):
            assert self.bins(locator, b).tolist() == expected.get(b, [])

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 2), ("unit-cube-tet", 6)])
    def test_bin_lists_every_element_within_snap_distance(self, kind, n, jitter_rng):
        # With 2 and 10 bins per axis, the unjittered boundary nodes at 0.5 lie on a
        # bin boundary, so elements that start or end there are listed only by padding.
        mesh = jittered_mesh(kind, n, jitter_rng)
        locator = PointLocator(mesh)
        snap = SNAP_REL_TOL * mesh.bbox_diagonal()
        lo, hi = mesh.bounding_box()
        verts = mesh.nodes[mesh.elements]
        vmin, vmax = verts.min(axis=1), verts.max(axis=1)
        box_lo, box_hi = vmin - snap, vmax + snap
        # Points on, just inside and just beyond the box faces.
        faces = jitter_rng.uniform(0.0, 1.0, size=(100, mesh.dim))
        rows, axes = np.arange(100), np.arange(100) % mesh.dim
        offset = np.array([-snap, -0.5 * snap, 0.0, 0.5 * snap, snap])[rows % 5]
        faces[rows, axes] = np.where(rows % 2, lo[axes], hi[axes]) + offset
        # Each element's centroid moved to half the snap distance beyond a face of its box.
        across = []
        for axis in range(mesh.dim):
            for bound in (vmin - 0.5 * snap, vmax + 0.5 * snap):
                p = verts.mean(axis=1)
                p[:, axis] = bound[:, axis]
                across.append(p)
        for p in np.concatenate([faces, *across]):
            b = 0
            for c, (start, size, count) in zip(p.tolist(), locator._axes):
                b = b * count + min(max(math.floor((c - start) / size), 0), count - 1)
            holders = np.flatnonzero(np.all((box_lo <= p) & (p <= box_hi), axis=1))
            assert set(holders.tolist()) <= set(self.bins(locator, b).tolist())

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 9), ("unit-cube-tet", 4)])
    def test_csr_is_the_two_key_sort(self, kind, n, jitter_rng):
        """The stable sort by bin gives the arrays of sorting the entries by (bin, element)."""
        mesh = jittered_mesh(kind, n, jitter_rng)
        locator = PointLocator(mesh)
        bins, elements = np.array(list(self.box_entries(locator, mesh))).T
        shuffle = jitter_rng.permutation(len(bins))
        bins, elements = bins[shuffle], elements[shuffle]
        n_bins = len(locator._offsets) - 1
        assert np.array_equal(locator._ids, elements[np.lexsort((elements, bins))])
        assert np.array_equal(locator._offsets, np.concatenate([[0], np.cumsum(np.bincount(bins, minlength=n_bins))]))

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 6), ("unit-cube-tet", 3)])
    def test_bin_ids_strictly_ascending(self, kind, n, jitter_rng):
        locator = PointLocator(jittered_mesh(kind, n, jitter_rng))
        assert locator._offsets[0] == 0 and locator._offsets[-1] == len(locator._ids)
        assert np.all(np.diff(locator._offsets) >= 0)
        for b in range(len(locator._offsets) - 1):
            assert np.all(np.diff(self.bins(locator, b)) > 0)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_bins_sized_from_element_count(self, n):
        mesh = generate_structured_mesh("unit-cube-tet", n, 1.0)
        locator = PointLocator(mesh)
        counts = [count for _, _, count in locator._axes]
        side = math.floor(mesh.n_elements ** (1 / 3))   # 3, 7 and 14 bins per axis
        assert counts == [side] * 3
        assert np.diff(locator._offsets).max() <= 64

    def test_bin_count_capped_per_axis(self):
        # A 1000 x 1 strip would want 358 x 0 bins; each axis keeps 1..128.
        mesh = generate_structured_mesh("unit-square-tri", 8, 1.0)
        strip = Mesh(dim=2, nodes=mesh.nodes * [1000.0, 1.0], elements=mesh.elements, mu=mesh.mu)
        locator = PointLocator(strip)
        assert [count for _, _, count in locator._axes] == [128, 1]
        for p in ([1.0, 0.5], [999.0, 0.5], [500.0, 0.25]):
            assert locator.locate(np.array(p)).status == "inside"

    def test_only_int64_bins_and_per_element_floats(self, jitter_rng):
        mesh = jittered_mesh("unit-cube-tet", 2, jitter_rng)
        locator = PointLocator(mesh)
        assert locator._offsets.dtype == np.int64 and locator._ids.dtype == np.int64
        for name, value in vars(locator).items():
            assert not isinstance(value, dict), name
            if isinstance(value, list):
                assert not any(isinstance(item, np.ndarray) for item in value), name
            if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                assert len(value) == mesh.n_elements, name


class TestStructuredMeshes:
    def test_minimal_square_split(self):
        mesh = generate_structured_mesh("unit-square-tri", 1, 1.0)
        assert mesh.n_elements == 2
        assert mesh.n_nodes == 4

    def test_square_counts_formula(self):
        mesh = generate_structured_mesh("unit-square-tri", 2, 1.0)
        assert mesh.n_elements == 8
        assert mesh.n_nodes == 9

    def test_cube_kuhn_split(self):
        mesh = generate_structured_mesh("unit-cube-tet", 1, 1.0)
        assert mesh.n_elements == 6
        assert mesh.n_nodes == 8

    @pytest.mark.parametrize("n", [2, 3])
    def test_cube_counts_formula(self, n):
        mesh = generate_structured_mesh("unit-cube-tet", n, 1.0)
        assert mesh.n_elements == 6 * n**3
        assert mesh.n_nodes == (n + 1) ** 3

    def test_volumes_tile_the_domain(self):
        for kind in ("unit-square-tri", "unit-cube-tet"):
            mesh = generate_structured_mesh(kind, 2, 1.0)
            assert abs(np.abs(mesh.volumes).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", ["unit-square-tri", "unit-cube-tet"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_numbering_matches_the_cell_loop(self, kind, n):
        nodes, elements = structured_mesh_by_loops(kind, n)
        mesh = generate_structured_mesh(kind, n, 2.5)
        assert mesh.nodes.tobytes() == nodes.tobytes() and mesh.nodes.shape == nodes.shape
        assert mesh.elements.tobytes() == elements.tobytes()
        assert mesh.elements.shape == elements.shape
        assert np.all(mesh.mu == 2.5)

    def test_rejects_zero_subdivisions(self):
        with pytest.raises(ValueError):
            generate_structured_mesh("unit-square-tri", 0, 1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_structured_mesh("hex-grid", 1, 1.0)


CANONICAL_TWO_TRIANGLES = """stgp-mesh 1
dim 2
nodes 4
0 0.0 0.0
1 1.0 0.0
2 1.0 1.0
3 0.0 1.0
elements 2
0 0 1 2
1 0 2 3
mu 2
0 1.0
1 2.5
"""


class TestMeshIO:
    def test_read_canonical_file(self):
        mesh = read_mesh(CANONICAL_TWO_TRIANGLES)
        assert mesh.n_nodes == 4
        assert mesh.n_elements == 2
        assert mesh.mu.tolist() == [1.0, 2.5]

    def test_write_read_round_trip_is_byte_identical(self):
        mesh = read_mesh(CANONICAL_TWO_TRIANGLES)
        assert write_mesh(mesh) == CANONICAL_TWO_TRIANGLES

    def test_read_write_identity_on_mesh_values(self, jitter_rng):
        mesh = jittered_mesh("unit-cube-tet", 1, jitter_rng)
        back = read_mesh(write_mesh(mesh))
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.elements, mesh.elements)
        assert np.array_equal(back.mu, mesh.mu)

    def test_out_of_range_node_index_names_line(self):
        text = CANONICAL_TWO_TRIANGLES.replace("0 0 1 2", "0 0 1 99")
        with pytest.raises(MeshFormatError, match="line 9") as err:
            read_mesh(text)
        assert "node 99" in str(err.value)
        assert err.value.line == 9

    def test_missing_mu_entry_rejected(self):
        text = CANONICAL_TWO_TRIANGLES.replace("mu 2", "mu 1").replace("1 2.5\n", "")
        with pytest.raises(MeshFormatError, match="mu count"):
            read_mesh(text)

    def test_duplicate_mu_entry_rejected(self):
        text = CANONICAL_TWO_TRIANGLES.replace("1 2.5", "0 2.5")
        with pytest.raises(MeshFormatError, match="duplicate mu"):
            read_mesh(text)

    def test_nan_mu_reaches_positivity_check(self):
        text = CANONICAL_TWO_TRIANGLES.replace("1 2.5", "1 nan")
        with pytest.raises(MeshFormatError, match="mu of element 1 must be a strictly positive finite") as err:
            read_mesh(text)
        assert err.value.line == 13

    def test_duplicate_after_nan_mu_names_its_line(self):
        text = CANONICAL_TWO_TRIANGLES.replace("0 1.0\n1 2.5", "0 nan\n0 1.0")
        with pytest.raises(MeshFormatError, match="duplicate mu entry for element 0") as err:
            read_mesh(text)
        assert err.value.line == 13

    def test_malformed_header_names_line(self):
        with pytest.raises(MeshFormatError, match="line 1"):
            read_mesh("stgp-mesh 2\ndim 2\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# generated\n\n" + CANONICAL_TWO_TRIANGLES.replace("dim 2", "dim 2  # planar")
        mesh = read_mesh(text)
        assert mesh.dim == 2

    def test_3d_round_trip(self):
        mesh = generate_structured_mesh("unit-cube-tet", 1, 3.0)
        text = write_mesh(mesh)
        assert write_mesh(read_mesh(text)) == text


class TestMeshFaultLines:
    """Faults that Mesh detects are reported at the line holding the bad row."""

    # 13 lines: nodes on lines 4-7, elements on lines 9-10, mu on lines 12-13.
    TEXT = write_mesh(generate_structured_mesh("unit-square-tri", 1, 1.0))

    @pytest.mark.parametrize("line, replacement, message", [
        (5, "1 nan 1.0", "node 1 coordinates must be finite"),
        (12, "0 -1", "mu of element 0"),
        (10, "1 0 3 3", "element 1 is degenerate"),
    ])
    def test_fault_named_at_its_line(self, line, replacement, message):
        lines = self.TEXT.splitlines()
        lines[line - 1] = replacement
        with pytest.raises(MeshFormatError, match=message) as err:
            read_mesh("\n".join(lines) + "\n")
        assert err.value.line == line

    def test_mu_fault_named_at_its_line_in_any_order(self):
        text = self.TEXT.replace("0 1.0\n1 1.0\n", "1 -1\n0 1.0\n")
        with pytest.raises(MeshFormatError, match="mu of element 1") as err:
            read_mesh(text)
        assert err.value.line == 12
