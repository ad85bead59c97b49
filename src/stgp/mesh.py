"""Simplicial meshes: edge enumeration, point location, structured generation, file I/O."""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

# Local edge enumeration of a simplex, as (vertex position, vertex position)
# pairs in lexicographic order. All modules share this ordering.
LOCAL_EDGE_VERTICES = {
    2: ((0, 1), (0, 2), (1, 2)),
    3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}

DEGENERACY_REL_TOL = 1e-14
SNAP_REL_TOL = 1e-8


class MeshFormatError(ValueError):
    """Malformed stgp-mesh, stgp-field or stgp-matrix text. Carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MeshRowError(ValueError):
    """A Mesh input row is invalid: row `row` of `table`, one of 'nodes', 'elements' and 'mu'."""

    def __init__(self, table: str, row: int, message: str):
        super().__init__(message)
        self.table = table
        self.row = row


@dataclass(frozen=True)
class Mesh:
    """Simplicial mesh (triangles in 2D, tetrahedra in 3D) with per-element permeability.

    Immutable after construction; arrays are locked read-only so instances can be
    shared freely between threads.
    """

    dim: int
    nodes: np.ndarray      # (n_nodes, dim) float64, meters
    elements: np.ndarray   # (n_elements, dim+1) int64 node indices
    mu: np.ndarray         # (n_elements,) float64, H/m, > 0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.float64))
        elements = np.ascontiguousarray(np.asarray(self.elements, dtype=np.int64))
        mu = np.ascontiguousarray(np.asarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "mu", mu)

        if nodes.ndim != 2 or nodes.shape[1] != self.dim:
            raise ValueError(f"nodes must have shape (n, {self.dim})")
        if not np.all(np.isfinite(nodes)):
            bad = int(np.argmax(~np.isfinite(nodes).all(axis=1)))
            raise MeshRowError("nodes", bad, f"node {bad} coordinates must be finite")
        if elements.ndim != 2 or elements.shape[1] != self.dim + 1:
            raise ValueError(f"elements must have shape (n, {self.dim + 1})")
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            bad, k = np.argwhere((elements < 0) | (elements >= len(nodes)))[0].tolist()
            raise MeshRowError("elements", bad, f"element {bad} references node {elements[bad, k]},"
                                                f" an invalid node index; valid range is 0..{len(nodes) - 1}")
        if mu.shape != (len(elements),):
            raise ValueError("mu must hold exactly one value per element")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
            bad = int(np.argmax(~(np.isfinite(mu) & (mu > 0.0))))
            raise MeshRowError("mu", bad, f"mu of element {bad} must be a strictly positive finite value")

        vols = signed_volumes(self)
        scale = float(np.linalg.norm(nodes.max(axis=0) - nodes.min(axis=0))) if len(nodes) else 0.0
        limit = DEGENERACY_REL_TOL * scale**self.dim
        if np.any(np.abs(vols) <= limit):
            bad = int(np.argmax(np.abs(vols) <= limit))
            raise MeshRowError("elements", bad, f"element {bad} is degenerate (|volume| <= {limit:g})")

        for arr in (nodes, elements, mu):
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.nodes.min(axis=0), self.nodes.max(axis=0)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))


def signed_volumes(mesh: Mesh) -> np.ndarray:
    """Signed measure of every element (area in 2D, volume in 3D)."""
    verts = mesh.nodes[mesh.elements]              # (ne, dim+1, dim)
    edges = verts[:, 1:, :] - verts[:, :1, :]      # (ne, dim, dim)
    det = np.linalg.det(edges)
    return det / math.factorial(mesh.dim)


def barycentric_transforms(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element affine maps for barycentric coordinates.

    Returns (origins, inv_edges, grads):
      origins   (ne, d)       first vertex of each element
      inv_edges (ne, d, d)    rows give lambda_1..lambda_d as inv_edges @ (x - origin)
      grads     (ne, d+1, d)  constant gradient of every barycentric coordinate
    """
    verts = mesh.nodes[mesh.elements]
    origins = verts[:, 0, :]
    edges = np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)  # columns = edge vectors
    inv_edges = np.linalg.inv(edges)
    grads = np.empty((mesh.n_elements, mesh.dim + 1, mesh.dim))
    grads[:, 1:, :] = inv_edges
    grads[:, 0, :] = -inv_edges.sum(axis=1)
    return origins, inv_edges, grads


@dataclass(frozen=True)
class EdgeTable:
    """Globally oriented edge enumeration of a mesh.

    Edges are stored as (node_a, node_b) with node_a < node_b, sorted
    lexicographically, so two builds of the same mesh are identical.
    element_signs[e, k] is +1 iff the k-th local edge of element e runs from the
    lower to the higher global node index.
    """

    edges: np.ndarray          # (M, 2) int64, node_a < node_b, lexicographic
    element_edges: np.ndarray  # (ne, n_local) int64 global edge index
    element_signs: np.ndarray  # (ne, n_local) int8 in {+1, -1}

    def __post_init__(self):
        for name in ("edges", "element_edges", "element_signs"):
            arr = np.ascontiguousarray(getattr(self, name))
            object.__setattr__(self, name, arr)
            arr.flags.writeable = False

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_edge_table(mesh: Mesh) -> EdgeTable:
    """Enumerate mesh edges with the ascending-node-index orientation convention."""
    pairs = LOCAL_EDGE_VERTICES[mesh.dim]
    elems = mesh.elements
    n_local = len(pairs)

    a = np.stack([elems[:, p] for p, q in pairs], axis=1)  # (ne, n_local)
    b = np.stack([elems[:, q] for p, q in pairs], axis=1)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    signs = np.where(a < b, 1, -1).astype(np.int8)

    all_pairs = np.stack([lo.ravel(), hi.ravel()], axis=1)
    edges, inverse = np.unique(all_pairs, axis=0, return_inverse=True)
    element_edges = inverse.reshape(lo.shape).astype(np.int64)
    return EdgeTable(edges=edges, element_edges=element_edges, element_signs=signs)


def check_points(points: np.ndarray, dim: int, ndim: int, what: str = "mesh") -> None:
    """Raise ValueError unless points is one point (ndim 1) or a stack of points (ndim 2)
    of `dim` coordinates each."""
    n = points.shape[-1] if points.ndim else 1
    if n != dim:
        raise ValueError(f"a {n}-D point does not fit a {dim}-D {what}")
    if points.ndim != ndim:
        want = f"({dim},)" if ndim == 1 else f"(P, {dim})"
        raise ValueError(f"expected points of shape {want}, got {points.shape}")


@dataclass(frozen=True)
class LocationResult:
    element: int             # 0 when outside
    barycentric: np.ndarray  # (dim+1,), sums to 1; all NaN when outside
    status: str              # 'inside' | 'snapped' | 'outside'


class PointLocator:
    """Uniform bins over the mesh bounding box, stored as CSR, for O(1) expected point location.

    Bins are sized from the element count: each axis gets
    extent * (n_elements / box volume)^(1/dim) of them, at least 1 and at
    most 128, so a bin covers about one element's volume. Every element is
    listed in each bin that its bounding box, padded by the snap distance,
    touches, so a point's bin lists every element within the snap distance
    of it and alone decides its status. Bin b's element ids are
    _ids[_offsets[b]:_offsets[b + 1]], ascending, so the first candidate
    that holds a point is the lowest-index one. Pure reads only after
    construction, so a single locator may serve concurrent queries.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        origins, self._inv_edges, self._grads = barycentric_transforms(mesh)
        # Contiguous, so that take() gathers rows without copying the whole array first.
        self._origins = np.ascontiguousarray(origins)
        self._grad_norms = np.linalg.norm(self._grads, axis=2)  # (ne, d+1)
        lo, hi = mesh.bounding_box()
        self._snap_dist = pad = SNAP_REL_TOL * mesh.bbox_diagonal()
        self._lower = (lo - pad).tolist()
        self._upper = (hi + pad).tolist()

        extent = hi - lo
        per_length = (mesh.n_elements / np.prod(extent)) ** (1.0 / mesh.dim)
        counts = np.clip(np.floor(extent * per_length), 1, 128).astype(np.int64)
        size = extent / counts
        self._axes = list(zip(lo.tolist(), size.tolist(), counts.tolist()))

        # One entry per (element, touched bin): an element's bins are the box
        # first..last of bin coordinates, walked in C order by its rank.
        verts = mesh.nodes[mesh.elements]
        first = np.clip(np.floor((verts.min(axis=1) - pad - lo) / size).astype(np.int64), 0, counts - 1)
        last = np.clip(np.floor((verts.max(axis=1) + pad - lo) / size).astype(np.int64), 0, counts - 1)
        span = last - first + 1
        per_element = span.prod(axis=1)
        elements = np.repeat(np.arange(mesh.n_elements), per_element)
        rank = np.arange(len(elements)) - np.repeat(np.cumsum(per_element) - per_element, per_element)
        bins = np.zeros(len(elements), dtype=np.int64)
        stride = 1
        for axis in reversed(range(mesh.dim)):
            step = span[elements, axis]
            bins += (first[elements, axis] + rank % step) * stride
            rank //= step
            stride *= int(counts[axis])
        self._ids = elements[np.lexsort((elements, bins))]
        self._offsets = np.zeros(stride + 1, dtype=np.int64)
        np.cumsum(np.bincount(bins, minlength=stride), out=self._offsets[1:])

    def element_gradients(self, element) -> np.ndarray:
        """Barycentric-coordinate gradients of an element index, (dim+1, dim), or of an
        array of element indices (...,), (..., dim+1, dim)."""
        return self._grads[element]

    def locate(self, x, tol: float = 1e-12) -> LocationResult:
        """Locate x among the elements of its bin.

        x is inside the lowest-index candidate whose barycentric coordinates
        are all >= -tol. Failing that, it is snapped to the nearest candidate
        within the snap distance, estimated from barycentric violations: each
        negative coordinate sits -lam/|grad lam| below its opposite face
        plane. Otherwise, and always beyond the padded box or for a NaN or
        infinite coordinate, x is outside: element 0, a NaN barycentric row.
        tol is at most 1e-12, so that an element holding x lies within the
        snap distance of it and is listed in its bin.
        """
        if not 0.0 <= tol <= 1e-12:
            raise ValueError(f"tol must be in [0, 1e-12], got {tol!r}")
        x = np.asarray(x, dtype=float)
        check_points(x, self.mesh.dim, 1)
        coords = x.tolist()
        elements = self._ids[:0]
        # NaN and inf fail the box test, so they reach no arithmetic.
        if all(map(float.__le__, self._lower, coords)) and all(map(float.__le__, coords, self._upper)):
            # The build's clip(floor((c - lo) / size)): int() differs from floor
            # only below 0, which the clamp sends to bin 0 either way.
            b = 0
            for c, (lo, size, count) in zip(coords, self._axes):
                i = int((c - lo) / size)
                b = b * count + (0 if i < 0 else count - 1 if i >= count else i)
            start, stop = self._offsets[b:b + 2].tolist()
            elements = self._ids[start:stop]
        if len(elements):
            # Direct ufunc reductions: the ndarray methods cost a Python call each.
            tail = np.einsum("eij,ej->ei", self._inv_edges.take(elements, axis=0),
                             x - self._origins.take(elements, axis=0))
            lam = np.concatenate([1.0 - np.add.reduce(tail, axis=1, keepdims=True), tail], axis=1)
            inside = np.minimum.reduce(lam, axis=1) >= -tol
            i = int(inside.argmax())
            if inside[i]:
                return LocationResult(element=int(elements[i]), barycentric=lam[i], status="inside")
            dists = np.where(lam < 0.0, -lam / self._grad_norms.take(elements, axis=0), 0.0)
            dists = np.maximum.reduce(dists, axis=1)
            i = int(dists.argmin())
            if dists[i] <= self._snap_dist:
                lam = np.maximum(lam[i], 0.0)
                lam /= lam.sum()
                return LocationResult(element=int(elements[i]), barycentric=lam, status="snapped")
        return LocationResult(element=0, barycentric=np.full(len(coords) + 1, math.nan), status="outside")


def generate_structured_mesh(kind: str, n: int, mu: float) -> Mesh:
    """Structured unit-domain meshes: 'unit-square-tri' or 'unit-cube-tet' with n subdivisions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "unit-square-tri":
        side = n + 1
        grid = np.linspace(0.0, 1.0, side)
        nodes = np.array([(x, y) for x in grid for y in grid])
        nid = lambda i, j: i * side + j
        tris = []
        for i in range(n):
            for j in range(n):
                v00, v10 = nid(i, j), nid(i + 1, j)
                v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
        elements = np.array(tris, dtype=np.int64)
        return Mesh(dim=2, nodes=nodes, elements=elements, mu=np.full(len(elements), float(mu)))
    if kind == "unit-cube-tet":
        side = n + 1
        grid = np.linspace(0.0, 1.0, side)
        nodes = np.array([(x, y, z) for x in grid for y in grid for z in grid])
        nid = lambda i, j, k: (i * side + j) * side + k
        # Kuhn split: six tetrahedra per cell along monotone vertex chains,
        # so neighbouring cells match on shared faces.
        perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
        tets = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    base = np.array([i, j, k])
                    for perm in perms:
                        corner = base.copy()
                        chain = [nid(*corner)]
                        for axis in perm:
                            corner[axis] += 1
                            chain.append(nid(*corner))
                        tets.append(tuple(chain))
        elements = np.array(tets, dtype=np.int64)
        return Mesh(dim=3, nodes=nodes, elements=elements, mu=np.full(len(elements), float(mu)))
    raise ValueError(f"unknown mesh kind {kind!r}")


# ---------------------------------------------------------------------------
# stgp text formats (mesh, field, matrix): one line reader, one row formatter


def _format_row(row: np.ndarray, sep: str = " ") -> str:
    """One row of numbers as text; a float's repr reads back to the same bits."""
    return sep.join(map(repr, row.tolist()))


class _LineReader:
    """The content lines of an stgp text file after its '<kind> 1' header, '#' starting a comment.

    Every fault raises MeshFormatError naming its line.
    """

    def __init__(self, text: str, kind: str):
        lines = ((lineno, raw.split("#", 1)[0].split()) for lineno, raw in enumerate(text.splitlines(), 1))
        self._lines = [(lineno, tokens) for lineno, tokens in lines if tokens]
        self._pos = 0
        self.last_line = 0
        lineno, tokens = self.next(f"header '{kind} 1'")
        if tokens != [kind, "1"]:
            raise MeshFormatError(lineno, f"expected header '{kind} 1'")

    def next(self, what: str):
        if self._pos >= len(self._lines):
            raise MeshFormatError(self.last_line + 1, f"unexpected end of file, expected {what}")
        lineno, tokens = self._lines[self._pos]
        self._pos += 1
        self.last_line = lineno
        return lineno, tokens

    def expect_done(self):
        if self._pos < len(self._lines):
            lineno, tokens = self._lines[self._pos]
            raise MeshFormatError(lineno, f"unexpected trailing content: {' '.join(tokens)}")

    def parse(self, token: str, what: str, convert=int):
        """A token of the last line read, converted by `convert` (int or float)."""
        try:
            return convert(token)
        except ValueError:
            noun = "integer" if convert is int else "number"
            raise MeshFormatError(self.last_line, f"expected {noun} {what}, got {token!r}") from None

    def keyed(self, keyword: str, what: str, label: str) -> int:
        """The integer of the next line, which must read '<keyword> <integer>'."""
        return int(self.block(1, 2, what, f"expected {what}", (label,), int, keyword)[0][0][0, 0])

    def block(self, count: int, width: int, what: str, shape: str, labels: tuple[str, ...],
              convert=float, keyword: str | None = None) -> tuple[list[np.ndarray], list[int]]:
        """The next `count` lines of `width` tokens each, as arrays (one per label) and line numbers.

        Each label but the last names one leading integer column, (count,);
        the last names the other columns, (count, rest), read by `convert`.
        A line may open with `keyword`, counted in `width`. `what` (end of
        file) and `shape` (wrong line) may use the row `{i}` and token count `{got}`.
        """
        if count < 0:
            raise MeshFormatError(self.last_line, f"count must be >= 0, got {count}")
        skip, lead = int(keyword is not None), len(labels) - 1
        rows = self._lines[self._pos:self._pos + count]
        # Typed buffers hold the numbers unboxed, and reject an integer beyond 64 bits.
        ints, floats = array("q"), array("d")
        rest_into = ints if convert is int else floats
        for i, (lineno, tokens) in enumerate(rows):
            if len(tokens) != width or (skip and tokens[0] != keyword):
                raise MeshFormatError(lineno, shape.format(i=i, got=len(tokens)))
            try:
                ints.extend(map(int, tokens[skip:skip + lead]))
                rest_into.extend(map(convert, tokens[skip + lead:]))
            except OverflowError:
                raise MeshFormatError(lineno, "integer out of the 64-bit range") from None
            except ValueError:
                self.last_line = lineno
                for j, token in enumerate(tokens[skip:]):
                    self.parse(token, labels[min(j, lead)], int if j < lead else convert)
        self._pos += len(rows)
        self.last_line = rows[-1][0] if rows else self.last_line
        if len(rows) < count:
            self.next(what.format(i=len(rows)))  # raises: the file ended early
        rest = width - skip - lead
        ints = np.frombuffer(ints, dtype=np.int64).reshape(count, lead + rest if convert is int else lead)
        last = ints[:, lead:] if convert is int else np.frombuffer(floats, dtype=np.float64).reshape(count, rest)
        return [*ints[:, :lead].T, last], [lineno for lineno, _ in rows]


def _check_ids(ids: np.ndarray, lines: list[int], what: str) -> None:
    bad = np.flatnonzero(ids != np.arange(len(ids)))
    if bad.size:
        i = bad[0]
        raise MeshFormatError(lines[i], f"{what} ids must be 0-based and consecutive, expected {i} got {ids[i]}")


def read_mesh(text: str) -> Mesh:
    """Parse the stgp-mesh text format."""
    rd = _LineReader(text, "stgp-mesh")
    dim = rd.keyed("dim", "'dim <2|3>'", "dimension")
    if dim not in (2, 3):
        raise MeshFormatError(rd.last_line, f"dim must be 2 or 3, got {dim}")

    n_nodes = rd.keyed("nodes", "'nodes <count>'", "node count")
    (ids, nodes), node_lines = rd.block(
        n_nodes, 1 + dim, "node line {i}", f"expected '<id> {'<x> <y>' if dim == 2 else '<x> <y> <z>'}'",
        ("node id", "coordinate"))
    _check_ids(ids, node_lines, "node")

    n_elems = rd.keyed("elements", "'elements <count>'", "element count")
    (ids, elements), element_lines = rd.block(
        n_elems, 2 + dim, "element line {i}", f"expected '<id> ' plus {dim + 1} node indices",
        ("element id", "node index"), int)
    _check_ids(ids, element_lines, "element")

    n_mu = rd.keyed("mu", "'mu <count>'", "mu count")
    if n_mu != n_elems:
        raise MeshFormatError(rd.last_line, f"mu count {n_mu} does not match element count {n_elems}")
    (ids, values), lines = rd.block(n_mu, 2, "mu line {i}", "expected '<element-id> <value>'",
                                    ("element id", "mu value"))
    bad = np.flatnonzero((ids < 0) | (ids >= n_elems))
    if bad.size:
        raise MeshFormatError(lines[bad[0]], f"mu entry names element {ids[bad[0]]},"
                                             f" valid range is 0..{n_elems - 1}")
    # n_elems ids, all in range: with no repeat, every element has exactly one entry.
    repeat = np.setdiff1d(np.arange(n_mu), np.unique(ids, return_index=True)[1])
    if repeat.size:
        raise MeshFormatError(lines[repeat[0]], f"duplicate mu entry for element {ids[repeat[0]]}")
    rd.expect_done()
    order = np.argsort(ids)

    try:
        return Mesh(dim=dim, nodes=nodes, elements=elements, mu=values[order, 0])
    except MeshRowError as exc:
        rows = {"nodes": node_lines, "elements": element_lines, "mu": np.asarray(lines)[order]}
        raise MeshFormatError(int(rows[exc.table][exc.row]), str(exc)) from exc


def write_mesh(mesh: Mesh) -> str:
    """Serialize a mesh to the canonical stgp-mesh text format."""
    out = ["stgp-mesh 1", f"dim {mesh.dim}", f"nodes {mesh.n_nodes}"]
    out += [f"{i} {_format_row(node)}" for i, node in enumerate(mesh.nodes)]
    out.append(f"elements {mesh.n_elements}")
    out += [f"{i} {_format_row(elem)}" for i, elem in enumerate(mesh.elements)]
    out.append(f"mu {mesh.n_elements}")
    out += [f"{i} {value!r}" for i, value in enumerate(mesh.mu.tolist())]
    return "\n".join(out) + "\n"
