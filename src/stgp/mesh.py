"""Simplicial meshes, which hold their element geometry; edge enumeration, point location,
structured generation, file I/O."""
from __future__ import annotations

import itertools
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

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
        line = int(line)
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
    shared freely between threads. It holds the element geometry that location,
    assembly and Whitney evaluation read, `volumes` and `grads`, each built on
    first use. Two threads that first ask for one at once may both build it, a
    benign race: the arrays are identical.
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

        vols = self._signed_volumes()
        scale = float(np.linalg.norm(nodes.max(axis=0) - nodes.min(axis=0))) if len(nodes) else 0.0
        limit = DEGENERACY_REL_TOL * scale**self.dim
        if np.any(np.abs(vols) <= limit):
            bad = int(np.argmax(np.abs(vols) <= limit))
            raise MeshRowError("elements", bad, f"element {bad} is degenerate (|volume| <= {limit:g})")

        for arr in (nodes, elements, mu):
            arr.flags.writeable = False

    def _signed_volumes(self) -> np.ndarray:
        edges = self.nodes[self.elements[:, 1:]] - self.nodes[self.elements[:, :1]]
        return np.linalg.det(edges) / math.factorial(self.dim)

    @cached_property
    def volumes(self) -> np.ndarray:
        """(n_elements,) signed measure of every element (area in 2D, volume in 3D), read-only.

        Built on first use: kept from the construction's degeneracy check, it raised a
        CLI transfer's peak RSS by about 0.4 MiB, though the source mesh never reads it.
        """
        vols = self._signed_volumes()
        vols.flags.writeable = False
        return vols

    @cached_property
    def grads(self) -> np.ndarray:
        """(n_elements, dim+1, dim) gradient of every barycentric coordinate, read-only.

        Rows 1..dim invert the matrix whose columns are the edges from vertex 0,
        and row 0 is minus their sum. Built on first use, which reading a mesh is not.
        """
        edges = self.nodes[self.elements[:, 1:]] - self.nodes[self.elements[:, :1]]
        inv_edges = np.linalg.inv(np.swapaxes(edges, 1, 2))
        grads = np.empty((self.n_elements, self.dim + 1, self.dim))
        grads[:, 1:, :] = inv_edges
        grads[:, 0, :] = -inv_edges.sum(axis=1)
        grads.flags.writeable = False
        return grads

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


@dataclass(frozen=True)
class EdgeTable:
    """Globally oriented edge enumeration of a mesh.

    Edges are stored as (node_a, node_b) with node_a < node_b, sorted
    lexicographically, so two builds of the same mesh are identical;
    `check_edge_table` holds a table to that build.
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
    a = mesh.elements[:, [p for p, _ in pairs]]  # (ne, n_local)
    b = mesh.elements[:, [q for _, q in pairs]]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    signs = np.where(a < b, 1, -1).astype(np.int8)

    # lo * n + hi sorts as the (lo, hi) pairs do; exact in int64 for n_nodes below about 3e9.
    n = mesh.n_nodes
    keys, inverse = np.unique((lo * n + hi).ravel(), return_inverse=True)
    edges = np.stack(np.divmod(keys, n), axis=1)
    element_edges = inverse.reshape(lo.shape).astype(np.int64)
    return EdgeTable(edges=edges, element_edges=element_edges, element_signs=signs)


def check_edge_table(mesh: Mesh, table: EdgeTable) -> None:
    """Raise ValueError unless `table` holds exactly the arrays of build_edge_table(mesh)."""
    own = build_edge_table(mesh)
    if not all(np.array_equal(getattr(table, name), getattr(own, name))
               for name in ("edges", "element_edges", "element_signs")):
        raise ValueError("the edge table was built for another mesh")


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
        # Contiguous copies, so that take() gathers rows without copying the whole array first.
        self._inv_edges = np.ascontiguousarray(mesh.grads[:, 1:, :])
        self._origins = mesh.nodes[mesh.elements[:, 0]]
        self._grad_norms = np.linalg.norm(mesh.grads, axis=2)  # (ne, d+1)
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
        # elements is nondecreasing and holds no bin twice, so a stable sort by bin
        # leaves each bin's ids ascending, as sorting by (bin, element) would.
        self._ids = elements[np.argsort(bins, kind="stable")]
        self._offsets = np.zeros(stride + 1, dtype=np.int64)
        np.cumsum(np.bincount(bins, minlength=stride), out=self._offsets[1:])

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
    """Structured unit-domain meshes: 'unit-square-tri' or 'unit-cube-tet' with n subdivisions.

    Node (i, j[, k]) lies at (i, j[, k]) / n, numbered in row-major order of
    its indices. Cells run in the same order, each split into two triangles
    or six tetrahedra, listed as vertex offsets from the cell's first corner.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "unit-square-tri":
        # Two counter-clockwise triangles per cell, split along its diagonal.
        corners = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])
    elif kind == "unit-cube-tet":
        # Kuhn split: six tetrahedra per cell along monotone vertex chains,
        # so neighbouring cells match on shared faces.
        steps = np.eye(3, dtype=int)[list(itertools.permutations(range(3)))]   # (6, 3, 3)
        corners = np.concatenate([np.zeros((6, 1, 3), dtype=int), np.cumsum(steps, axis=1)],
                                 axis=1)
    else:
        raise ValueError(f"unknown mesh kind {kind!r}")
    dim = corners.shape[2]
    side = n + 1
    strides = side ** np.arange(dim - 1, -1, -1)
    axes = np.meshgrid(*[np.linspace(0.0, 1.0, side)] * dim, indexing="ij")
    nodes = np.stack([axis.ravel() for axis in axes], axis=1)
    cells = np.stack(np.meshgrid(*[np.arange(n)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    elements = ((cells @ strides)[:, None, None] + corners @ strides).reshape(-1, dim + 1)
    return Mesh(dim=dim, nodes=nodes, elements=elements, mu=np.full(len(elements), float(mu)))


# ---------------------------------------------------------------------------
# stgp text formats (mesh, field, matrix): one line reader, one row formatter


def _format_row(row: np.ndarray, sep: str = " ") -> str:
    """One row of numbers as text; a float's repr reads back to the same bits."""
    return sep.join(map(repr, row.tolist()))


# Lines joined per chunk by _join_lines: few enough that a chunk of short
# lines is small beside the text, many enough that the chunks are few.
_JOIN_CHUNK_LINES = 256


def _join_lines(*blocks) -> str:
    """The lines of `blocks` (iterables of lines, in order) as text, each line ending in a newline.

    Each chunk of lines is joined with an empty line appended, so the final
    newline copies nothing, and only one chunk's line objects are alive at a
    time. A writer that passes its long blocks as generators so holds about
    twice its text at the peak: the chunks and their join.
    """
    lines = itertools.chain(*blocks)
    chunks = []
    while chunk := list(itertools.islice(lines, _JOIN_CHUNK_LINES)):
        chunk.append("")
        chunks.append("\n".join(chunk))
    return "".join(chunks)


# An int64 column's token: an optional sign and ASCII digits. A token of this
# form that np.loadtxt rejects lies beyond the 64-bit range.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_rows(texts: list[str], dtype) -> np.ndarray:
    """Lines of whitespace-separated tokens as one row of `dtype` each, parsed in C by np.loadtxt.

    Raises ValueError unless every line holds exactly dtype's columns and
    every token converts: an int64 token is an optional sign and ASCII
    digits within the 64-bit range, a float64 token is Python's float syntax
    in ASCII without underscores, and a string column keeps its token cut to
    the column's length. `texts` must be non-empty, with no blank line.
    """
    with warnings.catch_warnings():
        # Some numpy releases (1.23 deprecated it) still read an int64 token
        # such as '1.0' or '1e3' through float and only warn; it is a fault here.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(texts, dtype=dtype, comments=None, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None


def _row_dtype(width: int, lead: int, integer: bool, keyword: str | None) -> np.dtype:
    """One row of a block: an optional keyword, `lead` int64 columns, then int64 or float64 ones."""
    skip = int(keyword is not None)
    fields = [("lead", np.int64, (lead,)), ("rest", np.int64 if integer else np.float64, (width - skip - lead,))]
    if skip:
        # One character longer than the keyword, so that a longer token, cut, still differs.
        fields.insert(0, ("keyword", f"U{len(keyword) + 1}"))
    return np.dtype(fields)


# Characters of text that _LineReader splits into lines at a time, running on
# to the end of the last line: few enough that a chunk's line objects are
# small beside a long text, many enough that the chunks are few. Each chunk
# costs one np.loadtxt call per block, about 20 us of fixed cost, so 64 KiB
# chunks made a 2 MB field of 680-character lines read 1-2 % slower.
_READ_CHUNK_CHARS = 2**18


class _LineReader:
    """The content lines of an stgp text file after its '<kind> 1' header, '#' starting a comment.

    A cursor over the text, which it splits into lines one chunk at a time,
    when it reaches the chunk. A chunk is cut just after a newline, so its
    lines and their numbers are those of the whole text's splitlines(). `next`
    splits one line into tokens; `block` parses each chunk's share of a run of
    numeric lines with one np.loadtxt call, and only when that fails does
    `_diagnose` look for the faulty line. Every fault raises MeshFormatError
    naming its line.
    """

    def __init__(self, text: str, kind: str):
        self._text = text
        self._end = 0     # where the next chunk starts in the text
        self._first = 1   # the number of the next chunk's first line
        self._lines: list[str] = []                   # the chunk's content lines
        self._numbers = np.zeros(0, dtype=np.int64)   # and their line numbers
        self._pos = 0
        self.last_line = 0
        lineno, tokens = self.next(f"header '{kind} 1'")
        if tokens != [kind, "1"]:
            raise MeshFormatError(lineno, f"expected header '{kind} 1'")

    def _take(self, count: int) -> tuple[list[str], np.ndarray]:
        """Up to `count` next content lines, all of one chunk, and their line numbers;
        none only at the end of the text."""
        while self._pos == len(self._lines) and self._end < len(self._text):
            cut = self._text.find("\n", self._end + _READ_CHUNK_CHARS)
            start, self._end = self._end, len(self._text) if cut < 0 else cut + 1
            chunk = self._text[start:self._end]
            lines = chunk.splitlines()
            if "#" in chunk:
                lines = [line.split("#", 1)[0] for line in lines]
            numbers = np.arange(self._first, self._first + len(lines))
            self._first += len(lines)
            if "" in lines or any(map(str.isspace, lines)):
                keep = [line != "" and not line.isspace() for line in lines]
                lines, numbers = list(itertools.compress(lines, keep)), numbers[keep]
            self._lines, self._numbers, self._pos = lines, numbers, 0
        start, self._pos = self._pos, min(self._pos + count, len(self._lines))
        return self._lines[start:self._pos], self._numbers[start:self._pos]

    def next(self, what: str):
        texts, lines = self._take(1)
        if not texts:
            raise MeshFormatError(self.last_line + 1, f"unexpected end of file, expected {what}")
        self.last_line = int(lines[0])
        return self.last_line, texts[0].split()

    def expect_done(self):
        texts, lines = self._take(1)
        if texts:
            raise MeshFormatError(int(lines[0]), f"unexpected trailing content: {' '.join(texts[0].split())}")

    def parse(self, token: str, what: str, convert=int):
        """A token of the last line read, converted by `convert` (int or float) as `block` converts it."""
        try:
            return convert(_parse_rows([token], np.int64 if convert is int else np.float64)[0])
        except ValueError:
            if convert is int and _INTEGER.fullmatch(token):
                raise MeshFormatError(self.last_line, "integer out of the 64-bit range") from None
            noun = "integer" if convert is int else "number"
            raise MeshFormatError(self.last_line, f"expected {noun} {what}, got {token!r}") from None

    def keyed(self, keyword: str, what: str, label: str) -> int:
        """The integer of the next line, which must read '<keyword> <integer>'."""
        lineno, tokens = self.next(what)
        if len(tokens) != 2 or tokens[0] != keyword:
            raise MeshFormatError(lineno, f"expected {what}")
        return self.parse(tokens[1], label)

    def block(self, count: int, width: int, what: str, shape: str, labels: tuple[str, ...],
              convert=float, keyword: str | None = None) -> tuple[list[np.ndarray], np.ndarray]:
        """The next `count` lines of `width` tokens each, as arrays (one per label) and line numbers.

        Each label but the last names one leading integer column, (count,);
        the last names the other columns, (count, rest), read by `convert`.
        A line may open with `keyword`, counted in `width`. `what` (end of
        file) and `shape` (wrong line) may use the row `{i}` and token count `{got}`.
        """
        if count < 0:
            raise MeshFormatError(self.last_line, f"count must be >= 0, got {count}")
        leads, rests, numbers, done = [], [], [], 0
        while not rests or done < count:  # an empty block still gives one empty table
            texts, lines = self._take(count - done)
            try:
                # A line of `width` tokens holds at least 2 * width - 1 characters. np.loadtxt
                # allocates whole rows of the dtype, so none is built wider than the text can fill.
                if done < count and (not texts or min(map(len, texts)) < 2 * width - 1):
                    raise ValueError("the end of the file, or a line too short")
                dtype = _row_dtype(width, len(labels) - 1, convert is int, keyword)
                table = _parse_rows(texts, dtype) if texts else np.zeros(0, dtype)
                if keyword is not None and np.any(table["keyword"] != keyword):
                    raise ValueError(f"a line does not open with {keyword!r}")
            except ValueError:
                self._diagnose(texts, lines, done, width, what, shape, labels, convert, keyword)
            leads.append(table["lead"])
            rests.append(table["rest"])
            numbers.append(lines)
            done += len(texts)
            if texts:
                self.last_line = int(lines[-1])
        # A block within one chunk is not copied. Columns are joined one field at a time:
        # np.concatenate copies structured rows several times slower than plain arrays.
        lead, rest, lines = (parts[0] if len(parts) == 1 else np.concatenate(parts)
                             for parts in (leads, rests, numbers))
        return [*lead.T, rest], lines

    def _diagnose(self, texts, lines, first, width, what, shape, labels, convert, keyword):
        """Raise for the first faulty line of a chunk's share of a block that `block` could not
        parse, or for the early end of the file. `texts` are the lines, `lines` their numbers
        and `first` the block row of the first. A line is faulty exactly when it does not
        parse on its own."""
        skip, lead = int(keyword is not None), len(labels) - 1
        for i, (lineno, text) in enumerate(zip(lines.tolist(), texts), first):
            tokens = text.split()
            if len(tokens) != width or (skip and tokens[0] != keyword):
                raise MeshFormatError(lineno, shape.format(i=i, got=len(tokens)))
            try:
                _parse_rows([text], _row_dtype(width, lead, convert is int, keyword))
            except ValueError:
                self.last_line = lineno
                for j, token in enumerate(tokens[skip:]):
                    self.parse(token, labels[min(j, lead)], int if j < lead else convert)
                # Each token parses alone, yet the line does not.
                raise MeshFormatError(lineno, shape.format(i=i, got=len(tokens))) from None
        last = int(lines[-1]) if texts else self.last_line
        raise MeshFormatError(last + 1, f"unexpected end of file, expected {what.format(i=first + len(texts))}")


def _check_ids(ids: np.ndarray, lines: np.ndarray, what: str) -> None:
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
    return _join_lines(
        ["stgp-mesh 1", f"dim {mesh.dim}", f"nodes {mesh.n_nodes}"],
        (f"{i} {_format_row(node)}" for i, node in enumerate(mesh.nodes)),
        [f"elements {mesh.n_elements}"],
        (f"{i} {_format_row(elem)}" for i, elem in enumerate(mesh.elements)),
        [f"mu {mesh.n_elements}"],
        (f"{i} {value!r}" for i, value in enumerate(mesh.mu.tolist())))
