"""Assembly of the projection matrices: spatial mass A, temporal Gram B, source matrix C.

C (and the error integrals that reuse the same quadrature) is stored dense,
column = time step; vectorization is column-major throughout. Work runs as
whole-array kernels in index order, so results are bitwise repeatable. A
source takes one of three paths, chosen only by its type:

- Linear path, for a DiscreteField. Its samples are linear in its DOFs D_s.
  Each target spatial quadrature point is located in the source mesh once
  (`sample_source` keeps its element and barycentric coordinates). Two
  sparse Whitney sampling matrices, S_t (target, P d x M) and S_s (source,
  P d x M_s), one row per point and component, are built from those in
  bounded blocks of rows. C = K D_s G, with the mixed mass
  K = S_t^T diag(scale) S_s summed over the blocks and the mixed hat Gram
  G = H_s diag(w) H_t^T, exact on the time table's merged knots. The energy
  error squares the local difference S_t X H_t - S_s D_s H_s block by block.
- Factored path, for an AnalyticField, whose every kind is a sum of R <= 2
  separable factors g_r(x) h_r(t). `sample_source` keeps the spatial
  factors at the target's quadrature points, G (P d x R), and the temporal
  ones at the time-table points, H_f (R x T). Then
  C = (S_t^T diag(scale) G)(H_f diag(w) H_t^T), an M x R by R x N product,
  and the energy error squares S_t X H_t - G H_f block by block.
- Generic sweep, for any other source: fixed blocks of target elements, one
  `eval_points` call per block, so the samples held at once stay bounded. A
  source with only the per-point `eval_time_batch` is evaluated point by
  point through `fields.eval_points_per_point`. It is the oracle the two
  structured paths are tested against.

`project` samples a structured source once and shares the samples between C
and the error.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .basis import (QuadratureRule, TemporalGrid, _within_span, bracket, gauss_unit_interval,
                    simplex_quadrature, whitney_local)
from .fields import (AnalyticField, DiscreteField, PointOutsideDomainError, SourceField,
                     check_policy, eval_points_per_point, locate_points, whitney_at)
from .mesh import (EdgeTable, Mesh, MeshFormatError, _format_row, _LineReader,
                   barycentric_transforms, signed_volumes)

# Source samples (points x times x components) held at once by one sweep block
# or, on a structured path, by one block of rows of the energy error.
# Larger blocks ran no faster and raised the peak RSS (2**18: +7 % on the
# benchmark's transfer-2d workload).
SWEEP_SAMPLES = 2**15
# Fewest rows (point, component) in one such block of the energy error. A
# block costs a fixed set-up worth about 10**4 samples' work, so a long time
# table would otherwise shrink the blocks until that set-up took a third of
# the time (multipole-windows-2d: 64 rows at 510 time points).
ERROR_BLOCK_ROWS = 256


@dataclass(frozen=True)
class TriDiagMatrix:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal arrays."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        diag = np.ascontiguousarray(np.asarray(self.diag, dtype=np.float64))
        off = np.ascontiguousarray(np.asarray(self.off, dtype=np.float64))
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)
        if off.shape != (max(len(diag) - 1, 0),):
            raise ValueError("off-diagonal must have one entry fewer than the diagonal")
        diag.flags.writeable = False
        off.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        out[idx, idx + 1] = self.off
        out[idx + 1, idx] = self.off
        return out

    def right_multiply(self, x: np.ndarray) -> np.ndarray:
        """x @ B for an (M, N) matrix x."""
        out = x * self.diag[None, :]
        out[:, :-1] += x[:, 1:] * self.off[None, :]
        out[:, 1:] += x[:, :-1] * self.off[None, :]
        return out


def assemble_temporal_gram(grid: TemporalGrid) -> TriDiagMatrix:
    """Gram matrix of the hat functions: tridiagonal with the classic h/3, h/6 pattern."""
    h = grid.intervals()
    diag = np.zeros(grid.n_steps)
    diag[:-1] += h / 3.0
    diag[1:] += h / 3.0
    return TriDiagMatrix(diag=diag, off=h / 6.0)


def assemble_spatial_mass(mesh: Mesh, edge_table: EdgeTable,
                          quad: QuadratureRule | None = None) -> sp.csr_matrix:
    """Permeability-weighted mass matrix of the Whitney edge basis (M x M, SPD).

    The integrand is quadratic in the barycentric coordinates, so the default
    order-4 rule makes every entry quadrature-exact.
    """
    if quad is None:
        quad = simplex_quadrature(mesh.dim, 4)
    if quad.dim != mesh.dim or quad.order < 2:
        raise ValueError("spatial mass assembly needs a simplex rule of order >= 2")

    _, _, grads = barycentric_transforms(mesh)
    jac = np.abs(signed_volumes(mesh)) / (quad.weights.sum())
    w = whitney_local(mesh.dim, grads, edge_table.element_signs, quad.points)  # (E, Q, nl, d)
    local = np.einsum("q,eqid,eqjd->eij", quad.weights, w, w) * (mesh.mu * jac)[:, None, None]
    local = np.triu(local) + np.swapaxes(np.triu(local, 1), 1, 2)  # exact numeric symmetry
    ge = edge_table.element_edges
    n_local = ge.shape[1]
    rows = np.repeat(ge, n_local, axis=1)
    cols = np.tile(ge, n_local)
    m = edge_table.edge_count
    a = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(m, m)).tocsr()
    a.sum_duplicates()
    return a


@dataclass(frozen=True)
class _TimeTable:
    """Temporal quadrature for all target intervals, split at interior source nodes.

    Quadrature time i lies in target interval k[i], where the only nonzero hats
    are k[i] (value left[i]) and k[i] + 1 (value right[i]).
    """

    points: np.ndarray   # (T,) quadrature times
    weights: np.ndarray  # (T,)
    k: np.ndarray        # (T,) target interval
    left: np.ndarray     # (T,) 1 - theta
    right: np.ndarray    # (T,) theta


def build_time_table(grid: TemporalGrid, source: SourceField, n_points: int) -> _TimeTable:
    if not 1 <= n_points <= 6:
        raise ValueError("temporal quadrature uses 1..6 Gauss points per subinterval")
    gauss_points, gauss_weights = gauss_unit_interval(n_points)
    breakers = np.asarray(source.interior_time_nodes(), dtype=float)
    times = grid.times
    knots = np.union1d(times, breakers[(breakers > times[0]) & (breakers < times[-1])])
    lo, h = knots[:-1, None], np.diff(knots)[:, None]
    points = (lo + gauss_points * h).ravel()
    weights = (gauss_weights * h).ravel()
    k, theta = bracket(grid, points)
    return _TimeTable(points=points, weights=weights, k=k, left=1.0 - theta, right=theta)


def check_span(grid: TemporalGrid, source: SourceField) -> None:
    """Raise ValueError if the grid reaches outside the source's time span.

    A relative slack absorbs round-off in either grid's end times.
    """
    span = source.time_span()
    if span is None:
        return
    t0, t1 = grid.span
    if not _within_span(t0, t1, span):
        raise ValueError(
            f"target grid span [{t0}, {t1}] is not inside the source span [{span[0]}, {span[1]}]"
        )


def _quadrature_points(mesh: Mesh, space_quad: QuadratureRule, elements) -> np.ndarray:
    """Physical spatial quadrature points of the elements, (B*Q, d), Q per element in order."""
    return np.einsum("qk,ekd->eqd", space_quad.points,
                     mesh.nodes[mesh.elements[elements]]).reshape(-1, mesh.dim)


def _element_blocks(mesh: Mesh, edge_table: EdgeTable, space_quad: QuadratureRule, block: int):
    """Target elements in index order, `block` at a time, with their spatial quadrature.

    Yields (elements (B,), Whitney values (B, Q, nl, d), weights with mu and
    Jacobian (B, Q*d)); axis Q*d runs over the d components at each of the
    Q points.
    """
    _, _, grads = barycentric_transforms(mesh)
    jac = np.abs(signed_volumes(mesh)) / space_quad.weights.sum()
    for start in range(0, mesh.n_elements, block):
        el = np.arange(start, min(start + block, mesh.n_elements))
        w = whitney_local(mesh.dim, grads[el], edge_table.element_signs[el], space_quad.points)
        scale = np.repeat((mesh.mu[el] * jac[el])[:, None] * space_quad.weights, mesh.dim, axis=1)
        yield el, w, scale


def _sweep(mesh: Mesh, edge_table: EdgeTable, source: SourceField,
           space_quad: QuadratureRule, table: _TimeTable, policy: str):
    """Source samples at every space-time quadrature point, in blocks of elements in index order.

    Axis P runs over the d components at each of the Q spatial quadrature
    points. Yields (elements (B,), Whitney values (B, nl, P), weights (B, P)
    with mu and Jacobian, source samples (B, P, T), outside-point count).
    """
    check_policy(policy)
    evaluate = getattr(source, "eval_points", None) or partial(eval_points_per_point, source)
    n_q, n_t, dim = len(space_quad.points), len(table.points), mesh.dim
    block = max(1, SWEEP_SAMPLES // (n_q * n_t * dim))
    for el, w, scale in _element_blocks(mesh, edge_table, space_quad, block):
        w = np.swapaxes(w, 1, 2).reshape(len(el), -1, n_q * dim)                 # (B, nl, P)
        values, inside = evaluate(_quadrature_points(mesh, space_quad, el), table.points,
                                  policy=policy)                                  # (B*Q, T, d)
        hs = np.swapaxes(values, 1, 2).reshape(len(el), n_q * dim, n_t)
        yield el, w, scale, hs, int(np.count_nonzero(~inside))


@dataclass(frozen=True)
class SourceSamples:
    """A source sampled once at the target's space-time quadrature, for a structured path.

    Spatial quadrature points run in element order, Q per element; a row
    (point, component) of a sampling matrix is point * d + component. The
    target hats are the target grid's (N x T) at the time-table points, and
    source_time the source's temporal basis there: its grid's hats
    (N_s x T, sparse) or its time factors H_f (R x T).
    """

    args: tuple  # (mesh, edge_table, grid, source, space_quad, time_quad_points, policy)
    table: _TimeTable
    target_hats: sp.csr_matrix
    source_time: sp.csr_matrix | np.ndarray
    outside: int


@dataclass(frozen=True)
class DiscreteSamples(SourceSamples):
    """A DiscreteField located once: spatial quadrature point i lies in source element
    elements[i] at barycentric lam[i], or outside the source mesh where inside[i] is False."""

    inside: np.ndarray    # (P,) bool
    elements: np.ndarray  # (P,)
    lam: np.ndarray       # (P, d+1)


@dataclass(frozen=True)
class FactoredSamples(SourceSamples):
    """An AnalyticField's separable factors, H(x, t) = sum_r g_r(x) h_r(t): G at the
    target's spatial quadrature points, H_f (source_time) at the time-table points."""

    space: np.ndarray  # G (P d, R)


def _hat_matrix(k: np.ndarray, left: np.ndarray, right: np.ndarray, n_steps: int) -> sp.csr_matrix:
    """Hats at T times (n_steps x T): time i has value left[i] on hat k[i] and right[i] on k[i] + 1."""
    cols = np.arange(len(k))
    return sp.csr_matrix((np.concatenate([left, right]),
                          (np.concatenate([k, k + 1]), np.concatenate([cols, cols]))),
                         shape=(n_steps, len(k)))


def sample_source(mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, source: SourceField,
                  space_quad: QuadratureRule | None = None, time_quad_points: int = 2,
                  policy: str = "zero") -> SourceSamples | None:
    """Sample a DiscreteField or an AnalyticField source at the target's quadrature, once.

    A DiscreteField's target spatial quadrature points are located in its
    mesh (DiscreteSamples); an AnalyticField's space and time factors are
    evaluated there and at the time-table points (FactoredSamples). Returns
    None for any other source; the generic sweep samples those.
    """
    if not isinstance(source, (DiscreteField, AnalyticField)):
        return None
    if source.dim != mesh.dim:
        raise ValueError(f"a {source.dim}-D source does not fit a {mesh.dim}-D target mesh")
    if space_quad is None:
        space_quad = simplex_quadrature(mesh.dim, 4)
    check_span(grid, source)
    table = build_time_table(grid, source, time_quad_points)
    check_policy(policy)
    common = dict(args=(mesh, edge_table, grid, source, space_quad, time_quad_points, policy),
                  table=table, target_hats=_hat_matrix(table.k, table.left, table.right, grid.n_steps))
    xq = _quadrature_points(mesh, space_quad, slice(None))
    if isinstance(source, AnalyticField):
        space = source.space_factors(xq)
        return FactoredSamples(**common, source_time=source.time_factors(table.points), outside=0,
                               space=space.reshape(-1, space.shape[2]))
    inside, elements, lam = locate_points(source.locator, xq)
    if policy == "strict" and not inside.all():
        raise PointOutsideDomainError(xq[np.argmin(inside)])
    k_s, theta_s = bracket(source.grid, table.points)
    return DiscreteSamples(**common,
                           source_time=_hat_matrix(k_s, 1.0 - theta_s, theta_s, source.grid.n_steps),
                           outside=int(np.count_nonzero(~inside)), inside=inside, elements=elements,
                           lam=lam)


def _samples_for(samples: SourceSamples | None, *args) -> SourceSamples | None:
    """The given samples, checked against the arguments, or fresh ones taken for them."""
    if samples is None:
        return sample_source(*args)
    if not all(a == b if isinstance(a, (int, str)) else a is b for a, b in zip(samples.args, args)):
        raise ValueError("samples were taken for other arguments")
    return samples


def _sampling_matrix(inside: np.ndarray, values: np.ndarray, edges: np.ndarray,
                     n_edges: int) -> sp.csr_matrix:
    """Rows (point, component) of Whitney values (H, nl, d) on the inside points' edges (H, nl).

    A point outside the mesh has empty rows.
    """
    _, n_local, dim = values.shape
    indptr = np.concatenate([[0], np.cumsum(np.repeat(inside, dim) * n_local)])
    data = np.swapaxes(values, 1, 2)                                              # (H, d, nl)
    indices = np.broadcast_to(edges[:, None, :], data.shape)
    return sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(len(inside) * dim, n_edges))


def _sampling_blocks(samples: SourceSamples, rows: int):
    """The sampling matrices of a structured path, about `rows` rows at a time.

    Yields (target Whitney values S_t (R x M), the source's spatial part,
    row weights with mu and Jacobian (R,)). The spatial part is the source
    Whitney values S_s (R x M_s, sparse) of a DiscreteField, or the rows of
    G (R x R_f) of an AnalyticField.
    """
    mesh, edge_table, _, source, space_quad = samples.args[:5]
    n_q, dim = len(space_quad.points), mesh.dim
    for el, w, scale in _element_blocks(mesh, edge_table, space_quad, max(1, rows // (n_q * dim))):
        points = slice(el[0] * n_q, (el[-1] + 1) * n_q)
        n = len(el) * n_q
        target = _sampling_matrix(np.ones(n, dtype=bool), w.reshape(n, -1, dim),
                                  np.repeat(edge_table.element_edges[el], n_q, axis=0),
                                  edge_table.edge_count)
        if isinstance(samples, FactoredSamples):
            yield target, samples.space[points.start * dim:points.stop * dim], scale.ravel()
            continue
        inside = samples.inside[points]
        hit = np.flatnonzero(inside)
        edges, values = whitney_at(source.locator, source.edge_table,
                                   samples.elements[points][hit], samples.lam[points][hit])
        yield (target, _sampling_matrix(inside, values, edges, source.edge_table.edge_count),
               scale.ravel())


def assemble_source_matrix(mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid,
                           source: SourceField, space_quad: QuadratureRule | None = None,
                           time_quad_points: int = 2, policy: str = "zero", *,
                           samples: SourceSamples | None = None) -> tuple[np.ndarray, int]:
    """Moments of the source field against every space-time basis function (M x N, dense).

    Each target interval is additionally split at interior source time nodes,
    so piecewise-linear-in-time sources integrate exactly and spatial
    quadrature is the only residual integration error. A DiscreteField
    source takes the linear path, C = K D_s G, and an AnalyticField the
    factored one, C = (S_t^T diag(scale) G) (H_f diag(w) H_t^T); `samples`,
    taken by `sample_source` with the same arguments, spares sampling again.

    Returns (C, outside_point_count).
    """
    if space_quad is None:
        space_quad = simplex_quadrature(mesh.dim, 4)
    check_span(grid, source)
    samples = _samples_for(samples, mesh, edge_table, grid, source, space_quad, time_quad_points, policy)
    if samples is not None:
        # K = S_t^T diag(scale) S_s (M x M_s, sparse), or S_t^T diag(scale) G (M x R).
        mass = sum(target.T @ (sp.diags(scale) @ spatial)
                   for target, spatial, scale in _sampling_blocks(samples, SWEEP_SAMPLES))
        # The mixed time Gram: H_s diag(w) H_t^T (N_s x N, sparse), or H_f diag(w) H_t^T (R x N).
        gram = samples.source_time @ sp.diags(samples.table.weights) @ samples.target_hats.T
        if isinstance(samples, DiscreteSamples):
            # K D_s first: on a fine source and a fine target grid its M x N_s product is
            # smaller than D_s G (M_s x N).
            mass = mass @ source.dofs
        return mass @ gram, samples.outside
    table = build_time_table(grid, source, time_quad_points)
    c = np.zeros((edge_table.edge_count, grid.n_steps))
    outside = 0
    for el, w, scale, hs, out in _sweep(mesh, edge_table, source, space_quad, table, policy):
        moments = (w * scale[:, None, :]) @ hs * table.weights                  # (B, nl, T)
        rows = edge_table.element_edges[el][:, :, None]
        np.add.at(c, (rows, table.k), moments * table.left)
        np.add.at(c, (rows, table.k + 1), moments * table.right)
        outside += out
    return c, outside


def energy_error(mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, source: SourceField,
                 dofs: np.ndarray, space_quad: QuadratureRule | None = None,
                 time_quad_points: int = 2, policy: str = "zero", *,
                 samples: SourceSamples | None = None) -> tuple[float, float, int]:
    """Energy-weighted error of a trial DOF matrix against the source, plus source energy.

    Uses the same space-time quadrature as assemble_source_matrix, so the
    consistency identities hold to machine precision. Every path squares the
    local difference of the two fields at each sample, never the expanded
    form, whose cancellation would floor the error near 1e-16 relative.
    `samples` is as for assemble_source_matrix.
    """
    if space_quad is None:
        space_quad = simplex_quadrature(mesh.dim, 4)
    check_span(grid, source)
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (edge_table.edge_count, grid.n_steps):
        raise ValueError("dofs shape must be (edge count, time steps)")
    samples = _samples_for(samples, mesh, edge_table, grid, source, space_quad, time_quad_points, policy)
    err = src = 0.0
    if samples is not None:
        weights = samples.table.weights
        rows = max(SWEEP_SAMPLES // len(weights), ERROR_BLOCK_ROWS)
        for target, spatial, scale in _sampling_blocks(samples, rows):
            if isinstance(samples, DiscreteSamples):
                spatial = spatial @ source.dofs
            hs = spatial @ samples.source_time                                         # (R, T)
            # In place: the squares reuse the two (R, T) arrays of the block.
            diff = (target @ dofs) @ samples.target_hats
            diff -= hs
            diff *= diff
            hs *= hs
            err += 0.5 * float(scale @ (diff @ weights))
            src += 0.5 * float(scale @ (hs @ weights))
        return err, src, samples.outside
    table = build_time_table(grid, source, time_quad_points)
    outside = 0
    for el, w, scale, hs, out in _sweep(mesh, edge_table, source, space_quad, table, policy):
        coeff = dofs[edge_table.element_edges[el]]                                # (B, nl, N)
        series = coeff[:, :, table.k] * table.left + coeff[:, :, table.k + 1] * table.right
        diff = np.swapaxes(w, 1, 2) @ series - hs                                # (B, P, T)
        err += 0.5 * float(np.sum(scale * ((diff * diff) @ table.weights)))
        src += 0.5 * float(np.sum(scale * ((hs * hs) @ table.weights)))
        outside += out
    return err, src, outside


# ---------------------------------------------------------------------------
# stgp-matrix dump format (debugging aid)


def write_matrix(matrix) -> str:
    """Dump a matrix in the stgp-matrix text format (sparse-sym, tridiag or dense).

    A sparse matrix must be exactly symmetric, or hold only its upper triangle,
    which then stands for the symmetric matrix; anything else raises ValueError.
    """
    if isinstance(matrix, TriDiagMatrix):
        out = ["stgp-matrix 1", f"tridiag {matrix.n}",
               "diag " + _format_row(matrix.diag), "off " + _format_row(matrix.off)]
    elif sp.issparse(matrix):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("a sparse dump (sparse-sym) needs a square matrix")
        coo = matrix.tocoo(copy=True)
        coo.sum_duplicates()  # a dump holds each entry once
        keep = coo.row <= coo.col  # upper triangle carries the symmetric matrix
        if np.any(coo.data[~keep] != 0.0) and (matrix != matrix.T).nnz:
            raise ValueError("a sparse dump (sparse-sym) needs a symmetric matrix or its upper"
                             " triangle; dump any other matrix dense")
        out = ["stgp-matrix 1", f"sparse-sym {coo.shape[0]} {int(np.sum(keep))}"]
        order = np.lexsort((coo.col[keep], coo.row[keep]))
        rows, cols = coo.row[keep][order].tolist(), coo.col[keep][order].tolist()
        vals = coo.data[keep][order].astype(float).tolist()
        out += [f"{r} {c} {v!r}" for r, c, v in zip(rows, cols, vals)]
    else:
        dense = np.asarray(matrix, dtype=float)
        if dense.ndim != 2:
            raise ValueError("dense dump expects a 2-D array")
        out = ["stgp-matrix 1", f"dense {dense.shape[0]} {dense.shape[1]}"]
        out += [_format_row(row) for row in dense] if dense.shape[1] else []
    return "\n".join(out) + "\n"


def read_matrix(text: str):
    """Parse the stgp-matrix dump format back into a matrix object."""
    rd = _LineReader(text, "stgp-matrix")
    lineno, tokens = rd.next("matrix kind line")
    kind = tokens[0]
    labels = {"tridiag": ("dimension",), "sparse-sym": ("dimension", "entry count"),
              "dense": ("rows", "cols")}.get(kind)
    if labels is None:
        raise MeshFormatError(lineno, f"unknown matrix kind {kind!r}")
    if len(tokens) != 1 + len(labels):
        raise MeshFormatError(lineno, f"expected '{kind}' followed by {len(labels)} sizes")
    sizes = [rd.parse(token, label) for token, label in zip(tokens[1:], labels)]
    if not all(0 <= size < 2**63 for size in sizes):
        raise MeshFormatError(lineno, f"matrix sizes must lie in 0..{2**63 - 1}")
    if kind == "tridiag":
        n, n_off = sizes[0], max(sizes[0] - 1, 0)
        (diag,), _ = rd.block(1, 1 + n, "'diag ...'", f"expected 'diag' followed by {n} values",
                              ("diag",), keyword="diag")
        (off,), _ = rd.block(1, 1 + n_off, "'off ...'", f"expected 'off' followed by {n_off} values",
                             ("off",), keyword="off")
        matrix = TriDiagMatrix(diag=diag[0], off=off[0])
    elif kind == "sparse-sym":
        n, nnz = sizes
        (rows, cols, vals), lines = rd.block(nnz, 3, "coordinate triplet", "expected '<row> <col> <value>'",
                                             ("row", "col", "value"))
        bad = np.flatnonzero((np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= n))
        if bad.size:
            i = bad[0]
            raise MeshFormatError(lines[i], f"entry ({rows[i]}, {cols[i]}) lies outside the {n} x {n} matrix")
        bad = np.flatnonzero(rows > cols)
        if bad.size:
            i = bad[0]
            raise MeshFormatError(lines[i], f"entry ({rows[i]}, {cols[i]}) lies below the diagonal;"
                                            " sparse-sym holds the upper triangle")
        first = np.unique(np.stack([rows, cols]), axis=1, return_index=True)[1]
        repeat = np.setdiff1d(np.arange(nnz), first)
        if repeat.size:
            i = repeat[0]
            raise MeshFormatError(lines[i], f"repeated entry ({rows[i]}, {cols[i]})")
        mirror = rows != cols  # the stored upper triangle stands for both halves
        vals = vals[:, 0]
        matrix = sp.coo_matrix((np.concatenate([vals, vals[mirror]]),
                                (np.concatenate([rows, cols[mirror]]), np.concatenate([cols, rows[mirror]]))),
                               shape=(n, n)).tocsr()
    else:
        r, c = sizes
        # A matrix with no columns has no row lines.
        (matrix,), _ = rd.block(r if c else 0, c, "dense row {i}", f"dense row {{i}} must hold {c} values",
                                ("value",))
        matrix = matrix.reshape(r, c)
    rd.expect_done()
    return matrix
