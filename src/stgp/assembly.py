"""Assembly of the projection matrices: spatial mass A, temporal Gram B, source matrix C.

C (and the error integrals that reuse the same quadrature) is stored dense,
column = time step; vectorization is column-major throughout. Work runs as
whole-array kernels in index order, so results are bitwise repeatable.

`sample_source` prepares every source once. A source of either stgp type is
separable, H(x, t) = sum_r s_r(x) f_r(t): spatial rows, one per target
quadrature point and component, times a temporal basis at the time-table
points (R x T). Two producers, chosen only by the type, fill that one form:

- DiscreteField: each target quadrature point is located in the source mesh
  once; the rows are the source's Whitney values there times its DOFs D_s
  (R = N_s), formed block by block, and the basis is its grid's hats.
- AnalyticField: the rows are G, its R <= 2 spatial factors g_r at the
  quadrature points, and the basis is H_f, its time factors h_r.

Any other source is evaluated by `eval_points` (or by `eval_time_batch` one
point at a time, through `fields.eval_points_per_point`).

One block loop, `_sweep`, serves every source: it runs over the target
elements in index order and yields their Whitney values and weights with the
source's samples there. C of a separable source is the mixed spatial mass
(the target's weighted Whitney values times the spatial rows, scattered over
element edges; K D_s for a DiscreteField) times the mixed temporal Gram,
source_time diag(w) H_t^T. C of any other source scatters the moments of its
samples, and that generic form is the oracle the separable one is tested
against. The energy error has one loop for every source; a separable source
gives its samples there as spatial rows times source_time.
"""
from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .basis import (QuadratureRule, TemporalGrid, _within_span, bracket, gauss_unit_interval,
                    simplex_quadrature, whitney_local)
from .fields import (AnalyticField, DiscreteField, PointOutsideDomainError, SourceField,
                     check_policy, eval_points_per_point, locate_points, whitney_at)
from .mesh import (LOCAL_EDGE_VERTICES, EdgeTable, Mesh, MeshFormatError, _format_row,
                   _LineReader, barycentric_transforms, signed_volumes)

# Source samples (rows x columns) held at once by one block of the sweep.
# Larger blocks ran no faster and raised the peak RSS (2**18: +7 % on the
# benchmark's transfer-2d workload).
SWEEP_SAMPLES = 2**15
# Most Gauss points per temporal subinterval.
MAX_TIME_QUAD_POINTS = 6


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
        """x @ B for an (M, N) matrix x, as one sparse tridiagonal product."""
        return x @ sp.diags((self.off, self.diag, self.off), (-1, 0, 1), format="csr")


def assemble_temporal_gram(grid: TemporalGrid) -> TriDiagMatrix:
    """Gram matrix of the hat functions: tridiagonal with the classic h/3, h/6 pattern."""
    h = grid.intervals()
    diag = np.zeros(grid.n_steps)
    diag[:-1] += h / 3.0
    diag[1:] += h / 3.0
    return TriDiagMatrix(diag=diag, off=h / 6.0)


def _fitted_rule(mesh: Mesh, edge_table: EdgeTable, quad: QuadratureRule | None) -> QuadratureRule:
    """The spatial rule, order 4 by default, once it and the edge table are checked to fit the mesh."""
    ends = np.sort(mesh.elements[:, LOCAL_EDGE_VERTICES[mesh.dim]], axis=2)   # (E, nl, 2) node ids
    if (edge_table.element_edges.shape != ends.shape[:2]
            or not np.array_equal(edge_table.edges[edge_table.element_edges], ends)):
        raise ValueError("the edge table was built for another mesh")
    if quad is None:
        return simplex_quadrature(mesh.dim, 4)
    if quad.dim != mesh.dim:
        raise ValueError(f"a {quad.dim}-D quadrature rule does not fit a {mesh.dim}-D mesh")
    return quad


def assemble_spatial_mass(mesh: Mesh, edge_table: EdgeTable,
                          quad: QuadratureRule | None = None) -> sp.csr_matrix:
    """Permeability-weighted mass matrix of the Whitney edge basis (M x M, SPD).

    The integrand is quadratic in the barycentric coordinates, so the default
    order-4 rule makes every entry quadrature-exact.
    """
    quad = _fitted_rule(mesh, edge_table, quad)
    if quad.order < 2:
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
    if not 1 <= n_points <= MAX_TIME_QUAD_POINTS:
        raise ValueError(f"temporal quadrature uses 1..{MAX_TIME_QUAD_POINTS} Gauss points"
                         " per subinterval")
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


@dataclass(frozen=True)
class SourceSamples:
    """A source prepared once, by `sample_source`, for the target's space-time quadrature.

    Spatial quadrature points run in element order, Q per element; a row
    (point, component) is point * d + component. The target hats are the
    target grid's (N x T) at the time-table points. A separable source,
    H(x, t) = sum_r s_r(x) f_r(t), also has its temporal basis there,
    source_time (R x T), and `space(points)`, its spatial rows at a slice
    of the points (rows x R); both are None for a source that `_sweep`
    evaluates through `eval_points`. outside counts the points that missed
    the source mesh (the sweep counts those of any other source).
    """

    args: tuple  # (mesh, edge_table, grid, source, space_quad, time_quad_points, policy)
    table: _TimeTable
    target_hats: sp.csr_matrix
    source_time: sp.csr_matrix | np.ndarray | None = None
    space: Callable[[slice], np.ndarray] | None = None
    outside: int = 0


def _hat_matrix(k: np.ndarray, left: np.ndarray, right: np.ndarray, n_steps: int) -> sp.csr_matrix:
    """Hats at T times (n_steps x T): time i has value left[i] on hat k[i] and right[i] on k[i] + 1."""
    cols = np.arange(len(k))
    return sp.csr_matrix((np.concatenate([left, right]),
                          (np.concatenate([k, k + 1]), np.concatenate([cols, cols]))),
                         shape=(n_steps, len(k)))


def _factor_rows(space: np.ndarray, points: slice) -> np.ndarray:
    """An AnalyticField's spatial factors G (P, d, R) at a slice of the points, as rows (rows x R)."""
    return space[points].reshape(-1, space.shape[2])


def _located_rows(source: DiscreteField, inside: np.ndarray, elements: np.ndarray, lam: np.ndarray,
                  points: slice) -> np.ndarray:
    """A located DiscreteField's Whitney values times D_s at a slice of the points (rows x N_s).

    Point i lies in source element elements[i] at barycentric lam[i], or
    outside the source mesh, with zero rows, where inside[i] is False.
    """
    inside = inside[points]
    hit = np.flatnonzero(inside)
    edges, values = whitney_at(source.locator, source.edge_table, elements[points][hit],
                               lam[points][hit])
    rows = np.zeros((len(inside), source.dim, source.dofs.shape[1]))
    rows[hit] = np.swapaxes(values, 1, 2) @ source.dofs[edges]                    # (H, d, N_s)
    return rows.reshape(-1, rows.shape[2])


def sample_source(mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, source: SourceField,
                  space_quad: QuadratureRule | None = None, time_quad_points: int = 2,
                  policy: str = "zero") -> SourceSamples:
    """Prepare a source for the target's space-time quadrature, once.

    Fills in the default spatial rule, checks the policy, the time span and
    that the edge table, rule and source fit the mesh, and builds the time
    table. A DiscreteField's target quadrature points are then located in its
    mesh, and an AnalyticField's space and time factors evaluated there and
    at the time-table points; any other source is left to the generic sweep.
    """
    space_quad = _fitted_rule(mesh, edge_table, space_quad)
    dim = getattr(source, "dim", mesh.dim)
    if dim != mesh.dim:
        raise ValueError(f"a {dim}-D source does not fit a {mesh.dim}-D target mesh")
    check_policy(policy)
    check_span(grid, source)
    table = build_time_table(grid, source, time_quad_points)
    common = dict(args=(mesh, edge_table, grid, source, space_quad, time_quad_points, policy),
                  table=table, target_hats=_hat_matrix(table.k, table.left, table.right, grid.n_steps))
    if not isinstance(source, (AnalyticField, DiscreteField)):
        return SourceSamples(**common)
    xq = _quadrature_points(mesh, space_quad, slice(None))
    if isinstance(source, AnalyticField):
        return SourceSamples(**common, source_time=source.time_factors(table.points),
                             space=partial(_factor_rows, source.space_factors(xq)))
    inside, elements, lam = locate_points(source.locator, xq)
    if policy == "strict" and not inside.all():
        raise PointOutsideDomainError(xq[np.argmin(inside)])
    k_s, theta_s = bracket(source.grid, table.points)
    return SourceSamples(**common,
                         source_time=_hat_matrix(k_s, 1.0 - theta_s, theta_s, source.grid.n_steps),
                         space=partial(_located_rows, source, inside, elements, lam),
                         outside=int(np.count_nonzero(~inside)))


def _samples_for(samples: SourceSamples | None, *args) -> SourceSamples:
    """The given samples, checked against the arguments, or fresh ones taken for them.

    Mesh, edge table, grid and source must be the objects sampled; the rule
    (None: the default), the point count and the policy must be equal.
    """
    if samples is None:
        return sample_source(*args)
    mesh, edge_table, _, _, space_quad, *settings = args
    if not (all(map(operator.is_, samples.args[:4], args[:4]))
            and samples.args[4:] == (_fitted_rule(mesh, edge_table, space_quad), *settings)):
        raise ValueError("samples were taken for other arguments")
    return samples


def _sweep(samples: SourceSamples, spatial: bool = False):
    """The source's samples at the target's quadrature, in blocks of elements in index order.

    Axis P runs over the d components at each of the Q spatial quadrature
    points. Yields (elements (B,), Whitney values (B, nl, P), weights (B, P)
    with mu and Jacobian, samples (B, P, width), outside-point count). The
    samples are the source's values at the T time-table points or, with
    `spatial`, a separable source's spatial rows (width R). A block holds
    SWEEP_SAMPLES // width rows (point, component), at least one element's;
    the values of a separable source take width max(T, R), as its rows are
    held too.
    """
    mesh, edge_table, _, source, space_quad, _, policy = samples.args
    n_q, n_t, dim = len(space_quad.points), len(samples.table.points), mesh.dim
    if samples.space is None:
        evaluate = getattr(source, "eval_points", None) or partial(eval_points_per_point, source)
        width = n_t
    else:
        n_r = samples.source_time.shape[0]
        width = n_r if spatial else max(n_t, n_r)
    block = max(1, SWEEP_SAMPLES // width // (n_q * dim))
    _, _, grads = barycentric_transforms(mesh)
    jac = np.abs(signed_volumes(mesh)) / space_quad.weights.sum()
    for start in range(0, mesh.n_elements, block):
        el = np.arange(start, min(start + block, mesh.n_elements))
        w = whitney_local(dim, grads[el], edge_table.element_signs[el], space_quad.points)
        w = np.swapaxes(w, 1, 2).reshape(len(el), -1, n_q * dim)                 # (B, nl, P)
        scale = np.repeat((mesh.mu[el] * jac[el])[:, None] * space_quad.weights, dim, axis=1)
        if samples.space is None:
            values, inside = evaluate(_quadrature_points(mesh, space_quad, el), samples.table.points,
                                      policy=policy)                              # (B*Q, T, d)
            hs = np.swapaxes(values, 1, 2).reshape(len(el), n_q * dim, n_t)
            yield el, w, scale, hs, int(np.count_nonzero(~inside))
        else:
            rows = samples.space(slice(start * n_q, (start + len(el)) * n_q))     # (B*P, R)
            if not spatial:
                rows = rows @ samples.source_time                                  # (B*P, T)
            yield el, w, scale, rows.reshape(len(el), n_q * dim, -1), 0


def assemble_source_matrix(mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid,
                           source: SourceField, space_quad: QuadratureRule | None = None,
                           time_quad_points: int = 2, policy: str = "zero", *,
                           samples: SourceSamples | None = None) -> tuple[np.ndarray, int]:
    """Moments of the source field against every space-time basis function (M x N, dense).

    Each target interval is additionally split at interior source time nodes,
    so piecewise-linear-in-time sources integrate exactly and spatial
    quadrature is the only residual integration error. A separable source
    gives C = (mixed spatial mass) (source_time diag(w) H_t^T), the mass
    scattered from the sweep's weighted Whitney values times the spatial
    rows; for a DiscreteField this is K D_s G. `samples`, taken by
    `sample_source` with the same arguments, spares preparing the source
    again.

    Returns (C, outside_point_count).
    """
    samples = _samples_for(samples, mesh, edge_table, grid, source, space_quad, time_quad_points, policy)
    table = samples.table
    if samples.space is not None:
        # The mixed spatial mass times the source's spatial coefficients (M x R).
        mass = np.zeros((edge_table.edge_count, samples.source_time.shape[0]))
        for el, w, scale, rows, _ in _sweep(samples, spatial=True):
            np.add.at(mass, edge_table.element_edges[el], (w * scale[:, None, :]) @ rows)
        # The mixed time Gram (R x N): H_s diag(w) H_t^T (sparse) or H_f diag(w) H_t^T.
        gram = samples.source_time @ sp.diags(table.weights) @ samples.target_hats.T
        return mass @ gram, samples.outside
    c = np.zeros((edge_table.edge_count, grid.n_steps))
    outside = 0
    for el, w, scale, hs, out in _sweep(samples):
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
    consistency identities hold to machine precision. It squares the local
    difference of the two fields at each sample, never the expanded form,
    whose cancellation would floor the error near 1e-16 relative.
    `samples` is as for assemble_source_matrix.
    """
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (edge_table.edge_count, grid.n_steps):
        raise ValueError("dofs shape must be (edge count, time steps)")
    samples = _samples_for(samples, mesh, edge_table, grid, source, space_quad, time_quad_points, policy)
    table = samples.table
    err = src = 0.0
    outside = samples.outside
    for el, w, scale, hs, out in _sweep(samples):
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
