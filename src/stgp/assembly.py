"""Assembly of the projection matrices: spatial mass A, temporal Gram B, source matrix C.

C (and the error integrals that reuse the same quadrature) is stored dense,
column = time step; vectorization is column-major throughout. Work runs as
whole-array kernels in index order, so results are bitwise repeatable.

`sample_source` prepares every source once, as a separable one,
H(x, t) = sum_r s_r(x) f_r(t), and is the one place that decides how a
source is read: `space` gives its spatial rows (one per target quadrature
point and component) at a slice of the points with that slice's outside
count, and source_time (R x T) its time factors at the time-table points.
Only `space` depends on the type:

- DiscreteField: each target quadrature point is located in the source mesh
  once; the rows are `fields.located_rows`, the source's Whitney values there
  times its DOFs D_s (R = N_s). Its time factors are its grid's hats.
- AnalyticField: the rows are G, its R <= 2 spatial factors g_r at the
  quadrature points, and no point is outside; its time factors are H_f, the h_r.
- Any other source: the rows are its values at the time-table points, from
  `eval_points` (or from `eval_time_batch` one point at a time, through
  `fields.eval_points_per_point`), and its time factors are the identity
  (R = T).

One block loop, `_sweep`, serves every source alike: it runs over the target
elements in index order and yields their Whitney values and weights with the
source's spatial rows there. C is one formula for every source: the mixed
spatial mass (the target's weighted Whitney values times the spatial rows,
scattered over element edges; K D_s for a DiscreteField) times the mixed
temporal Gram, source_time diag(w) H_t^T. So is the energy error: with the
square roots of the weights folded into the factors, a block's weighted local
difference is W^T S - R F (target series S on the element edges, rows R, time
factors F), squared and summed, and the source energy is R F F^T R^T.
"""
from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .basis import (QuadratureRule, TemporalGrid, _whole, _within_span, gauss_unit_interval,
                    hat_matrix, simplex_quadrature, whitney_local)
from .fields import (AnalyticField, DiscreteField, SourceField, check_policy, eval_points_per_point,
                     locate_points, located_rows)
from .mesh import (EdgeTable, Mesh, MeshFormatError, _format_row, _join_lines, _LineReader,
                   check_edge_table)

# Source samples (rows x columns) held at once by one block of the sweep.
# Larger blocks raised the peak RSS (2**18: +7 % on the benchmark's
# transfer-2d workload, 9-point triangle rule) and are slower past 2**16: one
# multipole-windows-2d window's energy error took 13.1 / 12.2 / 14.3 / 15.4 /
# 21.6 ms at blocks of 2**15 / 2**16 / 2**17 / 2**18 / 2**20 with the 7-point
# rule (16.5 / 14.7 / 15.7 / 17.3 / 26.0 ms with the 9-point one); medians of
# 15 interleaved calls, pinned BLAS, 2-vCPU host.
SWEEP_SAMPLES = 2**15
# Most Gauss points per temporal subinterval.
MAX_TIME_QUAD_POINTS = 6
# The projection's defaults, which ProjectionProblem, error_norm and every
# assembly entry point take: the spatial rule's order (4 makes the mass
# matrix exact), Gauss points per temporal subinterval and the outside policy.
DEFAULT_SPACE_QUAD_ORDER = 4
DEFAULT_TIME_QUAD_POINTS = 2
DEFAULT_OUTSIDE_POLICY = "zero"


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


def _fitted_rule(mesh: Mesh, quad: QuadratureRule | None) -> QuadratureRule:
    """The spatial rule, DEFAULT_SPACE_QUAD_ORDER if none is given, once it is checked to fit the mesh."""
    if quad is None:
        return simplex_quadrature(mesh.dim, DEFAULT_SPACE_QUAD_ORDER)
    if quad.dim != mesh.dim:
        raise ValueError(f"a {quad.dim}-D quadrature rule does not fit a {mesh.dim}-D mesh")
    return quad


def assemble_spatial_mass(mesh: Mesh, edge_table: EdgeTable,
                          quad: QuadratureRule | None = None) -> sp.csr_matrix:
    """Permeability-weighted mass matrix of the Whitney edge basis (M x M, SPD).

    The integrand is quadratic in the barycentric coordinates, so the default
    order-4 rule makes every entry quadrature-exact.
    """
    check_edge_table(mesh, edge_table)
    quad = _fitted_rule(mesh, quad)
    if quad.order < 2:
        raise ValueError("spatial mass assembly needs a simplex rule of order >= 2")

    jac = np.abs(mesh.volumes) / (quad.weights.sum())
    w = whitney_local(mesh.dim, mesh.grads, edge_table.element_signs, quad.points)  # (E, Q, nl, d)
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
    """Temporal quadrature points and weights of the target intervals, split at interior source nodes."""

    points: np.ndarray   # (T,) quadrature times
    weights: np.ndarray  # (T,)


def build_time_table(grid: TemporalGrid, source: SourceField, n_points: int) -> _TimeTable:
    n_points = _whole(n_points, "time_quad_points")
    if not 1 <= n_points <= MAX_TIME_QUAD_POINTS:
        raise ValueError(f"temporal quadrature uses 1..{MAX_TIME_QUAD_POINTS} Gauss points"
                         " per subinterval")
    gauss_points, gauss_weights = gauss_unit_interval(n_points)
    breakers = np.asarray(source.interior_time_nodes(), dtype=float)
    times = grid.times
    knots = np.union1d(times, breakers[(breakers > times[0]) & (breakers < times[-1])])
    lo, h = knots[:-1, None], np.diff(knots)[:, None]
    return _TimeTable(points=(lo + gauss_points * h).ravel(), weights=(gauss_weights * h).ravel())


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


def _quadrature_points(mesh: Mesh, space_quad: QuadratureRule) -> np.ndarray:
    """Physical spatial quadrature points of the mesh, (E*Q, d), Q per element in order."""
    return np.einsum("qk,ekd->eqd", space_quad.points,
                     mesh.nodes[mesh.elements]).reshape(-1, mesh.dim)


def _diagonal(values: np.ndarray) -> sp.csr_matrix:
    """diag(values) as CSR, built from its arrays: sp.diags took about twice as long."""
    n = len(values)
    return sp.csr_matrix((values, np.arange(n), np.arange(n + 1)), shape=(n, n))


@dataclass(frozen=True)
class SourceSamples:
    """A source prepared once, by `sample_source`, for the target's space-time quadrature.

    Spatial quadrature points run in element order, Q per element; a row
    (point, component) is point * d + component. The target hats are the
    target grid's (N x T) at the time-table points, held once for C and the
    energy error. The source, H(x, t) = sum_r s_r(x) f_r(t), has its time
    factors there, source_time (R x T), and `space(points)` gives its spatial
    rows at a slice of the points (rows x R) with the count of that slice's
    points outside the source. A source of neither stgp type has the T x T
    identity as its time factors, and its values as its rows.
    """

    args: tuple  # (mesh, edge_table, grid, source, space_quad, time_quad_points, policy)
    table: _TimeTable
    target_hats: sp.csr_matrix
    source_time: sp.csr_matrix | np.ndarray
    space: Callable[[slice], tuple[np.ndarray, int]]


def _factor_rows(space: np.ndarray, points: slice) -> tuple[np.ndarray, int]:
    """An AnalyticField's spatial factors G (P, d, R) at a slice of the points, as rows (rows x R)."""
    return space[points].reshape(-1, space.shape[2]), 0


def _evaluated_rows(evaluate: Callable, xq: np.ndarray, times: np.ndarray, policy: str,
                    points: slice) -> tuple[np.ndarray, int]:
    """A source of neither stgp type at a slice of the points: its values as rows (rows x T).

    evaluate has the `eval_points` contract, checked here, where the rows
    and the outside count are read from what it returns.
    """
    xq = xq[points]
    values, inside = map(np.asarray, evaluate(xq, times, policy=policy))
    want = (len(xq), len(times), xq.shape[1])
    if values.shape != want or inside.shape != want[:1] or inside.dtype != bool:
        raise ValueError(f"a source's evaluation must give values of shape {want} and inside of"
                         f" shape {want[:1]}, bool; got {values.shape} and {inside.shape}, {inside.dtype}")
    return np.swapaxes(values, 1, 2).reshape(-1, len(times)), int(np.count_nonzero(~inside))


def sample_source(mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, source: SourceField,
                  space_quad: QuadratureRule | None = None,
                  time_quad_points: int = DEFAULT_TIME_QUAD_POINTS,
                  policy: str = DEFAULT_OUTSIDE_POLICY) -> SourceSamples:
    """Prepare a source for the target's space-time quadrature, once.

    Fills in the default spatial rule, checks the policy, the time span and
    that the edge table, rule and source fit the mesh, and builds the time
    table. A DiscreteField's target quadrature points are then located in
    its mesh, and an AnalyticField's space factors evaluated there; either
    field's time factors are taken at the time-table points. Any other source
    gets identity time factors, and its `space` evaluates it.
    """
    check_edge_table(mesh, edge_table)
    space_quad = _fitted_rule(mesh, space_quad)
    dim = getattr(source, "dim", mesh.dim)
    if dim != mesh.dim:
        raise ValueError(f"a {dim}-D source does not fit a {mesh.dim}-D target mesh")
    check_policy(policy)
    check_span(grid, source)
    table = build_time_table(grid, source, time_quad_points)
    xq = _quadrature_points(mesh, space_quad)
    if isinstance(source, AnalyticField):
        space = partial(_factor_rows, source.space_factors(xq))
    elif isinstance(source, DiscreteField):
        space = partial(located_rows, source, *locate_points(source.locator, xq, policy))
    else:
        evaluate = getattr(source, "eval_points", None) or partial(eval_points_per_point, source)
        space = partial(_evaluated_rows, evaluate, xq, table.points, policy)
    source_time = (sp.identity(len(table.points), format="csr") if space.func is _evaluated_rows
                   else source.time_factors(table.points))
    return SourceSamples(args=(mesh, edge_table, grid, source, space_quad, time_quad_points, policy),
                         table=table, target_hats=hat_matrix(grid, table.points),
                         source_time=source_time, space=space)


def _samples_for(samples: SourceSamples | None, *args) -> SourceSamples:
    """The given samples, checked against the arguments, or fresh ones taken for them.

    Mesh, edge table, grid and source must be the objects sampled, so the
    table was checked against the mesh then; the rule (None: the default), the
    point count and the policy must be equal.
    """
    if samples is None:
        return sample_source(*args)
    mesh, _, _, _, space_quad, *settings = args
    if not (all(map(operator.is_, samples.args[:4], args[:4]))
            and samples.args[4:] == (_fitted_rule(mesh, space_quad), *settings)):
        raise ValueError("samples were taken for other arguments")
    return samples


def _sweep(samples: SourceSamples, width: int):
    """The source's spatial rows at the target's quadrature, in blocks of elements in index order.

    Axis P runs over the d components at each of the Q spatial quadrature
    points. Yields (elements (a slice of B), Whitney values (B, nl, P),
    weights (B, P) with mu and Jacobian, spatial rows (B, P, R), the count of
    the block's points outside the source), rows and count from the samples'
    `space` for every source alike. A block holds SWEEP_SAMPLES // width rows
    (point, component), at least one element's: width R for C, max(T, R) for
    the energy error, whose blocks hold the T samples too.
    """
    mesh, edge_table, _, _, space_quad, _, _ = samples.args
    n_q, dim = len(space_quad.points), mesh.dim
    block = max(1, SWEEP_SAMPLES // width // (n_q * dim))
    jac = np.abs(mesh.volumes) / space_quad.weights.sum()
    scale = np.repeat((mesh.mu * jac)[:, None] * space_quad.weights, dim, axis=1)  # (E, P)
    whitney = whitney_local(dim, mesh.grads, edge_table.element_signs, space_quad.points)
    whitney = np.swapaxes(whitney, 1, 2).reshape(mesh.n_elements, -1, n_q * dim)  # (E, nl, P)
    for start in range(0, mesh.n_elements, block):
        el = slice(start, min(start + block, mesh.n_elements))
        rows, out = samples.space(slice(start * n_q, el.stop * n_q))                # (B*P, R)
        yield el, whitney[el], scale[el], rows.reshape(el.stop - start, n_q * dim, -1), out


def assemble_source_matrix(mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid,
                           source: SourceField, space_quad: QuadratureRule | None = None,
                           time_quad_points: int = DEFAULT_TIME_QUAD_POINTS,
                           policy: str = DEFAULT_OUTSIDE_POLICY, *,
                           samples: SourceSamples | None = None) -> tuple[np.ndarray, int]:
    """Moments of the source field against every space-time basis function (M x N, dense).

    Each target interval is additionally split at interior source time nodes,
    so piecewise-linear-in-time sources integrate exactly and spatial
    quadrature is the only residual integration error. Every source gives
    C = (mixed spatial mass) (source_time diag(w) H_t^T), the mass scattered
    from the sweep's weighted Whitney values times the spatial rows; for a
    DiscreteField this is K D_s G, and for a source of neither stgp type,
    whose time factors are the identity, the mass holds the moments of its
    samples. `samples`, taken by `sample_source` with the same arguments,
    spares preparing the source again.

    Returns (C, outside_point_count).
    """
    samples = _samples_for(samples, mesh, edge_table, grid, source, space_quad, time_quad_points, policy)
    # The mixed spatial mass times the source's spatial coefficients (M x R).
    mass = np.zeros((edge_table.edge_count, samples.source_time.shape[0]))
    outside = 0
    for el, w, scale, rows, out in _sweep(samples, samples.source_time.shape[0]):
        np.add.at(mass, edge_table.element_edges[el], (w * scale[:, None, :]) @ rows)
        outside += out
    # The mixed time Gram (R x N): source_time diag(w) H_t^T.
    gram = samples.source_time @ _diagonal(samples.table.weights) @ samples.target_hats.T
    return mass @ gram, outside


def energy_error(mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, source: SourceField,
                 dofs: np.ndarray, space_quad: QuadratureRule | None = None,
                 time_quad_points: int = DEFAULT_TIME_QUAD_POINTS,
                 policy: str = DEFAULT_OUTSIDE_POLICY, *,
                 samples: SourceSamples | None = None) -> tuple[float, float, int]:
    """Energy-weighted error of a trial DOF matrix against the source, plus source energy.

    Uses the same space-time quadrature as assemble_source_matrix, so the
    consistency identities hold to machine precision. It squares the local
    difference of the two fields at each sample, never the expanded form,
    whose cancellation would floor the error near 1e-16 relative. The
    weights are folded into the separable factors as square roots: sqrt(w_t)
    into the target hats and source_time, once; sqrt(mu |J| w_q) into each
    block's Whitney values and spatial rows. A block's weighted difference is
    then D = W^T S - R F, S the target's DOFs on its element edges times
    the hats, and the error is half the sum of D*D, by numpy's own loop; the
    source energy comes from the rows and the time Gram F F^T. `samples` is
    as for assemble_source_matrix.
    """
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (edge_table.edge_count, grid.n_steps):
        raise ValueError("dofs shape must be (edge count, time steps)")
    samples = _samples_for(samples, mesh, edge_table, grid, source, space_quad, time_quad_points, policy)
    n_t, n_r = len(samples.table.points), samples.source_time.shape[0]
    root_w = np.sqrt(samples.table.weights)
    # Each hat times sqrt(w_t) of its time point, in a copy's CSR data: the
    # same single product per entry as target_hats @ diag(sqrt w_t), without
    # that scipy product's set-up (about 100 us a call).
    hats = samples.target_hats.copy()
    hats.data *= root_w[hats.indices]
    hats = hats.T                                                          # (T, N), CSC
    source_time = samples.source_time @ _diagonal(root_w)                  # (R, T), its own type
    gram = source_time @ source_time.T                                     # (R, R), symmetric
    err = src = 0.0
    outside = 0
    for el, w, scale, rows, out in _sweep(samples, max(n_t, n_r)):
        root = np.sqrt(scale)                                                # (B, P)
        coeff = dofs[edge_table.element_edges[el].ravel()]                   # (B*nl, N)
        # (B*nl, T), copied to C order: the product below is slower on the transposed view.
        series = np.ascontiguousarray((hats @ coeff.T).T)
        rows = (rows * root[:, :, None]).reshape(-1, n_r)                    # (B*P, R)
        diff = np.swapaxes(w * root[:, None, :], 1, 2) @ series.reshape(len(root), -1, n_t)
        diff = diff.reshape(len(rows), n_t)
        diff -= rows @ source_time                                           # (B*P, T)
        err += float(np.einsum("ij,ij->", diff, diff))
        # gram @ rows.T: a sparse Gram multiplies without building its transpose.
        src += float(np.einsum("ij,ij->", gram @ rows.T, rows.T))
        outside += out
    return 0.5 * err, 0.5 * src, outside


# ---------------------------------------------------------------------------
# stgp-matrix dump format (debugging aid)


def write_matrix(matrix) -> str:
    """Dump a matrix in the stgp-matrix text format (sparse-sym, tridiag or dense).

    A sparse matrix must be exactly symmetric, or hold only its upper triangle,
    which then stands for the symmetric matrix; anything else raises ValueError.
    """
    if isinstance(matrix, TriDiagMatrix):
        head = ["stgp-matrix 1", f"tridiag {matrix.n}",
                "diag " + _format_row(matrix.diag), "off " + _format_row(matrix.off)]
        body = ()
    elif sp.issparse(matrix):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("a sparse dump (sparse-sym) needs a square matrix")
        coo = matrix.tocoo(copy=True)
        coo.sum_duplicates()  # a dump holds each entry once
        keep = coo.row <= coo.col  # upper triangle carries the symmetric matrix
        if np.any(coo.data[~keep] != 0.0) and (matrix != matrix.T).nnz:
            raise ValueError("a sparse dump (sparse-sym) needs a symmetric matrix or its upper"
                             " triangle; dump any other matrix dense")
        head = ["stgp-matrix 1", f"sparse-sym {coo.shape[0]} {int(np.sum(keep))}"]
        order = np.lexsort((coo.col[keep], coo.row[keep]))
        rows, cols = coo.row[keep][order].tolist(), coo.col[keep][order].tolist()
        vals = coo.data[keep][order].astype(float).tolist()
        body = (f"{r} {c} {v!r}" for r, c, v in zip(rows, cols, vals))
    else:
        dense = np.asarray(matrix, dtype=float)
        if dense.ndim != 2:
            raise ValueError("dense dump expects a 2-D array")
        head = ["stgp-matrix 1", f"dense {dense.shape[0]} {dense.shape[1]}"]
        body = (_format_row(row) for row in dense) if dense.shape[1] else ()
    return _join_lines(head, body)


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
    if min(sizes) < 0:
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
