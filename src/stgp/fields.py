"""Source-field evaluators: analytic recipes, discrete mesh-backed fields, field file I/O."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import TemporalGrid, _within_span, gauss_unit_interval, hat_matrix, whitney_local
from .mesh import (EdgeTable, Mesh, MeshFormatError, PointLocator, _format_row, _join_lines,
                   _LineReader, check_edge_table, check_points)

OUTSIDE_POLICIES = ("zero", "strict")
# Gauss-Legendre points along each edge for its circulation.
CIRCULATION_POINTS = 8


class PointOutsideDomainError(ValueError):
    """A query point fell outside the source mesh under the strict policy."""

    def __init__(self, x):
        super().__init__(f"point {tuple(float(c) for c in x)} is outside the source mesh")
        self.point = np.asarray(x, dtype=float)


def check_policy(policy: str) -> None:
    """Raise ValueError unless policy is one of OUTSIDE_POLICIES."""
    if policy not in OUTSIDE_POLICIES:
        raise ValueError(f"unknown outside-domain policy {policy!r}")


class SourceField:
    """Evaluator contract for the field being projected.

    `eval_points` is the batched entry the assembly sweeps call; `eval` and
    `eval_time_batch` are one-point wrappers around it. A subclass implements
    `eval_points`, or only `eval_time_batch`, which the base `eval_points`
    then calls once per point. Implementations are immutable and safe for
    concurrent evaluation.
    """

    dim: int

    def time_span(self) -> tuple[float, float] | None:
        """Declared (t_min, t_max), or None for fields defined for all times."""
        return None

    def interior_time_nodes(self) -> np.ndarray:
        """Times where the field is only piecewise smooth; integration splits there."""
        return np.empty(0)

    def eval_points(self, points, ts, policy: str = "zero") -> tuple[np.ndarray, np.ndarray]:
        """Evaluate at many spatial points for many times.

        points (P, dim), ts (T,). Returns (values (P, T, dim), inside (P,) bool);
        inside is False where a point missed the source domain and the zero
        policy filled in zeros.
        """
        if type(self).eval_time_batch is SourceField.eval_time_batch:
            raise NotImplementedError("a SourceField implements eval_points or eval_time_batch")
        return eval_points_per_point(self, points, ts, policy)

    def eval(self, x, t: float, policy: str = "zero") -> np.ndarray:
        values, _ = self.eval_points(np.asarray(x, dtype=float)[None, :], np.array([t]), policy)
        return values[0, 0]

    def eval_time_batch(self, x, ts: np.ndarray, policy: str = "zero") -> tuple[np.ndarray, bool]:
        """Evaluate at one spatial point for many times.

        Returns (values (T, dim), inside_flag). inside_flag is False when the
        point missed the source domain and the zero policy filled in zeros.
        """
        values, inside = self.eval_points(np.asarray(x, dtype=float)[None, :], ts, policy)
        return values[0], bool(inside[0])

    def _check_times(self, ts: np.ndarray) -> None:
        span = self.time_span()
        if span is None:
            return
        if ts.size and not _within_span(ts.min(), ts.max(), span):
            raise ValueError(f"time outside the source span [{span[0]}, {span[1]}]")


def eval_points_per_point(source, points, ts, policy: str = "zero") -> tuple[np.ndarray, np.ndarray]:
    """The `eval_points` contract for a source that has only `eval_time_batch`.

    Calls source.eval_time_batch(x, ts, policy=policy) once per row of points.
    """
    points = np.asarray(points, dtype=float)
    ts = np.asarray(ts, dtype=float)
    values = np.empty((len(points), len(ts), points.shape[1]))
    inside = np.empty(len(points), dtype=bool)
    for i, x in enumerate(points):
        values[i], inside[i] = source.eval_time_batch(x, ts, policy=policy)
    return values, inside


class AnalyticField(SourceField):
    """Closed-form field recipes used as manufactured sources.

    Supported kinds; KINDS lists each one's parameters, value counts and
    defaults:
      constant                  H = vector
      linear                    H = matrix @ x + offset
      poly-time                 H = vector * sum_k coeffs[k] t^k
      sinusoid (2D)             H = amplitude * (sin(w*y), sin(w*x)), w = wavenumber
      rotating-multipole (2D)   pole_pairs p, amplitude, omega, center, modulation m

    The rotating multipole is a rigidly rotating, radially directed pole
    pattern with an optional once-per-revolution amplitude modulation:

        H(x, t) = amp * (1 + m*cos(omega*t)) * cos(p*(theta(x) - omega*t)) * r_hat(x)

    omega is the mechanical angular speed of the pattern, so a fixed probe sees
    p full field oscillations and 2p pulses of |H|^2 per revolution, and for
    m > 0 the probe series |H|^2 has fundamental period 2*pi/omega.

    Each kind is written once, as R <= 2 separable factors

        H(x, t) = sum_r g_r(x) h_r(t),

    given by `space_factors` (the g_r) and `time_factors` (the h_r);
    `eval_points` is their product. constant, linear and sinusoid have
    h = 1, poly-time has g = vector, and the rotating multipole splits
    through cos(a - b) = cos a cos b + sin a sin b, with
    g = (cos(p theta) r_hat, sin(p theta) r_hat) and
    h = envelope * (cos(p omega t), sin(p omega t)).

    dim must be 2 or 3, and every parameter is checked when the field is
    built: a missing, misshapen or non-finite one raises ValueError naming it.
    """

    # Each kind's parameters in the order they are checked: (name, count,
    # default). count is None for one value, "dim" or "dim*dim" for that many,
    # 0 for one or more, else a fixed count. A default of None makes the
    # parameter required; a vector's default fills each of its values.
    KINDS = {
        "constant": (("vector", "dim", None),),
        "linear": (("matrix", "dim*dim", None), ("offset", "dim", 0.0)),
        "poly-time": (("vector", "dim", None), ("coeffs", 0, None)),
        "sinusoid": (("wavenumber", None, None), ("amplitude", None, 1.0)),
        "rotating-multipole": (("pole_pairs", None, None), ("omega", None, None),
                               ("amplitude", None, 1.0), ("center", 2, 0.0),
                               ("modulation", None, 0.0)),
    }
    _PLANAR = ("sinusoid", "rotating-multipole")  # kinds defined in 2-D only

    def __init__(self, kind: str, dim: int = 2, **params):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        self.kind = kind
        self.dim = dim
        self.params = dict(params)
        if kind not in self.KINDS:
            raise ValueError(f"unknown analytic field kind {kind!r}")
        if kind in self._PLANAR and dim != 2:
            raise ValueError(f"{kind} field is 2-D only")
        counts = {"dim": dim, "dim*dim": dim * dim}
        self._values = {}
        for name, count, default in self.KINDS[kind]:
            value = self._values[name] = self._param(name, counts.get(count, count), default)
            if name == "pole_pairs" and (value < 1 or value != int(value)):
                raise ValueError("rotating-multipole field parameter 'pole_pairs' must be a whole"
                                 " number >= 1")

    def _param(self, name: str, count: int | None, default) -> float | np.ndarray:
        """Parameter `name` as finite floats: a float for count None, else `count` values
        (one or more for count 0), flattened. A missing one takes `default`, filled to
        `count` values."""
        if default is not None and count is not None:
            default = np.full(count, default)
        value = self.params.get(name, default)
        if value is None:
            raise ValueError(f"{self.kind} field needs parameter {name!r}")
        try:
            array = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"{self.kind} field parameter {name!r} must be numeric") from None
        if count is None and array.ndim:
            raise ValueError(f"{self.kind} field parameter {name!r} must be one value")
        if count is not None:
            array = array.ravel()
            if array.size == 0 or (count and array.size != count):
                want = f"{count} values" if count else "one or more values"
                raise ValueError(f"{self.kind} field parameter {name!r} must hold {want},"
                                 f" got {array.size}")
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{self.kind} field parameter {name!r} must be finite")
        return float(array) if count is None else array

    def space_factors(self, points) -> np.ndarray:
        """The spatial factors g_r at points (P, dim): (P, dim, R)."""
        points = np.asarray(points, dtype=float)
        check_points(points, self.dim, 2, "field")
        kind, v = self.kind, self._values
        if kind in ("constant", "poly-time"):
            g = np.repeat(v["vector"][None, :], len(points), axis=0)
        elif kind == "linear":
            g = points @ v["matrix"].reshape(self.dim, self.dim).T + v["offset"]
        elif kind == "sinusoid":
            g = v["amplitude"] * np.sin(v["wavenumber"] * points[:, ::-1])
        else:
            rel = points - v["center"]
            theta = np.arctan2(rel[:, 1], rel[:, 0])
            radial = np.stack([np.cos(theta), np.sin(theta)], axis=1)                # (P, 2)
            angle = v["pole_pairs"] * theta
            return np.stack([np.cos(angle)[:, None] * radial,
                             np.sin(angle)[:, None] * radial], axis=2)
        return g[:, :, None]

    def time_factors(self, ts) -> np.ndarray:
        """The temporal factors h_r at times ts (T,): (R, T)."""
        ts = np.asarray(ts, dtype=float)
        v = self._values
        if self.kind == "poly-time":
            return np.polynomial.polynomial.polyval(ts, v["coeffs"])[None, :]
        if self.kind == "rotating-multipole":
            envelope = v["amplitude"] * (1.0 + v["modulation"] * np.cos(v["omega"] * ts))
            angle = v["pole_pairs"] * v["omega"] * ts
            return np.stack([envelope * np.cos(angle), envelope * np.sin(angle)])
        return np.ones((1, len(ts)))

    def eval_points(self, points, ts, policy: str = "zero") -> tuple[np.ndarray, np.ndarray]:
        check_policy(policy)
        points = np.asarray(points, dtype=float)
        values = np.einsum("pdr,rt->ptd", self.space_factors(points), self.time_factors(ts))
        return values, np.ones(len(points), dtype=bool)


class DiscreteField(SourceField):
    """Field carried by edge-element DOFs on a source mesh, linear in time between steps.

    It is separable like an AnalyticField, H(x, t) = sum_j W(x) D_s[:, j] phi_j(t):
    `located_rows` gives the Whitney values W times the DOFs D_s at located
    points, `time_factors` the grid's hats phi_j, and `eval_points` is their
    product.
    """

    def __init__(self, mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, dofs: np.ndarray,
                 locator: PointLocator | None = None):
        check_edge_table(mesh, edge_table)
        # A view, so locking it leaves the caller's own array writeable.
        self._bind(mesh, edge_table, grid,
                   np.ascontiguousarray(np.asarray(dofs, dtype=np.float64)).view(), locator, scan=True)

    @classmethod
    def _over_view(cls, mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, dofs: np.ndarray,
                   locator: PointLocator) -> DiscreteField:
        """The field over a read-only view of dofs, built in O(1): no copy, no finiteness scan
        and no `check_edge_table`, which rebuilds the table.

        For evaluation at a few points, which reads only the located
        elements' rows; a non-finite DOF read there gives a non-finite value,
        and an edge table that is not the mesh's own gives wrong values.
        """
        field = cls.__new__(cls)
        field._bind(mesh, edge_table, grid, np.asarray(dofs, dtype=np.float64).view(), locator, scan=False)
        return field

    def _bind(self, mesh, edge_table, grid, dofs, locator, scan: bool) -> None:
        """Hold the field; `scan` checks that the DOFs are finite. The caller checks the table."""
        if dofs.shape != (edge_table.edge_count, grid.n_steps):
            raise ValueError(
                f"dofs shape {dofs.shape} does not match {edge_table.edge_count} edges"
                f" x {grid.n_steps} time steps"
            )
        if scan and not np.all(np.isfinite(dofs)):
            raise ValueError("dofs must be finite")
        if locator is not None and locator.mesh is not mesh:
            raise ValueError("locator was built for a different mesh")
        dofs.flags.writeable = False
        self.mesh = mesh
        self.edge_table = edge_table
        self.grid = grid
        self.dofs = dofs
        self.dim = mesh.dim
        self.locator = locator if locator is not None else PointLocator(mesh)

    def time_span(self) -> tuple[float, float]:
        return self.grid.span

    def interior_time_nodes(self) -> np.ndarray:
        return self.grid.times

    def time_factors(self, ts) -> sp.csr_matrix:
        """The temporal factors, the grid's hats at times ts (T,): (N_s, T), sparse.

        A time outside the grid's span (beyond a 1e-12 relative slack) raises ValueError.
        """
        ts = np.asarray(ts, dtype=float)
        self._check_times(ts)
        return hat_matrix(self.grid, ts)

    def eval_points(self, points, ts, policy: str = "zero") -> tuple[np.ndarray, np.ndarray]:
        check_policy(policy)
        points = np.asarray(points, dtype=float)
        hats = self.time_factors(ts)  # before location: a bad time is reported first
        inside, elements, lam = locate_points(self.locator, points, policy)
        rows = located_rows(self, inside, elements, lam, slice(None))[0] @ hats
        return np.swapaxes(rows.reshape(len(points), self.dim, hats.shape[1]), 1, 2), inside


# Location plus Whitney sampling: DiscreteField.eval_points and the assembly's
# sampling of a discrete source both go through these two kernels.


def locate_points(locator: PointLocator, points,
                  policy: str = "zero") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Locate each point once: (inside (P,) bool, element (P,), barycentric (P, dim+1)).

    inside is False where a point missed the mesh; its element is then 0 and
    its barycentric row NaN. Under the strict policy the first such point
    raises PointOutsideDomainError.
    """
    points = np.asarray(points, dtype=float)
    check_points(points, locator.mesh.dim, 2)
    n = len(points)
    inside = np.empty(n, dtype=bool)
    elements = np.empty(n, dtype=np.int64)
    lam = np.empty((n, locator.mesh.dim + 1))
    # Copy each result out at once: its barycentric row is a view that
    # would keep the locator's whole candidate array alive.
    for i, x in enumerate(points):
        loc = locator.locate(x)
        inside[i], elements[i], lam[i] = loc.status != "outside", loc.element, loc.barycentric
    if policy == "strict" and not inside.all():
        raise PointOutsideDomainError(points[np.argmin(inside)])
    return inside, elements, lam


def located_rows(field: DiscreteField, inside: np.ndarray, elements: np.ndarray, lam: np.ndarray,
                 points: slice) -> tuple[np.ndarray, int]:
    """A located DiscreteField's spatial rows at a slice of the points: Whitney values times D_s.

    Point i lies in element elements[i] of the field's mesh at barycentric
    lam[i], or outside it, with zero rows, where inside[i] is False. Returns
    (rows x N_s), a row per point and component, and the count of the slice's
    points outside; only the located elements' DOF rows are read.
    """
    inside = inside[points]
    hit = np.flatnonzero(inside)
    elements, lam = elements[points][hit], lam[points][hit]
    values = whitney_local(field.dim, field.mesh.grads[elements],
                           field.edge_table.element_signs[elements], lam[:, None, :])[:, 0]  # (H, nl, d)
    rows = np.zeros((len(inside), field.dim, field.dofs.shape[1]))
    rows[hit] = np.swapaxes(values, 1, 2) @ field.dofs[field.edge_table.element_edges[elements]]
    return rows.reshape(-1, rows.shape[2]), len(inside) - len(hit)


def _circulations(mesh: Mesh, edge_table: EdgeTable, values_at) -> np.ndarray:
    """The circulation rule on every global edge; values_at(points (M, dim)) -> (M, ..., dim)."""
    check_edge_table(mesh, edge_table)
    s, w = gauss_unit_interval(CIRCULATION_POINTS)
    a = mesh.nodes[edge_table.edges[:, 0]]
    b = mesh.nodes[edge_table.edges[:, 1]]
    tangents = b - a
    out = 0.0
    for si, wi in zip(s, w):
        out = out + wi * np.einsum("m...d,md->m...", values_at(a + si * tangents), tangents)
    return out


def edge_circulations(mesh: Mesh, edge_table: EdgeTable, func) -> np.ndarray:
    """Line integrals of func along every global edge (low to high node).

    func(x) returns a vector (dim,), giving circulations (M,), or a series of
    vectors (T, dim), giving (M, T). An edge table that is not the mesh's own
    raises ValueError before func is called.
    """
    return _circulations(mesh, edge_table, lambda points: np.asarray([func(p) for p in points]))


def sample_field(field: SourceField, mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid) -> DiscreteField:
    """Interpolate a field onto edge-element DOFs: circulation samples at every time node."""
    dofs = _circulations(mesh, edge_table, lambda points: field.eval_points(points, grid.times)[0])
    sampled = DiscreteField.__new__(DiscreteField)
    sampled._bind(mesh, edge_table, grid, dofs, None, scan=True)  # _circulations checked the table
    return sampled


# ---------------------------------------------------------------------------
# stgp-field text format


@dataclass(frozen=True)
class FieldFile:
    mesh_name: str
    times: np.ndarray
    dofs: np.ndarray  # (M, N)


def read_field(text: str) -> FieldFile:
    """Parse the stgp-field text format."""
    rd = _LineReader(text, "stgp-field")
    lineno, tokens = rd.next("'mesh <name>'")
    if len(tokens) != 2 or tokens[0] != "mesh":
        raise MeshFormatError(lineno, "expected 'mesh <mesh-file-name>'")
    mesh_name = tokens[1]

    lineno, tokens = rd.next("'edges <M> steps <N>'")
    if len(tokens) != 4 or tokens[0] != "edges" or tokens[2] != "steps":
        raise MeshFormatError(lineno, "expected 'edges <M> steps <N>'")
    m = rd.parse(tokens[1], "edge count")
    n = rd.parse(tokens[3], "step count")
    if m < 0 or n < 2:
        raise MeshFormatError(lineno, "need M >= 0 edges and N >= 2 steps")

    (times,), (lineno,) = rd.block(1, 1 + n, "'times ...'", f"expected 'times' followed by {n} values",
                                   ("time",), keyword="times")
    times = times[0]
    if not np.all(np.isfinite(times)):
        raise MeshFormatError(lineno, "times must be finite")
    if np.any(np.diff(times) <= 0.0):
        raise MeshFormatError(lineno, "time line must be strictly increasing")

    (dofs,), lines = rd.block(m, n, "dof row {i}", f"dof row {{i}} must hold {n} values, got {{got}}",
                              ("dof value",))
    if not np.isfinite(dofs).all():  # one flat pass; rows are searched only for the message
        bad = np.flatnonzero(~np.isfinite(dofs).all(axis=1))
        raise MeshFormatError(lines[bad[0]], f"dof row {bad[0]} must hold finite values")
    rd.expect_done()
    return FieldFile(mesh_name=mesh_name, times=times, dofs=dofs)


def write_field(mesh_name: str, times: np.ndarray, dofs: np.ndarray) -> str:
    """Serialize times and DOFs to the canonical stgp-field text format."""
    times = np.asarray(times, dtype=float)
    dofs = np.asarray(dofs, dtype=float)
    if dofs.ndim != 2 or dofs.shape[1] != len(times):
        raise ValueError("dofs must be an M x N matrix matching the time line")
    check_mesh_name(mesh_name)
    return _join_lines(
        ["stgp-field 1", f"mesh {mesh_name}", f"edges {dofs.shape[0]} steps {dofs.shape[1]}",
         "times " + _format_row(times)],
        (_format_row(row) for row in dofs))


def check_mesh_name(mesh_name: str) -> None:
    """Raise ValueError unless a field file's 'mesh <name>' line reads back as `mesh_name`."""
    if mesh_name.split() != [mesh_name] or "#" in mesh_name:
        raise ValueError(f"mesh name {mesh_name!r} would not read back from a field file:"
                         " it must be non-empty, without whitespace or '#'")


def bind_field(file: FieldFile, mesh: Mesh, edge_table: EdgeTable) -> DiscreteField:
    """Attach a parsed field file to its mesh, checking dimensions and that the edge table
    is the mesh's own."""
    if file.dofs.shape[0] != edge_table.edge_count:
        raise ValueError(
            f"field file has {file.dofs.shape[0]} edge rows but the mesh has"
            f" {edge_table.edge_count} edges"
        )
    return DiscreteField(mesh, edge_table, TemporalGrid(file.times), file.dofs)
