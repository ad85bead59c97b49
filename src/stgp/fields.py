"""Source-field evaluators: analytic recipes, discrete mesh-backed fields, field file I/O."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import TemporalGrid, _within_span, bracket, edge_circulation_rule, whitney_local
from .mesh import (EdgeTable, Mesh, MeshFormatError, PointLocator, _format_row, _LineReader,
                   check_points)

OUTSIDE_POLICIES = ("zero", "strict")


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

    Supported kinds:
      constant           params: vector
      linear             params: matrix (dim x dim), offset        H = matrix @ x + offset
      poly-time          params: vector, coeffs                    H = vector * sum_k coeffs[k] t^k
      sinusoid           params: amplitude, wavenumber (2D)        H = amp * (sin(w*y), sin(w*x))
      rotating-multipole params: pole_pairs, amplitude, omega,
                         center, modulation (2D)

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

    Every parameter is checked when the field is built: a missing,
    misshapen or non-finite one raises ValueError naming it.
    """

    def __init__(self, kind: str, dim: int = 2, **params):
        self.kind = kind
        self.dim = dim
        self.params = dict(params)
        getattr(self, "_setup_" + kind.replace("-", "_"), self._unknown)()

    def _unknown(self):
        raise ValueError(f"unknown analytic field kind {self.kind!r}")

    def _param(self, name: str, count: int | None = None, default=None) -> np.ndarray:
        """Parameter `name` as finite floats: one value for count None, else `count` values
        (one or more for count 0), flattened."""
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
        return array

    def _setup_constant(self):
        self._vector = self._param("vector", self.dim)

    def _setup_linear(self):
        self._matrix = self._param("matrix", self.dim * self.dim).reshape(self.dim, self.dim)
        self._offset = self._param("offset", self.dim, default=np.zeros(self.dim))

    def _setup_poly_time(self):
        self._vector = self._param("vector", self.dim)
        self._coeffs = self._param("coeffs", 0)

    def _setup_sinusoid(self):
        if self.dim != 2:
            raise ValueError("sinusoid field is 2-D only")
        self._amplitude = float(self._param("amplitude", default=1.0))
        self._wavenumber = float(self._param("wavenumber"))

    def _setup_rotating_multipole(self):
        if self.dim != 2:
            raise ValueError("rotating-multipole field is 2-D only")
        pole_pairs = float(self._param("pole_pairs"))
        if pole_pairs < 1 or pole_pairs != int(pole_pairs):
            raise ValueError("rotating-multipole field parameter 'pole_pairs' must be a whole"
                             " number >= 1")
        self._pole_pairs = int(pole_pairs)
        self._amplitude = float(self._param("amplitude", default=1.0))
        self._omega = float(self._param("omega"))
        self._center = self._param("center", 2, default=np.zeros(2))
        self._modulation = float(self._param("modulation", default=0.0))

    def space_factors(self, points) -> np.ndarray:
        """The spatial factors g_r at points (P, dim): (P, dim, R)."""
        points = np.asarray(points, dtype=float)
        check_points(points, self.dim, 2, "field")
        kind = self.kind
        if kind in ("constant", "poly-time"):
            g = np.repeat(self._vector[None, :], len(points), axis=0)
        elif kind == "linear":
            g = points @ self._matrix.T + self._offset
        elif kind == "sinusoid":
            g = self._amplitude * np.sin(self._wavenumber * points[:, ::-1])
        else:
            rel = points - self._center
            theta = np.arctan2(rel[:, 1], rel[:, 0])
            radial = np.stack([np.cos(theta), np.sin(theta)], axis=1)                # (P, 2)
            angle = self._pole_pairs * theta
            return np.stack([np.cos(angle)[:, None] * radial,
                             np.sin(angle)[:, None] * radial], axis=2)
        return g[:, :, None]

    def time_factors(self, ts) -> np.ndarray:
        """The temporal factors h_r at times ts (T,): (R, T)."""
        ts = np.asarray(ts, dtype=float)
        if self.kind == "poly-time":
            return np.polynomial.polynomial.polyval(ts, self._coeffs)[None, :]
        if self.kind == "rotating-multipole":
            envelope = self._amplitude * (1.0 + self._modulation * np.cos(self._omega * ts))
            angle = self._pole_pairs * self._omega * ts
            return np.stack([envelope * np.cos(angle), envelope * np.sin(angle)])
        return np.ones((1, len(ts)))

    def eval_points(self, points, ts, policy: str = "zero") -> tuple[np.ndarray, np.ndarray]:
        check_policy(policy)
        points = np.asarray(points, dtype=float)
        values = np.einsum("pdr,rt->ptd", self.space_factors(points), self.time_factors(ts))
        return values, np.ones(len(points), dtype=bool)


class DiscreteField(SourceField):
    """Field carried by edge-element DOFs on a source mesh, linear in time between steps."""

    def __init__(self, mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, dofs: np.ndarray,
                 locator: PointLocator | None = None):
        # A view, so locking it leaves the caller's own array writeable.
        self._bind(mesh, edge_table, grid,
                   np.ascontiguousarray(np.asarray(dofs, dtype=np.float64)).view(), locator, scan=True)

    @classmethod
    def _over_view(cls, mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, dofs: np.ndarray,
                   locator: PointLocator) -> DiscreteField:
        """The field over a read-only view of dofs, built in O(1): no copy, no finiteness scan.

        For evaluation at a few points, which reads only the located
        elements' rows; a non-finite DOF read there gives a non-finite value.
        """
        field = cls.__new__(cls)
        field._bind(mesh, edge_table, grid, np.asarray(dofs, dtype=np.float64).view(), locator, scan=False)
        return field

    def _bind(self, mesh, edge_table, grid, dofs, locator, scan: bool) -> None:
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

    def eval_points(self, points, ts, policy: str = "zero") -> tuple[np.ndarray, np.ndarray]:
        check_policy(policy)
        points = np.asarray(points, dtype=float)
        ts = np.asarray(ts, dtype=float)
        self._check_times(ts)
        inside, elements, lam = locate_points(self.locator, points)
        if policy == "strict" and not inside.all():
            raise PointOutsideDomainError(points[np.argmin(inside)])
        values = np.zeros((len(points), len(ts), self.dim))
        hit = np.flatnonzero(inside)
        edges, w = whitney_at(self.locator, self.edge_table, elements[hit], lam[hit])
        k, theta = bracket(self.grid, ts)
        k, theta = k[:, None], theta[:, None]
        edges = edges[:, None, :]                                                         # (H, 1, nl)
        # In place, so a block holds two (H, T, nl) series at most.
        series = self.dofs[edges, k]
        series *= 1.0 - theta
        right = self.dofs[edges, k + 1]
        right *= theta
        series += right
        values[hit] = series @ w
        return values, inside


# Location plus Whitney sampling: DiscreteField.eval_points and the assembly's
# producer of a discrete source's samples both sample a mesh's edge elements
# through these two kernels.


def locate_points(locator: PointLocator, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Locate each point once: (inside (P,) bool, element (P,), barycentric (P, dim+1)).

    inside is False where a point missed the mesh; its element is then 0 and
    its barycentric row NaN.
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
    return inside, elements, lam


def whitney_at(locator: PointLocator, edge_table: EdgeTable, elements: np.ndarray,
               lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global edges (H, nl) and Whitney vectors (H, nl, dim) of elements (H,) at barycentric points (H, dim+1)."""
    values = whitney_local(locator.mesh.dim, locator.element_gradients(elements),
                           edge_table.element_signs[elements], lam[:, None, :])[:, 0]
    return edge_table.element_edges[elements], values


def _circulations(mesh: Mesh, edge_table: EdgeTable, values_at) -> np.ndarray:
    """The circulation rule on every global edge; values_at(points (M, dim)) -> (M, ..., dim)."""
    s, w = edge_circulation_rule()
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
    vectors (T, dim), giving (M, T).
    """
    return _circulations(mesh, edge_table, lambda points: np.asarray([func(p) for p in points]))


def sample_field(field: SourceField, mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid) -> DiscreteField:
    """Interpolate a field onto edge-element DOFs: circulation samples at every time node."""
    dofs = _circulations(mesh, edge_table, lambda points: field.eval_points(points, grid.times)[0])
    return DiscreteField(mesh, edge_table, grid, dofs)


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
    bad = np.flatnonzero(~np.isfinite(dofs).all(axis=1))
    if bad.size:
        raise MeshFormatError(lines[bad[0]], f"dof row {bad[0]} must hold finite values")
    rd.expect_done()
    return FieldFile(mesh_name=mesh_name, times=times, dofs=dofs)


def write_field(mesh_name: str, times: np.ndarray, dofs: np.ndarray) -> str:
    """Serialize times and DOFs to the canonical stgp-field text format."""
    times = np.asarray(times, dtype=float)
    dofs = np.asarray(dofs, dtype=float)
    if dofs.ndim != 2 or dofs.shape[1] != len(times):
        raise ValueError("dofs must be an M x N matrix matching the time line")
    out = [
        "stgp-field 1",
        f"mesh {mesh_name}",
        f"edges {dofs.shape[0]} steps {dofs.shape[1]}",
        "times " + _format_row(times),
    ]
    out += [_format_row(row) for row in dofs]
    return "\n".join(out) + "\n"


def bind_field(file: FieldFile, mesh: Mesh, edge_table: EdgeTable) -> DiscreteField:
    """Attach a parsed field file to its mesh, checking dimensions."""
    if file.dofs.shape[0] != edge_table.edge_count:
        raise ValueError(
            f"field file has {file.dofs.shape[0]} edge rows but the mesh has"
            f" {edge_table.edge_count} edges"
        )
    return DiscreteField(mesh, edge_table, TemporalGrid(file.times), file.dofs)
