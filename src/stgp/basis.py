"""Whitney edge basis, temporal hat functions, and quadrature on simplices and intervals."""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import LOCAL_EDGE_VERTICES, EdgeTable, Mesh

REFERENCE_MEASURE = {1: 1.0, 2: 0.5, 3: 1.0 / 6.0}
MAX_QUAD_ORDER = 6


@dataclass(frozen=True)
class TemporalGrid:
    """Strictly increasing time nodes t_0 < ... < t_{N-1} carrying hat functions."""

    times: np.ndarray

    def __post_init__(self):
        times = np.ascontiguousarray(np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("a temporal grid needs at least two time nodes")
        if not np.all(np.isfinite(times)):
            raise ValueError("time nodes must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("time nodes must be strictly increasing")
        times.flags.writeable = False

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def intervals(self) -> np.ndarray:
        return np.diff(self.times)


def _within_span(lo: float, hi: float, span: tuple[float, float]) -> bool:
    """Whether [lo, hi] lies inside span, with 1e-12 relative slack for round-off; NaN never does."""
    t0, t1 = span
    slack = 1e-12 * max(abs(t0), abs(t1), t1 - t0)
    return bool(t0 - slack <= lo and hi <= t1 + slack)


def hat_eval(grid: TemporalGrid, j: int, t: float) -> float:
    """Piecewise-linear hat: 1 at t_j, 0 at the other nodes."""
    times = grid.times
    if not 0 <= j < len(times):
        raise ValueError(f"hat index {j} out of range 0..{len(times) - 1}")
    if not times[0] <= t <= times[-1]:  # NaN fails too
        raise ValueError(f"t={t} outside the grid span [{times[0]}, {times[-1]}]")
    if j > 0 and times[j - 1] <= t <= times[j]:
        return float((t - times[j - 1]) / (times[j] - times[j - 1]))
    if j < len(times) - 1 and times[j] <= t <= times[j + 1]:
        return float((times[j + 1] - t) / (times[j + 1] - times[j]))
    return 0.0


def bracket(grid: TemporalGrid, t) -> tuple[np.ndarray, np.ndarray]:
    """Interval index k with t in [t_k, t_{k+1}] and the local coordinate theta in [0, 1].

    Vectorized over t; values at nodes use theta 0 of the right-hand interval so a
    node evaluation touches only that node's coefficients.
    """
    times = grid.times
    t = np.asarray(t, dtype=float)
    k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    theta = (t - times[k]) / (times[k + 1] - times[k])
    return k, theta


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights on the reference simplex or unit interval.

    Simplex points are barycentric (dim+1 entries); interval points are the
    reference coordinate in [0, 1]. Weights are positive and sum to the
    reference measure.
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        points = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        measure = REFERENCE_MEASURE[self.dim]
        if abs(weights.sum() - measure) > 1e-14 * max(1.0, measure):
            raise ValueError("quadrature weights must sum to the reference measure")
        points.flags.writeable = False
        weights.flags.writeable = False

    def __eq__(self, other) -> bool:
        """Equal by value, so an equal rule built twice is the same rule."""
        if not isinstance(other, QuadratureRule):
            return NotImplemented
        return ((self.dim, self.order) == (other.dim, other.order)
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.weights, other.weights))


def gauss_unit_interval(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre points and weights on [0, 1]."""
    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


def _collapsed_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Duffy-collapsed rule: Gauss-Jacobi (alpha=1) absorbs the (1-u) Jacobian,
    # keeping all weights positive at any order.
    xu, wu = roots_jacobi(n, 1, 0)
    u = (xu + 1.0) / 2.0
    wu = wu / 4.0
    v, wv = gauss_unit_interval(n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    l1 = uu.ravel()
    l2 = (vv * (1.0 - uu)).ravel()
    points = np.stack([l1, l2, 1.0 - l1 - l2], axis=1)
    weights = np.outer(wu, wv).ravel()
    return points, weights


def _collapsed_tetrahedron(n: int) -> tuple[np.ndarray, np.ndarray]:
    xu, wu = roots_jacobi(n, 2, 0)
    u = (xu + 1.0) / 2.0
    wu = wu / 8.0
    xv, wv = roots_jacobi(n, 1, 0)
    v = (xv + 1.0) / 2.0
    wv = wv / 4.0
    w, ww = gauss_unit_interval(n)
    uu, vv, www = np.meshgrid(u, v, w, indexing="ij")
    l1 = uu.ravel()
    l2 = (vv * (1.0 - uu)).ravel()
    l3 = (www * (1.0 - uu) * (1.0 - vv)).ravel()
    points = np.stack([l1, l2, l3, 1.0 - l1 - l2 - l3], axis=1)
    weights = np.einsum("i,j,k->ijk", wu, wv, ww).ravel()
    return points, weights


def simplex_quadrature(dim: int, order: int) -> QuadratureRule:
    """Rule exact for polynomials up to `order` on the reference simplex/interval."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"order must be in [1, {MAX_QUAD_ORDER}], got {order}")
    n = (order + 2) // 2  # Gauss point count per axis for degree >= order

    if dim == 1:
        points, weights = gauss_unit_interval(n)
        return QuadratureRule(dim=1, points=points, weights=weights, order=2 * n - 1)
    if dim == 2:
        if order == 1:
            return QuadratureRule(dim=2, points=np.full((1, 3), 1.0 / 3.0), weights=np.array([0.5]), order=1)
        if order == 2:
            points = np.array([
                [2 / 3, 1 / 6, 1 / 6],
                [1 / 6, 2 / 3, 1 / 6],
                [1 / 6, 1 / 6, 2 / 3],
            ])
            return QuadratureRule(dim=2, points=points, weights=np.full(3, 1.0 / 6.0), order=2)
        points, weights = _collapsed_triangle(n)
        return QuadratureRule(dim=2, points=points, weights=weights, order=2 * n - 1)
    if order == 1:
        return QuadratureRule(dim=3, points=np.full((1, 4), 0.25), weights=np.array([1.0 / 6.0]), order=1)
    if order == 2:
        a, b = 0.5854101966249685, 0.1381966011250105
        points = np.array([
            [a, b, b, b],
            [b, a, b, b],
            [b, b, a, b],
            [b, b, b, a],
        ])
        return QuadratureRule(dim=3, points=points, weights=np.full(4, 1.0 / 24.0), order=2)
    points, weights = _collapsed_tetrahedron(n)
    return QuadratureRule(dim=3, points=points, weights=weights, order=2 * n - 1)


def whitney_edge_eval(mesh: Mesh, edge_table: EdgeTable, element: int, x_bary) -> np.ndarray:
    """Evaluate the element's local Whitney edge functions at a barycentric point.

    Returns an (n_local_edges, dim) array of the globally oriented basis
    vectors lambda_a grad(lambda_b) - lambda_b grad(lambda_a), local edges in
    the canonical lexicographic order.
    """
    lam = np.asarray(x_bary, dtype=float)
    if lam.shape != (mesh.dim + 1,):
        raise ValueError(f"barycentric point must have {mesh.dim + 1} entries")
    if not np.all(np.isfinite(lam)):
        raise ValueError("barycentric coordinates must be finite")
    if abs(lam.sum() - 1.0) > 1e-10:
        raise ValueError("barycentric coordinates must sum to 1")
    if not 0 <= operator.index(element) < mesh.n_elements:
        raise ValueError(f"element {element} is out of range; valid range is 0..{mesh.n_elements - 1}")
    verts = mesh.nodes[mesh.elements[element]]
    inv_edges = np.linalg.inv((verts[1:] - verts[0]).T)
    grads = np.concatenate([-inv_edges.sum(axis=0, keepdims=True), inv_edges])
    return whitney_local(mesh.dim, grads, edge_table.element_signs[element], lam[None, :])[0]


def whitney_local(dim: int, grads: np.ndarray, signs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Whitney vectors at many barycentric points, broadcast over leading element axes.

    grads: (..., dim+1, dim) barycentric gradients, signs: (..., n_local),
    lam: (..., Q, dim+1). Returns (..., Q, n_local, dim); one element's
    (dim+1, dim), (n_local,) and (Q, dim+1) give (Q, n_local, dim).
    """
    pairs = LOCAL_EDGE_VERTICES[dim]
    pa = np.array([p for p, q in pairs])
    pb = np.array([q for p, q in pairs])
    grads = np.asarray(grads)[..., None, :, :]
    lam = np.asarray(lam)
    w = lam[..., pa, None] * grads[..., pb, :] - lam[..., pb, None] * grads[..., pa, :]
    return w * np.asarray(signs)[..., None, :, None]


def edge_circulation_rule(n: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points/weights on [0, 1] used to sample edge circulations."""
    return gauss_unit_interval(n)
