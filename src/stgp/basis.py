"""Whitney edge basis, temporal hat functions, and quadrature on simplices and intervals."""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi, roots_legendre

from .mesh import LOCAL_EDGE_VERTICES, EdgeTable, Mesh, check_edge_table

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


def _whole(value, name: str) -> int:
    """value as an int if it is a whole number, not a bool; else a ValueError naming it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def hat_eval(grid: TemporalGrid, j: int, t: float) -> float:
    """Piecewise-linear hat: 1 at t_j, 0 at the other nodes."""
    times = grid.times
    j = operator.index(j)
    if not 0 <= j < len(times):
        raise ValueError(f"hat index {j} out of range 0..{len(times) - 1}")
    if not times[0] <= t <= times[-1]:  # NaN fails too
        raise ValueError(f"t={t} outside the grid span [{times[0]}, {times[-1]}]")
    if j > 0 and times[j - 1] <= t <= times[j]:
        return float((t - times[j - 1]) / (times[j] - times[j - 1]))
    if j < len(times) - 1 and times[j] <= t <= times[j + 1]:
        return float((times[j + 1] - t) / (times[j + 1] - times[j]))
    return 0.0


def hat_matrix(grid: TemporalGrid, t) -> sp.csr_matrix:
    """The grid's hats at times t (T,), as CSR (n_steps x T).

    Column i holds 1 - theta on hat k and theta on hat k + 1, where t[i] lies
    in [t_k, t_{k+1}] at local coordinate theta. A time at a node takes theta 0
    of the right-hand interval (theta 1 at the last node), so only that node's
    hat is nonzero there.
    """
    times = grid.times
    t = np.asarray(t, dtype=float)
    k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    theta = (t - times[k]) / (times[k + 1] - times[k])
    cols = np.arange(len(k))
    return sp.csr_matrix((np.concatenate([1.0 - theta, theta]),
                          (np.concatenate([k, k + 1]), np.concatenate([cols, cols]))),
                         shape=(grid.n_steps, len(k)))


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
        # NaN fails both tests below, so finiteness is checked first.
        if not np.all(np.isfinite(points)):
            raise ValueError("quadrature points must be finite")
        if not np.all(np.isfinite(weights)):
            raise ValueError("quadrature weights must be finite")
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


def _collapsed_simplex(dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Duffy-collapsed rule: Gauss-Jacobi (alpha = dim-1 .. 1) absorbs the
    # Jacobian of each collapsed axis, keeping all weights positive at any order.
    axes = []
    for alpha in range(dim - 1, 0, -1):
        x, w = roots_jacobi(n, alpha, 0)
        axes.append(((x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)))
    axes.append(gauss_unit_interval(n))
    grids = np.meshgrid(*(x for x, _ in axes), indexing="ij")
    lam = []
    for k, x in enumerate(grids):  # lambda_k = x_k (1 - x_0) ... (1 - x_{k-1})
        for prev in grids[:k]:
            x = x * (1.0 - prev)
        lam.append(x.ravel())
    last = 1.0
    for value in lam:
        last = last - value
    weights = reduce(np.multiply.outer, (w for _, w in axes)).ravel()
    return np.stack([*lam, last], axis=1), weights


# Symmetric rules by (dim, the degree each integrates exactly), as orbits of
# barycentric generators: every distinct permutation of a generator takes its
# weight. Degree 1 is the centroid and degree 2 one orbit; degree 5 is Radon's
# 7-point triangle rule (1948) and the 14-point positive-weight tetrahedral
# rule (Walkington 2000; tabulated by Jaskowiec & Sukumar 2020).
_R15 = np.sqrt(15.0)
_A2, _B2 = (6.0 - _R15) / 21.0, (6.0 + _R15) / 21.0
_A3, _B3, _C3 = 0.0927352503108912, 0.3108859192633006, 0.4544962958743504
_SYMMETRIC_RULES = {
    (2, 1): [((1 / 3, 1 / 3, 1 / 3), 1 / 2)],
    (3, 1): [((1 / 4, 1 / 4, 1 / 4, 1 / 4), 1 / 6)],
    (2, 2): [((2 / 3, 1 / 6, 1 / 6), 1 / 6)],
    (3, 2): [((0.5854101966249685, *[0.1381966011250105] * 3), 1 / 24)],
    (2, 5): [((1 / 3, 1 / 3, 1 / 3), 9 / 80),
             ((1.0 - 2.0 * _A2, _A2, _A2), (155.0 - _R15) / 2400.0),
             ((1.0 - 2.0 * _B2, _B2, _B2), (155.0 + _R15) / 2400.0)],
    (3, 5): [((1.0 - 3.0 * _A3, _A3, _A3, _A3), 0.01224884051939366),
             ((1.0 - 3.0 * _B3, _B3, _B3, _B3), 0.01878132095300264),
             ((_C3, _C3, 0.5 - _C3, 0.5 - _C3), 0.007091003462846911)],
}


def _symmetric_simplex(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """A rule of _SYMMETRIC_RULES, each orbit's points in the order permutations first give them:
    the degree-2 rule's point k lies nearest vertex k."""
    points, weights = [], []
    for generator, weight in _SYMMETRIC_RULES[dim, degree]:
        orbit = list(dict.fromkeys(itertools.permutations(generator)))
        points += orbit
        weights += [weight] * len(orbit)
    return np.array(points), np.array(weights)


def simplex_quadrature(dim: int, order: int) -> QuadratureRule:
    """Rule exact for polynomials up to `order` on the reference simplex/interval.

    The interval takes n-point Gauss-Legendre, n = (order + 2) // 2. On the
    triangle (tetrahedron): order 1 is the centroid; order 2 is the symmetric
    3-point (4-point) rule of degree 2; order 3 is the 2^d collapsed Gauss
    rule, 4 (8) points of degree 3; orders 4 and 5 are the symmetric degree-5
    rules, 7 points (Radon) and 14 points (Walkington); order 6 is the 4^d
    collapsed Gauss rule, 16 (64) points of degree 7. `order` on the rule is
    the degree it integrates exactly.
    """
    dim, order = _whole(dim, "dim"), _whole(order, "order")
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ValueError(f"order must be in [1, {MAX_QUAD_ORDER}], got {order}")
    n = (order + 2) // 2  # Gauss point count per axis for degree >= order
    exact = 2 * n - 1
    if dim == 1:
        points, weights = gauss_unit_interval(n)
    elif order in (3, 6):
        points, weights = _collapsed_simplex(dim, n)
    else:  # the symmetric rule of the least degree >= order
        exact = min(degree for degree in (1, 2, 5) if degree >= order)
        points, weights = _symmetric_simplex(dim, exact)
    return QuadratureRule(dim=dim, points=points, weights=weights, order=exact)


def whitney_edge_eval(mesh: Mesh, edge_table: EdgeTable, element: int, x_bary) -> np.ndarray:
    """Evaluate the element's local Whitney edge functions at a barycentric point.

    Returns an (n_local_edges, dim) array of the globally oriented basis
    vectors lambda_a grad(lambda_b) - lambda_b grad(lambda_a), local edges in
    the canonical lexicographic order. An edge table that is not the mesh's
    own raises ValueError.
    """
    check_edge_table(mesh, edge_table)
    lam = np.asarray(x_bary, dtype=float)
    if lam.shape != (mesh.dim + 1,):
        raise ValueError(f"barycentric point must have {mesh.dim + 1} entries")
    if not np.all(np.isfinite(lam)):
        raise ValueError("barycentric coordinates must be finite")
    if abs(lam.sum() - 1.0) > 1e-10:
        raise ValueError("barycentric coordinates must sum to 1")
    element = operator.index(element)
    if not 0 <= element < mesh.n_elements:
        raise ValueError(f"element {element} is out of range; valid range is 0..{mesh.n_elements - 1}")
    return whitney_local(mesh.dim, mesh.grads[element], edge_table.element_signs[element], lam[None, :])[0]


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
