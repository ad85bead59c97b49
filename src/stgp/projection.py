"""End-to-end space-time projection: solve for the DOFs, report error diagnostics."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (MAX_TIME_QUAD_POINTS, assemble_source_matrix, assemble_spatial_mass,
                       assemble_temporal_gram, energy_error, sample_source)
from .basis import MAX_QUAD_ORDER, TemporalGrid, _within_span, simplex_quadrature
from .fields import DiscreteField, PointOutsideDomainError, SourceField, check_policy
from .mesh import EdgeTable, Mesh, PointLocator
from .solver import SolveReport, SolverConfig, SolverNonConvergence, factored_solve


@dataclass(frozen=True)
class ProjectionProblem:
    mesh: Mesh
    edge_table: EdgeTable
    grid: TemporalGrid
    source: SourceField
    space_quad_order: int = 4
    time_quad_points: int = 2
    outside_policy: str = "zero"
    solver: SolverConfig = field(default_factory=SolverConfig)
    threads: int = 1  # accepted and ignored: assembly runs as whole-array kernels
    allow_nonconverged: bool = False

    def __post_init__(self):
        check_policy(self.outside_policy)
        # Order 2 is the least that integrates the mass matrix.
        if not 2 <= self.space_quad_order <= MAX_QUAD_ORDER:
            raise ValueError(f"space_quad_order must be in 2..{MAX_QUAD_ORDER},"
                             f" got {self.space_quad_order}")
        if not 1 <= self.time_quad_points <= MAX_TIME_QUAD_POINTS:
            raise ValueError(f"time_quad_points must be in 1..{MAX_TIME_QUAD_POINTS},"
                             f" got {self.time_quad_points}")


@dataclass(frozen=True)
class ProjectionResult:
    dofs: np.ndarray          # (M, N)
    report: SolveReport
    error: float              # energy-weighted squared error of the projection
    source_energy: float
    relative_error: float     # sqrt(error / source_energy), 0 for a zero source
    outside_points: int
    mass_nnz: int             # stored entries of the spatial mass matrix


def project(problem: ProjectionProblem) -> ProjectionResult:
    """Minimize the energy-weighted space-time error over the edge-element x hat space."""
    mesh, edge_table, grid = problem.mesh, problem.edge_table, problem.grid
    quad = simplex_quadrature(mesh.dim, problem.space_quad_order)
    a = assemble_spatial_mass(mesh, edge_table, quad=quad)
    b = assemble_temporal_gram(grid)
    # The source is prepared once, for both C and the energy error.
    samples = sample_source(mesh, edge_table, grid, problem.source, quad,
                            problem.time_quad_points, problem.outside_policy)
    c, outside = assemble_source_matrix(
        mesh, edge_table, grid, problem.source, space_quad=quad,
        time_quad_points=problem.time_quad_points, policy=problem.outside_policy,
        samples=samples)
    dofs, report = factored_solve(a, b, c, problem.solver)
    if not report.converged and not problem.allow_nonconverged:
        raise SolverNonConvergence(report)
    err, source_energy, _ = energy_error(
        mesh, edge_table, grid, problem.source, dofs, space_quad=quad,
        time_quad_points=problem.time_quad_points, policy=problem.outside_policy,
        samples=samples)
    err, source_energy = float(err), float(source_energy)
    relative = math.sqrt(err / source_energy) if source_energy > 0.0 else 0.0
    return ProjectionResult(dofs=dofs, report=report, error=err,
                            source_energy=source_energy, relative_error=relative,
                            outside_points=outside, mass_nnz=int(a.nnz))


def error_norm(mesh: Mesh, edge_table: EdgeTable, grid: TemporalGrid, source: SourceField,
               dofs: np.ndarray, space_quad_order: int = 4, time_quad_points: int = 2,
               policy: str = "zero") -> tuple[float, float]:
    """Energy-weighted squared distance between a trial DOF field and the source.

    Returns (error, source_energy); source_energy normalizes the error so the
    zero trial field scores exactly source_energy.
    """
    quad = simplex_quadrature(mesh.dim, space_quad_order)
    err, source_energy, _ = energy_error(mesh, edge_table, grid, source, dofs,
                                         space_quad=quad, time_quad_points=time_quad_points,
                                         policy=policy)
    return err, source_energy


def _eval_at(dofs, mesh: Mesh, edge_table: EdgeTable, locator: PointLocator,
             grid: TemporalGrid, x, ts: np.ndarray, what: str) -> np.ndarray:
    """The projected field at one point x for the times ts, (T, dim), as a DiscreteField on the target.

    The field locks a view, so the caller's dofs stay writeable, and reads only
    the located element's rows, so a call costs nothing per DOF.
    """
    field = DiscreteField._over_view(mesh, edge_table, grid, dofs, locator)
    try:
        values, _ = field.eval_points(np.asarray(x, dtype=float).reshape(1, -1), ts, policy="strict")
    except PointOutsideDomainError as exc:
        point = tuple(float(c) for c in exc.point)
        raise ValueError(f"{what} {point} is outside the target mesh") from None
    return values[0]


def eval_projected(dofs: np.ndarray, mesh: Mesh, edge_table: EdgeTable,
                   locator: PointLocator, grid: TemporalGrid, x, t: float) -> np.ndarray:
    """Evaluate the projected field at one space-time point."""
    if not _within_span(t, t, grid.span):
        t0, t1 = grid.span
        raise ValueError(f"t={t} outside the grid span [{t0}, {t1}]")
    return _eval_at(dofs, mesh, edge_table, locator, grid, x, np.array([t]), "point")[0]


def probe_timeseries(dofs: np.ndarray, mesh: Mesh, edge_table: EdgeTable,
                     locator: PointLocator, grid: TemporalGrid, x,
                     samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly sample the projected field at a probe point over the grid span.

    Returns (times (S,), values (S, dim)), CSV-ready.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    times = np.linspace(*grid.span, samples)
    return times, _eval_at(dofs, mesh, edge_table, locator, grid, x, times, "probe point")
