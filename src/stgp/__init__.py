"""stgp: space-time Galerkin projection of edge-element fields between meshes and time grids."""

from .assembly import (TriDiagMatrix, assemble_source_matrix, assemble_spatial_mass,
                       assemble_temporal_gram, energy_error, read_matrix, write_matrix)
from .basis import QuadratureRule, TemporalGrid, hat_eval, simplex_quadrature, whitney_edge_eval
from .fields import (AnalyticField, DiscreteField, FieldFile, PointOutsideDomainError,
                     SourceField, bind_field, edge_circulations, read_field, sample_field,
                     write_field)
from .mesh import (EdgeTable, LocationResult, Mesh, MeshFormatError, PointLocator,
                   build_edge_table, generate_structured_mesh, read_mesh, write_mesh)
from .projection import (ProjectionProblem, ProjectionResult, error_norm, eval_projected,
                         probe_timeseries, project)
from .solver import (KroneckerOperator, SolveReport, SolverConfig, SolverNonConvergence,
                     apply_operator, cg_solve, dense_oracle_solve, factored_solve)

__version__ = "0.1.0"

__all__ = [
    "AnalyticField", "DiscreteField", "EdgeTable", "FieldFile", "KroneckerOperator",
    "LocationResult", "Mesh", "MeshFormatError", "PointLocator", "PointOutsideDomainError",
    "ProjectionProblem", "ProjectionResult", "QuadratureRule", "SolveReport", "SolverConfig",
    "SolverNonConvergence", "SourceField", "TemporalGrid", "TriDiagMatrix",
    "apply_operator", "assemble_source_matrix", "assemble_spatial_mass",
    "assemble_temporal_gram", "bind_field", "build_edge_table", "cg_solve",
    "dense_oracle_solve", "edge_circulations", "energy_error", "error_norm",
    "eval_projected", "factored_solve", "generate_structured_mesh", "hat_eval",
    "probe_timeseries", "project", "read_field", "read_matrix", "read_mesh",
    "sample_field", "simplex_quadrature", "whitney_edge_eval", "write_field",
    "write_matrix", "write_mesh",
]
