"""Separable solve of the projection system A X B = C.

B is tridiagonal SPD, so A X B = C is A X = C B^-1: one banded solve in time,
then a solve with the sparse spatial mass A for all N columns at once (the
tensor-product method of Lynch, Rice & Thomas, 1964). `project` calls
`factored_solve` on every mesh: it factors A once with a sparse LU and solves
all columns with that factor, confirmed by the true residual ||A X B - C||_F.
`cg_solve` runs conjugate gradients on A, each column with its own scalar
recurrence; it continues from a factored answer that misses the tolerance and
serves as the iterative reference. The Kronecker form vec(A X B) =
(B^T kron A) vec(X) (column-major vec) is kept as the verification oracle:
KroneckerOperator applies it matrix-free, and dense_oracle_solve
materializes it for small systems.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import splu

from .assembly import TriDiagMatrix

DENSE_ORACLE_LIMIT = 2000


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10                 # relative Frobenius residual
    max_iterations: int | None = None  # default 10 * M * N; one covers all N columns
    preconditioner: str = "jacobi"     # 'jacobi' | 'none'
    initial_guess: np.ndarray | None = None  # warm start; zero when None

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        cap = self.max_iterations
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, (int, np.integer))
                                or cap < 1):
            raise ValueError(f"max_iterations must be a whole number >= 1, got {cap!r}")
        if self.initial_guess is not None and not np.all(
                np.isfinite(np.asarray(self.initial_guess, dtype=float))):
            raise ValueError("initial_guess must be finite")
        if self.preconditioner not in ("jacobi", "none"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool
    wall_time: float
    preconditioner: str
    restarts: int = 0  # true-residual confirmations that sent the loop back
    method: str = "cg"  # 'factored' (sparse LU of A) | 'cg'


class SolverNonConvergence(RuntimeError):
    def __init__(self, report: SolveReport):
        super().__init__(
            f"conjugate gradient did not converge in {report.iterations} iterations"
            f" (relative residual {report.relative_residual:.3e})"
        )
        self.report = report


def _as_operator(a):
    if sp.issparse(a):
        return a
    return np.asarray(a, dtype=float)


class KroneckerOperator:
    """Applies the SPD operator X -> A X B without forming the Kronecker product."""

    def __init__(self, a, b: TriDiagMatrix):
        self.a = _as_operator(a)
        self.b = b
        self.shape = (self.a.shape[0], b.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.b.right_multiply(self.a @ x)


def apply_operator(a, b: TriDiagMatrix, x: np.ndarray) -> np.ndarray:
    """Y = A X B, identical to the Kronecker matrix acting on the column-major vec(X)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[0], b.n):
        raise ValueError(f"X must have shape {(a.shape[0], b.n)}, got {x.shape}")
    return KroneckerOperator(a, b).apply(x)


def _time_solve(b: TriDiagMatrix, c: np.ndarray) -> np.ndarray:
    """Y = C B^-1, one banded Cholesky solve of B Y^T = C^T over all M rows at once."""
    ab = np.zeros((2, b.n))
    ab[0, 1:] = b.off
    ab[1] = b.diag
    # LAPACK's tridiagonal driver rejects N = 1; there B is its diagonal alone.
    return solveh_banded(ab if b.n > 1 else ab[1:], c.T, check_finite=False).T


def _norm_bound(b: TriDiagMatrix) -> float:
    """Gershgorin bound of ||B||_2: the largest absolute row sum."""
    rows = np.abs(b.diag)
    rows[:-1] += np.abs(b.off)
    rows[1:] += np.abs(b.off)
    return float(rows.max())


def _column_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", x, y)


def _checked_system(a, b: TriDiagMatrix, c) -> tuple[KroneckerOperator, np.ndarray]:
    op = KroneckerOperator(a, b)
    c = np.asarray(c, dtype=float)
    if c.shape != op.shape:
        raise ValueError(f"C must have shape {op.shape}, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("C must be finite")
    return op, c


def cg_solve(a, b: TriDiagMatrix, c: np.ndarray,
             config: SolverConfig | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve A X B = C as A X = C B^-1: one banded time solve, then CG on A per column.

    Every column runs its own preconditioned CG recurrence (its own rho, alpha and
    beta); one iteration advances all N columns with one sparse product A @ D.
    Since A X B - C = -R B for the recurrence residual R of A X = C B^-1, the
    loop stops once ||R||_F * g <= tol * ||C||_F, with g the Gershgorin bound of
    ||B||_2. The true residual ||A X B - C||_F then confirms convergence; if it is
    above tolerance the recurrence restarts from C B^-1 - A X.

    Deterministic: fixed zero initial guess (unless a warm start is supplied),
    sequential recurrence, and a recomputed true residual backing the converged
    flag. Non-convergence returns the best iterate with converged=False.
    """
    if config is None:
        config = SolverConfig()
    op, c = _checked_system(a, b, c)
    a = op.a

    start = time.perf_counter()
    norm_c = float(np.linalg.norm(c))
    if norm_c == 0.0:
        return np.zeros_like(c), SolveReport(0, 0.0, True, time.perf_counter() - start,
                                             config.preconditioner)

    max_iters = config.max_iterations
    if max_iters is None:
        max_iters = 10 * op.shape[0] * op.shape[1]
    if config.initial_guess is None:
        x = np.zeros_like(c)
    else:
        x = np.array(config.initial_guess, dtype=float)
        if x.shape != op.shape:
            raise ValueError("initial guess shape mismatch")
    if config.preconditioner == "jacobi":
        inv_diag = 1.0 / (a.diagonal() if sp.issparse(a) else np.diag(a))[:, None]
        precondition = lambda r: r * inv_diag
    else:
        precondition = lambda r: r

    y = _time_solve(b, c)
    threshold = config.tol * norm_c
    bound_sq = (threshold / _norm_bound(b)) ** 2  # stop once ||R||_F^2 <= bound_sq
    iterations = restarts = 0
    while True:
        r = y - a @ x
        z = precondition(r)
        d = z.copy()
        rho = _column_inner(r, z)
        # After a restart the loop takes at least one step, so a cheap bound that
        # already holds cannot send it back without progress.
        proceed = restarts > 0 or np.vdot(r, r) > bound_sq
        while proceed and iterations < max_iters:
            q = a @ d
            # A column whose residual is exactly zero keeps alpha = beta = 0.
            alpha = np.divide(rho, _column_inner(d, q), out=np.zeros_like(rho),
                              where=rho != 0.0)
            x += alpha * d
            r -= alpha * q
            z = precondition(r)
            rho_new = _column_inner(r, z)
            beta = np.divide(rho_new, rho, out=np.zeros_like(rho), where=rho != 0.0)
            d *= beta
            d += z
            rho = rho_new
            iterations += 1
            proceed = np.vdot(r, r) > bound_sq  # False for a NaN residual too
        # Confirm with the true residual; restart if drift left it above tolerance.
        true_norm = float(np.linalg.norm(op.apply(x) - c))
        if true_norm <= threshold or iterations >= max_iters or not np.isfinite(true_norm):
            break
        restarts += 1

    rel = true_norm / norm_c
    report = SolveReport(iterations=iterations, relative_residual=rel,
                         converged=rel <= config.tol,
                         wall_time=time.perf_counter() - start,
                         preconditioner=config.preconditioner, restarts=restarts)
    return x, report


def factored_solve(a, b: TriDiagMatrix, c: np.ndarray,
                   config: SolverConfig | None = None) -> tuple[np.ndarray, SolveReport]:
    """Solve A X B = C as A X = C B^-1: one banded time solve, then one sparse LU of A.

    A is factored once by SuperLU (minimum-degree ordering of A^T + A, symmetric
    mode) and all N columns are solved in one call. The true residual
    ||A X B - C||_F confirms the answer; if it is above tolerance, or not finite,
    cg_solve continues from the factored answer (from zero if that is not
    finite), so converged, max_iterations and SolverNonConvergence keep their
    meaning. A confirmed factored solve reports method 'factored', 0 iterations
    and preconditioner 'none'; a continued one reports cg_solve's count, method
    'cg' and config.preconditioner. If SuperLU finds A exactly singular, as it
    does for an A holding a NaN, cg_solve runs instead; only then is
    config.initial_guess used.
    """
    if config is None:
        config = SolverConfig()
    op, c = _checked_system(a, b, c)
    start = time.perf_counter()
    norm_c = float(np.linalg.norm(c))
    if norm_c == 0.0:
        return np.zeros_like(c), SolveReport(0, 0.0, True, time.perf_counter() - start,
                                             "none", method="factored")
    try:
        lu = splu(sp.csc_matrix(op.a), permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
    except RuntimeError:
        return cg_solve(a, b, c, config)
    x = lu.solve(_time_solve(b, c))
    true_norm = float(np.linalg.norm(op.apply(x) - c))
    if true_norm <= config.tol * norm_c:  # False for a NaN residual too
        return x, SolveReport(0, true_norm / norm_c, True, time.perf_counter() - start,
                              "none", method="factored")
    guess = x if np.all(np.isfinite(x)) else None
    x, report = cg_solve(a, b, c, replace(config, initial_guess=guess))
    return x, replace(report, wall_time=time.perf_counter() - start)


def dense_oracle_solve(a, b: TriDiagMatrix, c: np.ndarray) -> np.ndarray:
    """Reference direct solve: materialize B^T kron A, factor, reshape column-major.

    Guarded to small systems; meant for verification, not production paths.
    """
    c = np.asarray(c, dtype=float)
    m, n = c.shape
    if m * n > DENSE_ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to M*N <= {DENSE_ORACLE_LIMIT}, got {m * n}")
    a_dense = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)
    kron = np.kron(b.to_dense().T, a_dense)
    vec_x = np.linalg.solve(kron, c.reshape(-1, order="F"))
    return vec_x.reshape((m, n), order="F")
