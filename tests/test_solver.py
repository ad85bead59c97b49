"""Kronecker operator, separable CG and factored solves, dense reference solve."""
import warnings

import numpy as np
import pytest

from stgp import (AnalyticField, ProjectionProblem, SolverConfig, TemporalGrid, apply_operator,
                  assemble_spatial_mass, assemble_temporal_gram, build_edge_table, cg_solve,
                  dense_oracle_solve, factored_solve, project)
from stgp.assembly import TriDiagMatrix
from stgp import solver as solver_module
from stgp.solver import SolverNonConvergence

from conftest import jittered_mesh, random_grid


def tridiag_from_dense(dense: np.ndarray) -> TriDiagMatrix:
    return TriDiagMatrix(diag=np.diag(dense).copy(),
                         off=np.diag(dense, 1).copy())


def random_spd_tridiag(rng, n: int) -> TriDiagMatrix:
    grid = random_grid(rng, n)
    return assemble_temporal_gram(grid)


def general_spd_tridiag(rng, n: int) -> TriDiagMatrix:
    """SPD by strict diagonal dominance; mixed-sign off-diagonals, so not a hat Gram."""
    off = rng.uniform(-1.0, 1.0, size=n - 1)
    diag = rng.uniform(0.05, 2.0, size=n)
    diag[:-1] += np.abs(off)
    diag[1:] += np.abs(off)
    return TriDiagMatrix(diag=diag, off=off)


def assembled_pair(rng, n_time=4):
    mesh = jittered_mesh("unit-square-tri", 2, rng)
    table = build_edge_table(mesh)
    a = assemble_spatial_mass(mesh, table)
    b = random_spd_tridiag(rng, n_time)
    return a, b


class TestApplyOperator:
    def test_identity_factors(self):
        a = np.eye(3)
        b = tridiag_from_dense(np.eye(2))
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(apply_operator(a, b, x), x)

    def test_matches_dense_kronecker(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 3))
        a = a @ a.T + 3 * np.eye(3)
        b_dense = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = tridiag_from_dense(b_dense)
        x = rng.standard_normal((3, 2))
        y = apply_operator(a, b, x)
        kron = np.kron(b_dense.T, a)
        expected = (kron @ x.reshape(-1, order="F")).reshape(3, 2, order="F")
        assert np.max(np.abs(y - expected)) < 1e-13

    def test_zero_maps_to_zero(self):
        rng = np.random.default_rng(1)
        a, b = assembled_pair(rng)
        x = np.zeros((a.shape[0], b.n))
        assert np.all(apply_operator(a, b, x) == 0.0)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        a, b = assembled_pair(rng)
        with pytest.raises(ValueError, match="shape"):
            apply_operator(a, b, np.zeros((3, 3)))

    def test_symmetry_and_positivity_in_frobenius_inner_product(self):
        rng = np.random.default_rng(5)
        a, b = assembled_pair(rng)
        for _ in range(10):
            x = rng.standard_normal((a.shape[0], b.n))
            y = rng.standard_normal((a.shape[0], b.n))
            lhs = float(np.sum(apply_operator(a, b, x) * y))
            rhs = float(np.sum(x * apply_operator(a, b, y)))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
            assert float(np.sum(apply_operator(a, b, x) * x)) > 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 300])
    def test_right_multiply_matches_dense(self, n):
        rng = np.random.default_rng(3)
        b = general_spd_tridiag(rng, n) if n > 1 else tridiag_from_dense(np.array([[0.7]]))
        for m in (0, 1, 7, 800):
            for x in (rng.standard_normal((m, n)), np.asfortranarray(rng.standard_normal((m, n)))):
                y = b.right_multiply(x)
                assert y.shape == (m, n) and y.dtype == np.float64
                np.testing.assert_allclose(y, x @ b.to_dense(), rtol=1e-13, atol=1e-13)


class TestDenseOracle:
    def test_scalar_case(self):
        a = np.array([[2.0]])
        b = tridiag_from_dense(np.array([[3.0]]))
        c = np.array([[12.0]])
        assert np.allclose(dense_oracle_solve(a, b, c), [[2.0]])

    def test_identity_factors_return_c(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((4, 3))
        a = np.eye(4)
        b = tridiag_from_dense(np.eye(3))
        assert np.max(np.abs(dense_oracle_solve(a, b, c) - c)) < 1e-14

    def test_residual_of_random_spd_instance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        a = a @ a.T + 4 * np.eye(4)
        b_dense = np.diag([2.0, 1.5, 1.0]) + np.diag([0.3, 0.2], 1) + np.diag([0.3, 0.2], -1)
        b = tridiag_from_dense(b_dense)
        c = rng.standard_normal((4, 3))
        x = dense_oracle_solve(a, b, c)
        residual = a @ x @ b_dense - c
        assert np.max(np.abs(residual)) < 1e-12

    def test_size_guard(self):
        a = np.eye(60)
        b = tridiag_from_dense(np.eye(40))
        with pytest.raises(ValueError, match="2000"):
            dense_oracle_solve(a, b, np.zeros((60, 40)))

    def test_singular_kronecker_raises(self):
        a = np.zeros((2, 2))
        b = tridiag_from_dense(np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            dense_oracle_solve(a, b, np.ones((2, 2)))


class TestConjugateGradient:
    def test_manufactured_right_hand_side(self):
        rng = np.random.default_rng(6)
        a, b = assembled_pair(rng)
        x_true = rng.standard_normal((a.shape[0], b.n))
        c = apply_operator(a, b, x_true)
        x, report = cg_solve(a, b, c)
        assert report.converged
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-8

    def test_zero_rhs_returns_zero_in_zero_iterations(self):
        rng = np.random.default_rng(7)
        a, b = assembled_pair(rng)
        x, report = cg_solve(a, b, np.zeros((a.shape[0], b.n)))
        assert np.all(x == 0.0)
        assert report.iterations == 0
        assert report.converged

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            a, b = assembled_pair(rng, n_time=3 + trial % 3)
            c = rng.standard_normal((a.shape[0], b.n))
            x, report = cg_solve(a, b, c)
            x_ref = dense_oracle_solve(a, b, c)
            assert report.converged
            assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) <= 1e-8

    def test_converged_flag_backed_by_true_residual(self):
        rng = np.random.default_rng(9)
        a, b = assembled_pair(rng)
        c = rng.standard_normal((a.shape[0], b.n))
        config = SolverConfig(tol=1e-12)
        x, report = cg_solve(a, b, c, config)
        residual = np.linalg.norm(apply_operator(a, b, x) - c) / np.linalg.norm(c)
        assert report.converged
        assert residual <= config.tol
        assert abs(report.relative_residual - residual) < 1e-15

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(10)
        a, b = assembled_pair(rng)
        c = rng.standard_normal((a.shape[0], b.n))
        x, report = cg_solve(a, b, c, SolverConfig(tol=1e-14, max_iterations=2))
        assert not report.converged
        assert report.iterations == 2
        assert np.all(np.isfinite(x))

    def test_deterministic_given_inputs(self):
        rng = np.random.default_rng(11)
        a, b = assembled_pair(rng)
        c = rng.standard_normal((a.shape[0], b.n))
        x1, _ = cg_solve(a, b, c)
        x2, _ = cg_solve(a, b, c)
        assert np.array_equal(x1, x2)

    def test_jacobi_never_slower_on_fixture_set(self):
        rng = np.random.default_rng(13)
        for contrast in (1.0, 100.0, 10000.0):
            mesh = jittered_mesh("unit-square-tri", 2, rng, mu_range=(1.0, contrast))
            table = build_edge_table(mesh)
            a = assemble_spatial_mass(mesh, table)
            b = random_spd_tridiag(rng, 4)
            c = rng.standard_normal((a.shape[0], b.n))
            _, rep_jacobi = cg_solve(a, b, c, SolverConfig(preconditioner="jacobi"))
            _, rep_none = cg_solve(a, b, c, SolverConfig(preconditioner="none"))
            assert rep_jacobi.converged and rep_none.converged
            assert rep_jacobi.iterations <= rep_none.iterations

    def test_warm_start_accepted(self):
        rng = np.random.default_rng(14)
        a, b = assembled_pair(rng)
        x_true = rng.standard_normal((a.shape[0], b.n))
        c = apply_operator(a, b, x_true)
        x, report = cg_solve(a, b, c, SolverConfig(initial_guess=x_true))
        assert report.iterations == 0
        assert report.converged

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        for cap in (2.5, 3.0, True, False, float("inf"), float("nan"), np.float64(3.0), "3", -1):
            with pytest.raises(ValueError, match="max_iterations"):
                SolverConfig(max_iterations=cap)
        for cap in (1, 7, np.int64(3), np.int32(1)):
            assert SolverConfig(max_iterations=cap).max_iterations == cap
        with pytest.raises(ValueError):
            SolverConfig(preconditioner="ilu")

    def test_nonconvergence_exception_carries_report(self):
        rng = np.random.default_rng(15)
        a, b = assembled_pair(rng)
        c = rng.standard_normal((a.shape[0], b.n))
        _, report = cg_solve(a, b, c, SolverConfig(tol=1e-14, max_iterations=1))
        exc = SolverNonConvergence(report)
        assert exc.report is report
        assert "did not converge" in str(exc)


class TestSeparableSolve:
    """A X = C B^-1 by one banded time solve, then column-batched CG on A."""

    @pytest.mark.parametrize("preconditioner", ["jacobi", "none"])
    def test_matches_dense_oracle_on_non_uniform_grids(self, preconditioner):
        rng = np.random.default_rng(31)
        config = SolverConfig(preconditioner=preconditioner)
        graded = TemporalGrid(np.concatenate(([0.0], np.cumsum(0.5 ** np.arange(7)))))
        for kind, n in (("unit-square-tri", 2), ("unit-cube-tet", 1)):
            mesh = jittered_mesh(kind, n, rng)
            a = assemble_spatial_mass(mesh, build_edge_table(mesh))
            for b in (assemble_temporal_gram(random_grid(rng, 6)), assemble_temporal_gram(graded),
                      general_spd_tridiag(rng, 7)):
                c = rng.standard_normal((a.shape[0], b.n))
                x, report = cg_solve(a, b, c, config)
                x_ref = dense_oracle_solve(a, b, c)
                assert report.converged and report.restarts == 0
                assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) <= 1e-8

    def test_single_time_node(self):
        rng = np.random.default_rng(32)
        a, _ = assembled_pair(rng)
        b = tridiag_from_dense(np.array([[0.4]]))
        c = rng.standard_normal((a.shape[0], 1))
        x, report = cg_solve(a, b, c)
        assert report.converged
        x_ref = dense_oracle_solve(a, b, c)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) <= 1e-8

    @pytest.mark.parametrize("preconditioner", ["jacobi", "none"])
    def test_zero_columns_stay_exactly_zero(self, preconditioner):
        # X = A^-1 C B^-1, so a zero column of C is a zero column of X only where
        # B does not couple it to a nonzero one: a zero off-diagonal splits B.
        rng = np.random.default_rng(33)
        a, b = assembled_pair(rng, n_time=6)
        off = b.off.copy()
        off[2] = 0.0
        b = TriDiagMatrix(diag=b.diag, off=off)
        c = rng.standard_normal((a.shape[0], b.n))
        c[:, 3:] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, report = cg_solve(a, b, c, SolverConfig(preconditioner=preconditioner))
        assert report.converged
        assert np.all(np.isfinite(x))
        assert np.all(x[:, 3:] == 0.0)
        x_ref = dense_oracle_solve(a, b, c)
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) <= 1e-8

    def test_converged_run_honours_the_stop_bound(self):
        rng = np.random.default_rng(34)
        for kind, n, n_time in (("unit-square-tri", 3, 9), ("unit-cube-tet", 2, 5)):
            mesh = jittered_mesh(kind, n, rng, mu_range=(0.5, 50.0))
            table = build_edge_table(mesh)
            a = assemble_spatial_mass(mesh, table)
            b = assemble_temporal_gram(random_grid(rng, n_time))
            c = rng.standard_normal((table.edge_count, n_time))
            for tol in (1e-6, 1e-10, 1e-12):
                x, report = cg_solve(a, b, c, SolverConfig(tol=tol))
                true = np.linalg.norm(apply_operator(a, b, x) - c) / np.linalg.norm(c)
                assert report.converged and report.restarts == 0
                assert true <= tol

    def test_restarts_count_confirmations_that_sent_the_loop_back(self, monkeypatch):
        rng = np.random.default_rng(35)
        a, b = assembled_pair(rng, n_time=5)
        c = rng.standard_normal((a.shape[0], b.n))
        _, plain = cg_solve(a, b, c)
        assert plain.restarts == 0
        # An understated ||B|| bound stops the loop early; the true residual catches it.
        true_bound = solver_module._norm_bound
        monkeypatch.setattr(solver_module, "_norm_bound", lambda b: 1e-4 * true_bound(b))
        x, forced = cg_solve(a, b, c)
        assert forced.restarts >= 1
        assert forced.converged and forced.iterations >= plain.iterations
        assert np.linalg.norm(apply_operator(a, b, x) - c) <= 1e-10 * np.linalg.norm(c)
        _, again = cg_solve(a, b, c)
        assert again.restarts == forced.restarts and again.iterations == forced.iterations

    def test_non_finite_initial_guess_rejected(self):
        # With a NaN warm start the old restart loop never ended.
        mesh = jittered_mesh("unit-square-tri", 2, np.random.default_rng(36))
        table = build_edge_table(mesh)
        a = assemble_spatial_mass(mesh, table)
        b = assemble_temporal_gram(TemporalGrid(np.linspace(0.0, 1.0, 4)))
        c = np.ones((table.edge_count, 4))
        for bad in (np.nan, np.inf):
            guess = np.zeros_like(c)
            guess[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                cg_solve(a, b, c, SolverConfig(initial_guess=guess))

    def test_non_finite_true_residual_ends_the_loop(self):
        rng = np.random.default_rng(37)
        a, b = assembled_pair(rng)
        a = a.tocoo()
        data = a.data.copy()
        data[np.flatnonzero(a.row != a.col)[0]] = np.nan
        a = type(a)((data, (a.row, a.col)), shape=a.shape).tocsr()
        c = rng.standard_normal((a.shape[0], b.n))
        x, report = cg_solve(a, b, c, SolverConfig(max_iterations=50))
        assert not report.converged
        assert not np.isfinite(report.relative_residual)
        assert report.restarts == 0 and report.iterations < 50


class TestFactoredSolve:
    """A X = C B^-1 by one banded time solve, then one sparse LU of A for all columns."""

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 2), ("unit-cube-tet", 1)])
    def test_matches_dense_oracle(self, kind, n):
        rng = np.random.default_rng(41)
        mesh = jittered_mesh(kind, n, rng, mu_range=(0.5, 50.0))
        a = assemble_spatial_mass(mesh, build_edge_table(mesh))
        for b in (assemble_temporal_gram(random_grid(rng, 6)), general_spd_tridiag(rng, 7),
                  tridiag_from_dense(np.array([[0.4]]))):
            c = rng.standard_normal((a.shape[0], b.n))
            x, report = factored_solve(a, b, c)
            x_ref = dense_oracle_solve(a, b, c)
            assert report.method == "factored" and report.converged
            assert report.iterations == 0 and report.restarts == 0
            assert report.preconditioner == "none"
            assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) <= 1e-12
            true = np.linalg.norm(apply_operator(a, b, x) - c) / np.linalg.norm(c)
            assert report.relative_residual == pytest.approx(true, rel=1e-12, abs=1e-30)

    def test_zero_rhs_returns_exact_zeros_in_zero_iterations(self):
        rng = np.random.default_rng(42)
        a, b = assembled_pair(rng)
        x, report = factored_solve(a, b, np.zeros((a.shape[0], b.n)))
        assert np.all(x == 0.0)
        assert report.iterations == 0 and report.converged and report.relative_residual == 0.0

    def test_rejects_non_finite_or_misshapen_rhs(self):
        rng = np.random.default_rng(43)
        a, b = assembled_pair(rng)
        for bad in (np.nan, np.inf):
            c = np.ones((a.shape[0], b.n))
            c[2, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                factored_solve(a, b, c)
        with pytest.raises(ValueError, match="shape"):
            factored_solve(a, b, np.ones((a.shape[0], b.n + 1)))

    @pytest.mark.parametrize("cap", [1, 3])
    def test_unmet_tolerance_continues_with_capped_cg(self, cap):
        # No float64 answer reaches 1e-20, so CG continues from the factored answer.
        rng = np.random.default_rng(44)
        a, b = assembled_pair(rng)
        c = rng.standard_normal((a.shape[0], b.n))
        x, report = factored_solve(a, b, c, SolverConfig(tol=1e-20, max_iterations=cap))
        assert report.method == "cg" and not report.converged
        assert report.preconditioner == "jacobi"
        assert 1 <= report.iterations <= cap
        assert report.relative_residual < 1e-12  # it started from the factored answer
        assert np.all(np.isfinite(x))

    def test_singular_factor_hands_over_to_cg(self):
        # SuperLU calls an A holding a NaN exactly singular; CG then reports it.
        rng = np.random.default_rng(45)
        a, b = assembled_pair(rng)
        a = a.tocoo()
        data = a.data.copy()
        data[np.flatnonzero(a.row != a.col)[0]] = np.nan
        a = type(a)((data, (a.row, a.col)), shape=a.shape).tocsr()
        c = rng.standard_normal((a.shape[0], b.n))
        _, report = factored_solve(a, b, c, SolverConfig(max_iterations=50))
        assert report.method == "cg" and not report.converged
        assert not np.isfinite(report.relative_residual)

    def test_non_finite_factored_answer_restarts_cg_from_zero(self):
        # A subnormal pivot is not exactly singular, but its solve overflows to inf.
        a = np.diag([1e-320, 1.0])
        b = assemble_temporal_gram(TemporalGrid(np.linspace(0.0, 1.0, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, report = factored_solve(a, b, np.ones((2, 3)), SolverConfig(max_iterations=5))
        assert report.method == "cg" and not report.converged

    @pytest.mark.parametrize("kind,n", [("unit-square-tri", 4), ("unit-cube-tet", 2)])
    def test_bitwise_repeatable(self, kind, n):
        rng = np.random.default_rng(46)
        mesh = jittered_mesh(kind, n, rng)
        a = assemble_spatial_mass(mesh, build_edge_table(mesh))
        b = assemble_temporal_gram(random_grid(rng, 9))
        c = rng.standard_normal((a.shape[0], b.n))
        x1, r1 = factored_solve(a, b, c)
        x2, r2 = factored_solve(a, b, c)
        assert np.array_equal(x1, x2)
        assert r1.relative_residual == r2.relative_residual

    @pytest.mark.parametrize("kind,vector", [
        ("unit-square-tri", (1.0, -0.5)),
        ("unit-cube-tet", (1.0, -0.5, 0.25)),
    ])
    def test_project_factors_on_every_mesh(self, kind, vector):
        mesh = jittered_mesh(kind, 2, np.random.default_rng(47))
        result = project(ProjectionProblem(
            mesh=mesh, edge_table=build_edge_table(mesh),
            grid=TemporalGrid(np.linspace(0.0, 1.0, 4)),
            source=AnalyticField("constant", dim=mesh.dim, vector=vector)))
        assert result.report.method == "factored" and result.report.converged
        assert result.report.iterations == 0
