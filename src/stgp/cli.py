"""Command-line interface: project, meshgen, verify, info.

Exit codes: 0 success, 1 configuration error, 2 solver non-convergence or
failed verification, 3 I/O error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import assemble_spatial_mass, assemble_temporal_gram, check_span
from .basis import TemporalGrid
from .fields import (AnalyticField, DiscreteField, PointOutsideDomainError, bind_field, read_field,
                     sample_field, write_field)
from .mesh import (Mesh, MeshFormatError, PointLocator, _format_row, build_edge_table,
                   generate_structured_mesh, read_mesh, write_mesh)
from .projection import (ProjectionProblem, ProjectionResult, error_norm, eval_projected,
                         probe_timeseries, project)
from .solver import SolverConfig, apply_operator, cg_solve, dense_oracle_solve, factored_solve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3

_ANALYTIC_KEYS = {
    "analytic_kind", "analytic_amplitude", "analytic_vector", "analytic_coeffs",
    "analytic_matrix", "analytic_offset", "analytic_wavenumber",
    "analytic_pole_pairs", "analytic_omega", "analytic_center", "analytic_modulation",
}
_KNOWN_KEYS = _ANALYTIC_KEYS | {
    "target_mesh", "target_times", "target_time_start", "target_time_stop", "target_time_count",
    "source_mesh", "source_field",
    "space_quad_order", "time_quad_points",
    "solver_tol", "solver_max_iterations", "preconditioner",
    "outside_policy", "threads", "allow_nonconverged",
    "probe", "probe_samples",
    "out_field", "out_report", "out_probe_prefix",
}


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict:
    """Flat key = value configuration; '#' comments; 'probe' may repeat."""
    config: dict = {"probe": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "probe":
            config["probe"].append(value)
        elif key in config:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        else:
            config[key] = value
    return config


def _floats(value: str) -> list[float]:
    return [float(tok) for tok in value.split()]


def _build_grid(config: dict) -> TemporalGrid:
    if "target_times" in config:
        if any(k in config for k in ("target_time_start", "target_time_stop", "target_time_count")):
            raise ConfigError("give either target_times or the start/stop/count triple, not both")
        return TemporalGrid(np.array(_floats(config["target_times"])))
    try:
        start = float(config["target_time_start"])
        stop = float(config["target_time_stop"])
        count = int(config["target_time_count"])
    except KeyError as exc:
        raise ConfigError(f"missing time grid key {exc.args[0]}") from None
    if count < 2:
        raise ConfigError("target_time_count must be >= 2")
    return TemporalGrid(np.linspace(start, stop, count))


def _build_analytic(config: dict, dim: int) -> AnalyticField:
    kind = config["analytic_kind"]
    params = {}
    try:
        if kind == "constant":
            params["vector"] = _floats(config["analytic_vector"])
        elif kind == "linear":
            params["matrix"] = _floats(config["analytic_matrix"])
            if "analytic_offset" in config:
                params["offset"] = _floats(config["analytic_offset"])
        elif kind == "poly-time":
            params["vector"] = _floats(config["analytic_vector"])
            params["coeffs"] = _floats(config["analytic_coeffs"])
        elif kind == "sinusoid":
            params["wavenumber"] = float(config["analytic_wavenumber"])
            params["amplitude"] = float(config.get("analytic_amplitude", 1.0))
        elif kind == "rotating-multipole":
            params["pole_pairs"] = float(config["analytic_pole_pairs"])
            params["omega"] = float(config["analytic_omega"])
            params["amplitude"] = float(config.get("analytic_amplitude", 1.0))
            if "analytic_center" in config:
                params["center"] = _floats(config["analytic_center"])
            params["modulation"] = float(config.get("analytic_modulation", 0.0))
        else:
            raise ConfigError(f"unknown analytic_kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"missing key {exc.args[0]} for analytic_kind = {kind}") from None
    return AnalyticField(kind, dim=dim, **params)


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"file not found: {path}")
    return p.read_text(encoding="utf-8")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def cmd_project(config_path: str) -> int:
    timings: list[tuple[str, float]] = []
    mark = time.perf_counter()

    def lap(name: str):
        nonlocal mark
        now = time.perf_counter()
        timings.append((name, now - mark))
        mark = now

    try:
        config = parse_config(_read_text(config_path))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        has_discrete = "source_mesh" in config or "source_field" in config
        has_analytic = "analytic_kind" in config
        if has_discrete == has_analytic:
            raise ConfigError("specify exactly one of a discrete source (source_mesh + "
                              "source_field) or an analytic source (analytic_kind)")
        if has_discrete and ("source_mesh" not in config or "source_field" not in config):
            raise ConfigError("a discrete source needs both source_mesh and source_field")
        if "target_mesh" not in config:
            raise ConfigError("missing key target_mesh")

        target_mesh = read_mesh(_read_text(config["target_mesh"]))
        grid = _build_grid(config)
        if has_discrete:
            source_mesh = read_mesh(_read_text(config["source_mesh"]))
            source_table = build_edge_table(source_mesh)
            field_file = read_field(_read_text(config["source_field"]))
            source = bind_field(field_file, source_mesh, source_table)
            source_kind = "discrete"
            source_steps = source.grid.n_steps
        else:
            source = _build_analytic(config, target_mesh.dim)
            source_kind = f"analytic:{source.kind}"
            source_steps = None

        # The threads key and STGP_THREADS are still validated but change nothing.
        int(config.get("threads", "1"))
        int(os.environ.get("STGP_THREADS") or "1")
        solver = SolverConfig(
            tol=float(config.get("solver_tol", "1e-10")),
            max_iterations=(int(config["solver_max_iterations"])
                            if "solver_max_iterations" in config else None),
            preconditioner=config.get("preconditioner", "jacobi"),
        )
        allow = config.get("allow_nonconverged", "false")
        if allow not in ("true", "false"):
            raise ConfigError(f"allow_nonconverged must be true or false, got {allow!r}")
        problem = ProjectionProblem(
            mesh=target_mesh,
            edge_table=build_edge_table(target_mesh),
            grid=grid,
            source=source,
            space_quad_order=int(config.get("space_quad_order", "4")),
            time_quad_points=int(config.get("time_quad_points", "2")),
            outside_policy=config.get("outside_policy", "zero"),
            solver=solver,
            allow_nonconverged=allow == "true",
        )
        check_span(grid, source)
        probes = [np.array(_floats(p)) for p in config["probe"]]
        locator = PointLocator(target_mesh) if probes else None
        for raw, p in zip(config["probe"], probes):
            if p.shape != (target_mesh.dim,):
                raise ConfigError(f"probe '{raw}' needs {target_mesh.dim} coordinates")
            if locator.locate(p).status == "outside":
                raise ConfigError(f"probe '{raw}' is outside the target mesh")
        probe_samples = int(config.get("probe_samples", "200"))
        if probe_samples < 2:
            raise ConfigError("probe_samples must be >= 2")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, MeshFormatError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    lap("setup")

    try:
        result = project(problem)
    except PointOutsideDomainError as exc:
        print(f"config error: {exc} (outside_policy = strict)", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001  (solver failure surfaces as exit 2)
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    lap("project")

    try:
        if "out_field" in config:
            text = write_field(Path(config["target_mesh"]).name, grid.times, result.dofs)
            Path(config["out_field"]).write_text(text, encoding="utf-8")
        if probes:
            prefix = config.get("out_probe_prefix", "probe")
            for idx, p in enumerate(probes):
                ts, values = probe_timeseries(result.dofs, target_mesh, problem.edge_table,
                                              locator, grid, p, probe_samples)
                header = "t," + ",".join("hx hy hz".split()[: target_mesh.dim])
                lines = [header] + [_format_row(row, ",") for row in np.column_stack([ts, values])]
                Path(f"{prefix}_{idx:03d}.csv").write_text("\n".join(lines) + "\n",
                                                           encoding="utf-8")
        lap("outputs")
        if "out_report" in config:
            report = _render_report(config_path, config, problem, result,
                                    source_kind, source_steps, timings)
            Path(config["out_report"]).write_text(report, encoding="utf-8")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    if not result.report.converged:
        print("warning: solver did not converge; allow_nonconverged was set", file=sys.stderr)
    return EXIT_OK


def _render_report(config_path: str, config: dict, problem: ProjectionProblem,
                   result: ProjectionResult, source_kind: str, source_steps: int | None,
                   timings: list[tuple[str, float]]) -> str:
    mesh, grid = problem.mesh, problem.grid
    out = ["stgp-report 1", "# configuration"]
    out.append(f"config_file = {config_path}")
    for key in sorted(k for k in config if k != "probe"):
        out.append(f"{key} = {config[key]}")
    for p in config["probe"]:
        out.append(f"probe = {p}")
    out += [
        "# problem",
        f"dim = {mesh.dim}",
        f"nodes = {mesh.n_nodes}",
        f"elements = {mesh.n_elements}",
        f"M = {problem.edge_table.edge_count}",
        f"N = {grid.n_steps}",
        f"mass_nnz = {result.mass_nnz}",
        f"source_kind = {source_kind}",
    ]
    if source_steps is not None:
        out.append(f"source_steps = {source_steps}")
        out.append(f"step_ratio = {_fmt(grid.n_steps / source_steps)}")
    out += [
        "# solve",
        f"method = {result.report.method}",
        f"iterations = {result.report.iterations}",
        f"restarts = {result.report.restarts}",
        f"relative_residual = {_fmt(result.report.relative_residual)}",
        f"converged = {_fmt(result.report.converged)}",
        f"preconditioner = {result.report.preconditioner}",
        "# diagnostics",
        f"error = {_fmt(result.error)}",
        f"source_energy = {_fmt(result.source_energy)}",
        f"relative_error = {_fmt(result.relative_error)}",
        f"outside_points = {result.outside_points}",
        "# timings (seconds; excluded from determinism guarantees)",
    ]
    for name, seconds in timings:
        out.append(f"t_{name} = {seconds:.6f}")
    return "\n".join(out) + "\n"


def cmd_meshgen(kind: str, n: int, mu: float, out_path: str) -> int:
    try:
        mesh = generate_structured_mesh(kind, n, mu)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        Path(out_path).write_text(write_mesh(mesh), encoding="utf-8")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {kind} n={n} mesh ({mesh.n_nodes} nodes, {mesh.n_elements} elements) to {out_path}")
    return EXIT_OK


def cmd_info(path: str) -> int:
    try:
        text = _read_text(path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if text.lstrip().startswith("stgp-mesh"):
            mesh = read_mesh(text)
            lo, hi = mesh.bounding_box()
            print(f"stgp-mesh: dim={mesh.dim} nodes={mesh.n_nodes} elements={mesh.n_elements}")
            print(f"edges (M) = {build_edge_table(mesh).edge_count}")
            print(f"bounding box: {lo.tolist()} .. {hi.tolist()}")
            print(f"mu range: {mesh.mu.min():g} .. {mesh.mu.max():g}")
        elif text.lstrip().startswith("stgp-field"):
            ff = read_field(text)
            print(f"stgp-field: mesh={ff.mesh_name} edges={ff.dofs.shape[0]} steps={ff.dofs.shape[1]}")
            print(f"time span: {ff.times[0]:g} .. {ff.times[-1]:g}")
            print(f"dof range: {ff.dofs.min():g} .. {ff.dofs.max():g}")
        else:
            print("error: not an stgp-mesh or stgp-field file", file=sys.stderr)
            return EXIT_CONFIG
    except MeshFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify battery


def _tamper() -> float:
    """Test hook: STGP_VERIFY_TAMPER injects an error into verify's solves."""
    raw = os.environ.get("STGP_VERIFY_TAMPER", "")
    if not raw:
        return 0.0
    try:
        return float(raw)
    except ValueError:
        return 1e-3


def _verify_project(mesh: Mesh, table, grid: TemporalGrid, source, **options) -> np.ndarray:
    """The DOFs that project() ships for a verify case, offset by the tamper hook."""
    result = project(ProjectionProblem(mesh=mesh, edge_table=table, grid=grid, source=source,
                                       **options))
    return result.dofs + _tamper()


def _jittered_mesh(kind: str, n: int, rng: np.random.Generator) -> Mesh:
    mesh = generate_structured_mesh(kind, n, 1.0)
    nodes = mesh.nodes.copy()
    interior = np.all((nodes > 1e-12) & (nodes < 1 - 1e-12), axis=1)
    nodes[interior] += rng.uniform(-0.15 / n, 0.15 / n, size=nodes[interior].shape)
    mu = rng.uniform(0.5, 2.0, size=mesh.n_elements)
    return Mesh(dim=mesh.dim, nodes=nodes, elements=mesh.elements, mu=mu)


def _check_oracle_equivalence(instances: int) -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    solvers = {"CG": cg_solve, "factored": factored_solve}
    worst = dict.fromkeys(solvers, 0.0)
    for i in range(instances):
        if i % 3 == 2:
            mesh = _jittered_mesh("unit-cube-tet", 1, rng)
        else:
            mesh = _jittered_mesh("unit-square-tri", 1 + i % 2, rng)
        table = build_edge_table(mesh)
        a = assemble_spatial_mass(mesh, table)
        m = table.edge_count
        n = max(2, min(200 // m, 8))
        grid = TemporalGrid(np.cumsum(rng.uniform(0.2, 1.0, size=n)))
        b = assemble_temporal_gram(grid)
        c = rng.standard_normal((m, n))
        x_ref = dense_oracle_solve(a, b, c)
        for name, solve in solvers.items():
            x = solve(a, b, c, SolverConfig(tol=1e-10))[0] + _tamper()
            worst[name] = max(worst[name], np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))
    return (max(worst.values()) <= 1e-8,
            "max relative difference " + ", ".join(f"{k} {v:.3e}" for k, v in worst.items()))


def _check_self_projection() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    mesh = generate_structured_mesh("unit-square-tri", 3, 1.0)
    table = build_edge_table(mesh)
    grid = TemporalGrid(np.linspace(0.0, 1.0, 4))
    dofs = rng.standard_normal((table.edge_count, grid.n_steps))
    x = _verify_project(mesh, table, grid, DiscreteField(mesh, table, grid, dofs))
    rel = np.linalg.norm(x - dofs) / np.linalg.norm(dofs)
    return rel <= 1e-8, f"dof recovery error {rel:.3e}"


def _check_mu_scaling() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    base = generate_structured_mesh("unit-square-tri", 2, 1.0)
    mu = rng.uniform(0.5, 2.0, size=base.n_elements)
    mesh1 = Mesh(dim=2, nodes=base.nodes, elements=base.elements, mu=mu)
    mesh2 = Mesh(dim=2, nodes=base.nodes, elements=base.elements, mu=7.5 * mu)
    grid = TemporalGrid(np.linspace(0.0, 1.0, 3))
    source = AnalyticField("sinusoid", wavenumber=np.pi)
    xs = []
    for mesh in (mesh1, mesh2):
        xs.append(_verify_project(mesh, build_edge_table(mesh), grid, source))
    rel = np.linalg.norm(xs[0] - xs[1]) / np.linalg.norm(xs[0])
    return rel <= 1e-8, f"dof drift under mu scaling {rel:.3e}"


def _check_constant_reproduction() -> tuple[bool, str]:
    src_mesh = generate_structured_mesh("unit-square-tri", 3, 1.0)
    src_table = build_edge_table(src_mesh)
    src_grid = TemporalGrid(np.array([0.0, 1.0]))
    constant = AnalyticField("constant", vector=(1.0, -0.5))
    source = sample_field(constant, src_mesh, src_table, src_grid)
    mesh = generate_structured_mesh("unit-square-tri", 4, 1.0)
    table = build_edge_table(mesh)
    grid = TemporalGrid(np.linspace(0.0, 1.0, 3))
    x = _verify_project(mesh, table, grid, source)
    locator = PointLocator(mesh)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(0.05, 0.95, size=2)
        t = rng.uniform(0.0, 1.0)
        value = eval_projected(x, mesh, table, locator, grid, p, t)
        worst = max(worst, float(np.max(np.abs(value - np.array([1.0, -0.5])))))
    return worst <= 1e-7, f"max pointwise deviation {worst:.3e}"


def _check_operator_symmetry() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    mesh = _jittered_mesh("unit-square-tri", 2, rng)
    table = build_edge_table(mesh)
    a = assemble_spatial_mass(mesh, table)
    grid = TemporalGrid(np.sort(rng.uniform(0.0, 1.0, size=5)))
    b = assemble_temporal_gram(grid)
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal((table.edge_count, grid.n_steps))
        y = rng.standard_normal((table.edge_count, grid.n_steps))
        lhs = float(np.sum(apply_operator(a, b, x) * y))
        rhs = float(np.sum(x * apply_operator(a, b, y)))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        pos = float(np.sum(apply_operator(a, b, x) * x))
        if pos <= 0:
            return False, "operator lost positivity"
    return worst <= 1e-12, f"max symmetry defect {worst:.3e}"


def _slope(errors: list[float], steps: list[float]) -> float:
    logs_e = np.log(errors)
    logs_h = np.log(steps)
    return float(np.polyfit(logs_h, logs_e, 1)[0])


def _check_spatial_slope() -> tuple[bool, str]:
    source = AnalyticField("sinusoid", wavenumber=np.pi)
    errors, steps = [], []
    grid = TemporalGrid(np.array([0.0, 1.0]))
    for n in (4, 8, 16):
        mesh = generate_structured_mesh("unit-square-tri", n, 1.0)
        table = build_edge_table(mesh)
        x = _verify_project(mesh, table, grid, source)
        err, _ = error_norm(mesh, table, grid, source, x)
        errors.append(np.sqrt(err))
        steps.append(1.0 / n)
    slope = _slope(errors, steps)
    return 0.8 <= slope <= 1.2, f"observed spatial slope {slope:.3f}"


def _check_temporal_slope() -> tuple[bool, str]:
    source = AnalyticField("poly-time", vector=(1.0, 0.5), coeffs=(0.0, 0.0, 1.0))
    mesh = generate_structured_mesh("unit-square-tri", 2, 1.0)
    table = build_edge_table(mesh)
    errors, steps = [], []
    for n in (5, 9, 17):
        grid = TemporalGrid(np.linspace(0.0, 1.0, n))
        # 3-point temporal Gauss: the 2-point nodes coincide with the zeros of
        # the hat-projection error of a quadratic, which would hide it.
        x = _verify_project(mesh, table, grid, source, time_quad_points=3)
        err, _ = error_norm(mesh, table, grid, source, x, time_quad_points=3)
        errors.append(np.sqrt(err))
        steps.append(1.0 / (n - 1))
    slope = _slope(errors, steps)
    return 1.7 <= slope <= 2.3, f"observed temporal slope {slope:.3f}"


def cmd_verify(level: str) -> int:
    if level not in ("quick", "full"):
        print("error: level must be 'quick' or 'full'", file=sys.stderr)
        return EXIT_CONFIG
    checks = [
        ("oracle-equivalence", lambda: _check_oracle_equivalence(5 if level == "quick" else 20)),
        ("self-projection", _check_self_projection),
        ("constant-reproduction", _check_constant_reproduction),
        ("mu-scaling-invariance", _check_mu_scaling),
        ("operator-symmetry", _check_operator_symmetry),
    ]
    if level == "full":
        checks += [
            ("spatial-convergence-slope", _check_spatial_slope),
            ("temporal-convergence-slope", _check_temporal_slope),
        ]
    failures = 0
    for name, fn in checks:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"{status:4s}  {name:28s} {detail} ({seconds:.2f} s)")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stgp",
        description="Space-time Galerkin projection of edge-element fields "
                    "between meshes and time grids.")
    parser.add_argument("--version", action="version", version=f"stgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_project = sub.add_parser("project", help="run a projection described by a config file")
    p_project.add_argument("config", help="path to a key = value config file")

    p_meshgen = sub.add_parser("meshgen", help="generate a structured mesh file")
    p_meshgen.add_argument("kind", help="unit-square-tri or unit-cube-tet")
    p_meshgen.add_argument("n", type=int, help="subdivisions per side (>= 1)")
    p_meshgen.add_argument("mu", type=float, help="constant permeability")
    p_meshgen.add_argument("out", help="output stgp-mesh path")

    p_verify = sub.add_parser("verify", help="run the built-in verification battery")
    p_verify.add_argument("level", help="quick or full")

    p_info = sub.add_parser("info", help="summarize an stgp-mesh or stgp-field file")
    p_info.add_argument("path")

    args = parser.parse_args(argv)
    if args.command == "project":
        return cmd_project(args.config)
    if args.command == "meshgen":
        return cmd_meshgen(args.kind, args.n, args.mu, args.out)
    if args.command == "verify":
        return cmd_verify(args.level)
    return cmd_info(args.path)


if __name__ == "__main__":
    sys.exit(main())
