"""CLI commands: meshgen, project, verify, info; exit codes and determinism."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stgp import (AnalyticField, Mesh, TemporalGrid, build_edge_table, read_field, read_mesh,
                  sample_field, write_field, write_mesh)
from stgp.cli import main, parse_config

from conftest import cli_env


def run_cli(*args, cwd=None, env_extra=None):
    return subprocess.run([sys.executable, "-m", "stgp", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=cli_env(**(env_extra or {})))


def write_demo_inputs(tmp_path: Path, n_source=2, n_target=3, steps=4, stop=1.0):
    run_cli("meshgen", "unit-square-tri", str(n_source), "1.0", "src.stgp", cwd=tmp_path)
    run_cli("meshgen", "unit-square-tri", str(n_target), "1.0", "tgt.stgp", cwd=tmp_path)
    mesh = read_mesh((tmp_path / "src.stgp").read_text())
    table = build_edge_table(mesh)
    grid = TemporalGrid(np.linspace(0.0, stop, steps))
    field = sample_field(AnalyticField("constant", vector=(1.0, 0.5)), mesh, table, grid)
    (tmp_path / "src.stgpf").write_text(write_field("src.stgp", grid.times, field.dofs))


BASE_CONFIG = """\
target_mesh = tgt.stgp
target_time_start = 0.0
target_time_stop = 1.0
target_time_count = 5
source_mesh = src.stgp
source_field = src.stgpf
out_field = out.stgpf
out_report = report.txt
probe = 0.4 0.6
probe_samples = 8
"""


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("target_mesh = a.stgp\nfrobnicate = 7\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("threads = 1\nthreads = 2\n")

    def test_probe_repeats_and_comments(self):
        config = parse_config("# demo\nprobe = 0.1 0.2\nprobe = 0.3 0.4  # second\n")
        assert config["probe"] == ["0.1 0.2", "0.3 0.4"]


class TestMeshgen:
    def test_writes_mesh_with_expected_counts(self, tmp_path):
        result = run_cli("meshgen", "unit-square-tri", "4", "1.0", "m.stgp", cwd=tmp_path)
        assert result.returncode == 0
        mesh = read_mesh((tmp_path / "m.stgp").read_text())
        assert mesh.n_elements == 32

    def test_zero_subdivisions_exits_1(self, tmp_path):
        result = run_cli("meshgen", "unit-square-tri", "0", "1.0", "m.stgp", cwd=tmp_path)
        assert result.returncode == 1
        assert "n must be >= 1" in result.stderr

    def test_output_readable_by_project(self, tmp_path):
        write_demo_inputs(tmp_path)
        (tmp_path / "p.cfg").write_text(BASE_CONFIG)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 0, result.stderr


class TestProject:
    def test_self_projection_report(self, tmp_path):
        write_demo_inputs(tmp_path)
        (tmp_path / "p.cfg").write_text(BASE_CONFIG)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        report = (tmp_path / "report.txt").read_text()
        values = dict(line.split(" = ", 1) for line in report.splitlines()
                      if " = " in line)
        assert values["converged"] == "true"
        assert values["method"] == "factored"
        assert values["preconditioner"] == "none"
        assert values["iterations"] == "0" and values["restarts"] == "0"
        assert float(values["relative_error"]) <= 1e-8
        assert values["outside_points"] == "0"
        probe = (tmp_path / "probe_000.csv").read_text().splitlines()
        assert probe[0] == "t,hx,hy"
        assert len(probe) == 9

    def test_missing_mesh_file_exits_1_naming_path(self, tmp_path):
        (tmp_path / "p.cfg").write_text(BASE_CONFIG)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 1
        assert "tgt.stgp" in result.stderr

    def test_both_sources_rejected(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG + "analytic_kind = constant\nanalytic_vector = 1 0\n"
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 1
        assert "exactly one" in result.stderr

    def test_nonconvergence_exits_2(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG + "solver_max_iterations = 1\nsolver_tol = 1e-20\n"
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 2
        assert "converge" in result.stderr

    def test_span_violation_is_config_error(self, tmp_path):
        write_demo_inputs(tmp_path)  # source spans [0, 1]
        config = BASE_CONFIG.replace("target_time_stop = 1.0", "target_time_stop = 2.0")
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 1
        assert "span" in result.stderr

    def test_span_round_off_accepted(self, tmp_path):
        # the source stops one ulp short of the target; the library's slack admits it
        write_demo_inputs(tmp_path, stop=0.7999999999999999)
        config = BASE_CONFIG.replace("target_time_stop = 1.0", "target_time_stop = 0.8")
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "converged = true" in (tmp_path / "report.txt").read_text()

    @pytest.mark.parametrize("source", ["discrete", "analytic"])
    def test_unknown_outside_policy_is_config_error(self, tmp_path, source):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG + "outside_policy = stirct\n"
        if source == "analytic":
            config = config.replace("source_mesh = src.stgp\nsource_field = src.stgpf\n",
                                    "analytic_kind = constant\nanalytic_vector = 1 0\n")
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 1
        assert "config error" in result.stderr and "'stirct'" in result.stderr
        assert not (tmp_path / "out.stgpf").exists()

    def test_nonconvergence_override_flag(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = (BASE_CONFIG + "solver_max_iterations = 1\nsolver_tol = 1e-20\n"
                  "allow_nonconverged = true\n")
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 0
        assert "did not converge" in result.stderr
        report = (tmp_path / "report.txt").read_text()
        assert "converged = false" in report

    def test_step_doubling_scenario_noted_in_report(self, tmp_path):
        write_demo_inputs(tmp_path, steps=4)
        config = BASE_CONFIG.replace("target_time_count = 5", "target_time_count = 8")
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        report = (tmp_path / "report.txt").read_text()
        values = dict(line.split(" = ", 1) for line in report.splitlines()
                      if " = " in line)
        assert values["N"] == "8"
        assert values["source_steps"] == "4"
        assert float(values["step_ratio"]) == 2.0

    def test_analytic_source_config(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = """\
target_mesh = tgt.stgp
target_times = 0.0 0.5 1.0
analytic_kind = sinusoid
analytic_wavenumber = 3.141592653589793
out_field = out.stgpf
out_report = report.txt
"""
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        field = read_field((tmp_path / "out.stgpf").read_text())
        assert field.dofs.shape[1] == 3

    def test_repeat_runs_bitwise_identical_across_threads(self, tmp_path):
        # criterion: same config, threads 1 vs 4, byte-identical outputs
        write_demo_inputs(tmp_path, n_source=3, n_target=4, steps=5)
        (tmp_path / "p.cfg").write_text(BASE_CONFIG)
        outputs = {}
        for threads in ("1", "4", "1"):
            result = run_cli("project", "p.cfg", cwd=tmp_path,
                             env_extra={"STGP_THREADS": threads})
            assert result.returncode == 0, result.stderr
            outputs.setdefault(threads, []).append({
                "field": (tmp_path / "out.stgpf").read_bytes(),
                "report": _strip_timings((tmp_path / "report.txt").read_text()),
                "probe": (tmp_path / "probe_000.csv").read_bytes(),
            })
        assert outputs["1"][0] == outputs["4"][0]
        assert outputs["1"][0] == outputs["1"][1]


def _strip_timings(report: str) -> str:
    lines = report.splitlines()
    cut = lines.index("# timings (seconds; excluded from determinism guarantees)")
    return "\n".join(lines[:cut])


class TestVerify:
    def test_quick_passes_within_budget(self):
        import time
        start = time.perf_counter()
        result = run_cli("verify", "quick")
        elapsed = time.perf_counter() - start
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("PASS") >= 5
        assert "FAIL" not in result.stdout
        assert elapsed < 10.0

    def test_full_includes_convergence_slopes(self):
        result = run_cli("verify", "full")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "spatial-convergence-slope" in result.stdout
        assert "temporal-convergence-slope" in result.stdout
        assert "FAIL" not in result.stdout

    def test_tampered_solver_detected(self):
        result = run_cli("verify", "quick", env_extra={"STGP_VERIFY_TAMPER": "1e-3"})
        assert result.returncode == 2
        assert "FAIL" in result.stdout

    def test_bad_level_exits_1(self):
        result = run_cli("verify", "fast")
        assert result.returncode == 1
        assert "quick" in result.stderr


class TestInfo:
    def test_mesh_info(self, tmp_path):
        run_cli("meshgen", "unit-cube-tet", "1", "2.0", "c.stgp", cwd=tmp_path)
        result = run_cli("info", "c.stgp", cwd=tmp_path)
        assert result.returncode == 0
        assert "dim=3" in result.stdout
        assert "elements=6" in result.stdout
        assert "edges (M) = 19" in result.stdout

    def test_field_info(self, tmp_path):
        write_demo_inputs(tmp_path)
        result = run_cli("info", "src.stgpf", cwd=tmp_path)
        assert result.returncode == 0
        assert "steps=4" in result.stdout

    def test_field_info_rejects_non_finite_times(self, tmp_path):
        text = "stgp-field 1\nmesh m.stgp\nedges 1 steps 2\ntimes nan 1\n0.5 0.5\n"
        (tmp_path / "bad.stgpf").write_text(text)
        result = run_cli("info", "bad.stgpf", cwd=tmp_path)
        assert result.returncode == 1
        assert "format error: line 4" in result.stderr
        assert result.stdout == ""

    def test_missing_file(self, tmp_path):
        result = run_cli("info", "nope.stgp", cwd=tmp_path)
        assert result.returncode == 1
        assert "nope.stgp" in result.stderr


class TestMainEntry:
    def test_main_callable_directly(self, tmp_path, capsys):
        mesh_path = tmp_path / "m.stgp"
        code = main(["meshgen", "unit-square-tri", "2", "1.0", str(mesh_path)])
        assert code == 0
        assert mesh_path.exists()


class TestProjectFaultsAreConfigErrors:
    """Each fault exits 1 with a config error, no traceback and no outputs."""

    def _run(self, tmp_path, config):
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith("config error: ") and "Traceback" not in result.stderr
        assert not (tmp_path / "out.stgpf").exists()
        assert not (tmp_path / "report.txt").exists()
        assert not (tmp_path / "probe_000.csv").exists()
        return result.stderr

    def test_missing_analytic_key(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG.replace("source_mesh = src.stgp\nsource_field = src.stgpf\n",
                                     "analytic_kind = constant\n")
        assert "analytic_vector" in self._run(tmp_path, config)

    @pytest.mark.parametrize("lines, name", [
        ("analytic_kind = poly-time\nanalytic_vector = 1 0\nanalytic_coeffs =\n", "coeffs"),
        ("analytic_kind = linear\nanalytic_matrix = 1 0 0 1\nanalytic_offset = 0.5\n", "offset"),
        ("analytic_kind = linear\nanalytic_matrix = 1 0 0\n", "matrix"),
        ("analytic_kind = rotating-multipole\nanalytic_pole_pairs = 2\nanalytic_omega = 1\n"
         "analytic_center = 0 0 1\n", "center"),
        ("analytic_kind = rotating-multipole\nanalytic_pole_pairs = 2.5\nanalytic_omega = 1\n",
         "pole_pairs"),
        ("analytic_kind = sinusoid\nanalytic_wavenumber = nan\n", "wavenumber"),
        ("analytic_kind = constant\nanalytic_vector = 1 inf\n", "vector"),
    ], ids=["empty-coeffs", "short-offset", "short-matrix", "long-center", "half-pole-pair",
            "nan-wavenumber", "inf-vector"])
    def test_bad_analytic_parameter(self, tmp_path, lines, name):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG.replace("source_mesh = src.stgp\nsource_field = src.stgpf\n", lines)
        assert f"'{name}'" in self._run(tmp_path, config)

    def test_probe_outside_target_mesh(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG.replace("probe = 0.4 0.6", "probe = 1.5 0.6")
        assert "probe '1.5 0.6' is outside the target mesh" in self._run(tmp_path, config)

    @pytest.mark.parametrize("probe", ["nan 0.5", "inf 0.5", "0.5 -inf"])
    def test_non_finite_probe_outside_target_mesh(self, tmp_path, probe):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG.replace("probe = 0.4 0.6", f"probe = {probe}")
        assert f"probe '{probe}' is outside the target mesh" in self._run(tmp_path, config)

    def test_too_few_probe_samples(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG.replace("probe_samples = 8", "probe_samples = 1")
        assert "probe_samples must be >= 2" in self._run(tmp_path, config)

    def test_quadrature_setting_out_of_range(self, tmp_path):
        write_demo_inputs(tmp_path)
        for line, message in (("space_quad_order = 0", "space_quad_order must be in 2..6, got 0"),
                              ("space_quad_order = 1", "space_quad_order must be in 2..6, got 1"),
                              ("space_quad_order = 9", "space_quad_order must be in 2..6, got 9"),
                              ("time_quad_points = 9", "time_quad_points must be in 1..6, got 9")):
            assert message in self._run(tmp_path, BASE_CONFIG + line + "\n")

    def test_allow_nonconverged_takes_only_true_or_false(self, tmp_path):
        write_demo_inputs(tmp_path)
        for value in ("True", "yes", "1", "maybe"):
            stderr = self._run(tmp_path, BASE_CONFIG + f"allow_nonconverged = {value}\n")
            assert f"allow_nonconverged must be true or false, got '{value}'" in stderr

    def test_strict_policy_with_target_outside_source(self, tmp_path):
        write_demo_inputs(tmp_path)
        target = read_mesh((tmp_path / "tgt.stgp").read_text())
        wide = Mesh(dim=2, nodes=1.5 * target.nodes, elements=target.elements, mu=target.mu)
        (tmp_path / "tgt.stgp").write_text(write_mesh(wide))
        stderr = self._run(tmp_path, BASE_CONFIG + "outside_policy = strict\n")
        assert "outside the source mesh" in stderr
