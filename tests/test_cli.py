"""CLI commands: meshgen, project, verify, info; exit codes and determinism."""
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stgp import (AnalyticField, Mesh, ProjectionProblem, SolverConfig, TemporalGrid,
                  build_edge_table, read_field, read_mesh, sample_field, write_field, write_mesh)
import stgp.cli
from stgp.cli import main, parse_config

from conftest import cli_env, jittered_mesh


def run_cli(*args, cwd=None, **env):
    return subprocess.run([sys.executable, "-m", "stgp", *args],
                          capture_output=True, text=True, cwd=cwd, env=cli_env(**env))


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


class TestReadmeConfig:
    """The README's sample `stgp project` config stays one the CLI accepts."""

    def _sample(self) -> str:
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
        assert len(blocks) == 1, "expected one ini block: the sample project config"
        return blocks[0]

    def test_sample_config_parses(self):
        config = parse_config(self._sample())
        assert {"target_mesh", "source_mesh", "source_field", "out_field"} <= config.keys()

    def test_sample_settings_are_the_library_defaults(self):
        config = parse_config(self._sample())
        for cls in (ProjectionProblem, SolverConfig):
            defaults = {f.name: f.default for f in dataclasses.fields(cls)}
            given = stgp.cli._settings(config, cls)
            assert given == {name: defaults[name] for name in given}
        assert len(config.keys() & stgp.cli._SETTINGS.keys()) == 6

    def test_every_accepted_key_is_documented(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        missing = sorted(key for key in stgp.cli._KNOWN_KEYS
                         if not re.search(rf"(?<!\w){re.escape(key)}(?!\w)", readme))
        assert missing == []

    def test_commented_analytic_alternative_parses(self):
        lines = [line[2:] for line in self._sample().splitlines() if line.startswith("# analytic_")]
        config = parse_config("\n".join(lines))
        assert "analytic_kind" in config and len(config) == len(lines) + 1  # + "probe"


class TestAnalyticConfig:
    """The CLI builds each analytic kind from AnalyticField.KINDS alone."""

    SAMPLES = {
        "constant": dict(vector=(1.0, -0.5)),
        "linear": dict(matrix=(1.0, 2.0, 0.5, -1.0), offset=(0.5, 0.25)),
        "poly-time": dict(vector=(2.0, 1.0), coeffs=(0.5, -1.0, 3.0)),
        "sinusoid": dict(wavenumber=np.pi, amplitude=2.0),
        "rotating-multipole": dict(pole_pairs=3.0, omega=2.0, amplitude=1.5, center=(0.2, 0.1),
                                   modulation=0.25),
    }

    def test_keys_come_from_the_table(self):
        names = {name for entries in AnalyticField.KINDS.values() for name, _, _ in entries}
        assert stgp.cli._ANALYTIC_KEYS == {"analytic_kind"} | {f"analytic_{n}" for n in names}

    def test_samples_cover_the_table(self):
        assert {kind: [name for name, _, _ in entries]
                for kind, entries in AnalyticField.KINDS.items()} == \
            {kind: list(params) for kind, params in self.SAMPLES.items()}

    @pytest.mark.parametrize("given", ["all", "required"])
    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    def test_config_builds_the_library_field(self, kind, given):
        params = {name: self.SAMPLES[kind][name] for name, _, default in AnalyticField.KINDS[kind]
                  if given == "all" or default is None}
        config = {"analytic_kind": kind}
        for name, value in params.items():
            config[f"analytic_{name}"] = " ".join(repr(float(v)) for v in np.ravel(value))
        from_config = stgp.cli._build_analytic(config, 2)
        from_library = AnalyticField(kind, dim=2, **params)
        rng = np.random.default_rng(17)
        points, ts = rng.uniform(-1.0, 2.0, size=(29, 2)), np.linspace(-0.5, 3.0, 13)
        assert (from_config.eval_points(points, ts)[0].tobytes()
                == from_library.eval_points(points, ts)[0].tobytes())


class TestSettings:
    """Each projection setting is defined once, by ProjectionProblem or SolverConfig."""

    # ProjectionProblem fields that a config gives as files and grids, not as settings.
    STRUCTURAL = {"mesh", "edge_table", "grid", "source", "solver"}

    def test_every_key_names_a_library_field(self):
        set_by_keys = {(cls, name) for cls, name, _, _ in stgp.cli._SETTINGS.values()}
        library = {(cls, f.name) for cls in (ProjectionProblem, SolverConfig)
                   for f in dataclasses.fields(cls) if f.name not in self.STRUCTURAL}
        assert set_by_keys == library
        assert len(set_by_keys) == len(stgp.cli._SETTINGS)

    def test_spelled_out_library_defaults_change_nothing(self, tmp_path):
        write_demo_inputs(tmp_path)
        target = read_mesh((tmp_path / "tgt.stgp").read_text())
        n_steps = 5  # BASE_CONFIG's target_time_count
        lines = []
        for key, (cls, name, _, _) in stgp.cli._SETTINGS.items():
            default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
            if default is None:  # max_iterations: 10 * M * N
                default = 10 * build_edge_table(target).edge_count * n_steps
            lines.append(f"{key} = {stgp.cli._fmt(default)}\n")
        outputs = []
        for config in (BASE_CONFIG, BASE_CONFIG + "".join(lines)):
            (tmp_path / "p.cfg").write_text(config)
            result = run_cli("project", "p.cfg", cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            report = (tmp_path / "report.txt").read_text().splitlines()
            outputs.append({
                "field": (tmp_path / "out.stgpf").read_bytes(),
                "probe": (tmp_path / "probe_000.csv").read_bytes(),
                "report": report[report.index("# problem"):report.index(
                    "# timings (seconds; excluded from determinism guarantees)")],
            })
        assert outputs[0] == outputs[1]

    def test_preconditioner_is_not_a_setting(self, tmp_path):
        write_demo_inputs(tmp_path)
        (tmp_path / "p.cfg").write_text(BASE_CONFIG + "preconditioner = jacobi\n")
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 1
        assert "unknown key 'preconditioner'" in result.stderr
        with pytest.raises(TypeError):
            SolverConfig(preconditioner="jacobi")


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

    def test_analytic_optional_keys_accepted(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG.replace("source_mesh = src.stgp\nsource_field = src.stgpf\n",
                                     "analytic_kind = rotating-multipole\n"
                                     "analytic_pole_pairs = 2\nanalytic_omega = 1\n"
                                     "analytic_amplitude = 2\nanalytic_center = 0.5 -1\n"
                                     "analytic_modulation = 0.3\n")
        (tmp_path / "p.cfg").write_text(config)
        result = run_cli("project", "p.cfg", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "analytic_modulation = 0.3" in (tmp_path / "report.txt").read_text()

    def test_repeat_runs_bitwise_identical(self, tmp_path):
        write_demo_inputs(tmp_path, n_source=3, n_target=4, steps=5)
        (tmp_path / "p.cfg").write_text(BASE_CONFIG)
        outputs = []
        for _ in range(3):
            result = run_cli("project", "p.cfg", cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            outputs.append({
                "field": (tmp_path / "out.stgpf").read_bytes(),
                "report": _strip_timings((tmp_path / "report.txt").read_text()),
                "probe": (tmp_path / "probe_000.csv").read_bytes(),
            })
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
    def test_outputs_bitwise_identical_across_blas_threads(self, tmp_path):
        # A transfer of the benchmark's size (M = 456, N = 64), large enough for
        # OpenBLAS to split a level-1 reduction over two threads.
        source = jittered_mesh("unit-square-tri", 16, np.random.default_rng(101))
        table = build_edge_table(source)
        grid = TemporalGrid(np.linspace(0.0, 1.0, 32))
        analytic = AnalyticField("rotating-multipole", pole_pairs=3, omega=2 * np.pi,
                                 center=(0.5, -1.0), modulation=0.3)
        field = sample_field(analytic, source, table, grid)
        (tmp_path / "src.stgp").write_text(write_mesh(source))
        (tmp_path / "src.stgpf").write_text(write_field("src.stgp", grid.times, field.dofs))
        run_cli("meshgen", "unit-square-tri", "12", "1.0", "tgt.stgp", cwd=tmp_path)
        config = (BASE_CONFIG.replace("target_time_count = 5", "target_time_count = 64")
                  .replace("probe_samples = 8", "probe_samples = 200"))
        (tmp_path / "p.cfg").write_text(config + "probe = 0.3 0.7\n")
        outputs = []
        for threads in ("1", "2"):
            result = run_cli("project", "p.cfg", cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
            assert result.returncode == 0, result.stderr
            outputs.append({
                "field": (tmp_path / "out.stgpf").read_bytes(),
                "report": _strip_timings((tmp_path / "report.txt").read_text()),
                "probes": [(tmp_path / f"probe_{i:03d}.csv").read_bytes() for i in range(2)],
            })
        assert outputs[0] == outputs[1]


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

    def test_full_runs_the_3d_identities(self):
        result = run_cli("verify", "full")
        assert result.returncode == 0, result.stdout + result.stderr
        for name in ("self-projection-3d", "mu-scaling-invariance-3d",
                     "spatial-convergence-slope-3d", "temporal-convergence-slope-3d"):
            assert f"PASS  {name} " in result.stdout

    def test_tampered_solver_detected(self, monkeypatch, capsys):
        # Every solve verify runs ships DOFs offset by 1e-3; the battery must notice.
        def offset(solve):
            def tampered(*args, **kwargs):
                x, report = solve(*args, **kwargs)
                return x + 1e-3, report
            return tampered

        def offset_project(problem, project=stgp.cli.project):
            result = project(problem)
            return dataclasses.replace(result, dofs=result.dofs + 1e-3)

        monkeypatch.setattr(stgp.cli, "project", offset_project)
        monkeypatch.setattr(stgp.cli, "cg_solve", offset(stgp.cli.cg_solve))
        monkeypatch.setattr(stgp.cli, "factored_solve", offset(stgp.cli.factored_solve))
        assert main(["verify", "quick"]) == 2
        assert "FAIL" in capsys.readouterr().out

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

    def test_field_with_no_edges(self, tmp_path):
        (tmp_path / "e.stgpf").write_text("stgp-field 1\nmesh m.stgp\nedges 0 steps 2\ntimes 0.0 1.0\n")
        result = run_cli("info", "e.stgpf", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["stgp-field: mesh=m.stgp edges=0 steps=2", "time span: 0 .. 1"]

    def test_mesh_with_no_nodes_or_no_elements(self, tmp_path):
        (tmp_path / "e.stgp").write_text("stgp-mesh 1\ndim 2\nnodes 0\nelements 0\nmu 0\n")
        (tmp_path / "n.stgp").write_text("stgp-mesh 1\ndim 2\nnodes 1\n0 0.5 0.25\nelements 0\nmu 0\n")
        result = run_cli("info", "e.stgp", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["stgp-mesh: dim=2 nodes=0 elements=0", "edges (M) = 0"]
        result = run_cli("info", "n.stgp", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "bounding box: [0.5, 0.25] .. [0.5, 0.25]" in result.stdout and "mu range" not in result.stdout


def _make_unreadable(path: Path, how: str):
    """Make `path` exist but fail to read as UTF-8 text: a directory or bytes that are not UTF-8."""
    if path.exists():
        path.unlink()
    if how == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"stgp-mesh 1\n\xff\xfe\n")


def _deny_reading(monkeypatch, name: str):
    """Reading the file `name` fails with PermissionError, as for a file without read permission.
    (A chmod cannot show it when the tests run as root.)"""
    read_text = Path.read_text

    def denied(self, *args, **kwargs):
        if self.name == name:
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", denied)


class TestUnreadableInputs:
    """An input path that exists but cannot be read exits 1 with one line naming it, no traceback."""

    @staticmethod
    def _check(result, path: str, reason: str):
        assert result.returncode == 1
        assert result.stderr == f"error: {reason}: {path}\n"

    @pytest.mark.parametrize("how, reason", [("directory", "cannot read file (Is a directory)"),
                                             ("not-utf8", "not UTF-8 text (byte 12)")])
    def test_info(self, tmp_path, how, reason):
        _make_unreadable(tmp_path / "x.stgp", how)
        self._check(run_cli("info", "x.stgp", cwd=tmp_path), "x.stgp", reason)

    @pytest.mark.parametrize("name, how, reason", [
        ("p.cfg", "directory", "cannot read file (Is a directory)"),
        ("p.cfg", "not-utf8", "not UTF-8 text (byte 12)"),
        ("tgt.stgp", "directory", "cannot read file (Is a directory)"),
        ("src.stgp", "not-utf8", "not UTF-8 text (byte 12)"),
        ("src.stgpf", "directory", "cannot read file (Is a directory)"),
        ("src.stgpf", "not-utf8", "not UTF-8 text (byte 12)"),
    ])
    def test_project(self, tmp_path, name, how, reason):
        write_demo_inputs(tmp_path)
        (tmp_path / "p.cfg").write_text(BASE_CONFIG)
        _make_unreadable(tmp_path / name, how)
        self._check(run_cli("project", "p.cfg", cwd=tmp_path), name, reason)
        assert not (tmp_path / "out.stgpf").exists() and not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("command, name", [("info", "src.stgpf"), ("project", "p.cfg"),
                                               ("project", "tgt.stgp"), ("project", "src.stgpf")])
    def test_without_read_permission(self, tmp_path, monkeypatch, capsys, command, name):
        write_demo_inputs(tmp_path)
        (tmp_path / "p.cfg").write_text(BASE_CONFIG)
        monkeypatch.chdir(tmp_path)
        _deny_reading(monkeypatch, name)
        code = main([command, "p.cfg" if command == "project" else name])
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot read file (Permission denied): {name}\n"
        assert not (tmp_path / "out.stgpf").exists()


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

    def test_analytic_key_the_kind_does_not_take(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG.replace("source_mesh = src.stgp\nsource_field = src.stgpf\n",
                                     "analytic_kind = sinusoid\nanalytic_wavenumber = 3\n"
                                     "analytic_pole_pairs = 6\nanalytic_omega = 99\n")
        stderr = self._run(tmp_path, config)
        assert "analytic_omega does not apply to analytic_kind = sinusoid" in stderr

    def test_analytic_key_beside_a_discrete_source(self, tmp_path):
        write_demo_inputs(tmp_path)
        stderr = self._run(tmp_path, BASE_CONFIG + "analytic_omega = 99\n")
        assert "exactly one" in stderr and "analytic_omega" in stderr

    def test_analytic_key_without_a_kind(self, tmp_path):
        write_demo_inputs(tmp_path)
        config = BASE_CONFIG.replace("source_mesh = src.stgp\nsource_field = src.stgpf\n",
                                     "analytic_omega = 99\n")
        assert "missing key analytic_kind" in self._run(tmp_path, config)

    def test_setting_that_does_not_parse_names_its_key(self, tmp_path):
        write_demo_inputs(tmp_path)
        for line, message in (("threads = x", "threads must be an integer, got 'x'"),
                              ("space_quad_order = 4.0",
                               "space_quad_order must be an integer, got '4.0'"),
                              ("solver_tol = tight", "solver_tol must be a number, got 'tight'")):
            assert message in self._run(tmp_path, BASE_CONFIG + line + "\n")

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

    def test_target_mesh_name_the_field_file_cannot_hold(self, tmp_path):
        name = "a b.stgp"
        write_demo_inputs(tmp_path)
        (tmp_path / "tgt.stgp").rename(tmp_path / name)
        config = BASE_CONFIG.replace("target_mesh = tgt.stgp", f"target_mesh = {name}")
        stderr = self._run(tmp_path, config)
        assert stderr.count("\n") == 1 and f"mesh name {name!r}" in stderr
        # Without an out_field nothing names the mesh, and the run goes ahead.
        (tmp_path / "p.cfg").write_text(config.replace("out_field = out.stgpf\n", ""))
        assert run_cli("project", "p.cfg", cwd=tmp_path).returncode == 0

    def test_strict_policy_with_target_outside_source(self, tmp_path):
        write_demo_inputs(tmp_path)
        target = read_mesh((tmp_path / "tgt.stgp").read_text())
        wide = Mesh(dim=2, nodes=1.5 * target.nodes, elements=target.elements, mu=target.mu)
        (tmp_path / "tgt.stgp").write_text(write_mesh(wide))
        stderr = self._run(tmp_path, BASE_CONFIG + "outside_policy = strict\n")
        assert "outside the source mesh" in stderr


def unparsable_values():
    """(config lines replaced, lines put in, key) for every key whose value the CLI parses as
    numbers, each given a value that does not parse."""
    triple = "target_time_start = 0.0\ntarget_time_stop = 1.0\ntarget_time_count = 5\n"
    cases = [("target_time_start = 0.0", "target_time_start = x", "target_time_start"),
             ("target_time_stop = 1.0", "target_time_stop = 1.0.0", "target_time_stop"),
             ("target_time_count = 5", "target_time_count = 2.5", "target_time_count"),
             (triple, "target_times = 0 x 1\n", "target_times"),
             ("probe = 0.4 0.6", "probe = 0.4 y", "probe"),
             ("probe_samples = 8", "probe_samples = 8.0", "probe_samples")]
    source = "source_mesh = src.stgp\nsource_field = src.stgpf\n"
    for kind, params in TestAnalyticConfig.SAMPLES.items():
        for name in params:
            lines = [f"analytic_kind = {kind}"]
            for other, value in params.items():
                value = " ".join(repr(float(v)) for v in np.ravel(value))
                lines.append(f"analytic_{other} = {value if other != name else value + ' x'}")
            cases.append((source, "\n".join(lines) + "\n", f"analytic_{name}"))
    return cases


UNPARSABLE_VALUES = unparsable_values()


class TestValuesThatDoNotParse:
    """A config value that does not parse exits 1 with a message naming its key."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("inputs")
        write_demo_inputs(path)
        return path

    @pytest.mark.parametrize("old,new,key", UNPARSABLE_VALUES,
                             ids=[f"{key}-{i}" for i, (_, _, key) in enumerate(UNPARSABLE_VALUES)])
    def test_message_names_the_key(self, old, new, key, inputs, tmp_path, monkeypatch, capsys):
        assert old in BASE_CONFIG
        config = BASE_CONFIG.replace(old, new)
        for name in ("tgt.stgp", "src.stgp", "src.stgpf"):
            config = config.replace(f"= {name}\n", f"= {inputs / name}\n")
        (tmp_path / "p.cfg").write_text(config)
        monkeypatch.chdir(tmp_path)
        assert main(["project", "p.cfg"]) == 1
        raw = next(line for line in new.splitlines() if line.startswith(f"{key} = ")).split(" = ", 1)[1]
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"config error: {key} must be ") and stderr.endswith(f", got {raw!r}\n")
        assert not any(tmp_path.glob("out*")) and not any(tmp_path.glob("probe_*"))


def test_one_transfer_inverts_each_mesh_once(tmp_path, monkeypatch):
    """A CLI transfer with a probe builds each mesh's barycentric gradients once: one batched
    inverse for the source mesh and one for the target, shared by location, assembly and probing."""
    write_demo_inputs(tmp_path)
    (tmp_path / "p.cfg").write_text(BASE_CONFIG)
    monkeypatch.chdir(tmp_path)
    calls = []
    inverse = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(np.shape(a)) or inverse(a))
    assert main(["project", "p.cfg"]) == 0
    assert (tmp_path / "probe_000.csv").exists()
    source, target = (read_mesh((tmp_path / name).read_text()) for name in ("src.stgp", "tgt.stgp"))
    assert sorted(calls) == sorted([(source.n_elements, 2, 2), (target.n_elements, 2, 2)])
