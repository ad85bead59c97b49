"""The benchmark's own tests: tiny end-to-end runs, and every check fed wrong results.

    python3 benchmark/selftest.py

(Named so that the repository's pytest run does not collect it.)
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import stgp  # noqa: E402
import stgp.cli  # noqa: E402
import worker  # noqa: E402
from checks import Checker, check_run, parse_field  # noqa: E402
from workloads import WORKLOADS, field_text, generate  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    """Each workload at a tiny size, untraced and traced, through to the result line."""

    def check_result(self, result: dict, names: set[str]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), names)
        for metric in result["metrics"].values():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertTrue(np.isfinite(metric["value"]))

    def test_workloads(self):
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain = run_tiny(workload, 0)
                self.check_result(plain, end_to_end)
                self.assertTrue(all(v["value"] > 0 for v in plain["metrics"].values()))
                traced = run_tiny(workload, 1)
                self.check_result(traced, per_layer)
                calls = traced["metrics"]["mesh.locate_calls"]["value"]
                if workload == "multipole-windows-2d":
                    self.assertEqual(calls, 0)
                else:
                    self.assertGreater(calls, 0)
                if workload == "overhang-3d":
                    self.assertGreater(traced["metrics"]["mesh.locate_outside"]["value"], 0)

    def test_no_sources_is_an_error(self):
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            bench = Path(tmp) / "benchmark"
            bench.mkdir()
            for path in HERE.glob("*.py"):
                (bench / path.name).write_bytes(path.read_bytes())
            proc = subprocess.run(
                [sys.executable, str(bench / "run.py"), "--workload", "transfer-2d",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, timeout=170, check=False, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class WrongResults(unittest.TestCase):
    """Every check, fed a wrong result, reports a problem; fed the right one, none."""

    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory(dir=HERE.parent)
        cls.specs, cls.checkers, cls.outputs = {}, {}, {}
        for workload in WORKLOADS:
            spec = generate(workload, 5, Path(cls._tmp.name) / workload, "tiny")
            cls.specs[workload] = spec
            cls.checkers[workload] = Checker(spec, stgp)
            cls.outputs[workload] = cls._correct_outputs(spec)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    @staticmethod
    def _correct_outputs(spec: dict) -> dict:
        work = Path(spec["work"])
        if spec["mode"] == "cli":
            (work / "out").mkdir()
            assert stgp.cli.main(["project", str(work / "run.cfg")]) == 0
            return {p.name: p.read_text(encoding="utf-8") for p in (work / "out").iterdir()}
        checker = WrongResults.checkers[spec["workload"]]
        out = {}
        for key in range(len(spec["windows"])):
            result = stgp.project(stgp.ProjectionProblem(
                mesh=checker.mesh, edge_table=checker.table,
                grid=stgp.TemporalGrid(checker.times(key)), source=checker.source))
            out[key] = result
        return out

    def field_of(self, workload: str, key: int = 0) -> tuple[np.ndarray, np.ndarray]:
        out = self.outputs[workload]
        if self.specs[workload]["mode"] == "cli":
            _, times, dofs = parse_field(out["result.stgpf"])
            return times, dofs
        return self.checkers[workload].times(key), out[key].dofs

    def assert_field(self, workload: str, dofs: np.ndarray, ok: bool, key: int = 0,
                     times: np.ndarray | None = None) -> None:
        if times is None:
            times = self.field_of(workload, key)[0]
        problems = self.checkers[workload].field(key, field_text("target.stgp", times, dofs))
        if ok:
            self.assertEqual(problems, [])
        else:
            self.assertNotEqual(problems, [])

    def test_correct_results_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_field(workload, self.field_of(workload)[1], ok=True)

    def test_scaled_dofs_fail(self):
        for workload in WORKLOADS:
            for scale in (1.05, 0.95, 1.002):
                with self.subTest(workload=workload, scale=scale):
                    self.assert_field(workload, scale * self.field_of(workload)[1], ok=False)

    def test_zero_field_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_field(workload, 0.0 * self.field_of(workload)[1], ok=False)

    def test_neighbouring_window_fails(self):
        workload = "multipole-windows-2d"
        times, neighbour = self.field_of(workload, 1)
        self.assert_field(workload, neighbour, ok=False, key=0, times=times)
        # Even when it carries window 0's times, its values do not minimise the error.
        self.assert_field(workload, neighbour, ok=False, key=0,
                          times=self.field_of(workload, 0)[0])

    def test_malformed_fields_fail(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                times, dofs = self.field_of(workload)
                bad = dofs.copy()
                bad[0, 0] = np.nan
                self.assert_field(workload, bad, ok=False)
                self.assert_field(workload, dofs[:-1], ok=False)
                self.assert_field(workload, dofs, ok=False, times=times + 1e-3)
                self.assertNotEqual(self.checkers[workload].field(0, "stgp-field 1\n"), [])

    def test_report_checks(self):
        for workload in ("transfer-2d", "overhang-3d"):
            checker, report = self.checkers[workload], self.outputs[workload]["report.txt"]
            with self.subTest(workload=workload):
                self.assertEqual(checker.report(report), [])
                self.assertNotEqual(
                    checker.report(report.replace("converged = true", "converged = false")), [])
                self.assertNotEqual(checker.report("stgp-report 1\n"), [])
        report = self.outputs["overhang-3d"]["report.txt"]
        outside = next(ln for ln in report.splitlines() if ln.startswith("outside_points"))
        count = int(outside.partition("=")[2])
        for wrong in (0, count + 1):
            self.assertNotEqual(self.checkers["overhang-3d"].report(
                report.replace(outside, f"outside_points = {wrong}")), [])

    def test_wrong_source_evaluation_fails(self):
        """A fault in stgp's source evaluation, shared by project and error_norm, passes the
        Galerkin check; the comparison with the benchmark-evaluated source catches it."""
        original_locate = stgp.PointLocator.locate

        def next_element(locator, x, tol=1e-12):
            found = original_locate(locator, x, tol)
            return stgp.LocationResult(element=(found.element + 1) % locator.mesh.n_elements,
                                       barycentric=found.barycentric, status=found.status)

        for workload in ("transfer-2d", "overhang-3d"):
            for fault in ("perturbed source DOFs", "wrong element"):
                with self.subTest(workload=workload, fault=fault):
                    checker = Checker(self.specs[workload], stgp)
                    if fault == "perturbed source DOFs":
                        src = checker.source
                        checker.source = stgp.DiscreteField(src.mesh, src.edge_table, src.grid,
                                                            1.01 * src.dofs)
                        patch = mock.patch.object(stgp.PointLocator, "locate", original_locate)
                    else:
                        patch = mock.patch.object(stgp.PointLocator, "locate", next_element)
                    times = self.field_of(workload)[0]
                    with patch:
                        dofs = stgp.project(stgp.ProjectionProblem(
                            mesh=checker.mesh, edge_table=checker.table,
                            grid=stgp.TemporalGrid(times), source=checker.source)).dofs
                        self.assertEqual(checker.galerkin(0, dofs), [])
                        problems = checker.field(0, field_text("target.stgp", times, dofs))
                    self.assertTrue(any("benchmark-evaluated source" in p for p in problems))

    def test_solve_and_source_energy_checks(self):
        checker = self.checkers["multipole-windows-2d"]
        result = self.outputs["multipole-windows-2d"][0]
        self.assertEqual(checker.solve(True, result.report.relative_residual), [])
        self.assertNotEqual(checker.solve(False, result.report.relative_residual), [])
        self.assertNotEqual(checker.solve(True, 10 * self.specs["multipole-windows-2d"]["solver_tol"]), [])
        self.assertEqual(checker.source_energy(0, result.source_energy), [])
        self.assertNotEqual(checker.source_energy(0, 1.5 * result.source_energy), [])
        self.assertNotEqual(checker.source_energy(1, result.source_energy), [])

    def test_source_energy_tolerance_at_full_size(self):
        spec = generate("multipole-windows-2d", 5, Path(self._tmp.name) / "full", "full")
        checker = Checker(spec, stgp)
        energies = []
        for key in (0, 1):
            times = checker.times(key)
            _, energy = stgp.error_norm(checker.mesh, checker.table, stgp.TemporalGrid(times),
                                        checker.source, np.zeros((len(checker.edges), len(times))))
            energies.append(energy)
        self.assertEqual(checker.source_energy(0, energies[0]), [])
        self.assertNotEqual(checker.source_energy(0, (1.0 + 1e-6) * energies[0]), [])
        self.assertNotEqual(checker.source_energy(0, energies[1]), [])

    def test_probe_checks(self):
        checker, out = self.checkers["transfer-2d"], self.outputs["transfer-2d"]
        _, _, dofs = parse_field(out["result.stgpf"])
        text = out["probe_000.csv"]
        self.assertEqual(checker.probe(0, 0, text, dofs), [])
        self.assertNotEqual(checker.probe(0, 1, text, dofs), [])      # the other probe's point
        self.assertNotEqual(checker.probe(0, 0, text, 1.05 * dofs), [])
        self.assertNotEqual(checker.probe(0, 0, "\n".join(text.splitlines()[:-1]), dofs), [])

    def test_changed_repeat_output_fails_its_operation(self):
        spec = self.specs["multipole-windows-2d"]
        first = Path(spec["work"]) / "first"
        first.mkdir(exist_ok=True)
        op = {"ok": True, "converged": True, "relative_residual": 1e-12}
        records = []
        for key in range(len(spec["windows"])):
            result = self.outputs["multipole-windows-2d"][key]
            (first / f"window_{key}.stgpf").write_text(field_text(
                "target.stgp", self.checkers["multipole-windows-2d"].times(key), result.dofs))
            records.append(dict(op, key=key, digest=f"d{key}", reference=True,
                                source_energy=result.source_energy))
        repeat = dict(records[0], digest="changed", reference=False)
        result = {"warmup": records[0], "ops": records[1:] + [dict(records[0], reference=False),
                                                              repeat]}
        failed, problems = check_run(self.checkers["multipole-windows-2d"], spec, result)
        self.assertEqual(failed, [len(records)])
        self.assertTrue(any("differ" in p for p in problems))

    def test_missing_repeat_output_fails_its_operation(self):
        """A repeat of the same input that exits 0 but writes no probes is a failed operation."""
        spec = generate("transfer-2d", 5, Path(self._tmp.name) / "repeat", "tiny")
        original_project = stgp.cli.project
        try:
            workload = worker.CliWorkload(spec)
            first = worker.attempt(workload, 0)
            workload.keep(0)
            config = Path(workload.config)
            config.write_text("".join(ln for ln in config.read_text().splitlines(keepends=True)
                                      if not ln.startswith(("probe", "out_probe"))))
            repeat = worker.attempt(workload, 0)
        finally:
            stgp.cli.project = original_project
        self.assertTrue(first["ok"] and repeat["ok"])
        self.assertFalse((Path(spec["work"]) / "out" / "probe_000.csv").exists())
        failed, problems = check_run(Checker(spec, stgp), spec,
                                     {"warmup": dict(first, reference=True), "ops": [repeat]})
        self.assertEqual(failed, [0])
        self.assertTrue(any("differ" in p for p in problems))


if __name__ == "__main__":
    unittest.main(verbosity=2)
