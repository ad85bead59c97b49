"""Timed loop of one workload, run in a process of its own so that its peak memory is the operations'.

Usage: python3 worker.py SPEC_JSON RESULT_JSON --seconds S --trace 0|1 [--spans NPZ]

It imports stgp from the checkout's src/, runs one untimed warm-up
operation, then whole rounds of operations back to back (one caller, closed
loop) until S seconds have passed. Each operation's outputs are hashed and
the first copy per input is kept for run.py to check; nothing is checked
here, so checks cost the operations neither time nor memory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_stgp():
    sys.path.insert(0, str(SRC))
    import stgp

    if Path(stgp.__file__).resolve().parent != SRC / "stgp":
        raise ImportError(f"imported stgp from {stgp.__file__}, not from {SRC}")
    return stgp


stgp = import_stgp()
sys.path.insert(0, str(HERE))
import stgp.cli  # noqa: E402
from spans import PeakMeter, Tracer  # noqa: E402
from workloads import field_params, window_times  # noqa: E402


def strip_timings(report: str) -> str:
    """The report without its timing section, which the program does not promise to repeat."""
    return report.split("# timings", 1)[0]


class CliWorkload:
    """Each operation is one `stgp project` run through the CLI entry point, in this process."""

    def __init__(self, spec: dict):
        work = Path(spec["work"])
        self.config = str(work / "run.cfg")
        self.out = work / "out"
        self.first = work / "first"
        self.out.mkdir(exist_ok=True)
        self.first.mkdir(exist_ok=True)
        self.keys = [0]
        self.setup_s: list[float] = []
        # setup_s of an operation ends where the CLI hands over to project().
        self._stamp: list[float] = []
        project = stgp.cli.project

        def stamped(*a, **kw):
            self._stamp.append(time.perf_counter())
            return project(*a, **kw)

        stgp.cli.project = stamped

    def setup(self, tracer) -> None:
        """Every operation pays its own set-up; there is nothing to share."""

    def between_rounds(self, tracer) -> None:
        """Set-up is timed inside every operation."""

    def run(self, key: int) -> dict:
        # Outputs of earlier operations must not stand in for missing ones.
        shutil.rmtree(self.out)
        self.out.mkdir()
        self._stamp.clear()
        t0 = time.perf_counter()
        code = stgp.cli.main(["project", self.config])
        t1 = time.perf_counter()
        if code != 0:
            raise RuntimeError(f"stgp project exited with code {code}")
        return {"run_s": t1 - t0, "setup_s": self._stamp[0] - t0}

    def digest(self, key: int) -> str:
        h = hashlib.sha256()
        for path in sorted(self.out.iterdir()):
            data = path.read_bytes()
            if path.name == "report.txt":
                data = strip_timings(data.decode("utf-8")).encode("utf-8")
            h.update(path.name.encode() + b"\0" + data + b"\0")
        return h.hexdigest()

    def keep(self, key: int) -> None:
        for path in self.out.iterdir():
            shutil.copyfile(path, self.first / path.name)


class LibraryWorkload:
    """Each operation projects the next time window of the analytic field onto the held target mesh."""

    def __init__(self, spec: dict):
        self.spec = spec
        work = Path(spec["work"])
        self.mesh_path = work / "target.stgp"
        self.out = work / "out"
        self.first = work / "first"
        self.out.mkdir(exist_ok=True)
        self.first.mkdir(exist_ok=True)
        self.keys = list(range(len(spec["windows"])))
        self.setup_s: list[float] = []

    def _set_up(self, tracer):
        if tracer is not None:
            tracer.begin_unit("setup")
        t0 = time.perf_counter()
        mesh = stgp.read_mesh(self.mesh_path.read_text(encoding="utf-8"))
        table = stgp.build_edge_table(mesh)
        p = field_params(self.spec)
        source = stgp.AnalyticField(
            "rotating-multipole", dim=2, pole_pairs=p["pole_pairs"], omega=p["omega"],
            amplitude=p["amplitude"], center=p["center"], modulation=p["modulation"])
        self.setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_unit()
        return mesh, table, source

    def setup(self, tracer) -> None:
        """Read the target mesh, build its edge table and the source once, for every operation."""
        self.mesh, self.table, self.source = self._set_up(tracer)
        self.grids = [stgp.TemporalGrid(window_times(w)) for w in self.spec["windows"]]
        self.solver = stgp.SolverConfig(tol=self.spec["solver_tol"])

    def between_rounds(self, tracer) -> None:
        """Repeat the set-up a few times for its timing, spread over the run; the results are dropped."""
        for _ in range(self.spec["params"]["setups_per_round"]):
            self._set_up(tracer)

    def run(self, key: int) -> dict:
        t0 = time.perf_counter()
        result = stgp.project(stgp.ProjectionProblem(
            mesh=self.mesh, edge_table=self.table, grid=self.grids[key], source=self.source,
            space_quad_order=self.spec["space_quad_order"],
            time_quad_points=self.spec["time_quad_points"], solver=self.solver, threads=1))
        text = stgp.write_field(self.mesh_path.name, self.grids[key].times, result.dofs)
        (self.out / f"window_{key}.stgpf").write_text(text, encoding="utf-8")
        t1 = time.perf_counter()
        return {"run_s": t1 - t0, "converged": bool(result.report.converged),
                "relative_residual": float(result.report.relative_residual),
                "source_energy": float(result.source_energy)}

    def digest(self, key: int) -> str:
        return hashlib.sha256((self.out / f"window_{key}.stgpf").read_bytes()).hexdigest()

    def keep(self, key: int) -> None:
        shutil.copyfile(self.out / f"window_{key}.stgpf", self.first / f"window_{key}.stgpf")


def peak_rss_kib() -> int:
    """High-water resident memory of this process since it started the worker program.

    VmHWM belongs to the memory map made at exec. ru_maxrss would not do:
    at exec the kernel folds into it the peak of the map being replaced,
    which after a vfork is the parent's, so the parent's inputs would count.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def attempt(workload, key: int) -> dict:
    """One operation; a raised error or a nonzero exit is recorded as a failed operation."""
    try:
        record = workload.run(key)
    except (Exception, SystemExit):  # noqa: BLE001  (the loop records the failure and goes on)
        return {"key": key, "ok": False, "error": traceback.format_exc(limit=4)}
    record.update(key=key, ok=True, digest=workload.digest(key))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("spec")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans (.npz)")
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    workload = (CliWorkload if spec["mode"] == "cli" else LibraryWorkload)(spec)
    unit_kind = "setup+op" if spec["mode"] == "cli" else "op"

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload.setup(tracer)

    kept: set[int] = set()

    def keep_first(record: dict) -> None:
        if record["ok"] and record["key"] not in kept:
            workload.keep(record["key"])
            kept.add(record["key"])
            record["reference"] = True

    warm = attempt(workload, workload.keys[0])
    keep_first(warm)

    ops = []
    start = time.perf_counter()
    while True:
        for key in workload.keys:
            if tracer is not None:
                tracer.begin_unit(unit_kind)
            record = attempt(workload, key)
            if tracer is not None:
                tracer.end_unit()
            keep_first(record)
            ops.append(record)
        workload.between_rounds(tracer)
        if time.perf_counter() - start >= args.seconds:
            break
    measured = time.perf_counter() - start
    peak_rss_mb = peak_rss_kib() / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        with PeakMeter() as meter:
            attempt(workload, workload.keys[0])
        layers = tracer.metrics(meter.peaks)
        if args.spans:
            tracer.save(Path(args.spans))

    result = {"ops": ops, "warmup": warm, "setup_s": workload.setup_s, "measured_s": measured,
              "peak_rss_mb": peak_rss_mb, "layers": layers}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
