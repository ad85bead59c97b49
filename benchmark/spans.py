"""Spans and counts recorded from outside the program.

Each public stgp function is replaced, in the module that calls it, by a
wrapper that records a span (name, start, end, parent, unit) and the counts
its arguments or result carry. A unit is one operation or one set-up of the
benchmark. Spans stay in memory and are written out when the run ends.
"""
from __future__ import annotations

import inspect
import math
import statistics
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

MIB = 1024.0 * 1024.0

# (module or class path, attribute, span name), as seen from the caller: the
# benchmark calls through the stgp package and stgp.cli.main, the CLI through
# stgp.cli, and so on. A target the program no longer has is skipped, so its
# layer reports 0.
TIMED = (
    ("stgp", "read_mesh", "mesh.read_mesh"),
    ("stgp", "build_edge_table", "mesh.edge_table"),
    ("stgp", "project", "projection.project"),
    ("stgp", "write_field", "fields.write_field"),
    ("stgp.cli", "main", "cli.main"),
    ("stgp.cli", "read_mesh", "mesh.read_mesh"),
    ("stgp.cli", "read_field", "fields.read_field"),
    ("stgp.cli", "build_edge_table", "mesh.edge_table"),
    ("stgp.cli", "bind_field", "fields.bind_field"),
    ("stgp.cli", "check_span", "assembly.check_span"),
    ("stgp.cli", "project", "projection.project"),
    ("stgp.cli", "write_field", "fields.write_field"),
    ("stgp.cli", "probe_timeseries", "projection.probe"),
    ("stgp.mesh.PointLocator", "__init__", "mesh.locator_build"),
    ("stgp.mesh.PointLocator", "locate", "mesh.locate"),
    ("stgp.fields.DiscreteField", "eval_time_batch", "fields.eval"),
    ("stgp.fields.AnalyticField", "eval_time_batch", "fields.eval"),
    ("stgp.fields", "whitney_local", "basis.whitney"),
    ("stgp.assembly", "whitney_local", "basis.whitney"),
    ("stgp.projection", "whitney_local", "basis.whitney"),
    ("stgp.projection", "simplex_quadrature", "basis.quadrature"),
    ("stgp.projection", "assemble_spatial_mass", "assembly.mass"),
    ("stgp.projection", "assemble_temporal_gram", "assembly.temporal_gram"),
    ("stgp.projection", "assemble_source_matrix", "assembly.source_matrix"),
    ("stgp.projection", "energy_error", "assembly.energy_error"),
    ("stgp.projection", "cg_solve", "solver.cg"),
    ("stgp.assembly", "build_time_table", "assembly.time_table"),
)

# Functions whose tracemalloc peak is measured, in a pass of its own.
PEAKED = (
    ("stgp.projection", "assemble_source_matrix", "assembly.source_matrix"),
    ("stgp.projection", "energy_error", "assembly.energy_error"),
    ("stgp.projection", "cg_solve", "solver.cg"),
)

# Set-up layers are read from set-up units, the rest from operation units.
SETUP_SPANS = ("mesh.read_mesh", "fields.read_field", "mesh.locator_build", "mesh.edge_table")

# metric: (span name, "total" or "self")
TIME_METRICS = {
    "mesh.read_mesh_s": ("mesh.read_mesh", "total"),
    "fields.read_field_s": ("fields.read_field", "total"),
    "mesh.locator_build_s": ("mesh.locator_build", "total"),
    "mesh.edge_table_s": ("mesh.edge_table", "total"),
    "mesh.locate_s": ("mesh.locate", "total"),
    "fields.eval_self_s": ("fields.eval", "self"),
    "basis.whitney_s": ("basis.whitney", "total"),
    "assembly.mass_s": ("assembly.mass", "total"),
    "assembly.time_table_s": ("assembly.time_table", "total"),
    "assembly.source_matrix_s": ("assembly.source_matrix", "total"),
    "assembly.source_matrix_self_s": ("assembly.source_matrix", "self"),
    "assembly.energy_error_s": ("assembly.energy_error", "total"),
    "assembly.energy_error_self_s": ("assembly.energy_error", "self"),
    "solver.cg_s": ("solver.cg", "total"),
    "projection.project_s": ("projection.project", "total"),
    "projection.project_self_s": ("projection.project", "self"),
    "projection.probe_s": ("projection.probe", "total"),
    "fields.write_field_s": ("fields.write_field", "total"),
    "cli.self_s": ("cli.main", "self"),
}

COUNT_METRICS = (
    "mesh.locate_calls", "mesh.locate_outside", "mesh.locate_snapped",
    "mesh.fallback_element_tests", "fields.eval_calls", "fields.eval_values",
    "basis.whitney_calls", "assembly.time_points", "assembly.spacetime_points",
    "solver.iterations",
)

PEAK_METRICS = {
    "assembly.source_matrix_peak_mb": "assembly.source_matrix",
    "assembly.energy_error_peak_mb": "assembly.energy_error",
    "solver.cg_peak_mb": "solver.cg",
}

UNITS = {
    "mesh.locate_us_per_call": "us", "assembly.source_matrix_ns_per_point": "ns",
    "solver.ns_per_unknown_iteration": "ns", "assembly.time_table_mb": "MiB",
    "fields.write_field_mb": "MiB", **{k: "MiB" for k in PEAK_METRICS},
    **{k: "s" for k in TIME_METRICS}, **{k: "count" for k in COUNT_METRICS},
}


def _resolve(path: str):
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


def nbytes(obj, depth: int = 0) -> int:
    """Bytes held by the arrays of a result: ndarrays, sparse matrices, tuples, plain objects."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth > 2:
        return 0
    if hasattr(obj, "indptr") and hasattr(obj, "data"):
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(v, depth + 1) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(nbytes(v, depth + 1) for v in vars(obj).values())
    return 0


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder. One thread; spans nest strictly."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.units: list[str] = []   # kind of each unit: "op", "setup" or "setup+op"
        self.counts: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._current = -1
        self._time_points = 0
        self._patches = Patches()

    # -- units ---------------------------------------------------------------

    def begin_unit(self, kind: str) -> None:
        self.units.append(kind)
        self.counts.append({})
        self._current = len(self.units) - 1

    def end_unit(self) -> None:
        self._current = -1

    def count(self, key: str, value: float) -> None:
        if self._current >= 0:
            c = self.counts[self._current]
            c[key] = c.get(key, 0.0) + value

    def count_max(self, key: str, value: float) -> None:
        if self._current >= 0:
            c = self.counts[self._current]
            c[key] = max(c.get(key, 0.0), value)

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None):
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.unit.append(self._current)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for path, attr, name in TIMED:
            owner = _resolve(path)
            if owner is None or attr not in vars(owner):
                continue
            fn = vars(owner)[attr]
            self._patches.set(owner, attr, self.wrap(fn, name, self._after(name, fn)))

    def uninstall(self) -> None:
        self._patches.restore()

    def _after(self, name: str, fn):
        if name == "mesh.locate":
            def after(args, kwargs, out):
                self.count("mesh.locate_calls", 1)
                status = getattr(out, "status", "")
                if status == "outside":
                    self.count("mesh.locate_outside", 1)
                    self.count("mesh.fallback_element_tests", args[0].mesh.n_elements)
                elif status == "snapped":
                    self.count("mesh.locate_snapped", 1)
            return after
        if name == "fields.eval":
            def after(args, kwargs, out):
                self.count("fields.eval_calls", 1)
                ts = args[2] if len(args) > 2 else kwargs.get("ts")
                self.count("fields.eval_values", np.size(ts))
            return after
        if name == "basis.whitney":
            return lambda args, kwargs, out: self.count("basis.whitney_calls", 1)
        if name == "assembly.time_table":
            def after(args, kwargs, out):
                self._time_points = len(getattr(out, "points", ()))
                self.count_max("assembly.time_points", self._time_points)
                self.count_max("assembly.time_table_mb", nbytes(out) / MIB)
            return after
        if name == "assembly.source_matrix":
            signature = inspect.signature(fn)

            def after(args, kwargs, out):
                bound = signature.bind(*args, **kwargs)
                mesh = bound.arguments["mesh"]
                quad = bound.arguments.get("space_quad")
                q = len(quad.points) if quad is not None else _default_rule_points(mesh.dim)
                self.count("assembly.spacetime_points", mesh.n_elements * q * self._time_points)
            return after
        if name == "solver.cg":
            def after(args, kwargs, out):
                dofs, report = out
                self.count("solver.iterations", report.iterations)
                self.count("solver.unknown_iterations", dofs.size * report.iterations)
            return after
        if name == "fields.write_field":
            return lambda args, kwargs, out: self.count("fields.write_field_mb", len(out) / MIB)
        return None

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "unit": np.frombuffer(self.unit, dtype=np.int32)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), units=np.array(self.units),
                            **self.arrays())

    def per_unit(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """(total seconds, self seconds) per span name, each an array over units."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        n_units = len(self.units)
        keep = a["unit"] >= 0
        totals, selfs = {}, {}
        for nid, name in enumerate(self.names):
            sel = keep & (a["name"] == nid)
            totals[name] = np.bincount(a["unit"][sel], weights=dur[sel], minlength=n_units)
            selfs[name] = np.bincount(a["unit"][sel], weights=own[sel], minlength=n_units)
        return totals, selfs

    def metrics(self, peaks: dict[str, float]) -> dict[str, float]:
        totals, selfs = self.per_unit()
        n_units = len(self.units)
        is_op = np.array(["op" in k for k in self.units], dtype=bool)
        is_setup = np.array(["setup" in k for k in self.units], dtype=bool)
        zero = np.zeros(n_units)

        def med(values: np.ndarray, mask: np.ndarray) -> float:
            return float(np.median(values[mask])) if mask.any() else 0.0

        def counts(key: str) -> np.ndarray:
            return np.array([c.get(key, 0.0) for c in self.counts]) if n_units else zero

        out: dict[str, float] = {}
        for metric, (span, kind) in TIME_METRICS.items():
            values = (totals if kind == "total" else selfs).get(span, zero)
            out[metric] = med(values, is_setup if span in SETUP_SPANS else is_op)
        for key in COUNT_METRICS + ("assembly.time_table_mb", "fields.write_field_mb"):
            out[key] = med(counts(key), is_op)

        def ratio(num: np.ndarray, den: np.ndarray, scale: float) -> float:
            r = np.divide(num, den, out=np.zeros(n_units), where=den > 0) * scale
            return med(r, is_op)

        out["mesh.locate_us_per_call"] = ratio(totals.get("mesh.locate", zero),
                                               counts("mesh.locate_calls"), 1e6)
        out["assembly.source_matrix_ns_per_point"] = ratio(
            totals.get("assembly.source_matrix", zero), counts("assembly.spacetime_points"), 1e9)
        out["solver.ns_per_unknown_iteration"] = ratio(
            totals.get("solver.cg", zero), counts("solver.unknown_iterations"), 1e9)
        for metric, span in PEAK_METRICS.items():
            out[metric] = peaks.get(span, 0.0) / MIB
        return out


def _default_rule_points(dim: int) -> int:
    from stgp import simplex_quadrature

    return len(simplex_quadrature(dim, 4).points)


class PeakMeter:
    """tracemalloc peak of each measured function, over one pass of operations."""

    def __init__(self):
        self.peaks: dict[str, float] = {}
        self._patches = Patches()

    def _wrap(self, fn, name: str):
        def measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[name] = max(self.peaks.get(name, 0.0), float(peak))

        measured.__wrapped__ = fn
        return measured

    def __enter__(self):
        for path, attr, name in PEAKED:
            owner = _resolve(path)
            if owner is not None and attr in vars(owner):
                self._patches.set(owner, attr, self._wrap(vars(owner)[attr], name))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        self._patches.restore()
        return False


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and, from 40 samples on, the highest percentile with 10 samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 40:
        pct = math.floor(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = float(np.percentile(values, pct))
    return out
