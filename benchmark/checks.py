"""Checks of every operation's outputs, against computations made apart from the program.

The references are the benchmark's own: its parse of the text formats, its
edge circulations of the generating field (the interpolant), its evaluation
of Whitney functions at the probes, its high-order integral of the source
energy, and its own evaluation of the CLI workloads' discrete source.
stgp.error_norm compares the result's energy error with that of other fields
in the same space: the projection must be the smallest (Galerkin
optimality). That judges the result against stgp's evaluation of the source,
so the result must also equal the projection, by stgp's assembly and solver,
of the source as the benchmark evaluates it.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from workloads import (LOCAL_EDGES, circulations, edges_of, element_measures, field_params,
                       window_times)

PERTURBATION = 1e-3     # relative size of the perturbations of the Galerkin check
TOWARD_INTERPOLANT = 1e-2
SOURCE_AGREEMENT = 1e-8  # largest DOF difference from the reference projection, share of its largest DOF
PERTURBATION_SEED = 20151


def parse_field(text: str) -> tuple[str, np.ndarray, np.ndarray]:
    """(mesh name, times, dofs) of an stgp-field text; raises ValueError if malformed."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 4 or lines[0] != ["stgp-field", "1"] or lines[1][0] != "mesh":
        raise ValueError("missing stgp-field header")
    if len(lines[2]) != 4 or lines[2][0] != "edges" or lines[2][2] != "steps":
        raise ValueError("missing 'edges M steps N' line")
    m, n = int(lines[2][1]), int(lines[2][3])
    if lines[3][0] != "times" or len(lines[3]) != n + 1:
        raise ValueError("bad times line")
    rows = lines[4:]
    if len(rows) != m or any(len(r) != n for r in rows):
        raise ValueError(f"expected {m} rows of {n} values")
    times = np.array([float(v) for v in lines[3][1:]])
    dofs = np.array([[float(v) for v in r] for r in rows]).reshape(m, n)
    return lines[1][1], times, dofs


def parse_report(text: str) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "stgp-report 1":
        raise ValueError("missing stgp-report header")
    out = {}
    for line in lines[1:]:
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def parse_mesh(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    dim, n_nodes = int(lines[1][1]), int(lines[2][1])
    nodes = np.array([[float(v) for v in ln[1:]] for ln in lines[3:3 + n_nodes]])
    at = 3 + n_nodes
    n_el = int(lines[at][1])
    elements = np.array([[int(v) for v in ln[1:]] for ln in lines[at + 1:at + 1 + n_el]])
    at += 1 + n_el
    mu = np.empty(n_el)
    for ln in lines[at + 1:at + 1 + n_el]:
        mu[int(ln[0])] = float(ln[1])
    return nodes.reshape(-1, dim), elements.reshape(-1, dim + 1), mu


class SimplexSpace:
    """Point location and Whitney edge functions on a simplex mesh, by the benchmark's own code."""

    def __init__(self, nodes: np.ndarray, elements: np.ndarray, edges: np.ndarray):
        self.dim = nodes.shape[1]
        self.origins = nodes[elements[:, 0]]
        jac = np.swapaxes(nodes[elements[:, 1:]] - self.origins[:, None, :], 1, 2)
        self.inv = np.linalg.inv(jac)                                      # rows: grad lam_1..d
        self.grads = np.concatenate([-self.inv.sum(axis=1, keepdims=True), self.inv], axis=1)
        keys = edges[:, 0] * len(nodes) + edges[:, 1]
        local = LOCAL_EDGES[self.dim]
        na = elements[:, [a for a, _ in local]]
        nb = elements[:, [b for _, b in local]]
        self.edge_index = np.searchsorted(keys, np.minimum(na, nb) * len(nodes) + np.maximum(na, nb))
        self.signs = np.where(na < nb, 1.0, -1.0)

    def locate(self, x: np.ndarray, tol: float = 1e-12) -> tuple[int, np.ndarray] | None:
        """(element, barycentric coordinates) of the lowest-numbered element holding x, or None."""
        tail = np.einsum("eij,ej->ei", self.inv, x - self.origins)
        lam = np.concatenate([1.0 - tail.sum(axis=1, keepdims=True), tail], axis=1)
        inside = lam.min(axis=1) >= -tol
        if not inside.any():
            return None
        e = int(np.argmax(inside))
        return e, lam[e]

    def local(self, e: int, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Global edge ids of element e, and their signed Whitney functions at lam, (L,), (L, d)."""
        g = self.grads[e]
        w = np.array([lam[a] * g[b] - lam[b] * g[a] for a, b in LOCAL_EDGES[self.dim]])
        return self.edge_index[e], self.signs[e][:, None] * w


def whitney_at(space: SimplexSpace, dofs_t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Value at x of the edge-element field whose global edge DOFs are dofs_t (M, S) -> (S, d)."""
    found = space.locate(x)
    if found is None:
        raise ValueError(f"probe {x} is outside the target mesh")
    edges, w = space.local(*found)
    return dofs_t[edges].T @ w


class OwnDiscreteSource:
    """The CLI workloads' source field, evaluated by the benchmark instead of by stgp.

    It follows stgp's source-field protocol, so stgp's assembly can project
    it, but its values come from the benchmark's parse of the source files,
    its own point location (every element tested), its Whitney functions and
    its linear interpolation in time. Outside the source mesh it is zero, as
    under the runs' `outside_policy = zero`. Time integration splits at the
    source's time nodes, as for stgp's discrete fields.
    """

    def __init__(self, mesh_text: str, field_text: str):
        nodes, elements, _ = parse_mesh(mesh_text)
        _, self.times, self.dofs = parse_field(field_text)
        self.dim = nodes.shape[1]
        self.space = SimplexSpace(nodes, elements, edges_of(elements, self.dim))

    def time_span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def interior_time_nodes(self) -> np.ndarray:
        return self.times

    def eval_time_batch(self, x, ts, policy: str = "zero") -> tuple[np.ndarray, bool]:
        ts = np.asarray(ts, dtype=float)
        found = self.space.locate(np.asarray(x, dtype=float))
        if found is None:
            return np.zeros((len(ts), self.dim)), False
        edges, w = self.space.local(*found)
        k = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, len(self.times) - 2)
        theta = (ts - self.times[k]) / (self.times[k + 1] - self.times[k])
        rows = self.dofs[edges]
        series = rows[:, k] * (1.0 - theta) + rows[:, k + 1] * theta       # (L, T)
        return series.T @ w, True


def _collapsed_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and weights (sum 1/2) of an n x n Gauss rule collapsed onto a triangle."""
    g, w = np.polynomial.legendre.leggauss(n)
    g, w = (g + 1.0) / 2.0, w / 2.0
    u, v = np.meshgrid(g, g, indexing="ij")
    l1, l2 = u.ravel(), (v * (1.0 - u)).ravel()
    weights = (np.outer(w, w) * (1.0 - g)[:, None]).ravel()
    return np.stack([1.0 - l1 - l2, l1, l2], axis=1), weights


# Degree-5 seven-point triangle rule (Dunavant), weights summing to 1/2.
_A1, _B1, _W1 = 0.059715871789770, 0.470142064105115, 0.132394152788506
_A2, _B2, _W2 = 0.797426985353087, 0.101286507323456, 0.125939180544827
DEGREE5 = (np.array([[1 / 3, 1 / 3, 1 / 3], [_A1, _B1, _B1], [_B1, _A1, _B1], [_B1, _B1, _A1],
                     [_A2, _B2, _B2], [_B2, _A2, _B2], [_B2, _B2, _A2]]),
           0.5 * np.array([0.225, _W1, _W1, _W1, _W2, _W2, _W2]))


def _spatial_moments(params: dict, nodes, elements, mu, rule) -> np.ndarray:
    """Per-element integrals of mu, mu cos(2p theta) and mu sin(2p theta) by `rule`, (3, E)."""
    bary, weights = rule
    x = np.einsum("qk,ekd->eqd", bary, nodes[elements])
    rel = x - np.asarray(params["center"])
    angle = 2 * params["pole_pairs"] * np.arctan2(rel[..., 1], rel[..., 0])
    jw = 2.0 * element_measures(nodes, elements)[:, None] * weights[None, :] * mu[:, None]
    return np.stack([jw.sum(axis=1), (jw * np.cos(angle)).sum(axis=1),
                     (jw * np.sin(angle)).sum(axis=1)])


def _temporal_moments(params: dict, times: np.ndarray, points: int) -> np.ndarray:
    """Per-step integrals of e, e cos(2pwt) and e sin(2pwt), e = (1 + m cos wt)^2, (3, N-1)."""
    w, m, p = params["omega"], params["modulation"], params["pole_pairs"]
    g, gw = np.polynomial.legendre.leggauss(points)
    h = np.diff(times)[:, None]
    t = times[:-1, None] + h * (g[None, :] + 1.0) / 2.0
    tw = h * gw[None, :] / 2.0
    e = (1.0 + m * np.cos(w * t)) ** 2
    return np.stack([(tw * e).sum(axis=1), (tw * e * np.cos(2 * p * w * t)).sum(axis=1),
                     (tw * e * np.sin(2 * p * w * t)).sum(axis=1)])


def multipole_energy(params: dict, nodes, elements, mu, times: np.ndarray,
                     time_points: int) -> tuple[float, float]:
    """Integral of mu/2 |H|^2 over the mesh and the span of `times`, and a tolerance for it.

    |H|^2 = A^2 e(t) cos^2(p(theta - wt)) splits into spatial moments of mu,
    mu cos(2p theta), mu sin(2p theta) times temporal moments of e,
    e cos(2pwt), e sin(2pwt). The integral uses a 12 x 12 collapsed Gauss rule
    per element and 8 Gauss points per step. The tolerance is ten times the
    sum over elements and over steps of the error magnitudes of rules with the
    program's degrees (a seven-point degree-5 triangle rule; `time_points`
    Gauss points per step), so it follows from the orders used and no
    cancellation between cells can shrink it.
    """
    s_hi = _spatial_moments(params, nodes, elements, mu, _collapsed_rule(12))
    s_lo = _spatial_moments(params, nodes, elements, mu, DEGREE5)
    t_hi = _temporal_moments(params, times, 8)
    t_lo = _temporal_moments(params, times, time_points)
    scale = params["amplitude"] ** 2 / 4.0
    exact = scale * float(s_hi.sum(axis=1) @ t_hi.sum(axis=1))
    space = np.abs(s_lo - s_hi).sum(axis=1) @ np.abs(t_hi.sum(axis=1))
    time_ = np.abs(s_hi.sum(axis=1)) @ np.abs(t_lo - t_hi).sum(axis=1)
    return exact, 10.0 * scale * float(space + time_) + 1e-12 * abs(exact)


class Checker:
    """Checks of one workload's outputs. Built once per run, outside the timed loop."""

    def __init__(self, spec: dict, stgp):
        self.spec, self.stgp = spec, stgp
        self.work = Path(spec["work"])
        self.kind = spec["field_kind"]
        self.params = field_params(spec)
        mesh_text = (self.work / "target.stgp").read_text(encoding="utf-8")
        self.mesh = stgp.read_mesh(mesh_text)
        self.table = stgp.build_edge_table(self.mesh)
        self.nodes, self.elements, self.mu = parse_mesh(mesh_text)
        self.edges = edges_of(self.elements, self.nodes.shape[1])
        if not np.array_equal(self.edges, self.table.edges):
            raise RuntimeError("the program's edge order differs from the stgp-field row order")
        self.space = SimplexSpace(self.nodes, self.elements, self.edges)
        self.own_source = None
        if spec["mode"] == "cli":
            src_mesh_text = (self.work / "source.stgp").read_text(encoding="utf-8")
            src_field_text = (self.work / "source.stgpf").read_text(encoding="utf-8")
            src_mesh = stgp.read_mesh(src_mesh_text)
            self.source = stgp.bind_field(stgp.read_field(src_field_text), src_mesh,
                                          stgp.build_edge_table(src_mesh))
            self.own_source = OwnDiscreteSource(src_mesh_text, src_field_text)
        else:
            p = self.params
            self.source = stgp.AnalyticField(
                "rotating-multipole", dim=2, pole_pairs=p["pole_pairs"], omega=p["omega"],
                amplitude=p["amplitude"], center=p["center"], modulation=p["modulation"])
        self._interpolant: dict[int, tuple[np.ndarray, float]] = {}
        self._energy: dict[int, tuple[float, float]] = {}
        self._reference: dict[int, tuple[np.ndarray, int]] = {}

    def times(self, key: int) -> np.ndarray:
        if self.spec["mode"] == "cli":
            start, stop, count = self.spec["target_times"]
            return np.linspace(start, stop, count)
        return window_times(self.spec["windows"][key])

    def error(self, key: int, dofs: np.ndarray) -> float:
        grid = self.stgp.TemporalGrid(self.times(key))
        err, _ = self.stgp.error_norm(self.mesh, self.table, grid, self.source, dofs,
                                      space_quad_order=self.spec["space_quad_order"],
                                      time_quad_points=self.spec["time_quad_points"],
                                      policy="zero")
        return float(err)

    def reference(self, key: int) -> tuple[np.ndarray, int]:
        """DOFs and outside-point count of stgp's projection of the benchmark-evaluated source.

        Built from stgp's assembly and solver functions, as project() does,
        without the energy sweep that the checks do not need.
        """
        if key not in self._reference:
            stgp, grid = self.stgp, self.stgp.TemporalGrid(self.times(key))
            quad = stgp.simplex_quadrature(self.mesh.dim, self.spec["space_quad_order"])
            c, outside = stgp.assemble_source_matrix(
                self.mesh, self.table, grid, self.own_source, space_quad=quad,
                time_quad_points=self.spec["time_quad_points"], policy="zero")
            dofs, _ = stgp.cg_solve(stgp.assemble_spatial_mass(self.mesh, self.table, quad=quad),
                                    stgp.assemble_temporal_gram(grid), c,
                                    stgp.SolverConfig(tol=self.spec["solver_tol"]))
            self._reference[key] = (dofs, outside)
        return self._reference[key]

    # -- the checks; each returns a list of problems, empty when the output passes --

    def field(self, key: int, text: str) -> list[str]:
        """Parse, shape, finiteness, target times, and Galerkin optimality of a result field."""
        try:
            _, times, dofs = parse_field(text)
            theirs = self.stgp.read_field(text)
        except ValueError as exc:
            return [f"field does not parse: {exc}"]
        problems = []
        expected = self.times(key)
        if dofs.shape != (len(self.edges), len(expected)):
            return [f"field shape {dofs.shape}, expected {(len(self.edges), len(expected))}"]
        if not np.array_equal(theirs.dofs, dofs) or not np.array_equal(theirs.times, times):
            problems.append("stgp.read_field disagrees with the text")
        if not np.all(np.isfinite(dofs)):
            return problems + ["field holds non-finite values"]
        span = expected[-1] - expected[0]
        if np.max(np.abs(times - expected)) > 1e-12 * max(span, np.max(np.abs(expected))):
            return problems + ["field times are not the target times"]
        return problems + self.galerkin(key, dofs) + self.source_evaluation(key, dofs)

    def source_evaluation(self, key: int, dofs: np.ndarray) -> list[str]:
        """CLI workloads: the result equals the projection of the benchmark-evaluated source.

        The Galerkin check judges the result against stgp's own evaluation of
        the source, so a fault in that evaluation (locator, field values) would
        pass it; this check does not use it.
        """
        if self.own_source is None:
            return []
        expected, _ = self.reference(key)
        scale = float(np.max(np.abs(expected)))
        gap = float(np.max(np.abs(dofs - expected)))
        if not gap <= SOURCE_AGREEMENT * scale:
            return [f"result differs from the projection of the benchmark-evaluated source by "
                    f"{gap / scale:.3e} of its largest DOF (allowed {SOURCE_AGREEMENT:g})"]
        return []

    def galerkin(self, key: int, dofs: np.ndarray) -> list[str]:
        """The result's energy error is no larger than that of the interpolant or of perturbations.

        The perturbations: random, scaled up, scaled down, and a step towards
        the interpolant. Each raises the error of the true minimiser.
        """
        if key not in self._interpolant:
            interpolant = circulations(self.kind, self.params, self.nodes, self.edges,
                                       self.times(key))
            self._interpolant[key] = (interpolant, self.error(key, interpolant))
        interpolant, interpolant_error = self._interpolant[key]
        err = self.error(key, dofs)
        rms = float(np.sqrt(np.mean(dofs ** 2)))
        noise = np.random.default_rng(PERTURBATION_SEED).standard_normal(dofs.shape)
        trials = {"interpolant": interpolant_error,
                  "random perturbation": self.error(key, dofs + PERTURBATION * rms * noise),
                  "scaled up": self.error(key, (1.0 + PERTURBATION) * dofs),
                  "scaled down": self.error(key, (1.0 - PERTURBATION) * dofs),
                  "step towards the interpolant": self.error(
                      key, dofs + TOWARD_INTERPOLANT * (interpolant - dofs))}
        return [f"energy error {err:.6e} exceeds that of the {name} ({other:.6e})"
                for name, other in trials.items() if not err <= other]

    def solve(self, converged: bool, relative_residual: float) -> list[str]:
        tol = self.spec["solver_tol"]
        if not converged or not relative_residual <= tol:
            return [f"solve not converged (relative residual {relative_residual:.3e}, tol {tol:g})"]
        return []

    def report(self, text: str) -> list[str]:
        try:
            rep = parse_report(text)
            converged = rep["converged"] == "true"
            residual = float(rep["relative_residual"])
            outside = int(rep["outside_points"])
        except (KeyError, ValueError) as exc:
            return [f"report does not parse: {exc!r}"]
        problems = self.solve(converged, residual)
        if self.spec["workload"] == "overhang-3d" and not outside > 0:
            problems.append(f"outside_points = {outside}, expected > 0 for an overhanging target")
        expected = self.reference(0)[1]
        if outside != expected:
            problems.append(f"outside_points = {outside}, but {expected} quadrature points lie "
                            "outside the source mesh")
        return problems

    def source_energy(self, key: int, value: float) -> list[str]:
        """The program's source energy against the benchmark's own integral."""
        if key not in self._energy:
            self._energy[key] = multipole_energy(self.params, self.nodes, self.elements, self.mu,
                                                 self.times(key), self.spec["time_quad_points"])
        exact, tol = self._energy[key]
        if not abs(value - exact) <= tol:
            return [f"source_energy {value!r} differs from the integral {exact!r} by "
                    f"{abs(value - exact):.3e} > {tol:.3e}"]
        return []

    def probe(self, key: int, index: int, text: str, dofs: np.ndarray) -> list[str]:
        """Probe CSV: header, sample count, times, and values of the field at the probe point."""
        dim = self.nodes.shape[1]
        lines = text.strip().splitlines()
        header = "t," + ",".join(("hx", "hy", "hz")[:dim])
        samples = self.spec["params"]["probe_samples"]
        if not lines or lines[0] != header or len(lines) != samples + 1:
            return [f"probe {index}: expected header {header!r} and {samples} rows"]
        try:
            table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        except ValueError as exc:
            return [f"probe {index} does not parse: {exc}"]
        if table.shape != (samples, dim + 1) or not np.all(np.isfinite(table)):
            return [f"probe {index}: malformed or non-finite rows"]
        times = self.times(key)
        ts = np.linspace(times[0], times[-1], samples)
        if np.max(np.abs(table[:, 0] - ts)) > 1e-12 * max(1.0, abs(times[-1])):
            return [f"probe {index}: sample times are not uniform over the target span"]
        k = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
        theta = (ts - times[k]) / (times[k + 1] - times[k])
        series = dofs[:, k] * (1.0 - theta) + dofs[:, k + 1] * theta
        expected = whitney_at(self.space, series, np.asarray(self.spec["probes"][index]))
        scale = max(float(np.max(np.abs(expected))), 1e-300)
        if np.max(np.abs(table[:, 1:] - expected)) > 1e-9 * scale:
            return [f"probe {index}: values differ from the field evaluated at the probe"]
        return []


def check_run(checker: Checker, spec: dict, result: dict) -> tuple[list[int], list[str]]:
    """Indices of operations whose results fail, and the problems found.

    The first successful output for each input is checked in full. Every
    other operation on the same input must give bitwise-identical outputs.
    """
    work = Path(spec["work"]) / "first"
    records = [result["warmup"]] + result["ops"]
    reference = {}
    problems: list[str] = []
    for rec in records:
        if rec["ok"] and rec.get("reference"):
            key = rec["key"]
            found = checker_outputs(checker, spec, work, key)
            reference[key] = (rec["digest"], found)
            problems += [f"input {key}: {p}" for p in found]
    failed = []
    for i, rec in enumerate(result["ops"]):
        if not rec["ok"]:
            failed.append(i)
            continue
        digest, found = reference[rec["key"]]
        bad = bool(found)
        if rec["digest"] != digest:
            bad = True
            problems.append(f"operation {i}: outputs differ from an earlier run of the same input")
        if spec["mode"] == "library":
            op_problems = (checker.solve(rec["converged"], rec["relative_residual"])
                           + checker.source_energy(rec["key"], rec["source_energy"]))
            problems += [f"operation {i}: {p}" for p in op_problems]
            bad = bad or bool(op_problems)
        if bad:
            failed.append(i)
    return failed, problems


def checker_outputs(checker: Checker, spec: dict, first: Path, key: int) -> list[str]:
    """All checks on the kept outputs of one input."""
    if spec["mode"] == "library":
        return checker.field(key, (first / f"window_{key}.stgpf").read_text(encoding="utf-8"))
    text = (first / "result.stgpf").read_text(encoding="utf-8")
    problems = checker.field(key, text) + checker.report(
        (first / "report.txt").read_text(encoding="utf-8"))
    if spec.get("probes") and not problems:
        _, _, dofs = parse_field(text)
        for index in range(len(spec["probes"])):
            csv = first / f"probe_{index:03d}.csv"
            if not csv.is_file():
                problems.append(f"probe {index}: no output")
                continue
            problems += checker.probe(key, index, csv.read_text(encoding="utf-8"), dofs)
    return problems
