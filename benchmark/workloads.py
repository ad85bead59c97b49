"""Workload inputs: meshes, source fields and configs, built from a seed with the benchmark's own code.

Nothing here imports stgp. The meshes, the edge enumeration, the analytic
fields and their edge circulations are written out independently of the
program, so the checks in checks.py compare the program against computations
it did not make.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("transfer-2d", "multipole-windows-2d", "overhang-3d")

# Sizes per workload. "tiny" exists for the benchmark's self-tests only.
SIZES = {
    "full": {
        "transfer-2d": dict(source_n=32, source_steps=32, target_n=12, probe_samples=200),
        "multipole-windows-2d": dict(target_n=16, steps=256, windows=3, window_length=0.3,
                                     setups_per_round=3),
        "overhang-3d": dict(source_n=4, source_steps=8, target_n=2, target_steps=13),
    },
    "tiny": {
        "transfer-2d": dict(source_n=5, source_steps=4, target_n=3, probe_samples=20),
        "multipole-windows-2d": dict(target_n=3, steps=8, windows=2, window_length=0.3,
                                     setups_per_round=1),
        "overhang-3d": dict(source_n=2, source_steps=3, target_n=1, target_steps=5),
    },
}

JITTER_2D = 0.2        # interior node jitter, as a share of the mesh step
JITTER_3D = 0.1
MU_RANGE = (0.5, 2.0)
OVERHANG_Z = 1.25      # target box height; the source is the unit cube
SOLVER_TOL = 1e-10
SPACE_QUAD_ORDER = 4
TIME_QUAD_POINTS = 2

LOCAL_EDGES = {2: ((0, 1), (0, 2), (1, 2)),
               3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}


# ---------------------------------------------------------------------------
# meshes


def structured_nodes(n: int, dim: int) -> np.ndarray:
    axis = np.linspace(0.0, 1.0, n + 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def structured_elements(n: int, dim: int) -> np.ndarray:
    """Triangles (two per square) or Kuhn tetrahedra (six per cube), node ids in ij order."""
    side = n + 1
    cells = np.stack([c.ravel() for c in np.meshgrid(*([np.arange(n)] * dim), indexing="ij")],
                     axis=1)
    strides = np.array([side ** (dim - 1 - k) for k in range(dim)])
    if dim == 2:
        corners = [((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))]
        return np.concatenate([
            np.stack([(cells + np.array(c)) @ strides for c in tri], axis=1) for tri in corners])
    tets = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        corner = cells.copy()
        chain = [corner @ strides]
        for axis in perm:
            corner = corner.copy()
            corner[:, axis] += 1
            chain.append(corner @ strides)
        tets.append(np.stack(chain, axis=1))
    return np.concatenate(tets)


def jittered(nodes: np.ndarray, n: int, share: float, rng: np.random.Generator) -> np.ndarray:
    nodes = nodes.copy()
    interior = np.all((nodes > 1e-12) & (nodes < 1.0 - 1e-12), axis=1)
    nodes[interior] += rng.uniform(-share / n, share / n, size=nodes[interior].shape)
    return nodes


def edges_of(elements: np.ndarray, dim: int) -> np.ndarray:
    """Global edges (low node, high node), sorted lexicographically: the stgp-field row order."""
    pairs = np.concatenate([np.sort(elements[:, list(p)], axis=1) for p in LOCAL_EDGES[dim]])
    return np.unique(pairs, axis=0)


def element_measures(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    verts = nodes[elements]
    dim = nodes.shape[1]
    return np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1])) / math.factorial(dim)


# ---------------------------------------------------------------------------
# generating fields: each takes points (..., d) and times (T,), returns (T, ..., d)


def smooth_2d(params: dict, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    a, ph = params["amplitude"], params["phase"]
    tt = t.reshape((-1,) + (1,) * (x.ndim - 1))
    px, py = x[..., 0][None], x[..., 1][None]
    hx = a[0] * np.sin(np.pi * (py + 0.5 * px) + 2 * np.pi * tt + ph[0]) + 0.3 * px * np.cos(2 * np.pi * tt)
    hy = a[1] * np.cos(np.pi * (px - 0.3 * py) - 2 * np.pi * tt + ph[1]) + 0.3 * py * np.sin(2 * np.pi * tt)
    return np.stack([hx, hy], axis=-1)


def smooth_3d(params: dict, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    a, ph = params["amplitude"], params["phase"]
    tt = t.reshape((-1,) + (1,) * (x.ndim - 1))
    px, py, pz = x[..., 0][None], x[..., 1][None], x[..., 2][None]
    hx = a[0] * np.sin(np.pi * py + 2 * np.pi * tt + ph[0])
    hy = a[1] * np.sin(np.pi * pz - 2 * np.pi * tt + ph[1])
    hz = a[2] * np.cos(np.pi * px + 2 * np.pi * tt + ph[2])
    return np.stack([hx, hy, hz], axis=-1)


def rotating_multipole(params: dict, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """amp (1 + m cos wt) cos(p (theta - wt)) r_hat, the formula stgp documents."""
    rel = x - np.asarray(params["center"])
    theta = np.arctan2(rel[..., 1], rel[..., 0])[None]
    tt = t.reshape((-1,) + (1,) * (x.ndim - 1))
    p, w, m = params["pole_pairs"], params["omega"], params["modulation"]
    scale = params["amplitude"] * (1.0 + m * np.cos(w * tt)) * np.cos(p * (theta - w * tt))
    return scale[..., None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)


FIELDS = {"smooth-2d": smooth_2d, "smooth-3d": smooth_3d, "rotating-multipole": rotating_multipole}


def field_params(spec: dict) -> dict:
    return {k: (np.asarray(v) if isinstance(v, list) else v) for k, v in spec["field"].items()}


def circulations(kind: str, params: dict, nodes: np.ndarray, edges: np.ndarray,
                 times: np.ndarray) -> np.ndarray:
    """Line integrals of the field along every edge (low to high node) at every time, (M, T)."""
    s, w = np.polynomial.legendre.leggauss(8)
    s, w = (s + 1.0) / 2.0, w / 2.0
    a, b = nodes[edges[:, 0]], nodes[edges[:, 1]]
    tangent = b - a
    points = a[:, None, :] + s[None, :, None] * tangent[:, None, :]        # (M, S, d)
    values = FIELDS[kind](params, points, np.asarray(times, dtype=float))   # (T, M, S, d)
    return np.einsum("tmsd,s,md->mt", values, w, tangent)


# ---------------------------------------------------------------------------
# stgp text formats, written by the benchmark


def mesh_text(nodes: np.ndarray, elements: np.ndarray, mu: np.ndarray) -> str:
    out = ["stgp-mesh 1", f"dim {nodes.shape[1]}", f"nodes {len(nodes)}"]
    out += [f"{i} " + " ".join(repr(float(c)) for c in row) for i, row in enumerate(nodes)]
    out.append(f"elements {len(elements)}")
    out += [f"{i} " + " ".join(str(int(v)) for v in row) for i, row in enumerate(elements)]
    out.append(f"mu {len(mu)}")
    out += [f"{i} {float(v)!r}" for i, v in enumerate(mu)]
    return "\n".join(out) + "\n"


def field_text(mesh_name: str, times: np.ndarray, dofs: np.ndarray) -> str:
    out = ["stgp-field 1", f"mesh {mesh_name}", f"edges {dofs.shape[0]} steps {dofs.shape[1]}",
           "times " + " ".join(repr(float(t)) for t in times)]
    out += [" ".join(repr(float(v)) for v in row) for row in dofs]
    return "\n".join(out) + "\n"


def config_text(entries: list[tuple[str, object]]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries)


# ---------------------------------------------------------------------------
# workloads


def generate(workload: str, seed: int, work: Path, size: str = "full") -> dict:
    """Write the workload's input files into `work` and return its spec (also saved as spec.json)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    work.mkdir(parents=True, exist_ok=True)
    params = SIZES[size][workload]
    spec = {"workload": workload, "seed": seed, "size": size, "params": params,
            "solver_tol": SOLVER_TOL, "space_quad_order": SPACE_QUAD_ORDER,
            "time_quad_points": TIME_QUAD_POINTS, "work": str(work)}
    if workload == "transfer-2d":
        spec.update(_transfer_2d(params, rng, work))
    elif workload == "overhang-3d":
        spec.update(_overhang_3d(params, rng, work))
    else:
        spec.update(_multipole(params, rng, work))
    (work / "spec.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")
    return spec


def _write_mesh(path: Path, nodes, elements, mu) -> None:
    path.write_text(mesh_text(nodes, elements, mu), encoding="utf-8")


def _cli_config(work: Path, target_times: tuple[float, float, int], extra: list) -> list:
    start, stop, count = target_times
    return [
        ("target_mesh", work / "target.stgp"),
        ("target_time_start", repr(start)),
        ("target_time_stop", repr(stop)),
        ("target_time_count", count),
        ("source_mesh", work / "source.stgp"),
        ("source_field", work / "source.stgpf"),
        ("space_quad_order", SPACE_QUAD_ORDER),
        ("time_quad_points", TIME_QUAD_POINTS),
        ("solver_tol", repr(SOLVER_TOL)),
        ("outside_policy", "zero"),
        ("threads", 1),
        ("out_field", work / "out" / "result.stgpf"),
        ("out_report", work / "out" / "report.txt"),
    ] + extra


def _discrete_source(work: Path, kind: str, params: dict, nodes, elements, source_times, rng):
    mu = rng.uniform(*MU_RANGE, size=len(elements))
    _write_mesh(work / "source.stgp", nodes, elements, mu)
    dofs = circulations(kind, params, nodes, edges_of(elements, nodes.shape[1]), source_times)
    (work / "source.stgpf").write_text(field_text("source.stgp", source_times, dofs),
                                       encoding="utf-8")


def _transfer_2d(p: dict, rng: np.random.Generator, work: Path) -> dict:
    field = {"amplitude": rng.uniform(0.8, 1.2, 2).tolist(),
             "phase": rng.uniform(0.0, 2 * np.pi, 2).tolist()}
    n = p["source_n"]
    nodes = jittered(structured_nodes(n, 2), n, JITTER_2D, rng)
    source_times = np.linspace(0.0, 1.0, p["source_steps"])
    _discrete_source(work, "smooth-2d", field, nodes, structured_elements(n, 2), source_times, rng)
    tn = p["target_n"]
    _write_mesh(work / "target.stgp", structured_nodes(tn, 2), structured_elements(tn, 2),
                rng.uniform(*MU_RANGE, size=2 * tn * tn))
    probes = rng.uniform(0.1, 0.9, size=(2, 2))
    target = (0.0, 1.0, 2 * p["source_steps"])
    entries = _cli_config(work, target, [("probe", f"{float(x)!r} {float(y)!r}") for x, y in probes] + [
        ("probe_samples", p["probe_samples"]), ("out_probe_prefix", work / "out" / "probe")])
    (work / "run.cfg").write_text(config_text(entries), encoding="utf-8")
    return {"mode": "cli", "field_kind": "smooth-2d", "field": field, "target_times": target,
            "probes": probes.tolist()}


def _overhang_3d(p: dict, rng: np.random.Generator, work: Path) -> dict:
    field = {"amplitude": rng.uniform(0.8, 1.2, 3).tolist(),
             "phase": rng.uniform(0.0, 2 * np.pi, 3).tolist()}
    n = p["source_n"]
    nodes = jittered(structured_nodes(n, 3), n, JITTER_3D, rng)
    source_times = np.linspace(0.0, 1.0, p["source_steps"])
    _discrete_source(work, "smooth-3d", field, nodes, structured_elements(n, 3), source_times, rng)
    tn = p["target_n"]
    target_nodes = structured_nodes(tn, 3) * np.array([1.0, 1.0, OVERHANG_Z])
    target_elements = structured_elements(tn, 3)
    _write_mesh(work / "target.stgp", target_nodes, target_elements,
                rng.uniform(*MU_RANGE, size=len(target_elements)))
    target = (0.0, 1.0, p["target_steps"])
    (work / "run.cfg").write_text(config_text(_cli_config(work, target, [])), encoding="utf-8")
    return {"mode": "cli", "field_kind": "smooth-3d", "field": field, "target_times": target}


def _multipole(p: dict, rng: np.random.Generator, work: Path) -> dict:
    field = {"pole_pairs": 3, "omega": 2 * np.pi,
             "amplitude": float(rng.uniform(0.8, 1.2)),
             "center": [float(0.5 + rng.uniform(-0.2, 0.2)), -1.0],
             "modulation": float(rng.uniform(0.2, 0.4))}
    n = p["target_n"]
    nodes = jittered(structured_nodes(n, 2), n, JITTER_2D, rng)
    elements = structured_elements(n, 2)
    _write_mesh(work / "target.stgp", nodes, elements, rng.uniform(*MU_RANGE, size=len(elements)))
    start = float(rng.uniform(0.0, 1.0))
    length = p["window_length"]
    windows = [(start + k * length, start + (k + 1) * length, p["steps"])
               for k in range(p["windows"])]
    return {"mode": "library", "field_kind": "rotating-multipole", "field": field,
            "windows": windows}


def window_times(window) -> np.ndarray:
    start, stop, count = window
    return np.linspace(start, stop, count)
