"""stgp benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, runs its operations back to
back for S seconds in a worker process (worker.py), checks every result
(checks.py) and prints, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones (run_s, setup_s, peak_rss_mb); with --trace 1
the per-layer ones, from a run with spans recorded around the program's
functions. Progress and a readable summary go to standard error.
"""
from __future__ import annotations

import os

# The BLAS pool is fixed at one thread, before numpy is first imported.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, SIZES, generate

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(SIZES), default="full",
                    help="input sizes; 'tiny' is for the benchmark's self-tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (ROOT / "src" / "stgp" / "__init__.py").is_file():
        return fail(f"no stgp sources under {ROOT / 'src'}")

    suffix = "" if args.size == "full" else f"-{args.size}"
    work = HERE / "_work" / f"{args.workload}{suffix}"
    shutil.rmtree(work, ignore_errors=True)
    spec = generate(args.workload, args.seed, work, args.size)
    result_path = work / "result.json"
    spans_path = HERE / "_traces" / f"{args.workload}{suffix}-seed{args.seed}.npz"

    env = {k: v for k, v in os.environ.items() if not k.startswith("STGP_")}
    env.update(THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"), str(result_path),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.is_file():
        return fail(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))

    sys.path.insert(0, str(ROOT / "src"))
    import stgp
    from checks import Checker, check_run
    from spans import UNITS, summary

    failed, problems = check_run(Checker(spec, stgp), spec, result)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for i, rec in enumerate(result["ops"]):
        if not rec["ok"]:
            print(f"operation {i} failed:\n{rec['error']}", file=sys.stderr)
    errored = sum(not rec["ok"] for rec in result["ops"])
    failed_set = set(failed)
    good = [rec for i, rec in enumerate(result["ops"]) if i not in failed_set]
    if not good:
        return fail("no operation succeeded")

    run_s = [rec["run_s"] for rec in good]
    setup_s = [rec["setup_s"] for rec in good] if spec["mode"] == "cli" else result["setup_s"]
    print(f"{args.workload} seed {args.seed}: {len(result['ops'])} operations in "
          f"{result['measured_s']:.1f} s; run_s {summary(run_s)}; setup_s {summary(setup_s)}",
          file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in result["layers"].items()}
        print(f"traced run_s median {statistics.median(run_s):.6f} s; spans in {spans_path}",
              file=sys.stderr)
    else:
        metrics = {"run_s": {"value": statistics.median(run_s), "unit": "s"},
                   "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"}}
    print(json.dumps({"correct": len(failed) == errored, "attempted": len(result["ops"]),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
