"""Benchmark of gbstn's four probability routes; one workload per call.

    python3 bench/run.py --workload lossy-adjoint --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (it imports gbstn from ``src``).  Each
call starts fresh processes with BLAS pinned to one thread:

1. set-up probes that only import gbstn and build the seeded inputs, for the
   median set-up time;
2. the timed process (bench/worker.py), which runs whole rounds of the
   workload's operations for about ``--seconds``;
3. the reference process (bench/reference.py), which checks every returned
   probability against a value computed apart from the engine.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (spans in bench/results/*.trace.jsonl).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150
REFERENCE_TIMEOUT_S = 60


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GBSTN_WORKERS", None)  # would override the CLI's --workers
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def worker(args, env, out: str, setup_only: bool) -> dict:
    command = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
    ]
    if setup_only:
        command.append("--setup-only")
    spawn = time.monotonic()
    proc = subprocess.run(
        [*command, "--spawn", repr(spawn)], env=env, timeout=WORKER_TIMEOUT_S,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out) as fh:
        report = json.load(fh)
    if setup_only:
        os.remove(out)
    return report


def reference(args, env, results_path: str) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "reference.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--results", results_path,
        ],
        env=env, timeout=REFERENCE_TIMEOUT_S, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gbstn", "__init__.py")):
        print(f"error: no gbstn sources under {root}/src; run from the repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    results_dir = os.path.join(BENCH, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-s{args.seed}-t{args.trace}")

    try:
        # probes before and after the timed process, so that one slow spell
        # of a shared machine does not set the whole median
        setups = [worker(args, env, f"{stem}-setup.json", True)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        report = worker(args, env, f"{stem}.json", False)
        setups += [worker(args, env, f"{stem}-setup.json", True)["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        verdict = reference(args, env, f"{stem}.json")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in verdict["failures"] + report["errors"][:20]:
        print(f"  {line}", file=sys.stderr)
    if args.trace:
        metrics = report["trace"]["metrics"]
        absent = ", ".join(report["trace"]["absent"]) or "none"
        print(f"spans: {os.path.relpath(report['trace']['path'])}; wrapped functions absent: {absent}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [report["setup_s"]]), "unit": "s"},
            "probs_per_s": {"value": report["probs"] / report["timed_s"], "unit": "1/s"},
            "op_p50_s": {"value": report["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(
        f"{args.workload} seed {args.seed}: {report['rounds']} rounds, {report['op_count']} operations, "
        f"{report['attempted']} probabilities attempted, {report['failed']} failed, "
        f"{verdict['checked']} checks, worst relative error {verdict['worst_rel']:.1e}"
    )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
