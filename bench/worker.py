"""Timed process of one benchmark run (started by run.py).

Imports gbstn, builds the seeded cases, then runs whole rounds of the same
operations until the next round would overrun ``--seconds``.  With ``--trace 1``
untraced and traced rounds alternate, so the tracing overhead is the ratio of
their median round times.  Results go to ``--out`` as JSON.

    python3 bench/worker.py --workload gauss-exact --seed 1 --seconds 10 \
        --trace 0 --spawn <time.monotonic() of the parent> --out result.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

from inputs import R, Case, build_cases


@dataclass
class Step:
    """One call in a round.  ``probs`` is how many probabilities it returns;
    a step with ``probs == 0`` prepares state for later steps and is not an
    operation, though its time counts in the timed wall time."""

    key: str
    run: Callable[[], list]
    probs: int


@dataclass
class RunLog:
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    step_times: dict[str, list[float]] = field(default_factory=dict)  # untraced rounds only
    plain_rounds: list[float] = field(default_factory=list)
    traced_rounds: list[float] = field(default_factory=list)
    results: dict[str, list] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def library_steps(cases: list[Case]) -> list[Step]:
    """Route calls on the library workloads, through module attributes so a
    tracer's wrappers see them."""
    from gbstn import gauss, tnet

    steps = []
    for case in cases:
        if case.kind == "gauss":
            prepared = {}

            def propagate(case=case, prepared=prepared):
                vacuum = gauss.squeezed_vacuum_cov(R, case.circuit.num_modes)
                prepared["state"] = gauss.propagate_circuit(vacuum, case.circuit)
                return [float(x) for x in prepared["state"].mean_photons()]

            steps.append(Step(f"{case.key}/mean_photons", propagate, 0))
            for i, outcome in enumerate(case.outcomes):
                def probability(outcome=outcome, prepared=prepared):
                    return [gauss.gbs_probability(prepared["state"], outcome)]

                steps.append(Step(f"{case.key}/{i}", probability, 1))
            continue
        route = {
            "lossless": lambda *a: tnet.heisenberg_probability_lossless(*a),
            "lossy": lambda *a: tnet.heisenberg_probability_lossy(*a),
        }[case.kind]
        for i, outcome in enumerate(case.outcomes):
            def probability(case=case, outcome=outcome, route=route):
                return [route(case.circuit, outcome, R, case.cutoff)[0]]

            steps.append(Step(f"{case.key}/{i}", probability, 1))
    return steps


def cli_steps(cases: list[Case], workdir: str) -> list[Step]:
    """Write each case's circuit with ``gbstn gen`` (a lossy one with
    ``save_circuit``); one ``gbstn prob`` request per case."""
    from gbstn import circuit, cli

    flags = {
        "tn": ["--workers", "2"],
        "schrodinger": ["--picture", "schrodinger"],
        "gaussian": ["--backend", "gaussian"],
        "lossy": [],
    }
    steps = []
    for case in cases:
        m = str(case.circuit.num_modes)
        path = os.path.join(workdir, f"{case.key}.json")
        out = os.path.join(workdir, f"{case.key}.jsonl")
        if case.kind == "lossy":
            circuit.save_circuit(case.circuit, path, seed=case.gen_seed)
        elif cli.main(["gen", "--modes", m, "--depth", m, "--seed", str(case.gen_seed), "--output", path]):
            raise RuntimeError(f"gbstn gen failed for {case.key}")
        argv = ["prob", "--circuit", path, "--squeezing", str(R), "--output", out, *flags[case.kind]]
        if case.kind == "lossy":
            argv += ["--cutoff", str(case.cutoff)]
        for outcome in case.outcomes:
            argv += ["--outcome", ",".join(str(n) for n in outcome)]

        def request(argv=argv, out=out):
            cli.main(argv)
            with open(out) as fh:
                return [json.loads(line).get("probability") for line in fh]

        steps.append(Step(case.key, request, len(case.outcomes)))
    return steps


def execute(step: Step, log: RunLog, tracer, op_id: int, keep: bool) -> float:
    span = None
    if tracer is not None:
        tracer.op = op_id
        span = tracer.open("bench.op")
    start = time.perf_counter()
    try:
        values = step.run()
    except Exception as exc:  # an operation that raises is counted, and the run goes on
        values = [None] * max(step.probs, 1)
        log.errors.append(f"{step.key}: {type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
    if step.probs:
        log.attempted += step.probs
        returned = list(values[: step.probs]) + [None] * (step.probs - len(values))
        log.failed += returned.count(None)
    if keep or step.probs:
        log.results.setdefault(step.key, []).append(values)
    return elapsed


def run_rounds(steps: list[Step], seconds: float, tracer=None) -> RunLog:
    """Whole rounds until the next one would end past ``seconds`` (at least one;
    two when tracing, one plain and one traced)."""
    log = RunLog()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and log.rounds % 2 == 1
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        for index, step in enumerate(steps):
            elapsed = execute(step, log, tracer if traced else None, log.rounds * len(steps) + index, log.rounds == 0)
            if not traced:
                log.step_times.setdefault(step.key, []).append(elapsed)
        round_time = time.perf_counter() - round_start
        if traced:
            tracer.uninstall()
        (log.traced_rounds if traced else log.plain_rounds).append(round_time)
        log.rounds += 1
        enough = log.rounds >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + round_time > seconds:
            return log


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")

    workdir = os.path.join(os.path.dirname(os.path.abspath(args.out)), f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cases = build_cases(args.workload, args.seed)
        if args.workload == "cli-batch":
            steps = cli_steps(cases, workdir)
        else:
            steps = library_steps(cases)
        setup_s = time.monotonic() - args.spawn
        if args.setup_only:
            report = {"setup_s": setup_s}
        else:
            tracer = None
            if args.trace:
                from spans import Tracer

                tracer = Tracer()
            log = run_rounds(steps, args.seconds, tracer)
            report = summarize(log, steps, setup_s, tracer, os.path.splitext(args.out)[0] + ".trace.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


def summarize(log: RunLog, steps: list[Step], setup_s: float, tracer, trace_path: str) -> dict:
    ops = [t for step in steps if step.probs for t in log.step_times[step.key]]
    report = {
        "setup_s": setup_s,
        "rounds": log.rounds,
        "attempted": log.attempted,
        "failed": log.failed,
        "timed_s": sum(log.plain_rounds),
        "probs": log.attempted - log.failed,
        "op_p50_s": statistics.median(ops) if ops else None,
        "op_count": len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": log.plain_rounds,
        "step_s": log.step_times,
        "results": log.results,
        "errors": log.errors,
    }
    if tracer is not None:
        from spans import layer_metrics, self_time_table, write_jsonl

        rounds = len(log.traced_rounds)
        overhead = statistics.median(log.traced_rounds) / statistics.median(log.plain_rounds)
        table = {name: t / rounds for name, t in sorted(self_time_table(tracer.spans).items())}
        metrics = layer_metrics(tracer.spans, rounds, sum(log.traced_rounds), overhead)
        write_jsonl(trace_path, tracer.spans, metrics, table, tracer.absent)
        report["trace"] = {
            "path": trace_path,
            "rounds": rounds,
            "round_s": log.traced_rounds,
            "absent": tracer.absent,
            "self_time_s_per_round": table,
            "metrics": metrics,
        }
    return report


if __name__ == "__main__":
    sys.exit(main())
