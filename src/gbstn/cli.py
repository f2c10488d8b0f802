"""Command-line front end.

Subcommands:

* ``gen``      write a seeded brickwork circuit file
* ``prob``     single-outcome probabilities in any picture/backend
* ``cutoff``   local-dimension recommendation from the spillover bound
* ``scaling``  Heisenberg-vs-Schrodinger bond-bound grid as CSV
* ``validate`` cross-backend agreement check on one circuit file

``prob`` and ``validate`` emit one JSON record per line; ``--output -``
streams to stdout.  ``prob --workers`` evaluates the outcomes on that many
threads, which helps when BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import analysis, circuit as circuit_mod, fockdense, gauss, tnet
from .errors import UnsupportedConfigurationError

DEFAULT_EPSILON = 1e-6
DEFAULT_TOLERANCE = 1e-8


def _parse_outcome(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad outcome {text!r}: {exc}") from None


def _parse_squeezing(text: str):
    parts = text.replace(" ", "").split(",")
    values = [float(x) for x in parts]
    return values[0] if len(values) == 1 else values


def _parse_grid(text: str, cast):
    """Accept 'start:stop:step' (stop inclusive) or a comma list."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        count = int(round((stop - start) / step)) + 1
        return [cast(start + k * step) for k in range(count)]
    return [cast(x) for x in text.split(",")]


def _open_output(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def cmd_gen(args) -> int:
    circ = circuit_mod.build_brickwork(args.modes, args.depth, seed=args.seed)
    if args.gamma > 0.0:
        circ = circuit_mod.with_uniform_loss(circ, args.gamma)
    try:
        circuit_mod.save_circuit(circ, args.output, seed=args.seed)
    except OSError as exc:
        print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
        return 1
    return 0


def _auto_cutoff(circ, squeezing, outcome, epsilon) -> int:
    n_tilde = sum(outcome)
    if circ.is_lossless:
        return max(n_tilde, 1)
    n_c = analysis.recommended_cutoff(circ, squeezing, n_tilde, epsilon)
    if n_c is None:
        raise UnsupportedConfigurationError(
            "automatic cutoff selection needs an even mode count and uniform "
            "squeezing for lossy circuits; pass --cutoff explicitly"
        )
    return max(n_c, 1)


def _dense_output(circ, squeezing, n_c):
    """Dense output of the circuit: a state vector if lossless, else a density matrix."""
    state = fockdense.dense_squeezed_vacuum(squeezing, circ.num_modes, n_c)
    if circ.is_lossless:
        return fockdense.dense_evolve_state(state, circ)
    return fockdense.dense_evolve_density(state.to_density(), circ)


def _prob_record(circ, outcome, args, n_c, policy, gaussian_state) -> dict:
    start = time.perf_counter()
    record = {
        "outcome": list(outcome),
        "picture": args.picture,
        "backend": args.backend,
        "n_c": n_c,
        "max_bond": None,
        "truncation_weight": None,
        "flop_estimate": None,
    }
    if args.backend == "tn":
        p, stats = tnet.probability(circ, outcome, args.squeezing, n_c, policy, args.picture)
        record.update(
            max_bond=stats.max_bond_seen,
            truncation_weight=stats.truncation_weight,
            flop_estimate=stats.flop_estimate,
        )
    elif args.backend == "dense":
        p = fockdense.dense_probability(_dense_output(circ, args.squeezing, n_c), outcome)
    else:  # gaussian
        p = gauss.gbs_probability(gaussian_state, outcome)
    record["probability"] = p
    record["wall_time"] = time.perf_counter() - start
    return record


def cmd_prob(args) -> int:
    circ = circuit_mod.load_circuit(args.circuit)
    policy = tnet.TruncationPolicy(max_bond=args.max_bond, svd_threshold=args.svd_threshold)
    try:
        n_cs = [
            args.cutoff
            if args.cutoff is not None
            else _auto_cutoff(circ, args.squeezing, n, args.epsilon)
            for n in args.outcome
        ]
        # the covariance does not depend on the outcome: propagate it once
        gaussian_state = None
        if args.backend == "gaussian":
            gaussian_state = gauss.propagate_circuit(
                gauss.squeezed_vacuum_cov(args.squeezing, circ.num_modes), circ
            )
    except (UnsupportedConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def evaluate(outcome, n_c) -> dict:
        # one failed outcome becomes an error record; the rest of the batch runs
        try:
            return _prob_record(circ, outcome, args, n_c, policy, gaussian_state)
        except Exception as exc:
            return {"outcome": list(outcome), "error": str(exc)}

    fh, close = _open_output(args.output)
    try:
        if (args.workers or 1) > 1:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                records = list(pool.map(evaluate, args.outcome, n_cs))
        else:
            records = list(map(evaluate, args.outcome, n_cs))
        for record in records:
            fh.write(json.dumps(record) + "\n")
    finally:
        if close:
            fh.close()
    return 1 if any("error" in record for record in records) else 0


def cmd_cutoff(args) -> int:
    if args.sources is not None:
        sources = args.sources
    elif args.circuit:
        sources = circuit_mod.load_circuit(args.circuit).num_lossy_gates
    else:
        print("error: pass --sources or --circuit to fix the source count", file=sys.stderr)
        return 1
    try:
        policy = analysis.CutoffPolicy(
            gamma=args.gamma,
            num_sources=sources,
            num_modes=args.modes,
            r=args.squeezing,
            n_tilde=args.photons,
            epsilon=args.epsilon,
        )
        n_c, achieved = analysis.choose_cutoff(policy)
    except UnsupportedConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {"n_c": n_c, "delta": achieved, "epsilon": args.epsilon, "sources": sources}
        )
    )
    return 0


def cmd_scaling(args) -> int:
    modes = _parse_grid(args.modes, int)
    squeezings = [round(v, 12) for v in _parse_grid(args.squeezing, float)]
    fh, close = _open_output(args.output)
    try:
        analysis.write_scaling_report(fh, modes, squeezings)
    finally:
        if close:
            fh.close()
    return 0


def cmd_validate(args) -> int:
    circ = circuit_mod.load_circuit(args.circuit)
    totals = [int(x) for x in args.totals.split(",")]
    outcomes = [
        n for total in totals for n in analysis.outcomes_with_total(circ.num_modes, total)
    ]
    n_c = args.cutoff if args.cutoff is not None else max(max(totals), 1)
    policy = tnet.TruncationPolicy()

    columns: dict[str, list[float]] = {}
    columns["tn_heisenberg"] = [
        tnet.probability(circ, n, args.squeezing, n_c, policy, "heisenberg")[0]
        for n in outcomes
    ]
    if circ.is_lossless:
        columns["tn_schrodinger"] = [
            tnet.probability(circ, n, args.squeezing, n_c, policy, "schrodinger")[0]
            for n in outcomes
        ]
    state = _dense_output(circ, args.squeezing, n_c)
    columns["dense"] = [fockdense.dense_probability(state, n) for n in outcomes]
    # exact for any per-gate loss, so on a lossy file it exposes the cutoff bias
    gstate = gauss.propagate_circuit(
        gauss.squeezed_vacuum_cov(args.squeezing, circ.num_modes), circ
    )
    columns["gaussian"] = [gauss.gbs_probability(gstate, n) for n in outcomes]

    names = list(columns)
    worst = 0.0
    for a, b in itertools.combinations(names, 2):
        for x, y in zip(columns[a], columns[b]):
            worst = max(worst, abs(x - y))
    ok = worst <= args.tolerance
    print(
        json.dumps(
            {
                "circuit": args.circuit,
                "backends": names,
                "outcomes": len(outcomes),
                "n_c": n_c,
                "max_pairwise_difference": worst,
                "tolerance": args.tolerance,
                "ok": ok,
            }
        )
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbstn",
        description="Boson-sampling outcome probabilities via tensor networks, "
        "dense Fock evolution, and the Gaussian hafnian formula.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded brickwork circuit file")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.0, help="uniform per-gate loss")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("prob", help="compute outcome probabilities")
    p.add_argument("--circuit", required=True)
    p.add_argument(
        "--outcome",
        type=_parse_outcome,
        action="append",
        required=True,
        help="comma-separated photon counts; repeatable",
    )
    p.add_argument("--squeezing", type=_parse_squeezing, default=0.4)
    p.add_argument("--picture", choices=("heisenberg", "schrodinger"), default="heisenberg")
    p.add_argument("--backend", choices=("tn", "dense", "gaussian"), default="tn")
    p.add_argument("--cutoff", type=int, default=None, help="local cutoff n_c (default: auto)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--max-bond", type=int, default=None)
    p.add_argument("--svd-threshold", type=float, default=1e-12)
    p.add_argument(
        "--workers", type=int, default=None, help="evaluate the outcomes on this many threads"
    )
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("cutoff", help="recommend a local-dimension cutoff")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--squeezing", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--photons", type=int, required=True, help="target photon total")
    p.add_argument("--sources", type=int, default=None)
    p.add_argument("--circuit", default=None, help="count lossy gates from this file")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.set_defaults(func=cmd_cutoff)

    p = sub.add_parser("scaling", help="bond-bound comparison grid as CSV")
    p.add_argument("--modes", default="6:30:2", help="start:stop:step or comma list")
    p.add_argument("--squeezing", default="0.3:0.7:0.1")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("validate", help="cross-backend agreement on a circuit file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--squeezing", type=_parse_squeezing, default=0.4)
    p.add_argument("--totals", default="0,2", help="photon totals to enumerate")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
